import collections
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from cbdetect import Task, synth_fixture
from cbdetect.tuning import (
    Adam,
    AdapterState,
    MtlTrainer,
    SftTrainer,
    ToyNetConfig,
    ToyTokenizer,
    ToyTransformer,
    TuneConfig,
    TuningError,
    cross_entropy,
    last_unmasked_index,
    load_classifier,
    mtl_joint_loss,
    pairs_from_posts,
    pool_embedding,
    predict_logits,
    resolve_targets,
    save_checkpoint,
    write_metrics_log,
)
from cbdetect.tuning import network, training

SMALL = ToyNetConfig(vocab_size=32, d_model=8, n_layers=1, d_ff=16, seed=11)

# The sha256 pins of tuned bits, by the OpenBLAS kernel that gives them:
# each kernel sums in its own order, so one kernel's bytes need not be
# another's. All were recorded on one AVX-512 CPU: SkylakeX's as it runs,
# the others with OPENBLAS_CORETYPE set in the recording process only (this
# OpenBLAS runs Katmai when asked for Prescott). ``TestOtherBlasKernels``
# checks the others wherever the CPU can run them.
_BIT_PINS = {
    "predict_logits": {
        "SkylakeX": "e59d6c42ededd4fbc4d41e07550c545b0204d73c4d003a48961276738c6fb381",
        "Haswell": "d518970481df1b3320afb05f71436b964981b4ef4492c08a82aad5aebe6b9a27",
        "Sandybridge": "916718706b7cf56e9579e9f25c15f603697941cbe7b8b5bf0d9a599dd98c4567",
        "Katmai": "676ebc8160d9598ee9bad320a2c3f758a5b081e97f34a365494840791bdebb7d",
    },
    # checkpoints of a fixed SFT and MTL run on the small net
    "small": {
        "SkylakeX": {
            "sft": "737d62e1790becb47fb121e687c74bf38536d7500440ae45bc84a6abcb405587",
            "mtl": "d31446e88b91ac1bc1bd83b683d6cb7067e2f0c53fe538fa607df2b03e4bf7f2",
        },
        "Haswell": {
            "sft": "abc3c6361f7cb78e9699ca30d6fb40967ee3ec43ac827b5c876657044f8483c2",
            "mtl": "05f9c7f31dcfea4efcff6e30d86604d0168085bc1fa0e2afaa97da7786f7d9d6",
        },
        "Sandybridge": {
            "sft": "795c0cc34495ff506256e4e93f120b81df1e88ccf4e4c4a241dc7aa2adb8d533",
            "mtl": "a91645f7aef39dd2b1f03f3767b45168d85a3ee5d00ec3576736377f276dc167",
        },
        "Katmai": {
            "sft": "889f746836f02e92d28349753c2d8056c13107355b665bbc084f22b97adef3a0",
            "mtl": "862834e8ff8c3ae43b1b14f059446e8cd2d8e2d1baf7db9afae5c7ac7c18eed3",
        },
    },
    # the same on the default net, by target selector
    "attn": {
        "SkylakeX": {
            "sft": "6cba9cc0796b64bc88f512689d8512eaeeffdafcb7d8e89ca603625552dc8a32",
            "mtl": "70a4e9d3c346b0b2e8f0e4d2395263d81e9ff155e1983686ad9ca344e18ae052",
        },
        "Haswell": {
            "sft": "8ebb9bb5cb3d434beba0322f52bb75f993878eddd5ec2c09c7dbdc370c86fdbb",
            "mtl": "fe38618ec905393b9775fedcf6b0710a8fa2750b19bb5c895033a5c4fad44ad2",
        },
        "Sandybridge": {
            "sft": "43053ca00d0ef18ed3d5531bdacdbf809ef996869aa1033c998ab64a8da2facc",
            "mtl": "b120c95560ae97b8d42513d3f4ca1ec25286d067e0e095eeea31017b53881ad4",
        },
        "Katmai": {
            "sft": "da45e4047e238b20f06562d4509b4599206405e7492923236dc5e1641dd5e261",
            "mtl": "b201caab7632fe23dbc35b4992b562421cabb7a8f3fcf1bec6fd79c994b7455f",
        },
    },
    "layers.": {
        "SkylakeX": {
            "sft": "4ca773d9e5f6aaaae0ac8576767f70341a45db7009c9eee44dd9bfd63bf77cd5",
            "mtl": "81807b68124825713b481daebb18afcc4d02212c795e1817f91d65b4832c822c",
        },
        "Haswell": {
            "sft": "18c14a45f6e56b802717f4e47e3b6e95d88d36babd27798640cae5ed84adb1fb",
            "mtl": "8fb8fb44ec93febfce83f96aac290403fc59b815f0959d963dda173eb2707d18",
        },
        "Sandybridge": {
            "sft": "01a957841866062fc1d24d6fc94221125fcf2010dcbf99f865f9f9413b0f97e6",
            "mtl": "813f90776a9a7b75f47d4d0a87a29eceb0e778a0f498a2b6323f018917e3bf31",
        },
        "Katmai": {
            "sft": "01a957841866062fc1d24d6fc94221125fcf2010dcbf99f865f9f9413b0f97e6",
            "mtl": "813f90776a9a7b75f47d4d0a87a29eceb0e778a0f498a2b6323f018917e3bf31",
        },
    },
}


def _blas_kernel() -> str:
    """The OpenBLAS core numpy runs, read from numpy's bundled
    ``libscipy_openblas64_*.so``, or "unknown" where it cannot be read."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"
    )):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = ()
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def _pin(name: str):
    """The ``_BIT_PINS`` entry of ``name`` for the kernel this process runs;
    a kernel with none recorded fails, naming itself."""
    kernel, pins = _blas_kernel(), _BIT_PINS[name]
    if kernel not in pins:
        pytest.fail(f"no {name} pin for the {kernel} BLAS kernel (pinned: {sorted(pins)})")
    return pins[kernel]


@pytest.fixture
def base():
    return ToyTransformer(ToyNetConfig(seed=3))


@pytest.fixture
def agg_pairs():
    return pairs_from_posts(synth_fixture(4, Task.AGGRESSION, seed=1), Task.AGGRESSION)


@pytest.fixture
def cb_pairs():
    return pairs_from_posts(synth_fixture(4, Task.CYBERBULLYING, seed=2), Task.CYBERBULLYING)


class TestTokenizer:
    def test_stable_across_instances(self):
        a, b = ToyTokenizer(128), ToyTokenizer(128)
        assert a.encode("Covertly Aggressive post") == b.encode("covertly aggressive POST")

    def test_ids_follow_the_sha1_formula(self):
        words = ["covertly", "don't", "post42", "über", "naïve", "ça", "日本語", "ελληνικά"]
        for vocab_size in (128, 32):
            expected = [
                2 + int(hashlib.sha1(w.encode("utf-8")).hexdigest()[:8], 16) % (vocab_size - 2)
                for w in words
            ]
            for _ in range(2):  # memoized ids equal freshly hashed ones
                assert ToyTokenizer(vocab_size).encode(" ".join(words)) == expected

    def test_pinned_ids(self):
        text = "Covertly DON'T post42 über naïve ça 日本語 ελληνικά l'été"
        assert ToyTokenizer(128).encode(text) == [18, 124, 118, 120, 73, 64, 68, 83, 91]
        assert ToyTokenizer(32).encode(text) == [6, 16, 4, 18, 13, 16, 2, 5, 25]

    def test_word_memo_is_shared_and_bounded(self, monkeypatch):
        monkeypatch.setattr(network, "_WORD_IDS_MAX", 4)
        words = [f"memo{i}" for i in range(10)]
        expected = [
            2 + int(hashlib.sha1(w.encode("utf-8")).hexdigest()[:8], 16) % 95 for w in words
        ]
        first, second = ToyTokenizer(97), ToyTokenizer(97)
        assert network._WORD_IDS[97] is first._ids is second._ids
        for tokenizer in (first, second, first):
            assert tokenizer.encode(" ".join(words)) == expected
            assert len(network._WORD_IDS[97]) <= 4

    def test_empty_text_maps_to_unk(self):
        assert ToyTokenizer(128).encode("\U0001f600\U0001f600") == [ToyTokenizer.UNK]

    def test_batch_padding_and_mask(self):
        ids, mask = ToyTokenizer(128).batch_encode(["one two three", "one"])
        assert ids.shape == mask.shape == (2, 3)
        assert mask.tolist() == [[True, True, True], [True, False, False]]
        assert ids[1, 1] == ToyTokenizer.PAD


class TestAdapters:
    def test_zero_init_identity(self, base):
        ids, mask = base.tokenizer.batch_encode(["several words in here", "tiny"])
        before, _ = base.forward(ids, mask)
        state, _ = _untrained(base, TuneConfig(rank_r=8, seed=5))
        after, _ = base.forward(ids, mask, overrides=state.effective_weights(base.params))
        assert np.abs(after - before).max() <= 1e-6

    def test_rank_bound_after_training(self, base, agg_pairs):
        trainer = SftTrainer(
            base, Task.AGGRESSION, TuneConfig(rank_r=8, learning_rate=1e-2, seed=5)
        )
        for _ in range(25):
            trainer.step(agg_pairs)
        for name in trainer.adapters.targets:
            delta = trainer.adapters.delta(name)
            singular = np.linalg.svd(delta, compute_uv=False)
            assert singular[0] > 0
            assert (singular[8:] <= 1e-8 * singular[0]).all()

    def test_selector_matching_one_weight(self):
        config = TuneConfig(rank_r=2, target_layers="layers.0.attn.wq", seed=0)
        state, _ = _untrained(ToyTransformer(SMALL), config)
        assert state.targets == ["layers.0.attn.wq"]

    def test_selector_matching_nothing(self, base):
        with pytest.raises(TuningError, match="matches no attachable weight"):
            _untrained(base, TuneConfig(target_layers="conv"))

    def test_frozen_base_bitwise_after_100_steps(self, base, agg_pairs):
        snapshot = {k: v.copy() for k, v in base.params.items()}
        trainer = SftTrainer(
            base, Task.AGGRESSION, TuneConfig(rank_r=4, learning_rate=1e-2, seed=5)
        )
        for _ in range(100):
            trainer.step(agg_pairs)
        for key, value in snapshot.items():
            assert np.array_equal(value, base.params[key])


class TestPooling:
    def test_last_unmasked_position(self):
        hidden = np.arange(24, dtype=float).reshape(1, 4, 6)
        mask = np.array([[True, True, True, False]])
        assert np.array_equal(pool_embedding(hidden, mask)[0], hidden[0, 2])

    def test_unbatched_input_is_an_error(self):
        # a (T, d) sequence with a (T,) mask would otherwise index rows silently
        with pytest.raises(ValueError, match="batch, seq, d_model"):
            pool_embedding(np.zeros((4, 3)), np.array([True, True, False, False]))

    def test_fully_masked_is_an_error(self):
        hidden = np.zeros((1, 3, 2))
        with pytest.raises(ValueError, match="fully masked"):
            pool_embedding(hidden, np.zeros((1, 3), dtype=bool))

    def test_right_padded_batch_matches_unpadded_single(self, base):
        texts = ["a longer example with several tokens", "tiny one"]
        ids, mask = base.tokenizer.batch_encode(texts)
        hidden_batch, _ = base.forward(ids, mask)
        pooled_batch = pool_embedding(hidden_batch, mask)

        ids_single, mask_single = base.tokenizer.batch_encode([texts[1]])
        hidden_single, _ = base.forward(ids_single, mask_single)
        pooled_single = pool_embedding(hidden_single, mask_single)
        assert np.allclose(pooled_batch[1], pooled_single[0], rtol=0.0, atol=1e-12)


def _untrained(base, config, task=Task.AGGRESSION):
    """A trainer's adapters and head before its first step."""
    trainer = SftTrainer(base, task, config)
    return trainer.adapters, trainer.head


def _mixed_length_texts(max_len, n=24, seed=0):
    """Fixture texts mixed with ones longer than ``max_len``, emoji-only
    ones and one-word ones."""
    extras = [
        " ".join(f"word{i}" for i in range(max_len + 9)),
        "\U0001f600\U0001f621\U0001f600",
        "ok",
        "Ünïcödé wörds ça 日本語 and more words here",
    ]
    posts = synth_fixture(n, Task.CYBERBULLYING, seed=seed)
    return [extras[i // 5 % len(extras)] if i % 5 == 0 else p.text for i, p in enumerate(posts)]


def _predict_logits_digest():
    """sha256 of the logits the inference pass gives with adapters on every
    weight, over more rows than one chunk."""
    base = ToyTransformer(ToyNetConfig(seed=3))
    head = training.TaskHead(
        Task.CYBERBULLYING, np.random.default_rng(1).normal(size=(4, 16)), np.zeros(4)
    )
    texts = _mixed_length_texts(base.config.max_len, n=12, seed=4)
    assert len(texts) > training.PREDICT_CHUNK_ROWS
    logits = predict_logits(base, _random_adapters(base, seed=3), head, texts)
    return hashlib.sha256(logits.tobytes()).hexdigest()


def _random_adapters(base, seed):
    """Adapters whose Up factors are random, so the effective weights differ
    from the base ones."""
    state, _ = _untrained(base, TuneConfig(target_layers="layers", seed=seed))
    rng = np.random.default_rng(seed)
    for factors in state.factors.values():
        factors.up[...] = rng.normal(0.0, 0.3, factors.up.shape)
    return state


class TestPooledPass:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_equals_pooling_the_full_forward(self, n_layers):
        base = ToyTransformer(ToyNetConfig(n_layers=n_layers, seed=n_layers))
        texts = _mixed_length_texts(base.config.max_len)
        ids, mask = base.tokenizer.batch_encode(texts, base.config.max_len)
        assert mask.all(axis=1).any() and not mask.all()  # full rows and padded rows
        for overrides in (None, _random_adapters(base, seed=2).effective_weights(base.params)):
            hidden, _ = base.forward(ids, mask, overrides)
            expected = pool_embedding(hidden, mask)
            got, _ = base.forward_pooled(ids, mask, overrides)
            assert got.shape == (len(texts), base.config.d_model)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_fully_masked_row_is_the_same_error(self, base):
        ids, mask = base.tokenizer.batch_encode(["two words", "ok"])
        mask[1] = False
        hidden, _ = base.forward(ids, mask)
        with pytest.raises(ValueError, match="fully masked") as from_forward:
            pool_embedding(hidden, mask)
        with pytest.raises(ValueError, match="fully masked") as from_pooled:
            base.forward_pooled(ids, mask)
        assert str(from_pooled.value) == str(from_forward.value)

    def test_predict_logits_keeps_input_order(self, base):
        head = training.TaskHead(
            Task.CYBERBULLYING, np.random.default_rng(1).normal(size=(4, 16)), np.zeros(4)
        )
        adapters = _random_adapters(base, seed=3)
        texts = _mixed_length_texts(base.config.max_len, n=20, seed=4)
        texts += texts[:7]  # duplicated texts
        random.Random(5).shuffle(texts)
        assert len(texts) > training.PREDICT_CHUNK_ROWS
        logits = predict_logits(base, adapters, head, texts)
        one_by_one = np.vstack([predict_logits(base, adapters, head, [t]) for t in texts])
        np.testing.assert_allclose(logits, one_by_one, rtol=0, atol=1e-12)
        assert len(np.unique(logits.argmax(axis=1))) > 1  # the check is not vacuous

    def test_predict_logits_of_no_texts(self, base):
        adapters, head = _untrained(base, TuneConfig())
        logits = predict_logits(base, adapters, head, [])
        assert logits.shape == (0, 3)

    def test_predict_logits_bits(self):
        assert _predict_logits_digest() == _pin("predict_logits"), _blas_kernel()


class TestLosses:
    def test_uniform_logits_joint_loss(self):
        loss = mtl_joint_loss(np.zeros(3), 0, np.zeros(4), 2)
        assert loss == pytest.approx(math.log(3) + math.log(4), abs=1e-12)

    def test_sum_contract(self):
        # engineer logits with known per-task CE values 0.5 and 1.25
        logits_a = np.array([0.0, -10.0, -10.0])
        ce_a, _ = cross_entropy(logits_a, np.array([0]))
        logits_b = np.array([0.0, 1.0, 2.0, 3.0])
        ce_b, _ = cross_entropy(logits_b, np.array([1]))
        assert mtl_joint_loss(logits_a, 0, logits_b, 1) == pytest.approx(ce_a + ce_b, rel=1e-12)

    def test_additivity_against_independent_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            la = rng.normal(0, 2, 3)
            lb = rng.normal(0, 2, 4)
            ya, yb = rng.integers(0, 3), rng.integers(0, 4)

            def naive_ce(logits, y):
                probs = np.exp(logits) / np.exp(logits).sum()
                return -math.log(probs[y])

            expected = naive_ce(la, ya) + naive_ce(lb, yb)
            got = mtl_joint_loss(la, int(ya), lb, int(yb))
            assert abs(got - expected) / abs(expected) <= 1e-9

    def test_index_out_of_range(self):
        with pytest.raises(TuningError, match="out of range"):
            mtl_joint_loss(np.zeros(3), 5, np.zeros(4), 0)


class TestSftStep:
    def test_loss_decreases_below_initial_ln3(self, agg_pairs):
        base = ToyTransformer(ToyNetConfig(seed=0))
        trainer = SftTrainer(
            base, Task.AGGRESSION, TuneConfig(rank_r=8, learning_rate=1e-2, seed=2)
        )
        (initial,), _ = trainer.losses_and_grads(agg_pairs)
        assert initial == pytest.approx(math.log(3), abs=1e-12)
        last = None
        for _ in range(50):
            last = trainer.step(agg_pairs)
        assert last < initial

    def test_zero_learning_rate_leaves_adapters_unchanged(self, base, agg_pairs):
        trainer = SftTrainer(base, Task.AGGRESSION, TuneConfig(learning_rate=0.0, seed=2))
        before = {
            name: (f.down.copy(), f.up.copy())
            for name, f in trainer.adapters.factors.items()
        }
        trainer.step(agg_pairs)
        for name, (down, up) in before.items():
            assert np.array_equal(down, trainer.adapters.factors[name].down)
            assert np.array_equal(up, trainer.adapters.factors[name].up)

    def test_mixed_task_batch_rejected(self, base):
        posts = list(synth_fixture(1, Task.AGGRESSION, seed=1)) + list(
            synth_fixture(1, Task.CYBERBULLYING, seed=1)
        )
        with pytest.raises(TuningError, match="task"):
            pairs_from_posts(posts, Task.AGGRESSION)

    def test_empty_batch_rejected(self, base):
        trainer = SftTrainer(base, Task.AGGRESSION, TuneConfig(seed=2))
        with pytest.raises(TuningError, match="empty batch"):
            trainer.step([])

    def test_empty_pool_refused_before_any_step(self, base):
        trainer = SftTrainer(base, Task.AGGRESSION, TuneConfig(seed=2))
        with pytest.raises(TuningError, match="no aggression posts to train on"):
            trainer.train([])
        assert trainer.optimizer.t == 0

    def test_class_index_out_of_range_rejected(self, base):
        trainer = SftTrainer(base, Task.AGGRESSION, TuneConfig(seed=2))
        with pytest.raises(TuningError, match="class index out of range for 3 classes"):
            trainer.step([("a post", 1), ("another post", 3)])


class TestMtlStep:
    def test_joint_loss_at_step_zero(self, base, agg_pairs, cb_pairs):
        trainer = MtlTrainer(base, TuneConfig(seed=2))
        losses, _ = trainer.losses_and_grads(agg_pairs, cb_pairs)
        joint, (loss_agg, loss_cb) = sum(losses), losses
        assert joint == pytest.approx(math.log(3) + math.log(4), abs=1e-12)
        assert joint == pytest.approx(loss_agg + loss_cb, rel=1e-12)

    def test_head_gradient_separation(self, base, agg_pairs, cb_pairs):
        trainer = MtlTrainer(base, TuneConfig(learning_rate=1e-2, seed=2))
        # move off the zero point so gradients are generic
        for _ in range(3):
            trainer.step(agg_pairs, cb_pairs)
        _, joint_grads = trainer.losses_and_grads(agg_pairs, cb_pairs)

        from cbdetect.tuning.training import _branch, _encode_pairs

        # the aggression branch alone gives every aggression gradient of the
        # joint loss; the cyberbullying head gets its own
        agg = Task.AGGRESSION
        _, d_adapters, d_heads = training._tuned_state(base, trainer.config, [agg])
        d_adapters, d_head = d_adapters[agg], d_heads[agg]
        _branch(
            base, trainer.adapters[agg], trainer.heads[agg], _encode_pairs(base, agg_pairs, agg),
            d_adapters, d_head,
        )
        solo = training.tuned_arrays({agg: d_adapters}, {agg: d_head})
        for key, grad in solo.items():
            assert np.array_equal(joint_grads[key], grad), key
        assert "head.cyberbullying.weight" in joint_grads
        assert "head.cyberbullying.weight" not in solo

    def test_both_adapter_sets_move(self, base, agg_pairs, cb_pairs):
        trainer = MtlTrainer(base, TuneConfig(learning_rate=1e-2, seed=2))
        for _ in range(20):
            trainer.step(agg_pairs, cb_pairs)
        for task in (Task.AGGRESSION, Task.CYBERBULLYING):
            state = trainer.adapters[task]
            assert max(np.linalg.norm(state.delta(name)) for name in state.targets) > 0

    def test_empty_batch_rejected(self, base, agg_pairs):
        trainer = MtlTrainer(base, TuneConfig(seed=2))
        with pytest.raises(TuningError, match="empty batch"):
            trainer.step(agg_pairs, [])

    @pytest.mark.parametrize(
        "agg, cb, task",
        [(0, 3, "aggression"), (3, 0, "cyberbullying"), (0, 0, "aggression")],
        ids=["aggression", "cyberbullying", "both"],
    )
    def test_empty_pool_refused_before_any_step(self, base, agg, cb, task):
        trainer = MtlTrainer(base, TuneConfig(seed=2))
        posts_agg = synth_fixture(1, Task.AGGRESSION, seed=1)[:agg]
        posts_cb = synth_fixture(1, Task.CYBERBULLYING, seed=2)[:cb]
        with pytest.raises(TuningError, match=f"no {task} posts to train on"):
            trainer.train(posts_agg, posts_cb)
        assert trainer.optimizer.t == 0


def _worst_gradient_error(net_config: ToyNetConfig, tune_config: TuneConfig) -> tuple[float, float]:
    """Worst relative and worst absolute gap between analytic and
    central-difference gradients of the joint MTL loss, over every trainable
    parameter."""
    base = ToyTransformer(net_config)
    trainer = MtlTrainer(base, tune_config)
    rng = np.random.default_rng(99)
    for arr in trainer.optimizer.params.values():
        arr += rng.normal(0, 0.05, arr.shape)

    pairs_a = pairs_from_posts(synth_fixture(2, Task.AGGRESSION, seed=1), Task.AGGRESSION)
    pairs_c = pairs_from_posts(
        synth_fixture(2, Task.CYBERBULLYING, seed=2), Task.CYBERBULLYING
    )
    _, grads = trainer.losses_and_grads(pairs_a, pairs_c)

    step = 1e-5
    worst_rel = worst_abs = 0.0
    for key, arr in trainer.optimizer.params.items():
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + step
            plus = sum(trainer.losses_and_grads(pairs_a, pairs_c)[0])
            arr[idx] = original - step
            minus = sum(trainer.losses_and_grads(pairs_a, pairs_c)[0])
            arr[idx] = original
            finite = (plus - minus) / (2 * step)
            analytic = grads[key][idx]
            gap = abs(analytic - finite)
            worst_rel = max(worst_rel, gap / max(abs(analytic), abs(finite), 1e-8))
            worst_abs = max(worst_abs, gap)
    return worst_rel, worst_abs


# Where the checks of forward_pooled against forward run: the adapter
# selectors of the gradient check, and the (selector, fixture) of each
# training run
_GRADIENT_SELECTORS = ("attn", "mlp", "layers.1.", "layers.0.attn.wv")
_TRAINING_RUNS = (("attn", "varied"), ("layers.", "varied"), ("attn", "one-row"))


class TestGradientCheck:
    # The relative bound alone would pass an absolute error of 3e-5 on the
    # largest gradients (about 0.3); the central differences themselves are
    # off by about 6e-11.
    def test_analytic_matches_central_differences(self):
        tune = TuneConfig(rank_r=2, learning_rate=1e-3, seed=7)
        worst_rel, worst_abs = _worst_gradient_error(SMALL, tune)
        assert worst_rel <= 1e-4
        assert worst_abs <= 1e-9

    # Two layers, so gradients cross a layer boundary. "layers." matches every
    # attachable weight. On the one-layer net that selector meets a 4e-8
    # gradient whose central difference is 5e-4 off, relative, from round-off
    # alone: the einsum reference backward scores the same there.
    @pytest.mark.parametrize("selector", ["mlp", "layers."])
    def test_targeted_weights_match_central_differences(self, selector):
        net = ToyNetConfig(vocab_size=32, d_model=8, n_layers=2, d_ff=16, seed=11)
        tune = TuneConfig(rank_r=2, learning_rate=1e-3, target_layers=selector, seed=7)
        worst_rel, worst_abs = _worst_gradient_error(net, tune)
        assert worst_rel <= 1e-4
        assert worst_abs <= 1e-9

    @pytest.mark.parametrize(
        "selector, pooled",
        [
            pytest.param(selector, pooled, id=f"{selector}-forward_pooled" if pooled else selector)
            for pooled in (False, True)
            for selector in _GRADIENT_SELECTORS
        ],
    )
    def test_backward_returns_only_targeted_gradients(self, base, agg_pairs, selector, pooled):
        if pooled:
            _check_pooled_gradients(base, agg_pairs, selector)
            return
        state, ids, mask, overrides = _adapted_batch(base, agg_pairs, selector)
        hidden, cache = base.forward(ids, mask, overrides=overrides)
        d_hidden = np.random.default_rng(2).normal(size=hidden.shape)
        grads = base.backward(cache, d_hidden, state.factors)
        assert sorted(grads) == sorted(state.targets)
        reference = _reference_backward(base, cache, d_hidden)
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, reference[name], rtol=1e-10, atol=1e-14)
        assert base.backward(cache, d_hidden, ()) == {}


def _adapted_batch(base, pairs, selector):
    """Adapters on the ``selector`` weights with a non-zero delta, the
    batch of ``pairs``' texts, and the effective weights."""
    state, _ = _untrained(base, TuneConfig(target_layers=selector))
    rng = np.random.default_rng(1)
    for f in state.factors.values():
        f.up[:] = rng.normal(0.0, 0.1, f.up.shape)
    ids, mask = base.tokenizer.batch_encode([text for text, _ in pairs])
    return state, ids, mask, state.effective_weights(base.params)


def _check_pooled_gradients(base, pairs, selector):
    """``forward_pooled`` gives ``pool_embedding(forward(...))``, and a (B, d)
    gradient through its cache gives the gradients of the full cache fed it
    at the pooled tokens, each within a relative 1e-10: the two passes sum
    in different orders. The gradients are exactly the targeted weights'."""
    state, ids, mask, overrides = _adapted_batch(base, pairs, selector)
    hidden, cache = base.forward(ids, mask, overrides=overrides)
    d_pooled = np.random.default_rng(2).normal(size=(len(ids), base.config.d_model))
    full = base.backward(cache, _scattered_to_pooled_tokens(d_pooled, mask), state.factors)
    pooled_hidden, cache = base.forward_pooled(ids, mask, overrides=overrides)
    np.testing.assert_allclose(pooled_hidden, pool_embedding(hidden, mask), rtol=1e-10, atol=1e-14)
    grads = base.backward(cache, d_pooled, state.factors)
    assert sorted(grads) == sorted(state.targets)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, full[name], rtol=1e-10, atol=1e-14, err_msg=name)
    assert base.backward(cache, d_pooled, ()) == {}


def _scattered_to_pooled_tokens(d_pooled, mask):
    """The pooling's adjoint: a (B, d) gradient placed at each row's last
    unmasked token of a zero (B, T, d) one."""
    d_hidden = np.zeros(mask.shape + d_pooled.shape[1:])
    d_hidden[np.arange(len(mask)), last_unmasked_index(mask)] = d_pooled
    return d_hidden


def _through_full_forward(backward):
    """A ``(forward_pooled, backward)`` pair that runs the full ``forward``,
    pools it with ``pool_embedding`` and hands ``backward`` the pooled
    gradient scattered back to (B, T, d)."""

    def forward_pooled(self, ids, mask, overrides=None):
        hidden, cache = self.forward(ids, mask, overrides)
        return pool_embedding(hidden, mask), {**cache, "mask": mask}

    def backward_of_pooled(self, cache, d_pooled, targets):
        return backward(self, cache, _scattered_to_pooled_tokens(d_pooled, cache["mask"]), targets)

    return forward_pooled, backward_of_pooled


# The optimizer step as it was before the flat-buffer Adam, the target-only
# backward and the cached GELU CDF, kept to pin the current step against it.
class _ReferenceAdam:
    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.t = 0

    def step(self, grads):
        self.t += 1
        for key, grad in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_gelu_grad(x):
    """d/dx of x * 0.5 * (1 + tanh(u)), u = c * (x + a * x**3), through
    tanh' = 1 - tanh**2, with no use of the forward cache."""
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    t = np.tanh(c * (x + a * x**3))
    return 0.5 * (1.0 + t) + x * 0.5 * (1.0 - t * t) * c * (1.0 + 3.0 * a * x**2)


def _reference_backward(self, cache, d_hidden, targets=None):
    """Every weight's gradient through einsum contractions. The ``embed``
    gradient it also built is left out: the cache no longer holds the token
    ids, and ``embed`` never hosts an adapter, so no update ever read it."""
    scale = cache["scale"]
    dx = d_hidden
    grads = {}
    for layer in reversed(cache["layers"]):
        w, names = layer["w"], layer["names"]
        dh = dx @ w["w2"]
        grads[names["w2"]] = np.einsum("btd,btf->df", dx, layer["h"])
        dh_pre = dh * _reference_gelu_grad(layer["h_pre"])
        grads[names["w1"]] = np.einsum("btf,btd->fd", dh_pre, layer["x_attn"])
        dx_attn = dx + dh_pre @ w["w1"]

        d_mixed = dx_attn @ w["wo"]
        grads[names["wo"]] = np.einsum("btp,btq->pq", dx_attn, layer["mixed"])
        attn = layer["attn"]
        d_attn = d_mixed @ layer["v"].transpose(0, 2, 1)
        dv = attn.transpose(0, 2, 1) @ d_mixed
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores = d_scores * scale
        dq = d_scores @ layer["k"]
        dk = d_scores.transpose(0, 2, 1) @ layer["q"]

        x_in = layer["x"]
        grads[names["wq"]] = np.einsum("btp,btq->pq", dq, x_in)
        grads[names["wk"]] = np.einsum("btp,btq->pq", dk, x_in)
        grads[names["wv"]] = np.einsum("btp,btq->pq", dv, x_in)
        dx = dx_attn + dq @ w["wq"] + dk @ w["wk"] + dv @ w["wv"]
    return grads


def _flat_arrays(arrays, flat_order):
    """``arrays`` copied into one ``FlatArrays``, keyed in their own order
    and laid out in ``flat_order``."""
    flat, views = training.flat_views([arrays[key].shape for key in flat_order])
    views = dict(zip(flat_order, views))
    for key, view in views.items():
        view[...] = arrays[key]
    return training.FlatArrays({key: views[key] for key in arrays}, flat)


_ADAM_SHAPES = {"vector": (3,), "matrix": (4, 5), "cube": (2, 3, 2), "scalar": (), "wide": (16, 8)}
# the flat order of the Adam tests' parameters, not their name order
_ADAM_LAYOUT = ["wide", "scalar", "vector", "cube", "matrix"]


class TestStepMatchesReference:
    def test_flat_adam_is_bitwise_equal_to_per_array_adam(self):
        """Parameters laid out in another order than their names, as the
        trainers' buffer is, and gradients in the same layout."""
        rng = np.random.default_rng(4)
        shapes = _ADAM_SHAPES
        values = {key: rng.normal(size=shape) for key, shape in shapes.items()}
        params = _flat_arrays(values, _ADAM_LAYOUT)
        ref_params = {key: value.copy() for key, value in values.items()}
        flat, ref = Adam(params, 1e-2), _ReferenceAdam(ref_params, 1e-2)
        for _ in range(60):
            grads = _flat_arrays(
                {key: rng.normal(size=shape) for key, shape in shapes.items()}, _ADAM_LAYOUT
            )
            flat.step(grads)
            ref.step(grads)
        for key in shapes:
            assert np.array_equal(params[key], ref_params[key])

    def test_adam_refuses_anything_but_its_own_layout(self):
        """A plain dict of parameters, and gradients as a plain dict or in
        another layout, raise before any parameter or moment moves."""
        rng = np.random.default_rng(5)
        values = {key: rng.normal(size=shape) for key, shape in _ADAM_SHAPES.items()}
        kept = {key: value.copy() for key, value in values.items()}
        with pytest.raises(TuningError, match="FlatArrays"):
            Adam(values, 1e-2)
        for key, value in values.items():
            assert np.array_equal(value, kept[key])

        params = _flat_arrays(values, _ADAM_LAYOUT)
        optimizer = Adam(params, 1e-2)
        optimizer.step(_flat_arrays(values, _ADAM_LAYOUT))
        before = [params.flat.copy(), optimizer.m.copy(), optimizer.v.copy()]
        for grads in (
            dict(values),
            _flat_arrays(values, list(_ADAM_SHAPES)),
            _flat_arrays(values, list(reversed(_ADAM_LAYOUT))),
        ):
            with pytest.raises(TuningError, match="layout"):
                optimizer.step(grads)
            assert optimizer.t == 1
            for now, then in zip((params.flat, optimizer.m, optimizer.v), before, strict=True):
                assert np.array_equal(now, then)

    def test_gelu_from_cached_gate_is_bitwise_the_tanh_formula(self, base):
        ids, mask = base.tokenizer.batch_encode(["several words in here", "tiny", "x " * 40])
        _, cache = base.forward(ids, mask)
        c = np.sqrt(2.0 / np.pi)
        for layer in cache["layers"]:
            x = layer["h_pre"]
            gate = 0.5 * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
            assert np.array_equal(layer["h"], x * gate)

    def test_tanh_gelu_stays_near_the_erf_gelu(self):
        """The tanh form approximates x * Phi(x) to within 5e-4 everywhere;
        its largest gap, about 4.73e-4, sits near |x| = 2.70."""
        grid = np.linspace(-10.0, 10.0, 200_001)
        tanh_form = grid * network._gelu_gate(grid)
        erf_form = [x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in grid.tolist()]
        gap = np.abs(tanh_form - np.array(erf_form))
        assert gap.max() <= 5e-4
        assert 2.6 < abs(grid[gap.argmax()]) < 2.8

    def test_sft_and_mtl_training_match_reference(self, monkeypatch):
        base = ToyTransformer(ToyNetConfig(seed=0))
        config = TuneConfig(learning_rate=1e-2, epochs=3, seed=3)
        agg = synth_fixture(6, Task.AGGRESSION, seed=1)
        cb = synth_fixture(5, Task.CYBERBULLYING, seed=2)
        texts = [post.text for post in agg + cb]

        def train():
            sft = SftTrainer(base, Task.CYBERBULLYING, config)
            mtl = MtlTrainer(base, config)
            return sft, sft.train(cb), mtl, mtl.train(agg, cb)

        sft, sft_log, mtl, mtl_log = train()
        forward_pooled, backward = _through_full_forward(_reference_backward)
        with monkeypatch.context() as patch:
            patch.setattr(ToyTransformer, "forward_pooled", forward_pooled)
            patch.setattr(ToyTransformer, "backward", backward)
            patch.setattr(training, "Adam", _ReferenceAdam)
            ref_sft, ref_sft_log, ref_mtl, ref_mtl_log = train()
        assert isinstance(ref_sft.optimizer, _ReferenceAdam)
        assert len(sft_log) == len(mtl_log) == 9

        for new, ref in ((sft, ref_sft), (mtl, ref_mtl)):
            assert list(new.optimizer.params) == list(ref.optimizer.params)
            for key, value in new.optimizer.params.items():
                np.testing.assert_allclose(value, ref.optimizer.params[key], rtol=1e-10, atol=0)
        for new_log, ref_log in ((sft_log, ref_sft_log), (mtl_log, ref_mtl_log)):
            for new_record, ref_record in zip(new_log, ref_log, strict=True):
                for key, value in new_record.items():
                    assert value == pytest.approx(ref_record[key], rel=1e-10)

        def logits(sft, mtl):
            return [predict_logits(sft.base, sft.adapters, sft.head, texts)] + [
                predict_logits(mtl.base, mtl.adapters[t], mtl.heads[t], texts) for t in Task
            ]

        new_logits, ref_logits = logits(sft, mtl), logits(ref_sft, ref_mtl)
        for new, ref in zip(new_logits, ref_logits, strict=True):
            np.testing.assert_allclose(new, ref, rtol=1e-10, atol=0)
            assert np.array_equal(new.argmax(axis=1), ref.argmax(axis=1))

    @pytest.mark.parametrize(
        "selector, fixture",
        _TRAINING_RUNS,
        ids=["attn", "layers.", "one-row"],
    )
    def test_training_matches_the_full_forward_run(self, selector, fixture):
        _check_training_run(selector, fixture)


def _check_training_run(selector, fixture):
    """A two-layer SFT and MTL run through ``forward_pooled`` logs and tunes
    what the same runs through the full ``forward`` and ``backward`` do,
    within a relative 1e-10: the two passes sum in different orders.

    "varied": SFT on 8 cyberbullying posts and MTL on 9 aggression and 8
    cyberbullying posts, in batches of 4. "one-row": SFT steps 9 posts in
    batches of 4, the last of one row; MTL's cyberbullying pool is one post,
    so every branch of it is one row."""
    base = ToyTransformer(ToyNetConfig(seed=0))
    config = TuneConfig(
        learning_rate=1e-2, batch_size=4, epochs=2, target_layers=selector, seed=3
    )
    agg = _varied_posts(Task.AGGRESSION, 3, seed=1)
    if fixture == "one-row":
        cb = _varied_posts(Task.CYBERBULLYING, 1, seed=2)[:1]
        sft_task, sft_posts, steps = Task.AGGRESSION, agg, (6, 6)
    else:
        cb = _varied_posts(Task.CYBERBULLYING, 2, seed=2)
        sft_task, sft_posts, steps = Task.CYBERBULLYING, cb, (4, 6)

    def train():
        sft = SftTrainer(base, sft_task, config)
        mtl = MtlTrainer(base, config)
        return [(sft, sft.train(sft_posts)), (mtl, mtl.train(agg, cb))]

    runs = train()
    forward_pooled, backward = _through_full_forward(ToyTransformer.backward)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ToyTransformer, "forward_pooled", forward_pooled)
        patch.setattr(ToyTransformer, "backward", backward)
        ref_runs = train()

    assert len(agg) == 9
    for (new, log), (ref, ref_log), n_steps in zip(runs, ref_runs, steps, strict=True):
        assert len(log) == n_steps
        for new_record, ref_record in zip(log, ref_log, strict=True):
            assert list(new_record) == list(ref_record)
            for key, value in new_record.items():
                assert value == pytest.approx(ref_record[key], rel=1e-10)
        assert list(new.optimizer.params) == list(ref.optimizer.params)
        for key, value in new.optimizer.params.items():
            np.testing.assert_allclose(value, ref.optimizer.params[key], rtol=1e-10, atol=0)
        np.testing.assert_allclose(new.optimizer.m, ref.optimizer.m, rtol=1e-10, atol=0)
        np.testing.assert_allclose(new.optimizer.v, ref.optimizer.v, rtol=1e-10, atol=0)


# OpenBLAS kernels that other x86-64 CPUs pick, each with the CPU flag it
# needs as /proc/cpuinfo names it (SSE3 is "pni"); OPENBLAS_CORETYPE forces
# one when the library loads
_OTHER_KERNELS = {"Haswell": "avx2", "SandyBridge": "avx", "Prescott": "pni"}


def _pooled_vs_full_checks():
    """Every tolerance check between ``forward_pooled`` and ``forward`` in
    this module, on the fixtures their tests use."""
    base = ToyTransformer(ToyNetConfig(seed=3))
    pairs = pairs_from_posts(synth_fixture(4, Task.AGGRESSION, seed=1), Task.AGGRESSION)
    for selector in _GRADIENT_SELECTORS:
        _check_pooled_gradients(base, pairs, selector)
    for selector, fixture in _TRAINING_RUNS:
        _check_training_run(selector, fixture)


class TestOtherBlasKernels:
    def test_pooled_pass_matches_the_full_forward_on_each_kernel(self, tmp_path):
        """The pooled-vs-full tolerance checks, run in a child process per
        kernel of ``_OTHER_KERNELS`` that this CPU can run, all at once.
        Each kernel sums in its own order, so a bitwise claim can hold on
        one and fail on another; these claims hold on every one. Each child
        also checks the kernel's own ``_BIT_PINS``."""
        if platform.machine() not in ("x86_64", "AMD64") or _blas_kernel() == "unknown":
            pytest.skip("the kernels are forced through numpy's x86-64 OpenBLAS")
        cpuinfo = Path("/proc/cpuinfo")
        flags = set()
        if cpuinfo.exists():
            for line in cpuinfo.read_text().splitlines():
                if line.startswith("flags"):
                    flags.update(line.partition(":")[2].split())
        kernels = [kernel for kernel, flag in _OTHER_KERNELS.items() if flag in flags]
        if not kernels:
            pytest.skip("this CPU runs none of the kernels")
        here = Path(__file__).resolve().parent
        code = (
            f"import sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]; "
            "from pathlib import Path; import test_tuning; "
            "test_tuning._pooled_vs_full_checks(); "
            "test_tuning._pinned_bits_checks(Path(sys.argv[1])); "
            "print(test_tuning._blas_kernel())"
        )
        children = {
            kernel: subprocess.Popen(
                [sys.executable, "-c", code, str(tmp_path / kernel)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            )
            for kernel in kernels
        }
        ran = {}
        try:
            for kernel, child in children.items():
                out, err = child.communicate(timeout=120)
                assert child.returncode == 0, f"{kernel} kernel: {err[-2000:]}"
                ran[kernel] = out.strip()
        finally:  # a failed or timed-out child leaves none running, no pipe open
            for child in children.values():
                child.kill()
                child.communicate()
        # each child ran its own kernel (OpenBLAS reports Prescott's as Katmai)
        assert len(set(ran.values())) == len(ran), ran


# one stack of square attention weights; stacks of three shapes; one stack
# of non-square weights
_SAVED_SELECTORS = ["attn", "layers.", "mlp.w2"]
# (rank, batch size) of the pinned default-net runs, by target selector:
# the benchmark's shape (rank 8, batches of 8), and every weight of both
# layers (square projections, 32x16 w1 and 16x32 w2)
_DEFAULT_NET_RUNS = {"attn": (8, 8), "layers.": (4, 4)}


class TestCheckpoint:
    def test_round_trip_identical(self, tmp_path, base, agg_pairs):
        trainer = SftTrainer(
            base, Task.AGGRESSION, TuneConfig(rank_r=4, learning_rate=1e-2, seed=5)
        )
        for _ in range(10):
            trainer.step(agg_pairs)
        path = save_checkpoint(
            tmp_path / "ckpt.npz",
            base.config,
            trainer.config,
            {Task.AGGRESSION: trainer.adapters},
            {Task.AGGRESSION: trainer.head},
        )
        bundle = load_classifier(path)
        assert bundle.base.config == base.config
        assert bundle.tune_config == trainer.config
        loaded = bundle.adapters[Task.AGGRESSION]
        for name, factors in trainer.adapters.factors.items():
            assert np.array_equal(loaded.factors[name].down, factors.down)
            assert np.array_equal(loaded.factors[name].up, factors.up)
        assert np.array_equal(bundle.heads[Task.AGGRESSION].weight, trainer.head.weight)

    @pytest.mark.parametrize("selector", _SAVED_SELECTORS)
    def test_round_trip_is_bitwise_by_name(self, tmp_path, selector):
        """Each tuned array comes back with the trainer's bytes under its
        own name, whatever order the tasks were passed in, and the loaded
        classifier computes the trainer's logits bit for bit."""
        base, saved = _saved_runs(tmp_path, selector)
        texts = [post.text for post in _varied_posts(Task.CYBERBULLYING, 2, seed=3)]
        for run, (path, adapters, heads) in saved.items():
            loaded = load_classifier(path)
            trained = training.tuned_arrays(adapters, heads)
            reloaded = training.tuned_arrays(loaded.adapters, loaded.heads)
            assert sorted(reloaded) == sorted(trained), run
            for name, array in trained.items():
                assert reloaded[name].dtype == array.dtype, name
                assert reloaded[name].shape == array.shape, name
                assert reloaded[name].tobytes() == array.tobytes(), name
            for task in adapters:
                logits = predict_logits(base, adapters[task], heads[task], texts)
                assert predict_logits(
                    loaded.base, loaded.adapters[task], loaded.heads[task], texts
                ).tobytes() == logits.tobytes(), (run, task)

    @pytest.mark.parametrize("selector", _SAVED_SELECTORS)
    def test_load_reads_two_arrays(self, tmp_path, monkeypatch, selector):
        """A load reads the header and the one flat vector, whatever the
        number of tasks and targets."""
        saved = _saved_runs(tmp_path, selector)[1]
        reads = []
        original = np.lib.format.read_array

        def counting(*args, **kwargs):
            reads.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "read_array", counting)
        for run, (path, _, _) in saved.items():
            reads.clear()
            load_classifier(path)
            assert len(reads) == 2, run

    @pytest.mark.parametrize("selector", _SAVED_SELECTORS)
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, selector):
        """Apart from rebuilding the base network from its seed, writing and
        loading a checkpoint draw nothing: every tuned float comes from
        the caller's arrays or the file."""
        base, saved = _saved_runs(tmp_path, selector)
        seeded = np.random.default_rng

        def refusing(*args, **kwargs):
            if sys._getframe(1).f_code is not network.ToyTransformer.__init__.__code__:
                raise AssertionError("drew random numbers outside the base network")
            return seeded(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", refusing)
        for run, (path, adapters, heads) in saved.items():
            tune = load_classifier(path).tune_config
            again = save_checkpoint(tmp_path / "again.npz", base.config, tune, adapters, heads)
            for loaded in (load_classifier(path), load_classifier(again)):
                assert _digests_by_name(loaded.adapters, loaded.heads) == _digests_by_name(
                    adapters, heads
                ), run

    def test_config_dicts_round_trip(self):
        tune = TuneConfig(
            rank_r=3, learning_rate=0.25, batch_size=5, epochs=4,
            target_layers="layers.0.attn.wq", seed=9,
        )
        model = ToyNetConfig(vocab_size=40, d_model=6, n_layers=3, d_ff=12, max_len=20, seed=7)
        assert TuneConfig.from_dict(tune.to_dict()) == tune
        assert ToyNetConfig.from_dict(model.to_dict()) == model

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rank_r", 2.7),
            ("rank_r", "2"),
            ("epochs", True),
            ("learning_rate", "nan"),
            ("learning_rate", float("nan")),
            ("learning_rate", float("-inf")),
            ("target_layers", ["attn"]),
        ],
    )
    def test_tune_config_from_dict_takes_only_values_of_the_declared_type(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}: expected "):
            TuneConfig.from_dict({key: value})

    def test_tune_config_rejects_a_nan_learning_rate(self):
        with pytest.raises(TuningError, match="learning_rate must be >= 0"):
            TuneConfig(learning_rate=float("nan"))

    @pytest.mark.parametrize(
        "field, value",
        [("vocab_size", 2), ("d_model", 0), ("n_layers", 0), ("d_ff", 0), ("max_len", 0)],
    )
    def test_net_config_rejects_degenerate_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            ToyNetConfig(**{field: value})
        ToyNetConfig(**{field: value + 1})  # the bound itself is valid

    def test_checkpoint_header_bytes(self, tmp_path):
        tune = TuneConfig(rank_r=2, learning_rate=0.5, batch_size=3, epochs=4, seed=6)
        state, head = _untrained(ToyTransformer(SMALL), tune)
        path = save_checkpoint(
            tmp_path / "c.npz", SMALL, tune, {Task.AGGRESSION: state}, {Task.AGGRESSION: head}
        )
        with np.load(path) as archive:
            meta = str(archive["__meta__"])
        assert meta == (
            '{"format_version": 2, "model": {"d_ff": 16, "d_model": 8, "max_len": 32, '
            '"n_layers": 1, "seed": 11, "vocab_size": 32}, "tasks": ["aggression"], '
            '"tune": {"batch_size": 3, "epochs": 4, "learning_rate": 0.5, "rank_r": 2, '
            '"seed": 6, "target_layers": "attn"}}'
        )

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda meta, arrays: ([meta], arrays), "expected a JSON object, got list"),
            (
                lambda meta, arrays: ({**meta, "tune": {**meta["tune"], "rank": 2}}, arrays),
                "unknown TuneConfig keys: ['rank']",
            ),
            (
                lambda meta, arrays: ({**meta, "tasks": ["aggression", "cyberbullying"]}, arrays),
                "tuned: float64 of shape (155,), expected float64 of shape (319,)",
            ),
            (
                lambda meta, arrays: (meta, {"tuned": arrays["tuned"][:-1]}),
                "tuned: float64 of shape (154,), expected float64 of shape (155,)",
            ),
            (
                lambda meta, arrays: (meta, {"tuned": arrays["tuned"].reshape(5, 31)}),
                "tuned: float64 of shape (5, 31), expected float64 of shape (155,)",
            ),
            (
                lambda meta, arrays: (meta, {"tuned": arrays["tuned"].astype(np.float32)}),
                "tuned: float32 of shape (155,), expected float64 of shape (155,)",
            ),
            (
                lambda meta, arrays: (meta, {**arrays, "head.cyberbullying.bias": np.zeros(4)}),
                "arrays ['head.cyberbullying.bias', 'tuned'], expected ['tuned']",
            ),
            (lambda meta, arrays: (meta, {}), "arrays [], expected ['tuned']"),
        ],
        ids=[
            "header-array", "unknown-key", "task-missing", "one-float-short", "shape",
            "float32", "unexpected-array", "tuned-missing",
        ],
    )
    def test_checkpoint_that_does_not_decode(self, tmp_path, edit, reason):
        tune = TuneConfig(rank_r=2, seed=6)
        state, head = _untrained(ToyTransformer(SMALL), tune)
        good = save_checkpoint(
            tmp_path / "good.npz", SMALL, tune, {Task.AGGRESSION: state}, {Task.AGGRESSION: head}
        )
        with np.load(good) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta, arrays = edit(json.loads(str(arrays.pop("__meta__"))), arrays)
        path = tmp_path / "bad.npz"
        np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(TuningError, match=re.escape(f"{path}: {reason}")):
            load_classifier(path)

    def test_format_1_checkpoint_is_refused(self, tmp_path):
        """A file of format 1, which stored each tuned array under its own
        name, is refused by its version before its arrays are read."""
        tune = TuneConfig(rank_r=2, seed=6)
        state, head = _untrained(ToyTransformer(SMALL), tune)
        meta = {
            "format_version": 1, "model": SMALL.to_dict(), "tune": tune.to_dict(),
            "tasks": ["aggression"],
        }
        path = tmp_path / "v1.npz"
        np.savez(
            path, __meta__=np.array(json.dumps(meta, sort_keys=True)),
            **training.tuned_arrays({Task.AGGRESSION: state}, {Task.AGGRESSION: head}),
        )
        with pytest.raises(TuningError) as refused:
            load_classifier(path)
        assert str(refused.value) == f"{path}: unsupported checkpoint format: 1"

    def test_writer_refuses_a_task_without_its_head(self, tmp_path):
        tune = TuneConfig(rank_r=2, seed=6)
        state, _ = _untrained(ToyTransformer(SMALL), tune)
        path = tmp_path / "headless.npz"
        with pytest.raises(
            TuningError, match=re.escape(f"{path}: missing key 'head.aggression.weight'")
        ):
            save_checkpoint(path, SMALL, tune, {Task.AGGRESSION: state}, {})
        assert not path.exists()

    def test_writer_refuses_adapters_of_another_rank(self, tmp_path):
        base = ToyTransformer(SMALL)
        state, head = _untrained(base, TuneConfig(rank_r=4, seed=6))
        path = tmp_path / "rank.npz"
        with pytest.raises(
            TuningError,
            match=re.escape(f"{path}: adapter.aggression.layers.0.attn.wq.down: shape (4, 8)"),
        ):
            save_checkpoint(
                path, SMALL, TuneConfig(rank_r=2, seed=6),
                {Task.AGGRESSION: state}, {Task.AGGRESSION: head},
            )
        assert not path.exists()

    def test_failed_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        """A write that fails part-way leaves the file at the path as it
        was, and no temporary file beside it."""
        tune = TuneConfig(rank_r=2, seed=6)
        state, head = _untrained(ToyTransformer(SMALL), tune)
        head.bias[:] = [1.0, 2.0, 3.0]
        path = save_checkpoint(
            tmp_path / "c.npz", SMALL, tune, {Task.AGGRESSION: state}, {Task.AGGRESSION: head}
        )
        before = path.read_bytes()

        def failing_savez(file, **arrays):
            file.write(b"PK\x03\x04 part of an archive")
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", failing_savez)
        head.bias[:] = 0.0
        with pytest.raises(OSError, match="No space left on device"):
            save_checkpoint(path, SMALL, tune, {Task.AGGRESSION: state}, {Task.AGGRESSION: head})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz"]
        loaded = load_classifier(path)
        assert loaded.heads[Task.AGGRESSION].bias.tolist() == [1.0, 2.0, 3.0]

    def test_trained_checkpoint_contents(self, tmp_path):
        """Pins what a fixed SFT run and a fixed MTL run write: the header,
        then each array's name, dtype, shape and bytes in file order. The
        zip container itself is not hashed, so numpy's writer can change."""
        assert _small_net_digests(tmp_path) == _pin("small"), _blas_kernel()

    @pytest.mark.parametrize("selector", _DEFAULT_NET_RUNS)
    def test_trained_default_net_checkpoint_contents(self, tmp_path, selector):
        """The same pin on the default two-layer net, over posts of varied
        length, some cut at ``max_len``."""
        assert _default_net_digests(tmp_path, selector) == _pin(selector), _blas_kernel()

    def test_rebuilt_base_matches(self, tmp_path, base):
        rebuilt = ToyTransformer(base.config)
        for key, value in base.params.items():
            assert np.array_equal(value, rebuilt.params[key])

    def test_metrics_log_line_count(self, tmp_path, base):
        posts = synth_fixture(4, Task.AGGRESSION, seed=1)
        trainer = SftTrainer(
            base, Task.AGGRESSION, TuneConfig(batch_size=4, epochs=3, seed=5)
        )
        records = trainer.train(posts)
        path = write_metrics_log(records, tmp_path / "metrics.jsonl")
        assert len(path.read_text().splitlines()) == len(records) == 9


def _small_net_digests(tmp_path):
    config = TuneConfig(rank_r=2, learning_rate=1e-2, batch_size=3, epochs=2, seed=4)
    agg = synth_fixture(2, Task.AGGRESSION, seed=1)
    cb = synth_fixture(2, Task.CYBERBULLYING, seed=2)
    return _trained_checkpoint_digests(tmp_path, SMALL, config, agg, cb)


def _default_net_digests(tmp_path, selector):
    rank, batch_size = _DEFAULT_NET_RUNS[selector]
    config = TuneConfig(
        rank_r=rank, learning_rate=1e-2, batch_size=batch_size, epochs=2,
        target_layers=selector, seed=5,
    )
    agg = _varied_posts(Task.AGGRESSION, 3, seed=1)
    cb = _varied_posts(Task.CYBERBULLYING, 3, seed=2)
    return _trained_checkpoint_digests(tmp_path, ToyNetConfig(seed=0), config, agg, cb)


def _pinned_bits_checks(tmp_path):
    """Every tuned-bit pin of this module, against the running kernel's."""
    kernel = _blas_kernel()
    assert _predict_logits_digest() == _pin("predict_logits"), f"predict_logits on {kernel}"
    assert _small_net_digests(tmp_path) == _pin("small"), f"small on {kernel}"
    for selector in _DEFAULT_NET_RUNS:
        digests = _default_net_digests(tmp_path, selector)
        assert digests == _pin(selector), f"{selector} on {kernel}"


def _trained_checkpoint_digests(tmp_path, net_config, tune_config, agg, cb):
    """sha256 of the checkpoints an SFT run on ``cb`` and an MTL run on
    ``agg`` and ``cb`` write: the header, then each array's name, dtype,
    shape and bytes in file order."""
    base = ToyTransformer(net_config)
    sft = SftTrainer(base, Task.CYBERBULLYING, tune_config)
    sft.train(cb)
    mtl = MtlTrainer(base, tune_config)
    mtl.train(agg, cb)
    paths = {
        "sft": save_checkpoint(
            tmp_path / "sft.npz", net_config, tune_config,
            {Task.CYBERBULLYING: sft.adapters}, {Task.CYBERBULLYING: sft.head},
        ),
        "mtl": save_checkpoint(
            tmp_path / "mtl.npz", net_config, tune_config, mtl.adapters, mtl.heads
        ),
    }
    digests = {}
    for run, path in paths.items():
        digest = hashlib.sha256()
        with np.load(path) as archive:
            assert archive.files[0] == "__meta__"
            digest.update(str(archive["__meta__"]).encode("utf-8"))
            for name in archive.files[1:]:
                array = archive[name]
                digest.update(f"\n{name} {array.dtype.str} {array.shape}\n".encode("ascii"))
                digest.update(array.tobytes())
        digests[run] = digest.hexdigest()
    return digests


def _saved_runs(tmp_path, selector):
    """The default net, and an SFT and an MTL run on it saved with their
    tasks passed in reversed order: (path, adapters, heads) per run."""
    base = ToyTransformer(ToyNetConfig(seed=0))
    config = TuneConfig(
        rank_r=2, learning_rate=1e-2, batch_size=4, target_layers=selector, seed=5
    )
    agg = _varied_posts(Task.AGGRESSION, 2, seed=1)
    cb = _varied_posts(Task.CYBERBULLYING, 2, seed=2)
    sft = SftTrainer(base, Task.CYBERBULLYING, config)
    sft.train(cb)
    mtl = MtlTrainer(base, config)
    mtl.train(agg, cb)
    runs = {
        "sft": ({Task.CYBERBULLYING: sft.adapters}, {Task.CYBERBULLYING: sft.head}),
        "mtl": (mtl.adapters, mtl.heads),
    }
    saved = {}
    for run, (adapters, heads) in runs.items():
        adapters, heads = dict(reversed(adapters.items())), dict(reversed(heads.items()))
        path = save_checkpoint(tmp_path / f"{run}.npz", base.config, config, adapters, heads)
        saved[run] = (path, adapters, heads)
    return base, saved


def _digests_by_name(adapters, heads):
    return {
        name: hashlib.sha256(array.tobytes()).hexdigest()
        for name, array in training.tuned_arrays(adapters, heads).items()
    }


def _varied_posts(task, n_per_class, seed):
    """Fixture posts padded to varied lengths, some beyond max_len."""
    return [
        dataclasses.replace(post, text=post.text + " filler" * (i * 7 % 41))
        for i, post in enumerate(synth_fixture(n_per_class, task, seed=seed))
    ]


class TestTunedBuffer:
    def test_given_adapters_are_the_ones_trained(self, base, agg_pairs):
        config = TuneConfig(rank_r=4, learning_rate=1e-2, seed=5)
        trainer = SftTrainer(base, Task.AGGRESSION, config)
        state = trainer.adapters
        rng = np.random.default_rng(config.seed)  # the first task draws from the seed itself
        down = {name: rng.normal(0.0, 0.01, f.down.shape) for name, f in state.factors.items()}
        params = trainer.optimizer.params
        for name, f in state.factors.items():
            assert np.array_equal(f.down, down[name])  # seeded in the buffer as on its own
            assert f.down is params[f"adapter.aggression.{name}.down"]
            assert f.up is params[f"adapter.aggression.{name}.up"]
        for _ in range(3):  # the zero head passes no gradient back on the first step
            trainer.step(agg_pairs)
        # every Up moved off zero
        assert all(np.linalg.norm(state.delta(name)) for name in state.targets)

    @pytest.mark.parametrize("selector", ["attn", "layers.", "mlp.w2"])
    def test_optimizer_tunes_the_tuned_arrays_in_order(self, base, selector):
        config = TuneConfig(rank_r=2, target_layers=selector, seed=5)
        targets = resolve_targets(base, selector)
        sft = SftTrainer(base, Task.AGGRESSION, config)
        mtl = MtlTrainer(base, config)
        for trainer, tasks, named in (
            (sft, ["aggression"],
             training.tuned_arrays({Task.AGGRESSION: sft.adapters}, {Task.AGGRESSION: sft.head})),
            (mtl, ["aggression", "cyberbullying"], training.tuned_arrays(mtl.adapters, mtl.heads)),
        ):
            params = trainer.optimizer.params
            assert list(params) == [
                f"adapter.{task}.{target}.{factor}"
                for task in tasks for target in targets for factor in ("down", "up")
            ] + [f"head.{task}.{part}" for task in tasks for part in ("weight", "bias")]
            for key, array in params.items():
                assert array is named[key]
            # the gradients come in the parameters' layout, read with no copy
            assert trainer._grads.layout == params.layout
            # the arrays cover the one flat vector exactly, each element once
            params.flat[:] = np.arange(params.flat.size)
            covered = np.sort(np.concatenate([array.ravel() for array in params.values()]))
            assert np.array_equal(covered, np.arange(params.flat.size))


class TestWorkPerStep:
    """What one training step runs, counted: one effective-weight build and
    one backward pass per task branch, one optimizer step per step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for owner, name in (
            (AdapterState, "effective_weights"), (ToyTransformer, "backward"), (Adam, "step"),
        ):
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("selector", ["attn", "layers.", "layers.1.mlp"])
    def test_calls_per_step(self, calls, selector):
        base = ToyTransformer(ToyNetConfig(seed=0))
        config = TuneConfig(batch_size=4, epochs=2, target_layers=selector, seed=3)
        agg = _varied_posts(Task.AGGRESSION, 3, seed=1)
        cb = _varied_posts(Task.CYBERBULLYING, 2, seed=2)
        steps = len(SftTrainer(base, Task.CYBERBULLYING, config).train(cb))
        assert calls == {"effective_weights": steps, "backward": steps, "step": steps}
        calls.clear()
        steps = len(MtlTrainer(base, config).train(agg, cb))
        assert calls == {"effective_weights": 2 * steps, "backward": 2 * steps, "step": steps}


class TestBatchSchedule:
    def test_sft_and_mtl_run_one_schedule(self, monkeypatch):
        """Batches of 4 over 2 epochs: each pool in contiguous batches, the
        last one short, as many steps as the largest pool has batches, and
        a pool with fewer batches starts its own over. Each epoch feeds
        every post of the largest pool exactly once."""
        base = ToyTransformer(ToyNetConfig(seed=0))
        config = TuneConfig(batch_size=4, epochs=2, seed=3)
        agg = synth_fixture(3, Task.AGGRESSION, seed=1)
        cb = synth_fixture(2, Task.CYBERBULLYING, seed=2)[:5]
        assert (len(agg), len(cb)) == (9, 5)
        fed = []  # (task, the token ids of each row) per branch
        original = training._branch

        def recording(base, adapters, head, batch, *grads):
            fed.append((head.task, [tuple(ids) for ids, _ in batch]))
            return original(base, adapters, head, batch, *grads)

        monkeypatch.setattr(training, "_branch", recording)
        max_len = base.config.max_len
        post_of = {tuple(base.tokenizer.encode(p.text)[:max_len]): p.id for p in agg}
        assert len(post_of) == len(agg)

        def batches(task):
            return [rows for fed_task, rows in fed if fed_task is task]

        def check_aggression():
            assert [len(rows) for rows in batches(Task.AGGRESSION)] == [4, 4, 1] * 2
            for epoch in (batches(Task.AGGRESSION)[:3], batches(Task.AGGRESSION)[3:]):
                ids = [post_of[row] for rows in epoch for row in rows]
                assert sorted(ids) == sorted(post.id for post in agg)

        SftTrainer(base, Task.AGGRESSION, config).train(agg)
        check_aggression()
        fed.clear()
        MtlTrainer(base, config).train(agg, cb)
        check_aggression()
        cb_batches = batches(Task.CYBERBULLYING)
        assert [len(rows) for rows in cb_batches] == [4, 1, 4] * 2
        assert cb_batches[2] == cb_batches[0] and cb_batches[5] == cb_batches[3]


class TestTokenizeOnce:
    def test_one_encode_per_post_per_train_call(self, monkeypatch):
        agg = _varied_posts(Task.AGGRESSION, 3, seed=1)
        cb = _varied_posts(Task.CYBERBULLYING, 2, seed=2)
        base = ToyTransformer(ToyNetConfig(seed=0))
        config = TuneConfig(batch_size=4, epochs=3, seed=3)
        encoded = []
        original = ToyTokenizer.encode
        monkeypatch.setattr(
            ToyTokenizer, "encode", lambda self, text: encoded.append(text) or original(self, text)
        )
        SftTrainer(base, Task.CYBERBULLYING, config).train(cb)
        assert sorted(encoded) == sorted(post.text for post in cb)
        encoded.clear()
        MtlTrainer(base, config).train(agg, cb)
        assert sorted(encoded) == sorted(post.text for post in agg + cb)

    def test_train_equals_a_loop_of_text_steps(self):
        agg = _varied_posts(Task.AGGRESSION, 3, seed=1)
        cb = _varied_posts(Task.CYBERBULLYING, 3, seed=2)
        base = ToyTransformer(ToyNetConfig(seed=0))
        config = TuneConfig(learning_rate=1e-2, batch_size=4, epochs=2, seed=3)
        size = config.batch_size

        sft, ref_sft = (SftTrainer(base, Task.CYBERBULLYING, config) for _ in range(2))
        losses = [record["loss"] for record in sft.train(cb)]
        rng = random.Random(config.seed)
        ref_losses = []
        for _ in range(config.epochs):
            order = pairs_from_posts(cb, Task.CYBERBULLYING)
            rng.shuffle(order)
            for start in range(0, len(order), size):
                ref_losses.append(ref_sft.step(order[start : start + size]))
        assert losses == ref_losses

        mtl, ref_mtl = (MtlTrainer(base, config) for _ in range(2))
        joints = [record["joint_loss"] for record in mtl.train(agg, cb)]
        rng = random.Random(config.seed)
        ref_joints = []
        for _ in range(config.epochs):
            own = []  # each task's shuffled pool in contiguous batches
            for posts, task in ((agg, Task.AGGRESSION), (cb, Task.CYBERBULLYING)):
                order = pairs_from_posts(posts, task)
                rng.shuffle(order)
                own.append([order[start : start + size] for start in range(0, len(order), size)])
            for b in range(max(len(own[0]), len(own[1]))):
                ref_joints.append(
                    ref_mtl.step(own[0][b % len(own[0])], own[1][b % len(own[1])])[0]
                )
        assert joints == ref_joints

        for new, ref in ((sft, ref_sft), (mtl, ref_mtl)):
            for key, value in new.optimizer.params.items():
                assert np.array_equal(value, ref.optimizer.params[key]), key


class TestImport:
    def test_importing_the_cli_loads_no_scipy(self):
        # a fresh interpreter, so modules this test run imported do not count
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import cbdetect.cli; "
            "sys.exit('scipy' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:] or "importing cbdetect.cli loaded scipy"

    def test_heap_helper_calls_mallopt_only_where_libc_has_it(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        network._keep_freed_heap()
        # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
        assert calls == [(-3, 8 << 20), (-1, 16 << 20)]
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        network._keep_freed_heap()
        assert len(calls) == 2
