"""Acceptance suite: one test per criterion at its stated tolerance.

Every run prints a per-criterion PASS/FAIL line (with measured values) in
the terminal summary, regardless of capture settings. Tolerances are
pinned here, not in helper code.
"""

import dataclasses
import enum
import json
import math
import random
import sys
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_DETAILS

from cbdetect import (
    AggressionLabel,
    ConfusionMatrix,
    ExperimentSpec,
    Method,
    Split,
    SplitSpec,
    Task,
    build_confusion,
    class_name_stub,
    compute_metrics,
    constant_stub,
    label_space,
    load_template,
    make_stub,
    render_enriched,
    render_grid,
    reference_reports,
    run_baseline,
    run_epp,
    run_from_manifest,
    split_corpus,
    synth_fixture,
)
from cbdetect.tuning import (
    MtlTrainer,
    SftTrainer,
    ToyNetConfig,
    ToyTransformer,
    TuneConfig,
    cross_entropy,
    mtl_joint_loss,
    pairs_from_posts,
)

ENRICHMENT_SENTENCE = (
    "This post was predicted as {name}. "
    "Based on this, classify the following content for cyberbullying."
)


def _pass(number: int, message: str) -> None:
    line = f"criterion {number}: {message}"
    print(f"PASS  {line}")
    ACCEPTANCE_DETAILS[sys._getframe(1).f_code.co_name] = line


def brute_force_metrics(counts):
    n = len(counts)
    total = sum(map(sum, counts))
    per_class = []
    for c in range(n):
        tp = counts[c][c]
        fp = sum(counts[g][c] for g in range(n)) - tp
        fn = sum(counts[c][p] for p in range(n)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    accuracy = sum(counts[i][i] for i in range(n)) / total
    macro = tuple(sum(m[i] for m in per_class) / n for i in range(3))
    return per_class, accuracy, macro


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 6)
        counts = [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]
        if sum(map(sum, counts)) == 0:
            counts[rng.randrange(n)][rng.randrange(n)] = 1
        space = enum.IntEnum("Space", {f"C{i}": i for i in range(n)})
        cm = ConfusionMatrix(
            label_space=space,
            counts=np.array(counts, dtype=int),
            failures_by_gold=np.zeros(n, dtype=int),
        )
        report = compute_metrics(cm)
        per_class, accuracy, (macro_p, macro_r, macro_f1) = brute_force_metrics(counts)
        diffs = [
            abs(report.accuracy - accuracy),
            abs(report.macro_precision - macro_p),
            abs(report.macro_recall - macro_r),
            abs(report.macro_f1 - macro_f1),
        ]
        for i, lab in enumerate(space):
            metrics = report.per_class[lab]
            diffs += [
                abs(metrics.precision - per_class[i][0]),
                abs(metrics.recall - per_class[i][1]),
                abs(metrics.f1 - per_class[i][2]),
            ]
        worst = max(worst, max(diffs))
        assert max(diffs) <= 1e-12

    # worked example: gold [A,A,B,B], pred [A,B,B,B]
    class AB(enum.IntEnum):
        A = 0
        B = 1

    cm = build_confusion(
        [(AB.A, AB.A), (AB.A, AB.B), (AB.B, AB.B), (AB.B, AB.B)], AB
    )
    report = compute_metrics(cm)
    assert abs(report.per_class[AB.A].f1 - 2 / 3) <= 1e-12
    assert abs(report.per_class[AB.B].f1 - 0.8) <= 1e-12
    assert abs(report.macro_f1 - (2 / 3 + 0.8) / 2) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(1, f"1000 random matrices match the brute-force oracle "
             f"(worst abs diff {worst:.2e}), worked example exact, {elapsed:.2f}s < 5s")


def _random_post_texts(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    words = ["thread", "reply", "mods", "vibes", "lol", "screenshot", "context", "hot", "take"]
    emoji = ["\U0001f600", "\U0001f621", "\U0001f480", "❤️", "\U0001f4a5"]
    texts = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(3, 12)):
            roll = rng.random()
            if roll < 0.15:
                pieces.append(rng.choice(emoji))
            elif roll < 0.25:
                pieces.append("\n")
            else:
                pieces.append(rng.choice(words))
        text = " ".join(pieces).strip()
        texts.append(text or "placeholder")
    return texts


def test_criterion_2_enrichment_byte_exactness():
    started = time.perf_counter()
    template = load_template("enriched_v1", Task.CYBERBULLYING)
    base_post = synth_fixture(1, Task.CYBERBULLYING, seed=0)[0]
    texts = _random_post_texts(50, seed=99)
    for text in texts:
        post = dataclasses.replace(base_post, text=text)
        rendered = {
            lab: render_enriched(post, lab, template).rendered_text
            for lab in AggressionLabel
        }
        tails = set()
        for lab, body in rendered.items():
            prefix = ENRICHMENT_SENTENCE.format(name=lab.display_name)
            assert body.startswith(prefix + "\n\n")
            assert text in body
            head, tail = body.split(". Based on this,", maxsplit=1)
            assert head == f"This post was predicted as {lab.display_name}"
            tails.add(tail)
        # pairwise: everything outside the display-name span is identical
        assert len(tails) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(2, f"3 labels x 50 randomized posts (newlines, emoji): exact prefix, "
             f"verbatim post, display-name-only diffs, {elapsed:.2f}s < 1s")


def test_criterion_3_epp_end_to_end_on_stubs():
    started = time.perf_counter()
    posts = synth_fixture(3, Task.CYBERBULLYING, seed=1)
    assert len(posts) == 12
    spec = ExperimentSpec(
        method=Method.EPP,
        task=Task.CYBERBULLYING,
        backends=(
            constant_stub("Covertly Aggressive", backend_id="agg-stage"),
            class_name_stub(Task.CYBERBULLYING, backend_id="cb-stage"),
        ),
    )
    result = run_epp(posts, spec)
    assert len(result.predictions) == 12
    assert [p.post_id for p in result.predictions] == [post.id for post in posts]
    assert all(p.aggression_annotation is not None for p in result.predictions)
    cm = build_confusion(result.predictions, label_space(Task.CYBERBULLYING))
    assert compute_metrics(cm).macro_f1 == 1.0

    # inject exactly one stage-1 parse failure
    target = posts[7]
    failing_stage1 = make_stub(
        [(target.text, "%%%"), ("", "Covertly Aggressive")], backend_id="agg-stage"
    )
    injected = run_epp(
        posts,
        ExperimentSpec(
            method=Method.EPP,
            task=Task.CYBERBULLYING,
            backends=(failing_stage1, class_name_stub(Task.CYBERBULLYING, backend_id="cb-stage")),
        ),
    )
    flagged = [p for p in injected.predictions if p.stage1_fallback]
    assert len(flagged) == 1 and flagged[0].post_id == target.id
    assert flagged[0].aggression_annotation is AggressionLabel.NAG
    diffs = [
        (before, after)
        for before, after in zip(result.predictions, injected.predictions)
        if after.post_id != target.id
        and (
            before.predicted is not after.predicted
            or before.failure != after.failure
            or before.stage1_fallback != after.stage1_fallback
        )
    ]
    assert diffs == []
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(3, f"12 stub predictions in order, all annotated, macro-F1 1.0; "
             f"single injected fallback isolated, {elapsed:.2f}s < 5s")


def test_criterion_4_tuning_invariants():
    started = time.perf_counter()

    # zero-init identity
    base = ToyTransformer(ToyNetConfig(seed=3))
    ids, mask = base.tokenizer.batch_encode(
        ["a post with a number of tokens", "short one", "and a third"]
    )
    before, _ = base.forward(ids, mask)
    trainer = SftTrainer(
        base, Task.AGGRESSION, TuneConfig(rank_r=8, learning_rate=1e-2, seed=5)
    )
    state = trainer.adapters
    after, _ = base.forward(ids, mask, overrides=state.effective_weights(base.params))
    identity_dev = float(np.abs(after - before).max())
    assert identity_dev <= 1e-6

    # train, then check rank bound and frozen base
    snapshot = {k: v.copy() for k, v in base.params.items()}
    pairs = pairs_from_posts(synth_fixture(4, Task.AGGRESSION, seed=1), Task.AGGRESSION)
    for _ in range(100):
        trainer.step(pairs)
    for name in state.targets:
        singular = np.linalg.svd(state.delta(name), compute_uv=False)
        assert (singular[8:] <= 1e-8 * singular[0]).all()
    for key, value in snapshot.items():
        assert np.array_equal(value, base.params[key])

    # joint-loss additivity to 1e-9 relative
    rng = np.random.default_rng(12)
    worst_additivity = 0.0
    for _ in range(100):
        la, lb = rng.normal(0, 2, 3), rng.normal(0, 2, 4)
        ya, yb = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        joint = mtl_joint_loss(la, ya, lb, yb)
        ce_a, _ = cross_entropy(la, np.array([ya]))
        ce_b, _ = cross_entropy(lb, np.array([yb]))
        rel = abs(joint - (ce_a + ce_b)) / abs(ce_a + ce_b)
        worst_additivity = max(worst_additivity, rel)
        assert rel <= 1e-9

    # analytic vs central finite differences
    small = ToyNetConfig(vocab_size=32, d_model=8, n_layers=1, d_ff=16, seed=11)
    mtl = MtlTrainer(ToyTransformer(small), TuneConfig(rank_r=2, learning_rate=1e-3, seed=7))
    noise = np.random.default_rng(99)
    for arr in mtl.optimizer.params.values():
        arr += noise.normal(0, 0.05, arr.shape)
    pairs_a = pairs_from_posts(synth_fixture(2, Task.AGGRESSION, seed=1), Task.AGGRESSION)
    pairs_c = pairs_from_posts(synth_fixture(2, Task.CYBERBULLYING, seed=2), Task.CYBERBULLYING)
    _, grads = mtl.losses_and_grads(pairs_a, pairs_c)
    step = 1e-5
    worst_grad = 0.0
    for key, arr in mtl.optimizer.params.items():
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + step
            plus = sum(mtl.losses_and_grads(pairs_a, pairs_c)[0])
            arr[idx] = original - step
            minus = sum(mtl.losses_and_grads(pairs_a, pairs_c)[0])
            arr[idx] = original
            finite = (plus - minus) / (2 * step)
            rel = abs(grads[key][idx] - finite) / max(abs(grads[key][idx]), abs(finite), 1e-8)
            worst_grad = max(worst_grad, rel)
    assert worst_grad <= 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(4, f"zero-init dev {identity_dev:.1e}; rank <= 8; frozen base exact after "
             f"100 steps; additivity {worst_additivity:.1e} <= 1e-9; gradcheck "
             f"{worst_grad:.1e} <= 1e-4; {elapsed:.1f}s < 60s")


def test_criterion_5_toy_learnability():
    posts = synth_fixture(10, Task.AGGRESSION, seed=4)
    pairs = pairs_from_posts(posts, Task.AGGRESSION)
    base = ToyTransformer(ToyNetConfig(seed=0))
    trainer = SftTrainer(
        base, Task.AGGRESSION, TuneConfig(rank_r=8, learning_rate=1e-2, seed=2)
    )
    (initial,), _ = trainer.losses_and_grads(pairs)
    assert abs(initial - math.log(3)) <= 1e-3
    losses = [trainer.step(pairs) for _ in range(200)]
    assert min(losses) < 0.5

    pairs_cb = pairs_from_posts(synth_fixture(10, Task.CYBERBULLYING, seed=5), Task.CYBERBULLYING)
    mtl = MtlTrainer(ToyTransformer(ToyNetConfig(seed=0)), TuneConfig(rank_r=8, learning_rate=1e-2, seed=2))
    joint_initial = sum(mtl.losses_and_grads(pairs, pairs_cb)[0])
    assert abs(joint_initial - (math.log(3) + math.log(4))) <= 1e-3
    joint_losses = [mtl.step(pairs, pairs_cb)[0] for _ in range(200)]
    assert min(joint_losses) < 1.5
    _pass(5, f"SFT: ln(3)={initial:.4f} -> {losses[-1]:.4f} within 200 steps (< 0.5); "
             f"MTL: {joint_initial:.4f} -> {joint_losses[-1]:.4f} (< 1.5)")


def test_criterion_6_reference_grid_rendering():
    reports = reference_reports()
    grid = render_grid(reports)

    def row_values(model, task):
        return [
            f"{reports[(model, method, task)].macro_f1:.2f}"
            for method in ("zero_shot", "few_shot", "lora_sft", "mtl", "epp")
        ]

    assert row_values("Gemma-2-2B", "aggression") == ["0.54", "0.56", "0.67", "0.51", "0.67"]
    assert row_values("Gemma-2-2B", "cyberbullying") == ["0.63", "0.83", "0.84", "0.90", "0.99"]

    # every printed cell appears in the rendered row, methods left to right
    for task, expected in (
        ("aggression", ["0.54", "0.56", "0.67", "0.51", "0.67"]),
        ("cyberbullying", ["0.63", "0.83", "0.84", "0.90", "0.99"]),
    ):
        line = next(l for l in grid.text.splitlines() if l.startswith("Gemma-2-2B"))
        block = line.split("|")[1 if task == "aggression" else 2]
        found = [cell.strip("*") for cell in block.split()]
        assert found == expected

    # the aggression stage is reused, never retrained: LoRA cell == EPP cell
    for model in ("Gemma-2-2B", "Gemma-2-9B", "Gemma-3-4B"):
        assert (
            reports[(model, "lora_sft", "aggression")].macro_f1
            == reports[(model, "epp", "aggression")].macro_f1
        )
    _pass(6, "reference grid reproduces the published rows exactly; "
             "aggression LoRA and EPP cells identical for every model")


def test_criterion_7_manifest_reproducibility(tmp_path):
    posts = synth_fixture(3, Task.CYBERBULLYING, seed=1)
    specs = {
        "zero_shot": ExperimentSpec(
            method=Method.ZERO_SHOT,
            task=Task.CYBERBULLYING,
            backends=(class_name_stub(Task.CYBERBULLYING),),
        ),
        "epp": ExperimentSpec(
            method=Method.EPP,
            task=Task.CYBERBULLYING,
            backends=(
                constant_stub("Overtly Aggressive", backend_id="agg"),
                class_name_stub(Task.CYBERBULLYING, backend_id="cb"),
            ),
        ),
    }
    for name, spec in specs.items():
        first = run_baseline(posts, spec, out_dir=tmp_path / name / "a") \
            if spec.method is not Method.EPP else run_epp(posts, spec, out_dir=tmp_path / name / "a")
        manifest = json.loads((first.run_dir / "manifest.json").read_text())
        second = run_from_manifest(manifest, posts, out_dir=tmp_path / name / "b")
        assert (first.run_dir / "predictions.jsonl").read_bytes() == (
            second.run_dir / "predictions.jsonl"
        ).read_bytes()
        assert first.run_id == second.run_id
    _pass(7, "zero-shot and epp stub runs rerun from their manifests byte-identically")


def test_criterion_8_corpus_splits():
    big = synth_fixture(2500, Task.CYBERBULLYING, seed=6)
    assert len(big) == 10_000
    splits = split_corpus(big, SplitSpec(0.75, 2000, 0.25, seed=13))
    sizes = (
        len(splits[Split.TRAIN]),
        len(splits[Split.VALIDATION]),
        len(splits[Split.TEST]),
    )
    assert sizes == (7500, 2000, 500)
    ids = [p.id for chunk in splits.values() for p in chunk]
    assert len(set(ids)) == len(ids) == 10_000
    assert set(ids) == {p.id for p in big}

    hundred = synth_fixture(34, Task.AGGRESSION, seed=6)[:100]
    splits = split_corpus(hundred, SplitSpec(0.8, 0.1, 0.1, seed=7))
    sizes_small = (
        len(splits[Split.TRAIN]),
        len(splits[Split.VALIDATION]),
        len(splits[Split.TEST]),
    )
    assert sizes_small == (80, 10, 10)
    _pass(8, f"D6 policy on 10,000 -> {sizes} disjoint; 80/10/10 on 100 -> {sizes_small}")
