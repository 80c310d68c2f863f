"""Adapter training: independent single-task tuning and joint multi-task.

Both trainers run one epoch loop on one step core: one branch per task,
in task order, then one optimizer step over every tuned array, each keyed
by its ``tuned_arrays`` name. Independent tuning is the one-task case. The
joint objective is the plain sum of the two per-task cross-entropies, one
per classification head. Because each head and each adapter set only
feeds its own term, the joint-loss gradient w.r.t. a head equals that
task's own cross-entropy gradient. Heads start at zero so step-0 logits
are uniform: ln(3) for aggression, ln(4) for cyberbullying.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .._config import write_lines
from ..corpus import LabeledPost
from ..labels import Task, labels_in_order
from .lora import AdapterState, FactorStack, TuneConfig, TuningError, resolve_targets
from .network import ToyTransformer, pad_ids

Pair = tuple[str, int]
# (token ids cut to the network's max_len, class index)
EncodedPair = tuple[list[int], int]
# Rows per inference pass. Rows run in token-length order and each chunk
# pads only to its own longest row; on the 240 test posts of the benchmark's
# toy-tune-epp workload, chunks of 64, 128 and 240 rows ran slower than 32.
PREDICT_CHUNK_ROWS = 32


@dataclass
class TaskHead:
    """Linear classification head over the pooled final-layer embedding."""

    task: Task
    weight: np.ndarray  # (n_classes, d_model)
    bias: np.ndarray  # (n_classes,)

    def logits(self, pooled: np.ndarray) -> np.ndarray:
        return pooled @ self.weight.T + self.bias


def tuned_arrays(
    adapters: Mapping[Task, AdapterState], heads: Mapping[Task, TaskHead]
) -> dict[str, np.ndarray]:
    """Every tuned array by name: each task's adapter factors, then each head.

    ``adapter.<task>.<target>.down`` and ``.up`` for the targets in order,
    then ``head.<task>.weight`` and ``.bias``. The optimizer, the gradients
    and the checkpoint file all key arrays by these names.
    """
    arrays = {}
    for task, state in adapters.items():
        for target, factors in state.factors.items():
            arrays[f"adapter.{task.value}.{target}.down"] = factors.down
            arrays[f"adapter.{task.value}.{target}.up"] = factors.up
    for task, head in heads.items():
        arrays[f"head.{task.value}.weight"] = head.weight
        arrays[f"head.{task.value}.bias"] = head.bias
    return arrays


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    targets = np.atleast_1d(np.asarray(targets, dtype=int))
    n, n_classes = logits.shape
    if targets.shape != (n,):
        raise TuningError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    _check_class_index(targets.min(), n_classes)
    _check_class_index(targets.max(), n_classes)
    return _cross_entropy(logits, targets)


def _check_class_index(y: int, n_classes: int) -> None:
    if y < 0 or y >= n_classes:
        raise TuningError(f"class index out of range for {n_classes} classes")


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """``cross_entropy`` of (B, n_classes) logits and B class indices
    already known to be in range."""
    rows = np.arange(len(targets))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    # the mean as ndarray.mean computes it (sum, then divide), without its wrapper
    loss = -(np.add.reduce(log_probs[rows, targets]) / len(targets))
    grad = np.exp(log_probs)
    grad[rows, targets] -= 1.0
    return float(loss), grad / len(targets)


def mtl_joint_loss(
    logits_agg: np.ndarray,
    y_agg: Union[int, np.ndarray],
    logits_cb: np.ndarray,
    y_cb: Union[int, np.ndarray],
) -> float:
    """Unweighted sum of the two per-task cross-entropies."""
    loss_agg, _ = cross_entropy(logits_agg, y_agg)
    loss_cb, _ = cross_entropy(logits_cb, y_cb)
    return loss_agg + loss_cb


# Adam's moment decay rates and denominator guard, at their usual values
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class FlatArrays(dict):
    """Named arrays that are views into one contiguous vector, ``flat``,
    which they cover exactly: an elementwise op on ``flat`` acts on every
    array at once. ``layout`` holds each array's (name, offset into
    ``flat``, shape), in key order."""

    def __init__(self, arrays: Mapping[str, np.ndarray], flat: np.ndarray):
        super().__init__(arrays)
        self.flat = flat
        start = flat.__array_interface__["data"][0]
        self.layout = tuple(
            (name, (a.__array_interface__["data"][0] - start) // flat.itemsize, a.shape)
            for name, a in self.items()
        )


def flat_views(shapes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zero vector and a view of it of each shape, back to back."""
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    flat = np.zeros(bounds[-1])
    return flat, [
        flat[start:stop].reshape(shape) for shape, start, stop in zip(shapes, bounds, bounds[1:])
    ]


class Adam:
    """Plain adaptive-moment optimizer over a ``FlatArrays`` (in place).

    The moments are flat vectors like ``params.flat``, so a step is one
    elementwise pass and one subtract. ``step`` takes gradients only as a
    ``FlatArrays`` of the parameters' layout; anything else raises first.
    """

    def __init__(self, params: FlatArrays, learning_rate: float):
        if not hasattr(params, "layout"):
            raise TuningError("Adam tunes a FlatArrays, not a plain mapping")
        self.params = params
        self.lr = learning_rate
        self.m = np.zeros(params.flat.size)
        self.v = np.zeros(params.flat.size)
        self.t = 0

    def step(self, grads: FlatArrays) -> None:
        if getattr(grads, "layout", None) != self.params.layout:
            raise TuningError("gradients are not in the parameters' FlatArrays layout")
        self.t += 1
        m, v, grad = self.m, self.v, grads.flat
        m *= _BETA1
        m += (1.0 - _BETA1) * grad
        v *= _BETA2
        v += (1.0 - _BETA2) * grad * grad
        m_hat = m / (1.0 - _BETA1**self.t)
        v_hat = v / (1.0 - _BETA2**self.t)
        self.params.flat -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


def _tuned_state(
    base: ToyTransformer, config: TuneConfig, tasks: Sequence[Task]
) -> tuple[FlatArrays, dict[Task, AdapterState], dict[Task, TaskHead]]:
    """Zero adapters and heads for ``tasks``, every array a view into one
    flat vector laid out as a checkpoint stores it: each task's factor
    stacks, Down then Up, then each task's head weight and bias. A stack
    holds the targets of one weight shape, in target order. The
    ``FlatArrays`` names the arrays as ``tuned_arrays`` does."""
    targets = resolve_targets(base, config.target_layers)
    groups: dict[tuple[int, ...], list[str]] = {}
    for name in targets:
        groups.setdefault(base.params[name].shape, []).append(name)
    r, shapes = config.rank_r, []
    for _ in tasks:
        for (d_out, d_in), names in groups.items():
            shapes += [(len(names), r, d_in), (len(names), d_out, r)]
    for task in tasks:
        n = len(labels_in_order(task))
        shapes += [(n, base.config.d_model), (n,)]
    flat, views = flat_views(shapes)
    views = iter(views)
    adapters = {
        task: AdapterState(
            [FactorStack(tuple(names), next(views), next(views)) for names in groups.values()],
            targets,
        )
        for task in tasks
    }
    heads = {task: TaskHead(task, next(views), next(views)) for task in tasks}
    return FlatArrays(tuned_arrays(adapters, heads), flat), adapters, heads


def _seed_down(adapters: Mapping[Task, AdapterState], seed: int) -> None:
    """Draw the i-th task's Down factors small random, in target order, from
    one generator seeded with ``seed + i``, so the tasks' inits differ."""
    for offset, state in enumerate(adapters.values()):
        rng = np.random.default_rng(seed + offset)
        for factors in state.factors.values():
            factors.down[...] = rng.normal(0.0, 0.01, factors.down.shape)


def pairs_from_posts(posts: Sequence[LabeledPost], task: Task) -> list[Pair]:
    """(text, class index) pairs; refuses an empty pool and mixed-task posts."""
    if not posts:
        raise TuningError(f"no {task.value} posts to train on")
    pairs = []
    for post in posts:
        if post.task is not task:
            raise TuningError(
                f"post {post.id!r} has task {post.task.value}, expected {task.value}"
            )
        pairs.append((post.text, int(post.label)))
    return pairs


def _encode_pairs(base: ToyTransformer, pairs: Sequence[Pair], task: Task) -> list[EncodedPair]:
    """Tokenize each pair's text once, cut to the network's ``max_len``,
    after checking its class index against the task's classes."""
    n_classes = len(labels_in_order(task))
    for _, y in pairs:
        _check_class_index(y, n_classes)
    max_len = base.config.max_len
    return [(base.tokenizer.encode(text)[:max_len], y) for text, y in pairs]


def _branch(
    base: ToyTransformer,
    adapters: AdapterState,
    head: TaskHead,
    batch: Sequence[EncodedPair],
    d_adapters: AdapterState,
    d_head: TaskHead,
) -> float:
    """Loss of one task branch; its gradients go into ``d_adapters`` and
    ``d_head``, shaped like ``adapters`` and ``head``."""
    if not batch:
        raise TuningError("empty batch")
    ids, mask = pad_ids([encoded for encoded, _ in batch])
    targets = np.array([y for _, y in batch], dtype=int)

    pooled, cache = base.forward_pooled(
        ids, mask, overrides=adapters.effective_weights(base.params)
    )
    loss, d_logits = _cross_entropy(head.logits(pooled), targets)
    adapters.factor_grads(
        base.backward(cache, d_logits @ head.weight, adapters.factors), out=d_adapters
    )
    np.matmul(d_logits.T, pooled, out=d_head.weight)
    np.sum(d_logits, axis=0, out=d_head.bias)
    return loss


def predict_logits(
    base: ToyTransformer, adapters: AdapterState, head: TaskHead, texts: Sequence[str]
) -> np.ndarray:
    """Head logits (len(texts), n_classes) of the adapted network, in input order.

    The adapted weights W + Up @ Down are formed once per call and the texts
    tokenized once. Rows run in chunks of ``PREDICT_CHUNK_ROWS`` in a stable
    token-length order, each chunk cut to its longest row, through the
    network's one pooled pass, ``forward_pooled``, as training runs it.
    """
    logits = np.empty((len(texts), head.bias.size))
    if not texts:
        return logits
    weights = adapters.effective_weights(base.params)
    ids, mask = base.tokenizer.batch_encode(texts, base.config.max_len)
    lengths = mask.sum(axis=1)
    order = np.argsort(lengths, kind="stable")
    for start in range(0, len(texts), PREDICT_CHUNK_ROWS):
        rows = order[start : start + PREDICT_CHUNK_ROWS]
        width = lengths[rows[-1]]
        # [0] only: the backward cache is freed before the next chunk runs
        pooled = base.forward_pooled(ids[rows, :width], mask[rows, :width], weights)[0]
        logits[rows] = head.logits(pooled)
    return logits


class _Tuner:
    """The step core and epoch loop of both trainers: task-keyed adapters
    (Down seeded by ``_seed_down``) and zero heads on a frozen base, all
    tuned by one ``Adam`` over ``tuned_arrays``.

    Every tuned array is a view into one flat vector, and every gradient a
    view into a twin of it, both built by ``_tuned_state``, so one
    ``Adam.step`` updates them all. A step runs one branch per task, in
    task order, then one optimizer step, and returns the per-task losses.
    """

    def __init__(self, base: ToyTransformer, config: TuneConfig, tasks: Sequence[Task]):
        self.base = base
        self.config = config
        params, self._adapters, self._heads = _tuned_state(base, config, tasks)
        _seed_down(self._adapters, config.seed)
        self._grads, self._d_adapters, self._d_heads = _tuned_state(base, config, tasks)
        self.optimizer = Adam(params, config.learning_rate)

    def _losses(self, batches: Sequence[Sequence[EncodedPair]]) -> list[float]:
        """Each task branch's loss; the gradients land in ``_grads``."""
        return [
            _branch(
                self.base, self._adapters[task], self._heads[task], batch,
                self._d_adapters[task], self._d_heads[task],
            )
            for task, batch in zip(self._adapters, batches, strict=True)
        ]

    def losses_and_grads(
        self, *pair_lists: Sequence[Pair]
    ) -> tuple[list[float], dict[str, np.ndarray]]:
        """Each task's loss on its pairs, in task order, and a copy of every
        gradient by ``tuned_arrays`` name; no optimizer step."""
        losses = self._losses(self._encoded(*pair_lists))
        return losses, {name: grad.copy() for name, grad in self._grads.items()}

    def _step(self, batches: Sequence[Sequence[EncodedPair]]) -> list[float]:
        losses = self._losses(batches)
        self.optimizer.step(self._grads)
        return losses

    def _encoded(self, *pair_lists: Sequence[Pair]) -> list[list[EncodedPair]]:
        return [
            _encode_pairs(self.base, pairs, task)
            for task, pairs in zip(self._adapters, pair_lists, strict=True)
        ]

    def _train(self, *post_lists: Sequence[LabeledPost]) -> Iterator[tuple[int, list[float]]]:
        """(epoch, per-task losses) of each step. Each pool is checked and
        tokenized once, before any step. Each epoch shuffles each pool, in
        task order, with one seeded ``Random`` and cuts it into contiguous
        batches, the last one short. It runs as many steps as the largest
        pool has batches; a pool with fewer starts its own batches over."""
        pools = [
            _encode_pairs(self.base, pairs_from_posts(posts, task), task)
            for task, posts in zip(self._adapters, post_lists, strict=True)
        ]
        rng = random.Random(self.config.seed)
        size = self.config.batch_size
        for epoch in range(1, self.config.epochs + 1):
            schedule = []
            for pool in pools:
                order = list(pool)
                rng.shuffle(order)
                schedule.append([order[i : i + size] for i in range(0, len(order), size)])
            for b in range(max(map(len, schedule))):
                yield epoch, self._step([own[b % len(own)] for own in schedule])


class SftTrainer(_Tuner):
    """Independent single-task adapter tuning on a frozen base network.

    Each gradient step touches only the adapter factors and the task head;
    the mean batch cross-entropy is returned.
    """

    def __init__(self, base: ToyTransformer, task: Task, config: TuneConfig):
        super().__init__(base, config, [task])
        self.task = task
        self.adapters = self._adapters[task]
        self.head = self._heads[task]

    def step(self, pairs: Sequence[Pair]) -> float:
        return self._step(self._encoded(pairs))[0]

    def train(self, posts: Sequence[LabeledPost]) -> list[dict]:
        """One metrics record per step of the epoch loop over ``posts``."""
        task = self.task.value
        return [
            {"step": step, "epoch": epoch, "task": task, "loss": loss}
            for step, (epoch, (loss,)) in enumerate(self._train(posts), start=1)
        ]


class MtlTrainer(_Tuner):
    """Joint tuning: one optimizer step on the summed per-task losses.

    Two task-tagged adapter sets share the frozen base; the backward pass
    of the joint loss updates both sets and both heads in a single step.
    """

    def __init__(self, base: ToyTransformer, config: TuneConfig):
        super().__init__(base, config, (Task.AGGRESSION, Task.CYBERBULLYING))
        self.adapters = self._adapters
        self.heads = self._heads

    def step(
        self, pairs_agg: Sequence[Pair], pairs_cb: Sequence[Pair]
    ) -> tuple[float, float, float]:
        loss_agg, loss_cb = self._step(self._encoded(pairs_agg, pairs_cb))
        return loss_agg + loss_cb, loss_agg, loss_cb

    def train(
        self, posts_agg: Sequence[LabeledPost], posts_cb: Sequence[LabeledPost]
    ) -> list[dict]:
        """One metrics record per step of the epoch loop over both pools,
        each step's joint loss the sum of its two task losses."""
        return [
            {
                "step": step, "epoch": epoch, "loss_aggression": loss_agg,
                "loss_cyberbullying": loss_cb, "joint_loss": loss_agg + loss_cb,
            }
            for step, (epoch, (loss_agg, loss_cb)) in enumerate(
                self._train(posts_agg, posts_cb), start=1
            )
        ]


def write_metrics_log(records: Iterable[dict], path: Union[str, Path]) -> Path:
    """Line-delimited training metrics."""
    return write_lines(path, records, lambda record: json.dumps(record, sort_keys=True) + "\n")
