"""Adapter training: independent single-task tuning and joint multi-task.

Both trainers run on one step core: one branch per task, in task order,
then one optimizer step over every tuned array, each keyed by its
``tuned_arrays`` name. Independent tuning is the one-task case. The joint
objective is the plain sum of the two per-task cross-entropies, one per
classification head. Because each head and each adapter set only feeds
its own term, the joint-loss gradient w.r.t. a head equals that task's own
cross-entropy gradient. Heads start at zero so step-0 logits are uniform:
ln(3) for aggression, ln(4) for cyberbullying.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .._config import write_lines
from ..corpus import LabeledPost
from ..labels import Task, labels_in_order
from .lora import AdapterState, TuneConfig, TuningError, init_adapter_state
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

    @classmethod
    def zeros(cls, task: Task, d_model: int) -> "TaskHead":
        n = len(labels_in_order(task))
        return cls(task=task, weight=np.zeros((n, d_model)), bias=np.zeros(n))

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
    if targets.min() < 0 or targets.max() >= n_classes:
        raise TuningError(f"class index out of range for {n_classes} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), targets].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), targets] -= 1.0
    return float(loss), grad / n


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


class Adam:
    """Plain adaptive-moment optimizer over a named array dict (in place).

    The moments live in one flat vector each, so a step runs the moment
    update once over every parameter instead of once per array. ``step``
    needs a gradient for every parameter.
    """

    def __init__(self, params: Mapping[str, np.ndarray], learning_rate: float):
        self.params = dict(params)
        self.lr = learning_rate
        # each array's [start, stop) in the flat vectors, in params order
        self._bounds = np.cumsum([0] + [p.size for p in self.params.values()])
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros(self._bounds[-1])
        self.t = 0

    def step(self, grads: Mapping[str, np.ndarray]) -> None:
        self.t += 1
        grad = np.concatenate([grads[key].ravel() for key in self.params])
        m, v = self.m, self.v
        m *= _BETA1
        m += (1.0 - _BETA1) * grad
        v *= _BETA2
        v += (1.0 - _BETA2) * grad * grad
        m_hat = m / (1.0 - _BETA1**self.t)
        v_hat = v / (1.0 - _BETA2**self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
        for param, start, stop in zip(self.params.values(), self._bounds, self._bounds[1:]):
            param -= update[start:stop].reshape(param.shape)


def pairs_from_posts(posts: Sequence[LabeledPost], task: Task) -> list[Pair]:
    """(text, class index) pairs; refuses mixed-task batches."""
    pairs = []
    for post in posts:
        if post.task is not task:
            raise TuningError(
                f"post {post.id!r} has task {post.task.value}, expected {task.value}"
            )
        pairs.append((post.text, int(post.label)))
    return pairs


def _encode_pairs(base: ToyTransformer, pairs: Sequence[Pair]) -> list[EncodedPair]:
    """Tokenize each pair's text once, cut to the network's ``max_len``."""
    max_len = base.config.max_len
    return [(base.tokenizer.encode(text)[:max_len], y) for text, y in pairs]


def _branch(
    base: ToyTransformer,
    adapters: AdapterState,
    head: TaskHead,
    batch: Sequence[EncodedPair],
    names: Sequence[str],
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients of one task branch, keyed by the branch's
    ``tuned_arrays`` names."""
    if not batch:
        raise TuningError("empty batch")
    ids, mask = pad_ids([encoded for encoded, _ in batch])
    targets = np.array([y for _, y in batch], dtype=int)

    pooled, cache = base.forward_pooled(
        ids, mask, overrides=adapters.effective_weights(base.params)
    )
    loss, d_logits = cross_entropy(head.logits(pooled), targets)
    grads = adapters.factor_grads(base.backward(cache, d_logits @ head.weight, adapters.factors))
    grads += (d_logits.T @ pooled, d_logits.sum(axis=0))
    return loss, dict(zip(names, grads, strict=True))


def predict_logits(
    base: ToyTransformer, adapters: AdapterState, head: TaskHead, texts: Sequence[str]
) -> np.ndarray:
    """Head logits (len(texts), n_classes) of the adapted network, in input order.

    The adapted weights W + Up @ Down are formed once per call and the texts
    tokenized once. Rows run in chunks of ``PREDICT_CHUNK_ROWS`` in a stable
    token-length order, each chunk cut to its longest row, through the
    network's pooled-only inference pass.
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
        logits[rows] = head.logits(base.pooled(ids[rows, :width], mask[rows, :width], weights))
    return logits


class _Tuner:
    """The step core of both trainers: task-keyed adapters and zero heads on
    a frozen base, all tuned by one ``Adam`` over ``tuned_arrays``.

    A step runs one branch per task, in task order, then one optimizer step
    on their gradients, and returns the per-task losses.
    """

    def __init__(
        self, base: ToyTransformer, config: TuneConfig, adapters: dict[Task, AdapterState]
    ):
        self.base = base
        self.config = config
        self._adapters = adapters
        self._heads = {task: TaskHead.zeros(task, base.config.d_model) for task in adapters}
        # each branch's gradient names, built once rather than on every step
        self._names = {
            task: list(tuned_arrays({task: adapters[task]}, {task: self._heads[task]}))
            for task in adapters
        }
        self.optimizer = Adam(tuned_arrays(adapters, self._heads), config.learning_rate)

    def _losses_and_grads(
        self, batches: Sequence[Sequence[EncodedPair]]
    ) -> tuple[list[float], dict[str, np.ndarray]]:
        losses, grads = [], {}
        for task, batch in zip(self._adapters, batches, strict=True):
            loss, branch_grads = _branch(
                self.base, self._adapters[task], self._heads[task], batch, self._names[task]
            )
            losses.append(loss)
            grads.update(branch_grads)
        return losses, grads

    def _step(self, batches: Sequence[Sequence[EncodedPair]]) -> list[float]:
        losses, grads = self._losses_and_grads(batches)
        self.optimizer.step(grads)
        return losses

    def _encoded(self, *pair_lists: Sequence[Pair]) -> list[list[EncodedPair]]:
        return [_encode_pairs(self.base, pairs) for pairs in pair_lists]


class SftTrainer(_Tuner):
    """Independent single-task adapter tuning on a frozen base network.

    Each gradient step touches only the adapter factors and the task head;
    the mean batch cross-entropy is returned.
    """

    def __init__(
        self,
        base: ToyTransformer,
        task: Task,
        config: TuneConfig,
        adapters: AdapterState | None = None,
    ):
        if adapters is None:
            adapters = init_adapter_state(base, config)
        super().__init__(base, config, {task: adapters})
        self.task = task
        self.adapters = adapters
        self.head = self._heads[task]

    def loss_and_grads(self, pairs: Sequence[Pair]) -> tuple[float, dict[str, np.ndarray]]:
        (loss,), grads = self._losses_and_grads(self._encoded(pairs))
        return loss, grads

    def step(self, pairs: Sequence[Pair]) -> float:
        return self._step(self._encoded(pairs))[0]

    def train(self, posts: Sequence[LabeledPost]) -> list[dict]:
        """Epoch loop with seeded shuffling over contiguous batches, the last
        one short; one metrics record per step. Each post is tokenized once
        per call."""
        pairs = _encode_pairs(self.base, pairs_from_posts(posts, self.task))
        rng = random.Random(self.config.seed)
        records = []
        size, task = self.config.batch_size, self.task.value
        for epoch in range(self.config.epochs):
            order = list(pairs)
            rng.shuffle(order)
            for start in range(0, len(order), size):
                (loss,) = self._step([order[start : start + size]])
                records.append(
                    {"step": len(records) + 1, "epoch": epoch + 1, "task": task, "loss": loss}
                )
        return records


class MtlTrainer(_Tuner):
    """Joint tuning: one optimizer step on the summed per-task losses.

    Two task-tagged adapter sets share the frozen base; the backward pass
    of the joint loss updates both sets and both heads in a single step.
    """

    def __init__(self, base: ToyTransformer, config: TuneConfig):
        tasks = (Task.AGGRESSION, Task.CYBERBULLYING)
        # distinct seeds so the two Down inits differ
        adapters = {
            task: init_adapter_state(base, config, seed_offset=offset)
            for offset, task in enumerate(tasks)
        }
        super().__init__(base, config, adapters)
        self.adapters = self._adapters
        self.heads = self._heads

    def joint_loss_and_grads(
        self, pairs_agg: Sequence[Pair], pairs_cb: Sequence[Pair]
    ) -> tuple[float, float, float, dict[str, np.ndarray]]:
        (loss_agg, loss_cb), grads = self._losses_and_grads(self._encoded(pairs_agg, pairs_cb))
        return loss_agg + loss_cb, loss_agg, loss_cb, grads

    def step(
        self, pairs_agg: Sequence[Pair], pairs_cb: Sequence[Pair]
    ) -> tuple[float, float, float]:
        loss_agg, loss_cb = self._step(self._encoded(pairs_agg, pairs_cb))
        return loss_agg + loss_cb, loss_agg, loss_cb

    def train(
        self, posts_agg: Sequence[LabeledPost], posts_cb: Sequence[LabeledPost]
    ) -> list[dict]:
        """Per-task mini-batches summed inside every step: ``_wrap_slice``
        windows over as many batches as the larger pool needs, so the
        smaller pool repeats. Each post is tokenized once per call."""
        pairs_agg = _encode_pairs(self.base, pairs_from_posts(posts_agg, Task.AGGRESSION))
        pairs_cb = _encode_pairs(self.base, pairs_from_posts(posts_cb, Task.CYBERBULLYING))
        rng = random.Random(self.config.seed)
        records = []
        size = self.config.batch_size
        for epoch in range(self.config.epochs):
            order_agg = list(pairs_agg)
            order_cb = list(pairs_cb)
            rng.shuffle(order_agg)
            rng.shuffle(order_cb)
            n_batches = max(
                (len(order_agg) + size - 1) // size, (len(order_cb) + size - 1) // size
            )
            for b in range(n_batches):
                loss_agg, loss_cb = self._step(
                    [_wrap_slice(order_agg, b * size, size), _wrap_slice(order_cb, b * size, size)]
                )
                records.append(
                    {
                        "step": len(records) + 1,
                        "epoch": epoch + 1,
                        "loss_aggression": loss_agg,
                        "loss_cyberbullying": loss_cb,
                        "joint_loss": loss_agg + loss_cb,
                    }
                )
        return records


def _wrap_slice(items: list, start: int, size: int) -> list:
    """Cyclic batch window so the shorter task pool keeps contributing."""
    if not items:
        raise TuningError("empty batch")
    count = min(size, len(items))
    return [items[(start + i) % len(items)] for i in range(count)]


def write_metrics_log(records: Iterable[dict], path: Union[str, Path]) -> Path:
    """Line-delimited training metrics."""
    return write_lines(path, records, lambda record: json.dumps(record, sort_keys=True) + "\n")
