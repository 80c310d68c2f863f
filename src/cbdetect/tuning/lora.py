"""Low-rank adapters over frozen base weights.

Each targeted weight matrix W (d_out x d_in) gets a factor pair: Down
(r x d_in), seeded small random, and Up (d_out x r), all zeros. The adapted
forward pass uses W + Up @ Down, so a freshly attached adapter is an exact
identity and the effective update never exceeds rank r. Base weights are
never written; the optimizer sees only factors and heads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .._config import from_fields
from .network import ToyNetConfig


class TuningError(ValueError):
    pass


@dataclass(frozen=True)
class TuneConfig:
    """Adapter training configuration.

    Defaults follow the experiment protocol: rank 8, learning rate 1e-4,
    batch size 8. One epoch is the independent-tuning default; joint
    multi-task runs conventionally use 3-6.
    """

    rank_r: int = 8
    learning_rate: float = 1e-4
    batch_size: int = 8
    epochs: int = 1
    target_layers: str = "attn"
    seed: int = 0

    MTL_EPOCH_RANGE = (3, 6)

    def __post_init__(self) -> None:
        if self.rank_r < 1:
            raise TuningError("rank_r must be >= 1")
        if not self.learning_rate >= 0:
            raise TuningError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise TuningError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TuningError("epochs must be >= 1")
        if self.seed < 0:
            raise TuningError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuneConfig":
        return from_fields(cls, data)


@dataclass(frozen=True)
class LoraFactors:
    down: np.ndarray  # (r, d_in)
    up: np.ndarray  # (d_out, r)

    def delta(self) -> np.ndarray:
        return self.up @ self.down


@dataclass(frozen=True)
class FactorStack:
    """The factors of the targets that share one weight shape, stacked in
    target order."""

    names: tuple[str, ...]
    down: np.ndarray  # (n, r, d_in)
    up: np.ndarray  # (n, d_out, r)

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """(n, d_out, d_in): the targets' weights, stacked."""
        return self.up.shape[:2] + self.down.shape[2:]


class AdapterState:
    """Factor pairs for every targeted weight matrix.

    The factors of targets that share a weight shape live in one
    ``FactorStack``, so a stack's effective weights and its factor
    gradients are one batched matmul each. ``factors`` maps each target, in
    target order, to its (Down, Up) views into its stack.
    """

    def __init__(self, stacks: list[FactorStack], targets: Sequence[str]):
        self.stacks = stacks
        views = {
            name: LoraFactors(stack.down[i], stack.up[i])
            for stack in stacks
            for i, name in enumerate(stack.names)
        }
        self.factors = {name: views[name] for name in targets}

    @property
    def targets(self) -> list[str]:
        return list(self.factors)

    def delta(self, name: str) -> np.ndarray:
        return self.factors[name].delta()

    def effective_weights(self, base_params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """W + Up @ Down for every target; base arrays are left untouched."""
        weights = {}
        for s in self.stacks:
            base = np.concatenate([base_params[name] for name in s.names])
            weights.update(zip(s.names, base.reshape(s.weight_shape) + s.up @ s.down))
        return weights

    def factor_grads(self, weight_grads: Mapping[str, np.ndarray], out: "AdapterState") -> None:
        """Chain effective-weight gradients into factor gradients, written
        into the stacks of ``out``, a state of the same targets and shapes.

        With Weff = W + Up @ Down: dUp = dWeff @ Down.T, dDown = Up.T @ dWeff.
        """
        for s, d in zip(self.stacks, out.stacks):
            d_weff = np.concatenate([weight_grads[name] for name in s.names])
            d_weff = d_weff.reshape(s.weight_shape)
            np.matmul(s.up.transpose(0, 2, 1), d_weff, out=d.down)
            np.matmul(d_weff, s.down.transpose(0, 2, 1), out=d.up)


def resolve_targets(net_config: ToyNetConfig, selector: str) -> list[str]:
    """Attachable weight names (all but ``embed``) whose dotted path contains the selector."""
    candidates = [n for n in net_config.weight_shapes() if n != "embed"]
    matches = [n for n in candidates if selector in n]
    if not matches:
        raise TuningError(
            f"target selector {selector!r} matches no attachable weight "
            f"(candidates: {candidates})"
        )
    return matches
