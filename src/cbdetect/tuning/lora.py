"""Low-rank adapters over frozen base weights.

Each targeted weight matrix W (d_out x d_in) gets a factor pair: Down
(r x d_in), seeded small random, and Up (d_out x r), all zeros. The adapted
forward pass uses W + Up @ Down, so a freshly attached adapter is an exact
identity and the effective update never exceeds rank r. Base weights are
never written; the optimizer sees only factors and heads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .._config import from_fields
from .network import ToyTransformer


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


@dataclass
class AdapterState:
    """Factor pairs for every targeted weight matrix."""

    factors: dict[str, LoraFactors]

    @property
    def targets(self) -> list[str]:
        return list(self.factors)

    def delta(self, name: str) -> np.ndarray:
        return self.factors[name].delta()

    def parameter_count(self) -> int:
        return sum(f.down.size + f.up.size for f in self.factors.values())

    def effective_weights(self, base_params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """W + Up @ Down for every target; base arrays are left untouched."""
        return {
            name: base_params[name] + f.up @ f.down for name, f in self.factors.items()
        }

    def factor_grads(self, weight_grads: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        """Chain effective-weight gradients into factor gradients: Down's,
        then Up's, for each target in order.

        With Weff = W + Up @ Down: dUp = dWeff @ Down.T, dDown = Up.T @ dWeff.
        """
        grads = []
        for name, f in self.factors.items():
            d_weff = weight_grads[name]
            grads += (f.up.T @ d_weff, d_weff @ f.down.T)
        return grads

    def update_norms(self) -> dict[str, float]:
        """Frobenius norm of each effective delta (zero until trained)."""
        return {name: float(np.linalg.norm(f.delta())) for name, f in self.factors.items()}


def resolve_targets(base: ToyTransformer, selector: str) -> list[str]:
    """Attachable weight names whose dotted path contains the selector."""
    matches = [n for n in base.attachable_names if selector in n]
    if not matches:
        raise TuningError(
            f"target selector {selector!r} matches no attachable weight "
            f"(candidates: {base.attachable_names})"
        )
    return matches


def init_adapter_state(base: ToyTransformer, config: TuneConfig, seed_offset: int = 0) -> AdapterState:
    """Seeded factors: Down small random, Up exactly zero, so the adapted
    forward pass starts bit-identical to the base one."""
    rng = np.random.default_rng(config.seed + seed_offset)
    factors = {}
    for name in resolve_targets(base, config.target_layers):
        d_out, d_in = base.params[name].shape
        factors[name] = LoraFactors(
            down=rng.normal(0.0, 0.01, (config.rank_r, d_in)),
            up=np.zeros((d_out, config.rank_r)),
        )
    return AdapterState(factors)
