"""Versioned checkpoint files for adapters and heads.

Layout: one ``.npz`` archive holding a JSON header under ``__meta__``
(format version, network config, tuning config, task list) followed by the
named factor and head tensors:

    adapter.<task>.<target>.down / .up
    head.<task>.weight / .bias

The frozen base network is not stored; it is rebuilt exactly from the
network config's seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from ..labels import Label, Task, labels_in_order
from .lora import AdapterState, LoraFactors, TuneConfig, TuningError
from .network import ToyNetConfig, ToyTransformer
from .training import TaskHead, predict_logits

FORMAT_VERSION = 1


def save_checkpoint(
    path: Union[str, Path],
    model_config: ToyNetConfig,
    tune_config: TuneConfig,
    adapters: Mapping[Task, AdapterState],
    heads: Mapping[Task, TaskHead],
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        "model": model_config.to_dict(),
        "tune": tune_config.to_dict(),
        "tasks": sorted(task.value for task in adapters),
    }
    arrays: dict[str, np.ndarray] = {"__meta__": np.array(json.dumps(meta, sort_keys=True))}
    for task, state in adapters.items():
        for name, factors in state.factors.items():
            arrays[f"adapter.{task.value}.{name}.down"] = factors.down
            arrays[f"adapter.{task.value}.{name}.up"] = factors.up
    for task, head in heads.items():
        arrays[f"head.{task.value}.weight"] = head.weight
        arrays[f"head.{task.value}.bias"] = head.bias
    with path.open("wb") as handle:
        np.savez(handle, **arrays)
    return path


@dataclass
class CheckpointBundle:
    model_config: ToyNetConfig
    tune_config: TuneConfig
    tasks: list[Task]
    adapters: dict[Task, AdapterState]
    heads: dict[Task, TaskHead]


def load_checkpoint(path: Union[str, Path]) -> CheckpointBundle:
    path = Path(path)
    if not path.is_file():
        raise TuningError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
        if meta.get("format_version") != FORMAT_VERSION:
            raise TuningError(f"unsupported checkpoint format: {meta.get('format_version')}")
        model_config = ToyNetConfig.from_dict(meta["model"])
        tune_config = TuneConfig.from_dict(meta["tune"])
        tasks = [Task(v) for v in meta["tasks"]]

        adapters: dict[Task, AdapterState] = {}
        heads: dict[Task, TaskHead] = {}
        for task in tasks:
            prefix = f"adapter.{task.value}."
            factors: dict[str, LoraFactors] = {}
            targets = sorted(
                {k[len(prefix) : k.rfind(".")] for k in archive.files if k.startswith(prefix)}
            )
            for target in targets:
                factors[target] = LoraFactors(
                    down=archive[f"{prefix}{target}.down"],
                    up=archive[f"{prefix}{target}.up"],
                )
            adapters[task] = AdapterState(config=tune_config, factors=factors)
            heads[task] = TaskHead(
                task=task,
                weight=archive[f"head.{task.value}.weight"],
                bias=archive[f"head.{task.value}.bias"],
            )
    return CheckpointBundle(
        model_config=model_config,
        tune_config=tune_config,
        tasks=tasks,
        adapters=adapters,
        heads=heads,
    )


class ToyClassifier:
    """Inference wrapper: rebuilt base + checkpointed adapters and heads.

    Classification is head-logit argmax over the pooled final-layer
    embedding.
    """

    def __init__(self, bundle: CheckpointBundle):
        self.bundle = bundle
        self.base = ToyTransformer(bundle.model_config)

    def predict(self, text: str, task: Task) -> Label:
        return self.predict_batch([text], task)[0]

    def predict_batch(self, texts: Sequence[str], task: Task) -> list[Label]:
        """One label per text, in order: the argmax of ``predict_logits``."""
        if task not in self.bundle.adapters:
            raise TuningError(
                f"checkpoint holds no {task.value} adapters (tasks: "
                f"{[t.value for t in self.bundle.tasks]})"
            )
        logits = predict_logits(
            self.base, self.bundle.adapters[task], self.bundle.heads[task], texts
        )
        order = labels_in_order(task)
        return [order[i] for i in logits.argmax(axis=1).tolist()]


def load_classifier(path: Union[str, Path]) -> ToyClassifier:
    return ToyClassifier(load_checkpoint(path))
