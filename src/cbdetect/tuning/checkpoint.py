"""Versioned checkpoint files for adapters and heads.

Layout: one ``.npz`` archive holding a JSON header under ``__meta__``
(format version, network config, tuning config, task list) followed by the
tuned arrays under their ``training.tuned_arrays`` names:

    adapter.<task>.<target>.down / .up
    head.<task>.weight / .bias

The frozen base network is not stored; it is rebuilt exactly from the
network config's seed. ``load_classifier`` is the one loader: it rebuilds
the adapters and heads the header describes and fills each array by its
name, so a file that is not an npz archive, lacks the header or lacks a
listed task's arrays raises ``TuningError("<path>: <reason>")``.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .._config import decode_json
from ..labels import Label, Task, labels_in_order
from .lora import AdapterState, TuneConfig, TuningError, init_adapter_state
from .network import ToyNetConfig, ToyTransformer
from .training import TaskHead, predict_logits, tuned_arrays

FORMAT_VERSION = 1


def save_checkpoint(
    path: Union[str, Path],
    model_config: ToyNetConfig,
    tune_config: TuneConfig,
    adapters: Mapping[Task, AdapterState],
    heads: Mapping[Task, TaskHead],
) -> Path:
    """Write the checkpoint, after the loader's own check of its header and
    arrays: a file ``load_classifier`` would refuse is never written."""
    path = Path(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "model": model_config.to_dict(),
        "tune": tune_config.to_dict(),
        "tasks": sorted(task.value for task in adapters),
    }
    header = json.dumps(meta, sort_keys=True)
    arrays = tuned_arrays(adapters, heads)
    decode_json(lambda meta: _classifier(meta, arrays), header.encode("utf-8"), TuningError, path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        np.savez(handle, __meta__=np.array(header), **arrays)
    return path


@dataclass
class ToyClassifier:
    """A loaded checkpoint: its tuning config, adapters and heads (one per
    task) over the base network rebuilt from the network config.

    Classification is head-logit argmax over the pooled final-layer
    embedding.
    """

    base: ToyTransformer
    tune_config: TuneConfig
    adapters: dict[Task, AdapterState]
    heads: dict[Task, TaskHead]

    def predict(self, text: str, task: Task) -> Label:
        return self.predict_batch([text], task)[0]

    def predict_batch(self, texts: Sequence[str], task: Task) -> list[Label]:
        """One label per text, in order: the argmax of ``predict_logits``."""
        if task not in self.adapters:
            raise TuningError(
                f"checkpoint holds no {task.value} adapters (tasks: "
                f"{[t.value for t in self.adapters]})"
            )
        logits = predict_logits(self.base, self.adapters[task], self.heads[task], texts)
        order = labels_in_order(task)
        return [order[i] for i in logits.argmax(axis=1).tolist()]


def load_classifier(path: Union[str, Path]) -> ToyClassifier:
    """The checkpoint at ``path``, ready to classify."""
    path = Path(path)
    if not path.is_file():
        raise TuningError(f"checkpoint not found: {path}")
    if not zipfile.is_zipfile(path):
        raise TuningError(f"{path}: not an npz archive")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise TuningError(f"{path}: {exc}") from None
    if "__meta__" not in arrays:
        raise TuningError(f"{path}: no __meta__ header")
    header = str(arrays.pop("__meta__")).encode("utf-8")
    return decode_json(lambda meta: _classifier(meta, arrays), header, TuningError, path)


def _classifier(meta: dict, arrays: Mapping[str, np.ndarray]) -> ToyClassifier:
    """The classifier a checkpoint header describes, each of its tuned
    arrays filled from ``arrays`` by name."""
    if meta.get("format_version") != FORMAT_VERSION:
        raise TuningError(f"unsupported checkpoint format: {meta.get('format_version')}")
    base = ToyTransformer(ToyNetConfig.from_dict(meta["model"]))
    tune_config = TuneConfig.from_dict(meta["tune"])
    tasks = [Task(value) for value in meta["tasks"]]
    adapters = {task: init_adapter_state(base, tune_config) for task in tasks}
    heads = {task: TaskHead.zeros(task, base.config.d_model) for task in tasks}
    named = tuned_arrays(adapters, heads)
    unexpected = sorted(set(arrays) - set(named))
    if unexpected:
        raise TuningError(f"arrays the header does not describe: {unexpected}")
    for name, array in named.items():
        stored = arrays[name]
        if stored.shape != array.shape:
            raise TuningError(f"{name}: shape {stored.shape}, expected {array.shape}")
        array[...] = stored
    return ToyClassifier(base, tune_config, adapters, heads)
