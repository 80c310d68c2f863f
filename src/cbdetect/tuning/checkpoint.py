"""Versioned checkpoint files for adapters and heads.

Format 2: one ``.npz`` archive of two members. ``__meta__`` is a JSON
header (format version, network config, tuning config, task list, the
tasks sorted). ``tuned`` is one 1-D float64 vector of every tuned array,
back to back, laid out as the trainer holds them (``training._tuned_state``)
for the classifier the header describes: each task in header order, its
factor stacks' Down then Up, then each task's head weight and bias.

The frozen base network is not stored. One builder, ``_skeleton``, decodes
a header into its configs and their zero tuned state, building no network
and drawing no random numbers, and both sides use it. ``save_checkpoint``
fills the vector by ``training.tuned_arrays`` name, so the order in which
a caller passes tasks or targets cannot misplace a value. ``load_classifier``
reads the file once, fills the vector with one copy and rebuilds from the
network config's seed the one base it serves. A file that is not
an npz archive, has members that do not read, lacks the header, names
another format version, holds other members or holds a ``tuned`` of
another dtype or shape raises ``TuningError("<path>: <reason>")``.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .._config import decode_json
from ..labels import Label, Task, labels_in_order
from .lora import AdapterState, TuneConfig, TuningError
from .network import ToyNetConfig, ToyTransformer
from .training import FlatArrays, TaskHead, _tuned_state, predict_logits, tuned_arrays

FORMAT_VERSION = 2


def save_checkpoint(
    path: Union[str, Path],
    model_config: ToyNetConfig,
    tune_config: TuneConfig,
    adapters: Mapping[Task, AdapterState],
    heads: Mapping[Task, TaskHead],
) -> Path:
    """Write the checkpoint, after the loader's own check of its header and
    a by-name check of its arrays: a file ``load_classifier`` would refuse
    is never written."""
    path = Path(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "model": model_config.to_dict(),
        "tune": tune_config.to_dict(),
        "tasks": sorted(task.value for task in adapters),
    }
    header = json.dumps(meta, sort_keys=True)
    arrays = tuned_arrays(adapters, heads)
    tuned = decode_json(
        lambda meta: _filled(meta, arrays), header.encode("utf-8"), TuningError, path
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    # written whole beside the target, then renamed over it: a write that
    # fails part-way leaves the earlier file at the path as it was
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with temporary.open("xb") as handle:
            np.savez(handle, __meta__=np.array(header), tuned=tuned)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
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
    except Exception as exc:
        # a damaged archive fails in zipfile, zlib or numpy's header parser
        # with whatever each raises, not only OSError or ValueError
        raise TuningError(f"{path}: {exc}") from None
    if "__meta__" not in arrays:
        raise TuningError(f"{path}: no __meta__ header")
    header = str(arrays.pop("__meta__")).encode("utf-8")
    return decode_json(lambda meta: _loaded(meta, arrays), header, TuningError, path)


def _skeleton(meta: dict) -> tuple[ToyNetConfig, TuneConfig, tuple[FlatArrays, dict, dict]]:
    """The configs a checkpoint header names and their zero tuned state
    (``training._tuned_state``): views into one flat vector in the file's layout."""
    if meta.get("format_version") != FORMAT_VERSION:
        raise TuningError(f"unsupported checkpoint format: {meta.get('format_version')}")
    net_config = ToyNetConfig.from_dict(meta["model"])
    tune_config = TuneConfig.from_dict(meta["tune"])
    tasks = [Task(v) for v in meta["tasks"]]
    return net_config, tune_config, _tuned_state(net_config, tune_config, tasks)


def _filled(meta: dict, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """The flat vector of the header's classifier, each of its tuned arrays
    filled from ``arrays`` by name."""
    _, _, (named, _, _) = _skeleton(meta)
    unexpected = sorted(set(arrays) - set(named))
    if unexpected:
        raise TuningError(f"arrays the header does not describe: {unexpected}")
    for name, array in named.items():
        stored = arrays[name]
        if stored.shape != array.shape:
            raise TuningError(f"{name}: shape {stored.shape}, expected {array.shape}")
        array[...] = stored
    return named.flat


def _loaded(meta: dict, arrays: Mapping[str, np.ndarray]) -> ToyClassifier:
    """The header's classifier, over the base rebuilt from its network
    config, with its flat vector copied from the one array ``tuned``."""
    net_config, tune_config, (named, adapters, heads) = _skeleton(meta)
    if set(arrays) != {"tuned"}:
        raise TuningError(f"arrays {sorted(arrays)}, expected ['tuned']")
    tuned, flat = arrays["tuned"], named.flat
    if tuned.dtype != flat.dtype or tuned.shape != flat.shape:
        raise TuningError(
            f"tuned: {tuned.dtype} of shape {tuned.shape}, "
            f"expected {flat.dtype} of shape {flat.shape}"
        )
    flat[...] = tuned
    return ToyClassifier(ToyTransformer(net_config), tune_config, adapters, heads)
