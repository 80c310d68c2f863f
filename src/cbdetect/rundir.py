"""A persisted run's directory: its files, their writers and their reader.

``persist_run`` writes ``manifest.json``, ``predictions.jsonl`` and the
raw-response audit log ``responses.jsonl`` into a directory named by the
run id (an audit entry holds the rendered prompt only where its backend
read it) through ``publish``, the one rule by which neither a run nor
``cbdetect train`` replaces another's files; ``load_predictions`` reads a
predictions file back. Each fact is written once: what the whole run
shares (method, templates, backends, exemplars, overrides) in the
manifest, and on a prediction line only what belongs to its record, with
a provenance of ``match_kind`` and, on EPP, ``stage1_mode``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Union

from ._config import read_lines, write_lines
from .backend import MatchKind
from .labels import JSON_LABEL_NAMES, AggressionLabel, Label, Task, label_reader

if TYPE_CHECKING:
    from .pipeline import ExperimentSpec


class PipelineError(ValueError):
    """A run that cannot be configured, persisted or read back."""


@dataclass(frozen=True, slots=True)
class Prediction:
    """Outcome for one record, in input position."""

    post_id: str
    gold: Label
    predicted: Label | None
    failure: str | None = None
    aggression_annotation: AggressionLabel | None = None
    stage1_fallback: bool = False
    provenance: dict = field(default_factory=dict)
    response_text: str | None = None
    stage1_response_text: str | None = None


@dataclass
class RunResult:
    spec: ExperimentSpec
    predictions: list[Prediction]
    manifest: dict
    audit: list[dict] = field(default_factory=list)
    run_dir: Path | None = None

    @property
    def run_id(self) -> str:
        return self.manifest["run_id"]


_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def run_id_of(manifest: dict) -> str:
    """The id a manifest's run directory is named by: the first 12 hex
    digits of the sha256 of the manifest's canonical JSON."""
    return hashlib.sha256(_CANONICAL.encode(manifest).encode("utf-8")).hexdigest()[:12]


def _canonical_line(record: dict) -> str:
    return _CANONICAL.encode(record) + "\n"


# The run files' line writers fill %-templates and are byte-identical to
# ``_canonical_line``: keys in sorted order, strings through the encoder's
# own escaping.
_encode = json.encoder.encode_basestring
_PREDICTION_LINE = (
    '{"failure":%s,"gold":%s,"post_id":%s,"predicted":%s,"provenance":%s,"response_text":%s}\n'
)
_EPP_PREDICTION_LINE = (
    '{"aggression_annotation":%s,"failure":%s,"gold":%s,"post_id":%s,"predicted":%s,'
    '"provenance":%s,"response_text":%s,"stage1_fallback":%s,"stage1_response_text":%s}\n'
)
_AUDIT_LINE = '{"failure":%s,"post_id":%s,"response_text":%s,"stage":%s}\n'
_RENDERED_AUDIT_LINE = (
    '{"failure":%s,"post_id":%s,"rendered_text":%s,"response_text":%s,"stage":%s}\n'
)
_AUDIT_KEYS = frozenset(("failure", "post_id", "response_text", "stage"))
_RENDERED_AUDIT_KEYS = _AUDIT_KEYS | {"rendered_text"}


def _provenance_table() -> dict[tuple, str]:
    """The JSON of each provenance a run writes, keyed by its items in the
    order the pipeline builds them: a match kind (absent on a failure),
    then on EPP stage 2 a stage-1 mode."""
    table = {}
    for match_kind in (None, *(kind.value for kind in MatchKind)):
        for stage1_mode in (None, "predicted", "gold_override"):
            items = tuple(
                item
                for item in (("match_kind", match_kind), ("stage1_mode", stage1_mode))
                if item[1] is not None
            )
            table[items] = _CANONICAL.encode(dict(items))
    return table


_PROVENANCE_JSON = _provenance_table()


def _provenance_json(provenance: dict) -> str:
    """``_CANONICAL.encode(provenance)``, looked up for the provenances a run writes."""
    try:
        return _PROVENANCE_JSON[tuple(provenance.items())]
    except (AttributeError, KeyError, TypeError):
        return _CANONICAL.encode(provenance)


def _prediction_line(p: Prediction) -> str:
    """A line of ``predictions.jsonl``: the record's fields are the
    ``Prediction`` field names, and the EPP keys are written only for a
    record with an aggression annotation."""
    fields = (
        "null" if p.failure is None else _encode(p.failure),
        JSON_LABEL_NAMES[type(p.gold)][p.gold],
        _encode(p.post_id),
        "null" if p.predicted is None else JSON_LABEL_NAMES[type(p.predicted)][p.predicted],
        _provenance_json(p.provenance),
        "null" if p.response_text is None else _encode(p.response_text),
    )
    annotation = p.aggression_annotation
    if annotation is None:
        return _PREDICTION_LINE % fields
    return _EPP_PREDICTION_LINE % (
        JSON_LABEL_NAMES[type(annotation)][annotation],
        *fields,
        "true" if p.stage1_fallback else "false",
        "null" if p.stage1_response_text is None else _encode(p.stage1_response_text),
    )


def _audit_line(entry: dict) -> str:
    """A line of ``responses.jsonl``. A four-key entry, and a five-key one
    whose ``rendered_text`` is a ``str``, each fill a template, the prompt
    escaped like every other string; any other entry, or one with a value
    that is neither ``str`` nor ``None``, is written by ``_canonical_line``."""
    keys = entry.keys()
    try:
        if keys == _AUDIT_KEYS:
            return _AUDIT_LINE % _audit_fields(entry)
        text = entry.get("rendered_text")
        if keys != _RENDERED_AUDIT_KEYS or type(text) is not str:
            return _canonical_line(entry)
        failure, post_id, response, stage = _audit_fields(entry)
        return _RENDERED_AUDIT_LINE % (failure, post_id, _encode(text), response, stage)
    except TypeError:
        return _canonical_line(entry)


def _audit_fields(entry: dict) -> tuple[str, str, str, str]:
    """The JSON of an audit entry's ``failure``, ``post_id``,
    ``response_text`` and ``stage``; a value of another type than ``str``
    or, for the first and third, ``None`` raises ``TypeError``."""
    failure, response = entry["failure"], entry["response_text"]
    return (
        "null" if failure is None else _encode(failure),
        _encode(entry["post_id"]),
        "null" if response is None else _encode(response),
        _encode(entry["stage"]),
    )


def persist_run(result: RunResult, out_dir: Union[str, Path]) -> Path:
    """Write manifest, predictions, and the raw-response audit log, and
    ``publish`` them as a directory named by the run id, a hash of the
    manifest content, so identical runs land in identical locations."""
    result.run_dir = publish(Path(out_dir) / result.run_id, partial(_write_run_files, result))
    return result.run_dir


def publish(target: Path, write: Callable[[Path], None]) -> Path:
    """Move the files ``write`` makes in a new staging directory into
    ``target``, replacing none. Where ``target`` is absent, the staging
    directory is made beside it, with a plain mkdir's mode and any missing
    parents, and one rename moves it in. Otherwise it is
    made inside ``target``, so that every move stays on its filesystem; each
    staged file that ``target`` holds must have the same bytes, or
    PipelineError leaves it as it was, and then the missing ones are linked
    in: a link, unlike a rename, never replaces a file that appeared since.
    The staging directory never stays."""
    absent = not target.exists()
    staging = (target.parent if absent else target) / f".{target.name}.{os.urandom(4).hex()}"
    staging.mkdir(parents=True)
    try:
        write(staging)
        if absent:
            try:
                staging.rename(target)
                return target
            except OSError:  # a directory that appeared since is published into
                if not target.is_dir():
                    raise
        # the held files first, so that a refusal links nothing in
        for name in sorted(os.listdir(staging), key=lambda name: not (target / name).exists()):
            try:
                os.link(staging / name, target / name)
            except FileExistsError:
                if (target / name).read_bytes() != (staging / name).read_bytes():
                    message = f"{target}: holds other files; not overwritten"
                    raise PipelineError(message) from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def _write_run_files(result: RunResult, run_dir: Path) -> None:
    (run_dir / "manifest.json").write_text(
        json.dumps(result.manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
        newline="",
    )
    write_lines(run_dir / "predictions.jsonl", result.predictions, _prediction_line)
    write_lines(run_dir / "responses.jsonl", result.audit, _audit_line)


def load_predictions(path: Union[str, Path], task: Task) -> list[Prediction]:
    """Read a persisted predictions file back; a bad line is a PipelineError."""
    build = partial(_prediction_from, label_reader(task), label_reader(Task.AGGRESSION))
    return read_lines(path, build, PipelineError)


def _prediction_from(read_label, read_annotation, record: dict) -> Prediction:
    """Inverse of ``_prediction_line``, whose keys are the ``Prediction``
    field names; ``read_label`` reads the task's label names,
    ``read_annotation`` the aggression ones."""
    record["gold"] = read_label(record["gold"])
    if record.get("predicted") is not None:
        record["predicted"] = read_label(record["predicted"])
    if record.get("aggression_annotation") is not None:
        record["aggression_annotation"] = read_annotation(record["aggression_annotation"])
    return Prediction(**record)
