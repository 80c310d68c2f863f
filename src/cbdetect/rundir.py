"""A persisted run's directory: its files, their writers and their reader.

``persist_run`` writes ``manifest.json``, ``predictions.jsonl`` and the
raw-response audit log ``responses.jsonl`` into a directory named by the
run id; ``load_predictions`` reads a predictions file back.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from os.path import commonprefix
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Union

from ._config import read_json, read_lines, write_lines
from .labels import (
    AggressionLabel,
    Label,
    Task,
    label_reader,
    label_space,
    label_to_name,
    labels_in_order,
)

if TYPE_CHECKING:
    from .pipeline import ExperimentSpec


class PipelineError(ValueError):
    """A run that cannot be configured, persisted or read back."""


@dataclass(frozen=True)
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
# per label space: the two spaces' integer codes compare equal across spaces
_LABEL_NAMES = {
    label_space(task): {lab: _encode(label_to_name(lab)) for lab in labels_in_order(task)}
    for task in Task
}
_PREDICTION_LINE = (
    '{"failure":%s,"gold":%s,"post_id":%s,"predicted":%s,"provenance":%s,"response_text":%s}\n'
)
_EPP_PREDICTION_LINE = (
    '{"aggression_annotation":%s,"failure":%s,"gold":%s,"post_id":%s,"predicted":%s,'
    '"provenance":%s,"response_text":%s,"stage1_fallback":%s,"stage1_response_text":%s}\n'
)
_AUDIT_LINE = '{"failure":%s,"post_id":%s,"rendered_text":%s,"response_text":%s,"stage":%s}\n'
_AUDIT_KEYS = frozenset(("failure", "post_id", "rendered_text", "response_text", "stage"))

# The manifest key of the provenance every record of a run shares: "pairs"
# holds the pairs written once for the run, "from_fields" the keys whose
# value each record copies from one of its own top-level fields (the key's
# entry in _FROM_FIELDS). A manifest without it shares nothing.
_SHARED_KEY = "shared_provenance"
_FROM_FIELDS = {"post_id": "post_id", "aggression_label": "aggression_annotation"}
_SCALARS = (str, int, float, bool, type(None))


def _shared_provenance(predictions: list[Prediction]) -> dict:
    """The provenance the run's records share, as the manifest holds it.

    A pair is shared when every record has the key with a value of the same
    canonical JSON (so ``0.0`` and ``-0.0``, or ``1`` and ``True``, differ)
    and the value is a JSON scalar or a list of scalars, which a reader can
    copy per record. A key is in ``from_fields`` when every record's value
    is the ``str`` its top-level field is written as."""
    provenances = [p.provenance for p in predictions]
    from_fields = []
    for key in _FROM_FIELDS:
        try:
            values = list(map(itemgetter(key), provenances))
        except KeyError:
            continue
        if set(map(type, values)) != {str}:
            continue
        if key == "post_id":
            written = [p.post_id for p in predictions]
        else:
            written = [
                None if p.aggression_annotation is None else label_to_name(p.aggression_annotation)
                for p in predictions
            ]
        if values == written:
            from_fields.append(key)
    pairs = {}
    for key, value in provenances[0].items() if provenances else ():
        flat = value if type(value) is list else (value,)
        if key in from_fields or not all(type(item) in _SCALARS for item in flat):
            continue
        try:
            values = list(map(itemgetter(key), provenances))
        except KeyError:
            continue
        if _one_json(values, value, flat):
            pairs[key] = value
    return {"from_fields": sorted(from_fields), "pairs": pairs}


def _one_json(values: list, value, flat) -> bool:
    """Whether every item of ``values`` has the canonical JSON of ``value``,
    a scalar or a flat list of scalars whose items are ``flat``."""
    if values.count(value) != len(values):
        return False
    # equal strings and Nones encode alike; equal numbers may not, unless
    # they are one object
    return (
        all(item is None or type(item) is str for item in flat)
        or len(set(map(id, values))) == 1
        or len(set(map(_CANONICAL.encode, values))) == 1
    )


def _prediction_writer(shared: dict) -> Callable[[Prediction], str]:
    """A line writer for ``predictions.jsonl``: the record's fields are the
    ``Prediction`` field names, the EPP keys are written only for a record
    with an aggression annotation, and ``provenance`` holds only the pairs
    ``shared`` (a ``_shared_provenance``) does not."""
    omit = frozenset(shared["pairs"]).union(shared["from_fields"])

    def line(p: Prediction) -> str:
        provenance = {key: value for key, value in p.provenance.items() if key not in omit}
        fields = (
            "null" if p.failure is None else _encode(p.failure),
            _LABEL_NAMES[type(p.gold)][p.gold],
            _encode(p.post_id),
            "null" if p.predicted is None else _LABEL_NAMES[type(p.predicted)][p.predicted],
            _CANONICAL.encode(provenance),
            "null" if p.response_text is None else _encode(p.response_text),
        )
        annotation = p.aggression_annotation
        if annotation is None:
            return _PREDICTION_LINE % fields
        return _EPP_PREDICTION_LINE % (
            _LABEL_NAMES[type(annotation)][annotation],
            *fields,
            "true" if p.stage1_fallback else "false",
            "null" if p.stage1_response_text is None else _encode(p.stage1_response_text),
        )

    return line


class _PromptEncoder:
    """JSON strings of one stage's prompts. The prefix its first two prompts
    share is escaped once; a later prompt that starts with it escapes only
    its tail. Escaping maps each code point on its own, so
    ``enc(a + b) == enc(a)[:-1] + enc(b)[1:]``."""

    def __init__(self) -> None:
        self.first: str | None = None
        self.prefix: str | None = None
        self.head = ""

    def encode(self, text: str) -> str:
        prefix = self.prefix
        if prefix is not None and text.startswith(prefix):
            return self.head + _encode(text[len(prefix) :])[1:]
        encoded = _encode(text)
        if prefix is None:
            if self.first is None:
                self.first = text
            else:
                self.prefix = commonprefix((self.first, text))
                self.head = _encode(self.prefix)[:-1]
        return encoded


def _audit_writer() -> Callable[[dict], str]:
    """A line writer for ``responses.jsonl``. A five-key entry fills one
    template; any other entry, or one with a value that is neither ``str``
    nor ``None``, is written by ``_canonical_line``."""
    prompts: dict[str, _PromptEncoder] = {}

    def line(entry: dict) -> str:
        text = entry.get("rendered_text")
        if entry.keys() != _AUDIT_KEYS or not (text is None or type(text) is str):
            return _canonical_line(entry)
        failure, response = entry["failure"], entry["response_text"]
        try:
            if text is None:
                rendered = "null"
            else:
                encoder = prompts.get(entry["stage"])
                if encoder is None:
                    encoder = prompts[entry["stage"]] = _PromptEncoder()
                rendered = encoder.encode(text)
            return _AUDIT_LINE % (
                "null" if failure is None else _encode(failure),
                _encode(entry["post_id"]),
                rendered,
                "null" if response is None else _encode(response),
                _encode(entry["stage"]),
            )
        except TypeError:
            return _canonical_line(entry)

    return line


_RUN_FILES = ("manifest.json", "predictions.jsonl", "responses.jsonl")


def persist_run(result: RunResult, out_dir: Union[str, Path]) -> Path:
    """Write manifest, predictions, and the raw-response audit log.

    The directory name is the run id, a hash of the manifest content, so
    identical runs land in identical locations. The written manifest adds
    the run's shared provenance, which the run id does not hash: it is
    worked out from the predictions.

    The files are written into a temporary sibling directory, which is
    then renamed into place. Where a run directory already exists, its
    files must hold the same bytes; different bytes raise PipelineError
    and leave it as it was.
    """
    out_dir = Path(out_dir)
    run_dir = out_dir / result.run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{result.run_id}.", dir=out_dir))
    try:
        _write_run_files(result, staging)
        try:
            staging.rename(run_dir)
        except OSError:
            if not run_dir.is_dir():
                raise
            if not all(_same_bytes(staging / name, run_dir / name) for name in _RUN_FILES):
                raise PipelineError(
                    f"{run_dir}: holds different files under this run id; not overwritten"
                ) from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    result.run_dir = run_dir
    return run_dir


def _write_run_files(result: RunResult, run_dir: Path) -> None:
    shared = _shared_provenance(result.predictions)
    (run_dir / "manifest.json").write_text(
        json.dumps(
            {**result.manifest, _SHARED_KEY: shared},
            sort_keys=True,
            ensure_ascii=False,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
        newline="",
    )
    write_lines(run_dir / "predictions.jsonl", result.predictions, _prediction_writer(shared))
    write_lines(run_dir / "responses.jsonl", result.audit, _audit_writer())


def _same_bytes(path: Path, other: Path) -> bool:
    return other.is_file() and other.read_bytes() == path.read_bytes()


def load_predictions(path: Union[str, Path], task: Task) -> list[Prediction]:
    """Read a persisted predictions file back, each record's provenance
    completed from the shared provenance in the ``manifest.json`` beside
    it. A bad line, or a missing or bad manifest, is a PipelineError."""
    manifest = Path(path).parent / "manifest.json"
    try:
        shared = read_json(manifest, _read_shared, PipelineError)
    except OSError as exc:
        raise PipelineError(f"{manifest}: {exc.strerror or exc}") from None
    build = partial(_prediction_from, label_reader(task), label_reader(Task.AGGRESSION), shared)
    return read_lines(path, build, PipelineError)


def _read_shared(manifest: dict) -> tuple[dict, list[str], list[tuple[str, str]]]:
    """A manifest's shared provenance: (pairs, the keys of its list values,
    (provenance key, top-level field) per copied key)."""
    shared = manifest.get(_SHARED_KEY, {"from_fields": [], "pairs": {}})
    pairs, from_fields = shared["pairs"], shared["from_fields"]
    if type(pairs) is not dict or type(from_fields) is not list:
        raise TypeError(f"{_SHARED_KEY}: expected an object of pairs and a list of keys")
    unknown = [key for key in from_fields if key not in _FROM_FIELDS]
    if unknown:
        raise ValueError(f"{_SHARED_KEY}: no top-level field for {unknown}")
    lists = [key for key, value in pairs.items() if type(value) is list]
    return pairs, lists, [(key, _FROM_FIELDS[key]) for key in from_fields]


def _prediction_from(read_label, read_annotation, shared, record: dict) -> Prediction:
    """Inverse of the predictions line writer, whose keys are the
    ``Prediction`` field names; ``read_label`` reads the task's label names,
    ``read_annotation`` the aggression ones, and ``shared`` is the run's
    shared provenance (``_read_shared``). Each record gets its own copy of
    a shared list."""
    pairs, lists, from_fields = shared
    provenance = pairs.copy()
    for key in lists:
        provenance[key] = provenance[key].copy()
    for key, field_name in from_fields:
        provenance[key] = record[field_name]
    provenance.update(record.get("provenance", {}))
    record["provenance"] = provenance
    record["gold"] = read_label(record["gold"])
    if record.get("predicted") is not None:
        record["predicted"] = read_label(record["predicted"])
    if record.get("aggression_annotation") is not None:
        record["aggression_annotation"] = read_annotation(record["aggression_annotation"])
    return Prediction(**record)
