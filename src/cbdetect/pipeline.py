"""Experiment orchestration over a corpus split.

``run_baseline`` drives the four single-stage methods; ``run_epp`` drives
the three-step enriched flow: predict aggression on the raw post, embed the
predicted display name into the cyberbullying prompt, classify the enriched
prompt with the second-stage backend.

Each stage renders all of its prompts, then sends them to its backend as
one batch. Per-record failures (transport or parse) become failure
outcomes on that record only; they never abort a run or disturb
neighbouring records. Output order always equals input order, even with a
concurrent backend.
Every run can be persisted to a content-addressed directory holding the
manifest, the predictions file, and a raw-response audit log; rerunning
from the manifest with stub backends reproduces the predictions file byte
for byte.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import itemgetter
from os.path import commonprefix
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

from . import backend as backend_mod
from ._config import read_json, read_lines, write_lines
from .backend import (
    BackendDescriptor,
    BackendKind,
    ParsedLabel,
    ParseFailure,
    RawResponse,
    TransportError,
    parse_label,
)
from .corpus import LabeledPost
from .labels import (
    AggressionLabel,
    Label,
    Task,
    label_from_name,
    label_reader,
    label_space,
    label_to_name,
    labels_in_order,
)
from .prompting import (
    DEFAULT_TEMPLATE_IDS,
    ExemplarSet,
    Prompt,
    PromptMode,
    PromptTemplate,
    load_template,
    render_enriched,
    render_few_shot,
    render_zero_shot,
    select_exemplars,
)


class PipelineError(ValueError):
    pass


class Method(enum.Enum):
    ZERO_SHOT = "zero_shot"
    FEW_SHOT = "few_shot"
    LORA_SFT = "lora_sft"
    MTL = "mtl"
    EPP = "epp"


STAGE1_FALLBACK_LABEL = AggressionLabel.NAG


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: method, task, backends, templates, seeds, overrides.

    The enriched-pipeline method requires exactly two backends: the
    aggression stage first, the cyberbullying stage second. Single-stage
    methods take exactly one.

    ``aggression_overrides`` is EPP's diagnostic mode: the listed records
    skip stage 1 and are enriched with the given label, marked
    ``stage1_mode: gold_override``. The manifest records the set, so a
    diagnostic run is never mistakable for an inference run.
    """

    method: Method
    task: Task
    backends: tuple[BackendDescriptor, ...]
    templates: dict[str, str] = field(default_factory=dict)
    exemplar_k: int = 3
    seed: int = 0
    aggression_overrides: dict[str, AggressionLabel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a copy, so the checks below still hold when the caller's dict changes
        object.__setattr__(self, "aggression_overrides", dict(self.aggression_overrides))
        if self.method is Method.EPP:
            if self.task is not Task.CYBERBULLYING:
                raise PipelineError("the enriched pipeline targets the cyberbullying task")
            if len(self.backends) != 2:
                raise PipelineError(
                    "epp needs exactly two backends: aggression stage, cyberbullying stage"
                )
        else:
            if len(self.backends) != 1:
                raise PipelineError(f"method {self.method.value} takes exactly one backend")
            if self.aggression_overrides:
                raise PipelineError("aggression overrides apply only to an epp experiment spec")
        for post_id, label in self.aggression_overrides.items():
            if not isinstance(label, AggressionLabel):
                raise PipelineError(f"override for {post_id!r} is not an aggression label")

    def template_id(self, role: str) -> str:
        if role in self.templates:
            return self.templates[role]
        defaults = {
            "main": DEFAULT_TEMPLATE_IDS[
                PromptMode.FEW_SHOT if self.method is Method.FEW_SHOT else PromptMode.ZERO_SHOT
            ],
            "stage1": DEFAULT_TEMPLATE_IDS[PromptMode.ZERO_SHOT],
            "enriched": DEFAULT_TEMPLATE_IDS[PromptMode.ENRICHED],
        }
        return defaults[role]


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


def _canonical_line(record: dict) -> str:
    return _CANONICAL.encode(record) + "\n"


# The run files' line writers fill %-templates and are byte-identical to
# ``_canonical_line``: keys in sorted order, strings through the encoder's
# own escaping, and every value a run holds fixed encoded once per run.
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
# the provenance keys a stage sets per record; a stage holds every other one fixed
_PROVENANCE_HOLES = frozenset(("post_id", "aggression_label", "stage1_mode", "match_kind"))


def _prediction_writer() -> Callable[[Prediction], str]:
    """A line writer for ``predictions.jsonl``: the record's fields are the
    ``Prediction`` field names, and the EPP keys are written only for a
    record with an aggression annotation."""
    encoders: dict[tuple, Callable[[dict], str]] = {}

    def provenance_json(provenance: dict) -> str:
        keys = tuple(provenance)
        encode = encoders.get(keys)
        if encode is None:
            encode = encoders[keys] = _provenance_encoder(provenance)
        return encode(provenance)

    def line(p: Prediction) -> str:
        fields = (
            "null" if p.failure is None else _encode(p.failure),
            _LABEL_NAMES[type(p.gold)][p.gold],
            _encode(p.post_id),
            "null" if p.predicted is None else _LABEL_NAMES[type(p.predicted)][p.predicted],
            provenance_json(p.provenance),
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


def _provenance_encoder(provenance: dict) -> Callable[[dict], str]:
    """An encoder for provenance dicts with ``provenance``'s keys: a template
    holding its fixed values, with a hole per ``_PROVENANCE_HOLES`` key.

    A dict whose fixed values differ from the template's (in value or type)
    or whose holes are not all ``str`` is encoded by ``_CANONICAL``, and so
    is every dict with these keys when one of ``provenance``'s fixed values
    could encode two ways while comparing equal (floats, containers other
    than lists of ``str``)."""
    # itemgetter returns a tuple only for two keys or more
    if len(provenance) < 2 or not all(type(key) is str for key in provenance):
        return _CANONICAL.encode
    keys = sorted(provenance)
    fixed = [key for key in keys if key not in _PROVENANCE_HOLES]
    holes = [key for key in keys if key in _PROVENANCE_HOLES]
    values = tuple(provenance[key] for key in fixed)
    if not all(map(_encodes_one_way, values)):
        return _CANONICAL.encode

    def literal(value) -> str:
        return _CANONICAL.encode(value).replace("%", "%%")

    template = "{%s}" % ",".join(
        literal(key) + ":" + ("%s" if key in _PROVENANCE_HOLES else literal(provenance[key]))
        for key in keys
    )
    get = itemgetter(*fixed, *holes)
    types = [*map(type, values), *[str] * len(holes)]
    n_fixed = len(fixed)

    # not tuple(map(...)): it builds an oversized tuple and resizes it, which
    # leaves the collector's allocation count one higher every fifth to tenth
    # call, so a run's writes would trigger collections of the whole heap
    def encode(provenance: dict) -> str:
        record = get(provenance)
        if record[:n_fixed] == values and [*map(type, record)] == types:
            return template % (*map(_encode, record[n_fixed:]),)
        return _CANONICAL.encode(provenance)

    return encode


def _encodes_one_way(value) -> bool:
    """Whether every value equal to ``value`` and of its type has its JSON."""
    if type(value) is list:
        return all(type(item) is str for item in value)
    return value is None or type(value) in (str, int, bool)


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


def _read_outcome(
    post_id: str, stage: str, prompt: Prompt, outcome: Union[RawResponse, TransportError]
) -> tuple[ParsedLabel | None, str | None, str | None, dict]:
    """(parsed label, response text, failure, audit entry) of one record's
    outcome: a transport error, a parsed label or a parse failure."""
    failed = isinstance(outcome, BaseException)
    entry = {
        "post_id": post_id,
        "stage": stage,
        "rendered_text": prompt.rendered_text,
        "response_text": None if failed else outcome.text,
        "failure": str(outcome) if failed else None,
    }
    if failed:
        return None, None, f"transport_error: {outcome}", entry
    try:
        return parse_label(outcome, prompt.label_space), outcome.text, None, entry
    except ParseFailure:
        return None, outcome.text, "parse_failure", entry


# a baseline record's stage-1 cue: no annotation, no fallback, no response, no mode
_NO_CUE = (None, False, None, None)


def _run_stage(
    stage: str,
    posts: Sequence[LabeledPost],
    prompts: list[Prompt],
    descriptor: BackendDescriptor,
    meta: dict,
    audit: list[dict],
    cues: Sequence[tuple] | None = None,
) -> list[Prediction]:
    """Classify a stage's prompts in one batch: one ``Prediction`` per record,
    its audit entry appended to ``audit``. ``meta`` joins every record's
    provenance; ``cues`` are EPP stage 2's per-record stage-1 cues."""
    outcomes = backend_mod.classify_batch(prompts, descriptor)
    predictions = []
    for post, prompt, outcome, (annotation, fallback, stage1_text, stage1_mode) in zip(
        posts, prompts, outcomes, cues or repeat(_NO_CUE)
    ):
        parsed, response_text, failure, entry = _read_outcome(post.id, stage, prompt, outcome)
        audit.append(entry)
        provenance = prompt.provenance.to_dict()
        provenance.update(meta)
        if stage1_mode is not None:
            provenance["stage1_mode"] = stage1_mode
        if parsed is not None:
            provenance["match_kind"] = parsed.match_kind.value
        predictions.append(
            Prediction(
                post_id=post.id,
                gold=post.label,
                predicted=None if parsed is None else parsed.label,
                failure=failure,
                aggression_annotation=annotation,
                stage1_fallback=fallback,
                provenance=provenance,
                response_text=response_text,
                stage1_response_text=stage1_text,
            )
        )
    return predictions


def _finish_run(
    spec: ExperimentSpec,
    templates: Mapping[str, PromptTemplate],
    predictions: list[Prediction],
    audit: list[dict],
    out_dir: Union[str, Path, None],
    exemplars: ExemplarSet | None = None,
) -> RunResult:
    """Build the run's manifest and result; persist it when ``out_dir`` is
    given. The run id hashes the manifest."""
    manifest = {
        "method": spec.method.value,
        "task": spec.task.value,
        "seed": spec.seed,
        "templates": {
            role: {"template_id": template.template_id, "version": template.version}
            for role, template in templates.items()
        },
        "backends": [b.to_dict() for b in spec.backends],
        "checkpoints": [
            b.checkpoint_path for b in spec.backends if b.kind is BackendKind.TOY_CHECKPOINT
        ],
        "n_records": len(predictions),
    }
    if exemplars is not None:
        manifest["exemplars"] = {
            "k": exemplars.k,
            "seed": exemplars.seed,
            "source_ids": list(exemplars.source_ids),
        }
    if spec.aggression_overrides:
        manifest["aggression_overrides"] = {
            post_id: label.name for post_id, label in sorted(spec.aggression_overrides.items())
        }
    manifest["run_id"] = hashlib.sha256(_CANONICAL.encode(manifest).encode("utf-8")).hexdigest()[:12]
    result = RunResult(spec=spec, predictions=predictions, manifest=manifest, audit=audit)
    if out_dir is not None:
        persist_run(result, out_dir)
    return result


def run_baseline(
    posts: Sequence[LabeledPost],
    spec: ExperimentSpec,
    train_posts: Sequence[LabeledPost] | None = None,
    out_dir: Union[str, Path, None] = None,
) -> RunResult:
    """One prediction per input record, in input order.

    Few-shot runs select exemplars from ``train_posts`` before any backend
    call, so an undersized exemplar class fails the run up front. Every
    prompt is rendered before the one backend batch, so a prompt error
    (e.g. exemplar leakage) fails the run with nothing sent.
    """
    if spec.method is Method.EPP:
        raise PipelineError("use run_epp for the enriched pipeline")
    if not posts:
        raise PipelineError("empty evaluation split")

    template = load_template(spec.template_id("main"), spec.task)
    exemplars: ExemplarSet | None = None
    if spec.method is Method.FEW_SHOT:
        if not train_posts:
            raise PipelineError("few_shot requires a training pool for exemplar selection")
        exemplars = select_exemplars(train_posts, spec.exemplar_k, spec.seed)
        prompts = [render_few_shot(post, template, exemplars) for post in posts]
    else:
        prompts = [render_zero_shot(post, template) for post in posts]

    descriptor = spec.backends[0]
    audit: list[dict] = []
    predictions = _run_stage(
        "main", posts, prompts, descriptor, {"backend_id": descriptor.backend_id}, audit
    )
    return _finish_run(spec, {"main": template}, predictions, audit, out_dir, exemplars)


def run_epp(
    posts: Sequence[LabeledPost],
    spec: ExperimentSpec,
    out_dir: Union[str, Path, None] = None,
) -> RunResult:
    """Three sequential steps per record.

    1. The aggression-stage backend classifies the raw post.
    2. The predicted display name is embedded into the enriched prompt.
    3. The cyberbullying-stage backend classifies the enriched prompt.

    A stage-1 parse failure falls back to the Not-Aggressive enrichment and
    flags the record; the run always completes. The aggression stage is a
    previously tuned artifact used as-is: this pipeline never retrains it.
    Records in the spec's ``aggression_overrides`` skip stage 1.
    """
    if spec.method is not Method.EPP:
        raise PipelineError("run_epp requires an epp experiment spec")
    if not posts:
        raise PipelineError("empty evaluation split")
    overrides = spec.aggression_overrides

    stage1_template = load_template(spec.template_id("stage1"), Task.AGGRESSION)
    enriched_template = load_template(spec.template_id("enriched"), Task.CYBERBULLYING)
    stage1_backend, stage2_backend = spec.backends

    # Stage 1: aggression cues for every record not covered by an override.
    stage1_prompts = [
        render_zero_shot(post, stage1_template, Task.AGGRESSION)
        for post in posts
        if post.id not in overrides
    ]
    stage1_outcomes = iter(
        zip(stage1_prompts, backend_mod.classify_batch(stage1_prompts, stage1_backend))
    )

    audit = []
    # per record: (aggression label, fallback flag, stage-1 response, stage-1 mode)
    cues: list[tuple[AggressionLabel, bool, str | None, str]] = []
    for post in posts:
        if post.id in overrides:
            audit.append(
                {
                    "post_id": post.id,
                    "stage": "stage1",
                    "rendered_text": None,
                    "response_text": None,
                    "failure": None,
                    "gold_override": overrides[post.id].name,
                }
            )
            cues.append((overrides[post.id], False, None, "gold_override"))
            continue
        prompt, outcome = next(stage1_outcomes)
        parsed, response_text, _, entry = _read_outcome(post.id, "stage1", prompt, outcome)
        audit.append(entry)
        label = STAGE1_FALLBACK_LABEL if parsed is None else parsed.label
        cues.append((label, parsed is None, response_text, "predicted"))

    # Stages 2 and 3: enrich with the predicted cue, then classify.
    prompts = [
        render_enriched(post, cue[0], enriched_template) for post, cue in zip(posts, cues)
    ]
    stage_meta = {
        "backend_id": stage2_backend.backend_id,
        "stage1_backend_id": stage1_backend.backend_id,
        "stage1_template_id": stage1_template.template_id,
    }
    predictions = _run_stage("stage2", posts, prompts, stage2_backend, stage_meta, audit, cues)
    templates = {"stage1": stage1_template, "enriched": enriched_template}
    return _finish_run(spec, templates, predictions, audit, out_dir)


def run_experiment(
    posts: Sequence[LabeledPost],
    spec: ExperimentSpec,
    train_posts: Sequence[LabeledPost] | None = None,
    out_dir: Union[str, Path, None] = None,
) -> RunResult:
    """Run ``spec`` through ``run_epp`` or ``run_baseline`` by its method."""
    if spec.method is Method.EPP:
        return run_epp(posts, spec, out_dir=out_dir)
    return run_baseline(posts, spec, train_posts=train_posts, out_dir=out_dir)


def persist_run(result: RunResult, out_dir: Union[str, Path]) -> Path:
    """Write manifest, predictions, and the raw-response audit log.

    The directory name is the run id, a hash of the manifest content, so
    identical configurations land in identical locations.
    """
    run_dir = Path(out_dir) / result.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifest.json").write_text(
        json.dumps(result.manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
        newline="",
    )
    write_lines(run_dir / "predictions.jsonl", result.predictions, _prediction_writer())
    write_lines(run_dir / "responses.jsonl", result.audit, _audit_writer())
    result.run_dir = run_dir
    return run_dir


def spec_from_manifest(manifest: dict) -> ExperimentSpec:
    """Rebuild the experiment spec of a persisted manifest; the one reader
    of a manifest's inputs."""
    templates = {role: meta["template_id"] for role, meta in manifest.get("templates", {}).items()}
    exemplar_k = {"exemplar_k": manifest["exemplars"]["k"]} if "exemplars" in manifest else {}
    overrides = {
        post_id: label_from_name(Task.AGGRESSION, name)
        for post_id, name in manifest.get("aggression_overrides", {}).items()
    }
    return ExperimentSpec(
        method=Method(manifest["method"]),
        task=Task(manifest["task"]),
        backends=tuple(BackendDescriptor.from_dict(d) for d in manifest["backends"]),
        templates=templates,
        seed=manifest["seed"],
        aggression_overrides=overrides,
        **exemplar_k,
    )


def run_from_manifest(
    manifest: dict,
    posts: Sequence[LabeledPost],
    train_posts: Sequence[LabeledPost] | None = None,
    out_dir: Union[str, Path, None] = None,
) -> RunResult:
    """Re-execute a persisted run; with stub backends the predictions file
    is byte-identical to the original."""
    return run_experiment(posts, spec_from_manifest(manifest), train_posts, out_dir)


def load_manifest(path: Union[str, Path]) -> tuple[ExperimentSpec, str]:
    """The spec and run id of a persisted manifest; PipelineError names a bad one's path."""
    return read_json(path, lambda m: (spec_from_manifest(m), str(m["run_id"])), PipelineError)


def load_predictions(path: Union[str, Path], task: Task) -> list[Prediction]:
    """Read a persisted predictions file back; a bad line is a PipelineError."""
    build = partial(_prediction_from, label_reader(task), label_reader(Task.AGGRESSION))
    return list(read_lines(path, build, PipelineError))


def _prediction_from(read_label, read_annotation, record: dict) -> Prediction:
    """Inverse of the predictions line writer, whose keys are the
    ``Prediction`` field names; ``read_label`` reads the task's label names,
    ``read_annotation`` the aggression ones."""
    record["gold"] = read_label(record["gold"])
    if record.get("predicted") is not None:
        record["predicted"] = read_label(record["predicted"])
    if record.get("aggression_annotation") is not None:
        record["aggression_annotation"] = read_annotation(record["aggression_annotation"])
    return Prediction(**record)
