"""Experiment orchestration over a corpus split.

``run_baseline`` drives the four single-stage methods; ``run_epp`` drives
the two-stage enriched flow: predict aggression on the raw post, embed the
predicted display name into the cyberbullying prompt, classify the enriched
prompt with the second-stage backend.

Each stage builds all of its prompts, then sends them to its backend as
one batch; building runs every prompt check, and a prompt's text is
rendered only if its backend reads it. One stage reader, ``_run_stage``,
sends every stage's batch, baseline and both EPP stages, and reads its
outcomes; each distinct answer text of a batch is parsed once. Per-record
failures (transport or parse) become failure outcomes on that record only;
they never abort a run or disturb neighbouring records. Output order
always equals input order, even with a concurrent backend.
A run given an ``out_dir`` is persisted there by ``rundir.persist_run``;
rerunning from the manifest with stub backends reproduces the predictions
file byte for byte.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from . import backend as backend_mod
from ._config import read_json
from .backend import (
    BackendDescriptor,
    BackendKind,
    ParsedLabel,
    ParseFailure,
    RawResponse,
    parse_label,
)
from .corpus import LabeledPost
from .labels import AggressionLabel, Label, Task, label_from_name
from .prompting import (
    ExemplarSet,
    Prompt,
    PromptTemplate,
    load_template,
    render_enriched,
    render_few_shot,
    render_zero_shot,
    select_exemplars,
)
# callers, and the benchmark's tracer, look persist_run and load_predictions
# up on this module
from .rundir import (
    PipelineError,
    Prediction,
    RunResult,
    load_predictions,
    persist_run,
    run_id_of,
)


class Method(enum.Enum):
    ZERO_SHOT = "zero_shot"
    FEW_SHOT = "few_shot"
    LORA_SFT = "lora_sft"
    MTL = "mtl"
    EPP = "epp"


STAGE1_FALLBACK_LABEL = AggressionLabel.NAG

# the template roles each method reads, and the shipped template each reads by default
_DEFAULT_TEMPLATES = {
    Method.ZERO_SHOT: {"main": "zero_shot_v1"},
    Method.FEW_SHOT: {"main": "few_shot_v1"},
    Method.LORA_SFT: {"main": "zero_shot_v1"},
    Method.MTL: {"main": "zero_shot_v1"},
    Method.EPP: {"stage1": "zero_shot_v1", "enriched": "enriched_v1"},
}


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: method, task, backends, templates, seeds, overrides.

    The enriched-pipeline method requires exactly two backends: the
    aggression stage first, the cyberbullying stage second. Single-stage
    methods take exactly one.

    ``templates`` maps a template role to a template id. EPP reads the
    roles ``stage1`` and ``enriched``, every other method ``main``; a role
    the method never reads is refused.

    ``aggression_overrides`` is EPP's diagnostic mode: the listed records
    skip stage 1 and are enriched with the given label, marked
    ``stage1_mode: gold_override``. The manifest records the set, so a
    diagnostic run is never mistakable for an inference run.
    """

    method: Method
    task: Task
    backends: tuple[BackendDescriptor, ...]
    templates: Mapping[str, str] = field(default_factory=dict)
    exemplar_k: int = 3
    seed: int = 0
    aggression_overrides: Mapping[str, AggressionLabel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("seed", "exemplar_k"):
            value = getattr(self, name)
            if not isinstance(value, int) or type(value) is bool:
                raise PipelineError(f"{name}: expected int, got {type(value).__name__}")
        # read-only copies, so the checks below hold for the spec's whole life
        for name, values in (("templates", "str"), ("aggression_overrides", "aggression label")):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise PipelineError(
                    f"{name}: expected a mapping of str to {values}, got {type(value).__name__}"
                )
            object.__setattr__(self, name, MappingProxyType(dict(value)))
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
            if not isinstance(post_id, str):
                raise PipelineError(f"aggression_overrides: post id {post_id!r} is not a string")
            if not isinstance(label, AggressionLabel):
                raise PipelineError(
                    f"aggression_overrides: override for {post_id!r} is not an aggression label"
                )
        roles = _DEFAULT_TEMPLATES[self.method]
        for role, template_id in self.templates.items():
            if role not in roles:
                raise PipelineError(
                    f"{self.method.value} reads no template role {role!r}; it reads {list(roles)}"
                )
            if not isinstance(template_id, str):
                raise PipelineError(f"template id for role {role!r} is not a string")

    def template_id(self, role: str) -> str:
        return self.templates.get(role, _DEFAULT_TEMPLATES[self.method][role])


# a parse dict's marker for a text that maps to no label; truthy, as a ParsedLabel is
_UNPARSEABLE = object()


def _parse(outcome: RawResponse, space: type, parses: dict):
    """``outcome``'s ``ParsedLabel`` in ``space``, or ``_UNPARSEABLE``,
    stored in the batch's ``parses`` under (response text, label space);
    the one caller of ``parse_label``."""
    try:
        parsed = parse_label(outcome, space)
    except ParseFailure:
        parsed = _UNPARSEABLE
    parses[outcome.text, space] = parsed
    return parsed


def _run_stage(
    stage: str,
    posts: Sequence[LabeledPost],
    prompts: list[Prompt],
    descriptor: BackendDescriptor,
    audit: list[dict],
) -> list[tuple[ParsedLabel | None, str | None, str | None]]:
    """The one stage reader, for baseline runs and both EPP stages: classify
    the prompts in one batch, and per record append its audit entry to
    ``audit`` and return (parsed label or None, response text, failure).
    An entry holds the rendered prompt only when the backend reads it; a
    backend that read the post has it in the records file. Each distinct
    (response text, label space) of the batch is parsed once, and a
    transport error is never parsed."""
    outcomes = backend_mod.classify_batch(prompts, descriptor)
    reads_prompt = descriptor.input_mode == "rendered_text"
    parses: dict = {}
    read = []
    for post, prompt, outcome in zip(posts, prompts, outcomes):
        failed = isinstance(outcome, BaseException)
        text = None if failed else outcome.text
        entry = {
            "post_id": post.id,
            "stage": stage,
            "response_text": text,
            "failure": str(outcome) if failed else None,
        }
        if reads_prompt:
            entry["rendered_text"] = prompt.rendered_text
        audit.append(entry)
        if failed:
            read.append((None, None, f"transport_error: {outcome}"))
            continue
        space = prompt.label_space
        parsed = parses.get((text, space)) or _parse(outcome, space, parses)
        read.append((None, text, "parse_failure") if parsed is _UNPARSEABLE else (parsed, text, None))
    return read


def _prediction(
    post: LabeledPost,
    parsed: ParsedLabel | None,
    response_text: str | None,
    failure: str | None,
    cue: tuple = (None, False, None, None),
) -> Prediction:
    """A record's ``Prediction``. ``cue`` is an EPP stage-2 record's
    (aggression label, fallback flag, stage-1 response, stage-1 mode). The
    provenance holds only what differs per record, in the file's key
    order: ``match_kind`` when the response parsed, then on EPP
    ``stage1_mode``; what every record shares is in the manifest."""
    provenance = {} if parsed is None else {"match_kind": parsed.match_kind._value_}
    predicted = None if parsed is None else parsed.label
    annotation, fallback, stage1_text, stage1_mode = cue
    if stage1_mode is not None:
        provenance["stage1_mode"] = stage1_mode
    return Prediction(
        post.id, post.label, predicted, failure, annotation, fallback, provenance, response_text, stage1_text
    )


def _finish_run(
    spec: ExperimentSpec,
    templates: Mapping[str, PromptTemplate],
    predictions: list[Prediction],
    audit: list[dict],
    out_dir: Union[str, Path, None],
    posts: Sequence[LabeledPost],
    exemplars: ExemplarSet | None = None,
) -> RunResult:
    """Build the run's manifest and result; persist it when ``out_dir`` is
    given. The run id hashes the manifest, which holds the configuration
    and digests of the inputs: the evaluation records, the exemplars a
    few-shot run rendered, and each toy checkpoint file's bytes."""
    checkpoints = [b.checkpoint_path for b in spec.backends if b.kind is BackendKind.TOY_CHECKPOINT]
    digests = {
        "records": _records_digest(
            [post.id for post in posts], [post.label for post in posts], [post.text for post in posts]
        ),
        "checkpoints": {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in checkpoints
        },
    }
    manifest = {
        "method": spec.method.value,
        "task": spec.task.value,
        "seed": spec.seed,
        "templates": {
            role: {"template_id": template.template_id, "version": template.version}
            for role, template in templates.items()
        },
        "backends": [b.to_dict() for b in spec.backends],
        "checkpoints": checkpoints,
        "n_records": len(predictions),
        "input_sha256": digests,
    }
    if exemplars is not None:
        manifest["exemplars"] = {
            "k": exemplars.k,
            "seed": exemplars.seed,
            "source_ids": list(exemplars.source_ids),
        }
        texts, labels = zip(*exemplars.exemplars)
        digests["exemplars"] = _records_digest(exemplars.source_ids, labels, texts)
    if spec.aggression_overrides:
        manifest["aggression_overrides"] = {
            post_id: label.name for post_id, label in sorted(spec.aggression_overrides.items())
        }
    manifest["run_id"] = run_id_of(manifest)
    result = RunResult(spec=spec, predictions=predictions, manifest=manifest, audit=audit)
    if out_dir is not None:
        persist_run(result, out_dir)
    return result


def _records_digest(ids: Sequence[str], labels: Sequence[Label], texts: Sequence[str]) -> str:
    """sha256 of the records' ids, label names and texts: each field's
    length as a little-endian 64-bit count, then the fields' UTF-8."""
    # _name_ is the member's plain attribute; .name is a property
    fields = [*ids, *[label._name_ for label in labels], *texts]
    digest = hashlib.sha256(struct.pack(f"<{len(fields)}Q", *map(len, fields)))
    digest.update("".join(fields).encode("utf-8"))
    return digest.hexdigest()


def run_baseline(
    posts: Sequence[LabeledPost],
    spec: ExperimentSpec,
    train_posts: Sequence[LabeledPost] | None = None,
    out_dir: Union[str, Path, None] = None,
) -> RunResult:
    """One prediction per input record, in input order.

    Few-shot runs select exemplars from ``train_posts`` before any backend
    call, so an undersized exemplar class fails the run up front. Every
    prompt is built, and checked, before the one backend batch, so a prompt
    error (e.g. exemplar leakage) fails the run with nothing sent.
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

    audit: list[dict] = []
    reads = _run_stage("main", posts, prompts, spec.backends[0], audit)
    predictions = [_prediction(post, *read) for post, read in zip(posts, reads)]
    return _finish_run(spec, {"main": template}, predictions, audit, out_dir, posts, exemplars)


def run_epp(
    posts: Sequence[LabeledPost],
    spec: ExperimentSpec,
    out_dir: Union[str, Path, None] = None,
) -> RunResult:
    """Two classification stages, each one backend batch.

    1. The aggression-stage backend classifies the raw posts.
    2. Each predicted display name is embedded into the record's enriched
       prompt, which the cyberbullying-stage backend classifies.

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
    stage1_posts = [post for post in posts if post.id not in overrides]
    stage1_prompts = [
        render_zero_shot(post, stage1_template, Task.AGGRESSION) for post in stage1_posts
    ]
    stage1_audit: list[dict] = []
    stage1_reads = _run_stage("stage1", stage1_posts, stage1_prompts, stage1_backend, stage1_audit)
    stage1 = zip(stage1_audit, stage1_reads)
    # merge the override entries into stage 1's in input order; a record's cue
    # is (aggression label, fallback flag, stage-1 response, stage-1 mode)
    audit, cues = [], []
    for post in posts:
        override = overrides.get(post.id)
        if override is not None:
            audit.append(
                {
                    "post_id": post.id,
                    "stage": "stage1",
                    "response_text": None,
                    "failure": None,
                    "gold_override": override.name,
                }
            )
            cues.append((override, False, None, "gold_override"))
            continue
        entry, (parsed, response_text, _) = next(stage1)
        audit.append(entry)
        label = STAGE1_FALLBACK_LABEL if parsed is None else parsed.label
        cues.append((label, parsed is None, response_text, "predicted"))

    # Stage 2: enrich with the cue, then classify.
    prompts = [
        render_enriched(post, cue[0], enriched_template) for post, cue in zip(posts, cues)
    ]
    reads = _run_stage("stage2", posts, prompts, stage2_backend, audit)
    predictions = [
        _prediction(post, *read, cue) for post, read, cue in zip(posts, reads, cues)
    ]
    templates = {"stage1": stage1_template, "enriched": enriched_template}
    return _finish_run(spec, templates, predictions, audit, out_dir, posts)


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


def spec_from_manifest(manifest: dict) -> ExperimentSpec:
    """Rebuild the experiment spec of a persisted manifest; the one reader
    of a manifest's inputs."""
    templates = {role: meta["template_id"] for role, meta in manifest.get("templates", {}).items()}
    exemplar_k = {"exemplar_k": manifest["exemplars"]["k"]} if "exemplars" in manifest else {}
    overrides = manifest.get("aggression_overrides", {})
    if isinstance(overrides, Mapping):  # anything else is the spec's to refuse
        overrides = {
            post_id: label_from_name(Task.AGGRESSION, name) if isinstance(name, str) else name
            for post_id, name in overrides.items()
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
