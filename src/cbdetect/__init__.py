"""Aggression-conditioned cyberbullying detection toolkit.

A desk-verifiable framework for the full experiment lifecycle: dataset
harmonization into one record schema, deterministic prompt construction
(zero-shot, few-shot, aggression-enriched), low-rank adapter tuning
contracts with a toy verification network, a two-stage enriched inference
pipeline, and a macro-F1 evaluation and reporting suite.
"""

from .labels import (
    AggressionLabel,
    CyberbullyingLabel,
    Task,
    display_names,
    label_from_name,
    label_space,
    label_to_name,
    labels_in_order,
)
from .corpus import (
    CorpusError,
    DatasetId,
    LabeledPost,
    LoadResult,
    RejectedRow,
    SchemaConfig,
    Split,
    SplitSpec,
    class_distribution,
    load_dataset,
    load_records,
    load_schema,
    save_records,
    save_rejects,
    split_corpus,
    split_sizes,
    synth_fixture,
)
from .prompting import (
    ExemplarSet,
    Prompt,
    PromptError,
    PromptTemplate,
    load_template,
    render_enriched,
    render_few_shot,
    render_zero_shot,
    select_exemplars,
)
from .backend import (
    BackendDescriptor,
    BackendError,
    BackendKind,
    BackendTimeout,
    MatchKind,
    ParsedLabel,
    ParseFailure,
    RawResponse,
    RetryPolicy,
    TransportError,
    class_name_stub,
    classify,
    classify_batch,
    constant_stub,
    load_synonym_table,
    make_stub,
    parse_label,
)
from .rundir import PipelineError, Prediction, RunResult, persist_run
from .pipeline import (
    ExperimentSpec,
    Method,
    run_baseline,
    run_epp,
    run_experiment,
    run_from_manifest,
    spec_from_manifest,
)
from .evalkit import (
    ComparisonGrid,
    ConfusionMatrix,
    EvalError,
    EvalReport,
    ParseFailurePolicy,
    build_confusion,
    compute_metrics,
    reference_reports,
    render_grid,
)

__version__ = "0.1.0"
