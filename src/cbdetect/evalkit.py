"""Accuracy, per-class precision/recall/F1, macro aggregates, and the
method-by-task comparison grid.

Macro averages are unweighted means over every class in the declared label
space, including classes that never occur, which keeps scores comparable
across runs. Any metric with a zero denominator is defined as 0. Records
whose response mapped to no label are never folded into the confusion
counts; a policy decides whether they depress the metrics or are merely
reported next to them.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .labels import Label

METHOD_ORDER = ("zero_shot", "few_shot", "lora_sft", "mtl", "epp")
METHOD_DISPLAY = {
    "zero_shot": "Zero-shot",
    "few_shot": "Few-shot",
    "lora_sft": "LoRA",
    "mtl": "MTL",
    "epp": "EPP",
}
TASK_ORDER = ("aggression", "cyberbullying")
TASK_DISPLAY = {
    "aggression": "Aggression Detection",
    "cyberbullying": "Cyberbullying Detection",
}


class EvalError(ValueError):
    pass


class ParseFailurePolicy(enum.Enum):
    COUNT_AS_ERROR_CLASS = "count_as_error_class"
    EXCLUDE_AND_REPORT = "exclude_and_report"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Gold-by-predicted counts; unscored records tracked separately.

    ``counts[g][p]`` is the number of records with gold class g predicted
    as p. Parse failures never enter the matrix, so
    sum(counts) + n_parse_failures equals the number of evaluated records.
    """

    label_space: type
    counts: np.ndarray
    failures_by_gold: np.ndarray

    @property
    def n_parse_failures(self) -> int:
        return int(self.failures_by_gold.sum())

    @property
    def n_records(self) -> int:
        return int(self.counts.sum()) + self.n_parse_failures


def build_confusion(predictions: Sequence, space: type) -> ConfusionMatrix:
    """Tally predictions into a confusion matrix.

    Accepts pipeline predictions (objects with ``gold`` and ``predicted``
    attributes) or plain (gold, predicted) pairs; ``predicted=None`` marks
    an unscored record. All golds must belong to the one label space.
    """
    n = len(list(space))
    counts = np.zeros((n, n), dtype=int)
    failures = np.zeros(n, dtype=int)
    for item in predictions:
        if isinstance(item, tuple):
            gold, predicted = item
        else:
            gold, predicted = item.gold, item.predicted
        if not isinstance(gold, space):
            raise EvalError(
                f"gold label {gold!r} is not a {space.__name__}; "
                "predictions must share one task"
            )
        if predicted is None:
            failures[int(gold)] += 1
        elif isinstance(predicted, space):
            counts[int(gold), int(predicted)] += 1
        else:
            raise EvalError(f"predicted label {predicted!r} is not a {space.__name__}")
    return ConfusionMatrix(label_space=space, counts=counts, failures_by_gold=failures)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[Label, ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    parse_failure_policy: ParseFailurePolicy
    n_parse_failures: int = 0
    run_id: str | None = None

    @classmethod
    def from_macro_f1(cls, macro_f1: float) -> "EvalReport":
        """Fixture report carrying only a headline score (for grids)."""
        return cls(
            per_class={},
            accuracy=float("nan"),
            macro_precision=float("nan"),
            macro_recall=float("nan"),
            macro_f1=macro_f1,
            parse_failure_policy=ParseFailurePolicy.EXCLUDE_AND_REPORT,
        )


def compute_metrics(
    cm: ConfusionMatrix,
    policy: ParseFailurePolicy = ParseFailurePolicy.EXCLUDE_AND_REPORT,
    run_id: str | None = None,
) -> EvalReport:
    """Per-class P/R/F1 plus accuracy and unweighted macro aggregates.

    Under ``count_as_error_class`` a parse failure counts against its gold
    class's recall and against accuracy; under ``exclude_and_report`` the
    metrics ignore failures and the count rides along in the report.
    """
    counts = cm.counts
    total = int(counts.sum())
    if total == 0:
        raise EvalError("empty confusion matrix")

    labels = list(cm.label_space)
    col_sums = counts.sum(axis=0)
    row_sums = counts.sum(axis=1)
    include_failures = policy is ParseFailurePolicy.COUNT_AS_ERROR_CLASS

    per_class: dict[Label, ClassMetrics] = {}
    for i, lab in enumerate(labels):
        tp = float(counts[i, i])
        fp = float(col_sums[i]) - tp
        fn = float(row_sums[i]) - tp
        if include_failures:
            fn += float(cm.failures_by_gold[i])
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[lab] = ClassMetrics(precision=precision, recall=recall, f1=f1)

    denominator = total + (cm.n_parse_failures if include_failures else 0)
    accuracy = float(np.trace(counts)) / denominator
    n = len(labels)
    return EvalReport(
        per_class=per_class,
        accuracy=accuracy,
        macro_precision=sum(m.precision for m in per_class.values()) / n,
        macro_recall=sum(m.recall for m in per_class.values()) / n,
        macro_f1=sum(m.f1 for m in per_class.values()) / n,
        parse_failure_policy=policy,
        n_parse_failures=cm.n_parse_failures,
        run_id=run_id,
    )


@dataclass(frozen=True)
class ComparisonGrid:
    """Rendered method-by-task grid: plain text plus a delimited form."""

    text: str
    csv_text: str

    def write(self, text_path, csv_path=None) -> None:
        from pathlib import Path

        Path(text_path).write_text(self.text, encoding="utf-8", newline="")
        if csv_path is not None:
            Path(csv_path).write_text(self.csv_text, encoding="utf-8", newline="")


def _normalize_key(key: tuple) -> tuple[str, str, str]:
    model, method, task = key
    method = method.value if hasattr(method, "value") else str(method)
    task = task.value if hasattr(task, "value") else str(task)
    return str(model), method, task


def render_grid(reports: Mapping[tuple, EvalReport]) -> ComparisonGrid:
    """Models as rows, task groups as column blocks, methods as columns.

    The best macro-F1 per model/task comparison is emphasized with
    asterisks in the text form; ties are all marked. The CSV lists the
    same cells in the text's (model, task, method) order. A key whose
    method or task the grid has no column for is an ``EvalError``.
    """
    if not reports:
        raise EvalError("no reports to render")
    normalized = {_normalize_key(k): v for k, v in reports.items()}
    for key in normalized:
        if key[1] not in METHOD_ORDER or key[2] not in TASK_ORDER:
            raise EvalError(f"no grid column for report key {key}")

    models = sorted({model for model, _, _ in normalized})
    tasks = [t for t in TASK_ORDER if any(task == t for _, _, task in normalized)]

    cells: dict[tuple[str, str, str], str] = {}
    for model in models:
        for task in tasks:
            scores = {
                method: normalized[(model, method, task)].macro_f1
                for method in METHOD_ORDER
                if (model, method, task) in normalized
            }
            best = max(scores.values()) if len(scores) > 1 else None
            for method in METHOD_ORDER:
                if method not in scores:
                    cells[(model, method, task)] = "-"
                    continue
                value = f"{scores[method]:.2f}"
                if best is not None and scores[method] == best:
                    value = f"*{value}*"
                failures = normalized[(model, method, task)].n_parse_failures
                if failures:
                    value = f"{value}({failures})"
                cells[(model, method, task)] = value

    header_meta = _grid_header(normalized)
    text = header_meta + _grid_text(models, tasks, cells)
    csv_text = _grid_csv(models, tasks, normalized)
    return ComparisonGrid(text=text, csv_text=csv_text)


def _grid_header(normalized: Mapping[tuple[str, str, str], EvalReport]) -> str:
    run_ids = sorted({r.run_id for r in normalized.values() if r.run_id})
    policies = sorted({r.parse_failure_policy.value for r in normalized.values()})
    lines = ["# macro-F1 comparison across models and methods"]
    lines.append(f"# parse_failure_policy: {', '.join(policies)}")
    if any(r.n_parse_failures for r in normalized.values()):
        lines.append("# cells append (n) when n responses were unparseable")
    if run_ids:
        lines.append(f"# runs: {', '.join(run_ids)}")
    return "\n".join(lines) + "\n"


def _grid_text(models, tasks, cells) -> str:
    method_headers = [METHOD_DISPLAY[m] for m in METHOD_ORDER]
    widths = {
        m: max(
            len(METHOD_DISPLAY[m]),
            *(len(cells[(model, m, task)]) for model in models for task in tasks),
        )
        for m in METHOD_ORDER
    }
    model_width = max(len("Model"), *(len(m) for m in models))

    def method_block(values: list[str]) -> str:
        return "  ".join(v.rjust(widths[m]) for m, v in zip(METHOD_ORDER, values))

    block_width = len(method_block(method_headers))
    top = "Model".ljust(model_width) + " | " + " | ".join(
        TASK_DISPLAY.get(t, t).ljust(block_width) for t in tasks
    )
    sub = " " * model_width + " | " + " | ".join(
        method_block(method_headers).ljust(block_width) for _ in tasks
    )
    rule = "-" * len(sub)
    rows = []
    for model in models:
        blocks = []
        for task in tasks:
            blocks.append(
                method_block([cells[(model, m, task)] for m in METHOD_ORDER]).ljust(block_width)
            )
        rows.append(model.ljust(model_width) + " | " + " | ".join(blocks))
    return "\n".join([top, sub, rule, *rows]) + "\n"


def _grid_csv(models, tasks, normalized: Mapping[tuple[str, str, str], EvalReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["model", "task", "method", "macro_f1", "accuracy", "n_parse_failures",
         "parse_failure_policy", "run_id"]
    )
    for model, task, method in product(models, tasks, METHOD_ORDER):
        report = normalized.get((model, method, task))
        if report is None:
            continue
        accuracy = "" if np.isnan(report.accuracy) else f"{report.accuracy:.6f}"
        writer.writerow(
            [model, task, method, f"{report.macro_f1:.6f}", accuracy,
             report.n_parse_failures, report.parse_failure_policy.value, report.run_id or ""]
        )
    return buffer.getvalue()


def reference_reports() -> dict[tuple[str, str, str], EvalReport]:
    """The published macro-F1 grid, shipped as a rendering fixture, as
    fixture reports keyed (model, method, task)."""
    ref = resources.files("cbdetect.data").joinpath("reference_scores.json")
    out = {}
    for model, by_task in json.loads(ref.read_text(encoding="utf-8"))["scores"].items():
        for task, by_method in by_task.items():
            for method, score in by_method.items():
                out[(model, method, task)] = EvalReport.from_macro_f1(score)
    return out
