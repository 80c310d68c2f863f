"""Spans around the public functions of every layer, for the traced run.

Each target is patched at the attribute its callers look up at call time
(``cbdetect.pipeline.parse_label``, not ``cbdetect.backend.parse_label``,
because the pipeline imported the name), so the program itself is not
edited. A span is (name, start, end, info). A target that no longer
exists is reported as absent and its metrics read 0.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; child spans are matched by interval, because the
pipeline runs classify calls on worker threads.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    info: object  # what the target's info extractor returned, or None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _chars(args, kwargs, result, exc):
    return 0 if result is None else len(result.rendered_text)


def _classify(args, kwargs, result, exc):
    descriptor = args[1] if len(args) > 1 else kwargs["descriptor"]
    return (descriptor.kind.value, exc is not None)


def _parse(args, kwargs, result, exc):
    return "failure" if result is None else result.match_kind.value


def _load_dataset(args, kwargs, result, exc):
    return (0, 0) if result is None else (len(result.accepted), len(result.rejects))


def _rows(args, kwargs, result, exc):
    return int(args[1].shape[0])


def _run_dir_bytes(args, kwargs, result, exc):
    return 0 if result is None else sum(f.stat().st_size for f in Path(result).iterdir())


# (where callers look the function up, span name, info extractor)
TARGETS = (
    ("cbdetect.corpus.load_dataset", "corpus.load_dataset", _load_dataset),
    ("cbdetect.corpus.split_corpus", "corpus.split_corpus", None),
    ("cbdetect.corpus.save_records", "corpus.save_records", None),
    ("cbdetect.corpus.load_records", "corpus.load_records", None),
    ("cbdetect.pipeline.render_zero_shot", "prompting.render.zero_shot", _chars),
    ("cbdetect.pipeline.render_few_shot", "prompting.render.few_shot", _chars),
    ("cbdetect.pipeline.render_enriched", "prompting.render.enriched", _chars),
    ("cbdetect.pipeline.select_exemplars", "prompting.select_exemplars", None),
    ("cbdetect.backend.classify", "backend.classify", _classify),
    ("cbdetect.pipeline.parse_label", "backend.parse_label", _parse),
    ("cbdetect.backend.load_synonym_table", "backend.load_synonym_table", None),
    ("cbdetect.tuning.checkpoint.ToyClassifier.predict", "backend.toy.predict", None),
    ("cbdetect.tuning.checkpoint.load_classifier", "backend.toy.load_classifier", None),
    ("cbdetect.tuning.network.ToyTokenizer.batch_encode", "tuning.batch_encode", None),
    ("cbdetect.tuning.network.ToyTransformer.forward", "tuning.forward", _rows),
    ("cbdetect.tuning.network.ToyTransformer.backward", "tuning.backward", None),
    ("cbdetect.tuning.lora.AdapterState.effective_weights", "tuning.effective_weights", None),
    ("cbdetect.tuning.training.Adam.step", "tuning.adam_step", None),
    ("cbdetect.tuning.save_checkpoint", "tuning.save_checkpoint", None),
    ("cbdetect.pipeline.run_baseline", "pipeline.run", None),
    ("cbdetect.pipeline.run_epp", "pipeline.run", None),
    ("cbdetect.pipeline.persist_run", "pipeline.persist_run", _run_dir_bytes),
    ("cbdetect.pipeline.load_predictions", "evalkit.load_predictions", None),
    ("cbdetect.evalkit.build_confusion", "evalkit.build_confusion", None),
    ("cbdetect.evalkit.compute_metrics", "evalkit.compute_metrics", None),
    ("cbdetect.evalkit.render_grid", "evalkit.render_grid", None),
)

# spans that pipeline.self_s subtracts from pipeline.run
PIPELINE_CHILDREN = (
    "prompting.render.zero_shot", "prompting.render.few_shot", "prompting.render.enriched",
    "backend.classify", "backend.parse_label", "pipeline.persist_run",
)
KINDS = {"stub": "stub", "toy_checkpoint": "toy", "live_endpoint": "live"}


def _resolve(dotted: str):
    """(owner, attribute) for a dotted path, or None when it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for dotted, name, info in TARGETS:
            target = _resolve(dotted)
            if target is None:
                self.absent.append(dotted)
                continue
            owner, attr = target
            original = owner.__dict__.get(attr, getattr(owner, attr))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, exc = None, None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                ended = time.perf_counter()
                detail = info(args, kwargs, result, exc) if info else None
                # list.append is atomic, so worker threads need no lock
                self.spans.append(Span(name, started, ended, detail))

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def round_layers(spans: list[Span], endpoint: dict | None, live_records: int) -> tuple[dict, dict]:
    """Per-round layer metrics plus the raw samples pooled across rounds."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def secs(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m: dict[str, float] = {}
    loads = by_name.get("corpus.load_dataset", ())
    m["corpus.load_dataset.s"] = secs("corpus.load_dataset")
    m["corpus.load_dataset.rows"] = sum(sum(s.info) for s in loads)
    m["corpus.load_dataset.rejects"] = sum(s.info[1] for s in loads)
    for name in ("corpus.split_corpus", "corpus.save_records", "corpus.load_records"):
        m[f"{name}.s"] = secs(name)

    modes = ("zero_shot", "few_shot", "enriched")
    m["prompting.render.calls"] = sum(calls(f"prompting.render.{mode}") for mode in modes)
    for mode in modes:
        m[f"prompting.render.{mode}.s"] = secs(f"prompting.render.{mode}")
    m["prompting.render.chars"] = sum(
        s.info for mode in modes for s in by_name.get(f"prompting.render.{mode}", ())
    )
    m["prompting.select_exemplars.s"] = secs("prompting.select_exemplars")

    samples: dict[str, list[float]] = {}
    live_intervals = []
    for kind in KINDS.values():
        m[f"backend.classify.{kind}.calls"] = 0
        m[f"backend.classify.{kind}.s"] = 0.0
        m[f"backend.classify.{kind}.transport_errors"] = 0
        samples[f"backend.classify.{kind}"] = []
    for span in by_name.get("backend.classify", ()):
        kind_value, failed = span.info
        kind = KINDS[kind_value]
        m[f"backend.classify.{kind}.calls"] += 1
        m[f"backend.classify.{kind}.s"] += span.seconds
        m[f"backend.classify.{kind}.transport_errors"] += failed
        samples[f"backend.classify.{kind}"].append(span.seconds * 1e6)
        if kind == "live":
            live_intervals.append((span.start, span.end))
    live_busy = _covered(live_intervals)
    m["backend.live.inflight_mean"] = m["backend.classify.live.s"] / live_busy if live_busy else 0.0

    parses = by_name.get("backend.parse_label", ())
    m["backend.parse_label.calls"] = len(parses)
    m["backend.parse_label.s"] = secs("backend.parse_label")
    for outcome in ("exact", "synonym", "substring_first", "failure"):
        m[f"backend.parse_label.{outcome}"] = sum(1 for s in parses if s.info == outcome)
    m["backend.load_synonym_table.calls"] = calls("backend.load_synonym_table")
    m["backend.toy.predict.calls"] = calls("backend.toy.predict")
    m["backend.toy.load_classifier.s"] = secs("backend.toy.load_classifier")

    # The inference metrics of the tuning layer count only the spans inside
    # pipeline runs (matched by interval: toy classify may run on worker
    # threads); training calls the same functions, and its share shows in
    # tuning.backward and tuning.adam_step.
    run_intervals = [(s.start, s.end) for s in by_name.get("pipeline.run", ())]

    def inference(name):
        return [s for s in by_name.get(name, ())
                if any(a <= s.start and s.end <= b for a, b in run_intervals)]

    for name in ("tuning.batch_encode", "tuning.forward", "tuning.effective_weights"):
        spans_in_runs = inference(name)
        m[f"{name}.calls"] = len(spans_in_runs)
        m[f"{name}.s"] = sum(s.seconds for s in spans_in_runs)
    forwards = inference("tuning.forward")
    m["tuning.forward.rows_per_call"] = (
        sum(s.info for s in forwards) / len(forwards) if forwards else 0.0
    )
    for name in ("tuning.backward", "tuning.adam_step", "tuning.save_checkpoint"):
        m[f"{name}.s"] = secs(name)

    children = [(s.start, s.end) for name in PIPELINE_CHILDREN for s in by_name.get(name, ())]
    self_s = 0.0
    for started, ended in run_intervals:
        inside = [(max(a, started), min(b, ended)) for a, b in children if b > started and a < ended]
        self_s += (ended - started) - _covered(inside)
    m["pipeline.run.s"] = secs("pipeline.run")
    m["pipeline.self_s"] = self_s
    m["pipeline.persist_run.s"] = secs("pipeline.persist_run")
    m["pipeline.persist_run.bytes"] = sum(s.info for s in by_name.get("pipeline.persist_run", ()))

    for name in ("load_predictions", "build_confusion", "compute_metrics", "render_grid"):
        m[f"evalkit.{name}.s"] = secs(f"evalkit.{name}")

    endpoint = endpoint or {}
    requests = endpoint.get("requests", 0)
    m["endpoint.requests"] = requests
    m["endpoint.connections"] = endpoint.get("connections", 0)
    m["endpoint.requests_per_record"] = requests / live_records if live_records else 0.0
    m["endpoint.useful_ratio"] = endpoint.get("useful", 0) / requests if requests else 0.0
    samples["endpoint.service"] = [s * 1e3 for s in endpoint.get("service_s", ())]
    return m, samples


def summarize(rounds: list[tuple[dict, dict]]) -> dict[str, float]:
    """Median of each per-round value; latency percentiles over all
    samples of all traced rounds pooled."""
    out = {name: statistics.median(r[0][name] for r in rounds) for name in rounds[0][0]}
    pooled: dict[str, list[float]] = {}
    for _, samples in rounds:
        for name, values in samples.items():
            pooled.setdefault(name, []).extend(values)
    for kind in KINDS.values():
        values = pooled[f"backend.classify.{kind}"]
        out[f"backend.classify.{kind}.p50_us"] = _percentile(values, 0.50)
        out[f"backend.classify.{kind}.p99_us"] = _percentile(values, 0.99)
    out["endpoint.service_p50_ms"] = _percentile(pooled["endpoint.service"], 0.50)
    out["endpoint.service_p99_ms"] = _percentile(pooled["endpoint.service"], 0.99)
    return out
