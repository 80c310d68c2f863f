"""The three benchmark workloads and their output checks.

Each workload is a closed loop over one research lifecycle, repeated in
rounds: prepare-data (ingest a raw D6 CSV, split, save and reload the
records), tune, run the pipelines over the evaluation split (every caller
waits for each answer), and report. A round returns the time and the units
of work of each phase; the checks compare every output with what the
generated inputs imply.

Every workload reports every end-to-end metric. A phase that is not what a
workload exists to stress still runs at a small fixed size there (the
one-epoch tuning probe of stub-lifecycle and live-loopback, the ingest and
report of the two smaller workloads), so each figure is defined everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from cbdetect import corpus, evalkit, pipeline, tuning
from cbdetect.backend import (
    BackendDescriptor,
    BackendKind,
    MatchKind,
    RetryPolicy,
    make_stub,
)
from cbdetect.corpus import Split
from cbdetect.labels import AggressionLabel, CyberbullyingLabel, Task
from cbdetect.pipeline import ExperimentSpec, Method

import inputs

BENCH_DIR = Path(__file__).resolve().parent
FALLBACK = AggressionLabel.NAG  # the pipeline's documented stage-1 fallback
# Client threads stay at or below the processors this process may run on
# (what nproc reports), not the host's count.
LIVE_PARALLEL = min(2, len(os.sched_getaffinity(0)))
PROBE_STEPS = 16
TOY_NET = tuning.ToyNetConfig(seed=0)


@dataclass
class Round:
    """Times, units of work and check results of one lifecycle round."""

    seconds: dict[str, float] = field(default_factory=dict)  # per phase; the runner rescales
    units: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    answered: int = 0
    macro_f1: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    endpoint: dict | None = None
    live_records: int = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Lifecycle:
    """Shared round structure: ingest -> train -> runs -> report."""

    name = ""
    why = ""
    n_clean = 0
    n_dirty = 0
    model = ""  # row name in the report grid
    wall_clock_phases: tuple[str, ...] = ()  # phases the runner does not rescale

    def __init__(self, scale: float = 1.0):
        # whole multiples of 400 clean rows keep 20-record plan blocks per class
        self.n_clean = max(400, round(self.n_clean * scale / 400) * 400)
        self.n_dirty = max(len(inputs.REJECT_REASONS), int(self.n_dirty * scale))

    # --- set-up (timed as setup_s) ---------------------------------------

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.plan = self.make_plan(rng, inputs.eval_per_class(self.n_clean))
        self.raw = inputs.write_d6_csv(
            work / "raw" / "d6.csv", self.n_clean, self.n_dirty, rng,
            self.plan.tags_for if self.plan else None,
        )
        self.setup_backends(work, rng)

    def make_plan(self, rng, n_per_class):
        return None

    def setup_backends(self, work: Path, rng: random.Random) -> None:
        self.base = tuning.ToyTransformer(TOY_NET)

    def close(self) -> None:
        pass

    # --- one round --------------------------------------------------------

    def round(self, out: Path, between=lambda: None) -> Round:
        """One lifecycle round; ``between()`` runs before, between and after
        the phases (the runner times its reference loop there)."""
        r = Round()
        between()
        splits = self.ingest(out / "data", r)
        between()
        self.train(out / "train", splits, r)
        between()
        results = self.runs(out / "runs", splits, r)
        between()
        self.report(results, r)
        between()
        return r

    def ingest(self, out: Path, r: Round) -> dict:
        started = perf_counter()
        loaded = corpus.load_dataset(self.raw.path, "D6")
        splits = corpus.split_corpus(loaded.accepted, inputs.split_spec(self.raw.split_seed))
        reloaded = {}
        for split, posts in splits.items():
            path = corpus.save_records(posts, out / f"{split.value}.jsonl")
            reloaded[split] = corpus.load_records(path)
        r.seconds["ingest"] = perf_counter() - started
        r.units["ingest"] = self.raw.rows

        r.expect(loaded.rows_read == self.raw.rows,
                 f"ingest: accepted + rejected = {loaded.rows_read}, rows written {self.raw.rows}")
        got = {row.row_number: row.reason for row in loaded.rejects}
        r.expect(got == self.raw.rejects, "ingest: rejects differ from the dirty rows written")
        r.expect(reloaded == splits, "ingest: save_records/load_records did not round-trip")
        test = reloaded[Split.TEST]
        r.expect(sorted(p.id for p in test) == sorted(self.raw.eval_ids),
                 "ingest: test split differs from the planned evaluation records")
        r.expect(all(p.label is self.raw.gold[p.id] for p in test),
                 "ingest: a gold label changed on the way in")
        return reloaded

    def train(self, out: Path, splits: dict, r: Round) -> None:
        """One-epoch tuning probe of PROBE_STEPS optimizer steps."""
        config = tuning.TuneConfig(learning_rate=1e-2, batch_size=8, seed=self.seed)
        trainer = tuning.SftTrainer(self.base, Task.CYBERBULLYING, config)
        posts = splits[Split.TRAIN][: PROBE_STEPS * config.batch_size]
        started = perf_counter()
        steps = len(trainer.train(posts))
        r.seconds["train"] = perf_counter() - started
        r.units["train"] = steps

    def experiments(self, splits: dict) -> list[tuple[str, ExperimentSpec, dict]]:
        raise NotImplementedError

    def runs(self, out: Path, splits: dict, r: Round) -> list:
        posts = splits[Split.TEST]
        experiments = self.experiments(splits)
        results = []
        started = perf_counter()
        for run_name, spec, kwargs in experiments:
            run = pipeline.run_epp if spec.method is Method.EPP else pipeline.run_baseline
            # a fresh directory per run and round: no run id can collide
            results.append(run(posts, spec, out_dir=out / run_name, **kwargs))
        r.seconds["runs"] = perf_counter() - started
        r.units["runs"] = len(posts) * len(experiments)

        for (run_name, spec, _), result in zip(experiments, results):
            preds = result.predictions
            r.attempted += len(preds)
            r.answered += sum(p.failure is None for p in preds)
            r.expect(len(preds) == len(posts), f"{run_name}: {len(preds)} predictions for {len(posts)} records")
            r.expect([p.post_id for p in preds] == [p.id for p in posts],
                     f"{run_name}: predictions out of input order")
            r.expect([p.gold for p in preds] == [p.label for p in posts],
                     f"{run_name}: a gold label changed")
            data = (result.run_dir / "predictions.jsonl").read_bytes()
            r.digests[run_name] = hashlib.sha256(data).hexdigest()
            for pred in preds:
                self.check_prediction(run_name, spec, pred, r)
        return list(zip(experiments, results))

    def check_prediction(self, run_name, spec, pred, r: Round) -> None:
        raise NotImplementedError

    def report(self, results: list, r: Round) -> None:
        started = perf_counter()
        reports = {}
        scored = 0
        loaded_runs = []
        for (run_name, spec, _), result in results:
            preds = pipeline.load_predictions(result.run_dir / "predictions.jsonl", spec.task)
            matrix = evalkit.build_confusion(preds, CyberbullyingLabel)
            reports[(self.model, run_name, spec.task)] = evalkit.compute_metrics(
                matrix, run_id=result.run_id
            )
            scored += len(preds)
            loaded_runs.append(preds)
        grid = evalkit.render_grid(reports)
        r.seconds["report"] = perf_counter() - started
        r.units["report"] = scored

        for ((run_name, _, _), result), preds in zip(results, loaded_runs):
            r.expect(
                [(p.post_id, p.gold, p.predicted) for p in preds]
                == [(p.post_id, p.gold, p.predicted) for p in result.predictions],
                f"{run_name}: persisted predictions differ from the run's",
            )
        r.expect(bool(grid.text) and bool(grid.csv_text), "report: empty grid")
        r.macro_f1 = [rep.macro_f1 for rep in reports.values()]


def _expect_parsed(r: Round, where: str, pred, planned: inputs.Planned) -> None:
    if planned.kind == inputs.FAIL:
        r.expect((pred.failure or "").startswith("transport_error"),
                 f"{where}: expected an injected transport failure, got {pred.failure!r}")
    elif planned.kind == inputs.UNPARSE:
        r.expect(pred.failure == "parse_failure",
                 f"{where}: expected a parse failure, got {pred.failure!r}")
    else:
        r.expect(
            pred.failure is None and pred.predicted is planned.label
            and pred.provenance.get("match_kind") == planned.kind.value,
            f"{where}: expected {planned.label!r} by {planned.kind.value}, got "
            f"{pred.predicted!r} by {pred.provenance.get('match_kind')} ({pred.failure})",
        )


def _expect_stage1(r: Round, where: str, pred, label, fell_back: bool) -> None:
    expected = FALLBACK if fell_back else label
    r.expect(pred.aggression_annotation is expected and pred.stage1_fallback is fell_back,
             f"{where}: stage-1 cue {pred.aggression_annotation!r} (fallback "
             f"{pred.stage1_fallback}), expected {expected!r} (fallback {fell_back})")


class StubLifecycle(Lifecycle):
    name = "stub-lifecycle"
    why = (
        "no model: corpus, long few-shot prompts, the parse cascade, persistence "
        "and evalkit do almost all the work"
    )
    n_clean = 8000  # 1600 evaluation records, 400 per class
    n_dirty = 600
    model = "rule-stub"

    def make_plan(self, rng, n_per_class):
        return inputs.StubPlan(rng, n_per_class)

    def setup_backends(self, work, rng):
        super().setup_backends(work, rng)
        self.stubs = {}
        for stage in ("s1", "s2"):
            rules, fails = inputs.stub_rules(stage)
            self.stubs[stage] = make_stub(rules, backend_id=f"stub-{stage}", fail_patterns=fails)

    def experiments(self, splits):
        task = Task.CYBERBULLYING
        return [
            ("zero_shot", ExperimentSpec(Method.ZERO_SHOT, task, (self.stubs["s2"],), seed=self.seed), {}),
            ("few_shot", ExperimentSpec(Method.FEW_SHOT, task, (self.stubs["s2"],), seed=self.seed),
             {"train_posts": splits[Split.TRAIN]}),
            ("epp", ExperimentSpec(Method.EPP, task, (self.stubs["s1"], self.stubs["s2"]), seed=self.seed), {}),
        ]

    def check_prediction(self, run_name, spec, pred, r):
        where = f"{run_name}/{pred.post_id}"
        _expect_parsed(r, where, pred, self.plan.stage2[pred.post_id])
        if spec.method is Method.EPP:
            s1 = self.plan.stage1[pred.post_id]
            _expect_stage1(r, where, pred, s1.label, s1.kind in (inputs.FAIL, inputs.UNPARSE))


class ToyTuneEpp(Lifecycle):
    name = "toy-tune-epp"
    why = (
        "the toy forward pass dominates inference and forward+backward+Adam dominate "
        "training; toy answers are exact display names, so the synonym parse path never runs"
    )
    n_clean = 1200  # 240 evaluation records, 840 cyberbullying training records
    n_dirty = 60
    n_aggression_per_class = 120
    model = "toy-net"

    def setup_backends(self, work, rng):
        self.aggression_posts = inputs.synthetic_posts(
            Task.AGGRESSION, self.n_aggression_per_class, rng, prefix=f"agg-s{self.seed}"
        )
        # one frozen base per trainer, as separate training jobs would build
        self.bases = {role: tuning.ToyTransformer(TOY_NET) for role in ("agg", "cb", "mtl")}

    def train(self, out, splits, r):
        config = tuning.TuneConfig(learning_rate=1e-2, batch_size=8, seed=self.seed)  # one epoch
        agg, cb = Task.AGGRESSION, Task.CYBERBULLYING
        sft_agg = tuning.SftTrainer(self.bases["agg"], agg, config)
        sft_cb = tuning.SftTrainer(self.bases["cb"], cb, config)
        mtl = tuning.MtlTrainer(self.bases["mtl"], config)
        started = perf_counter()
        steps = len(sft_agg.train(self.aggression_posts))
        steps += len(sft_cb.train(splits[Split.TRAIN]))
        steps += len(mtl.train(self.aggression_posts, splits[Split.TRAIN]))
        r.seconds["train"] = perf_counter() - started
        r.units["train"] = steps
        # checkpoints go to the round's fresh directory, so every timed run
        # loads them cold, as each `cbdetect run` invocation does
        self.checkpoints = {
            "agg": tuning.save_checkpoint(out / "agg.npz", TOY_NET, config,
                                          {agg: sft_agg.adapters}, {agg: sft_agg.head}),
            "cb": tuning.save_checkpoint(out / "cb.npz", TOY_NET, config,
                                         {cb: sft_cb.adapters}, {cb: sft_cb.head}),
            "mtl": tuning.save_checkpoint(out / "mtl.npz", TOY_NET, config, mtl.adapters, mtl.heads),
        }

    def toy(self, role: str) -> BackendDescriptor:
        return BackendDescriptor(
            backend_id=f"toy-{role}", kind=BackendKind.TOY_CHECKPOINT, model_name="toy-net",
            checkpoint_path=str(self.checkpoints[role]),
            input_mode="post_text",  # pinned: the benchmark must not follow a default change
        )

    def experiments(self, splits):
        task = Task.CYBERBULLYING
        return [
            ("epp", ExperimentSpec(Method.EPP, task, (self.toy("agg"), self.toy("cb")), seed=self.seed), {}),
            ("lora_sft", ExperimentSpec(Method.LORA_SFT, task, (self.toy("cb"),), seed=self.seed), {}),
            ("mtl", ExperimentSpec(Method.MTL, task, (self.toy("mtl"),), seed=self.seed), {}),
        ]

    def check_prediction(self, run_name, spec, pred, r):
        r.expect(pred.failure is None and pred.provenance.get("match_kind") == MatchKind.EXACT.value,
                 f"{run_name}/{pred.post_id}: toy answer not an exact display name ({pred.failure})")
        if spec.method is Method.EPP:
            r.expect(pred.aggression_annotation is not None and not pred.stage1_fallback,
                     f"{run_name}/{pred.post_id}: toy stage 1 fell back")


class LiveLoopback(Lifecycle):
    name = "live-loopback"
    why = (
        "the only workload through the HTTP client, its thread fan-out and retries; "
        "connection reuse shows here and nowhere else"
    )
    n_clean = 800  # 160 evaluation records, 40 per class
    n_dirty = 60
    service_ms = 2.0
    model = "live-standin"
    # runs wait on the stand-in's fixed service time, which host speed does
    # not move, so scaling them by the reference would overcorrect
    wall_clock_phases = ("runs",)

    def make_plan(self, rng, n_per_class):
        return inputs.LivePlan(rng, n_per_class)

    def setup_backends(self, work, rng):
        super().setup_backends(work, rng)
        plan_path = work / "endpoint_plan.json"
        plan_path.write_text(json.dumps(self.plan.to_json()), encoding="utf-8")
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "endpoint.py"), str(plan_path), str(self.service_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline().split()
        if line[:1] != ["READY"]:
            self.close()
            raise RuntimeError("endpoint stand-in did not start")
        self.base_url = f"http://127.0.0.1:{line[1]}"
        self.endpoint_stats()  # clear anything counted before the first round

    def close(self):
        server = getattr(self, "server", None)
        if server is None:
            return
        server.stdin.close()  # the stand-in shuts down at end of input
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def endpoint_stats(self) -> dict:
        with urllib.request.urlopen(f"{self.base_url}/_stats?reset=1", timeout=10) as response:
            return json.loads(response.read())

    def live(self, stage: str) -> BackendDescriptor:
        return BackendDescriptor(
            backend_id=f"live-{stage}", kind=BackendKind.LIVE_ENDPOINT, model_name=stage,
            endpoint_address=f"{self.base_url}/v1/chat/completions",
            max_parallel_requests=LIVE_PARALLEL, timeout=10.0,
            retry_policy=RetryPolicy(max_attempts=3, backoff=()),  # no sleeps
        )

    def experiments(self, splits):
        task = Task.CYBERBULLYING
        return [
            ("zero_shot", ExperimentSpec(Method.ZERO_SHOT, task, (self.live("zs"),), seed=self.seed), {}),
            ("epp", ExperimentSpec(Method.EPP, task, (self.live("s1"), self.live("s2")), seed=self.seed), {}),
        ]

    def runs(self, out, splits, r):
        results = super().runs(out, splits, r)
        r.endpoint = self.endpoint_stats()
        r.live_records = r.units["runs"]
        return results

    def check_prediction(self, run_name, spec, pred, r):
        where = f"{run_name}/{pred.post_id}"
        record = self.plan.records[pred.post_id]
        fault, answer = record["s2" if spec.method is Method.EPP else "zs"]
        if fault in inputs.NON_RECOVERABLE:
            r.expect((pred.failure or "").startswith("transport_error"),
                     f"{where}: injected {fault} did not fail the record ({pred.failure!r})")
        else:
            r.expect(pred.failure is None and pred.predicted is answer,
                     f"{where}: expected {answer!r}, got {pred.predicted!r} ({pred.failure})")
        if spec.method is Method.EPP:
            fault1, answer1 = record["s1"]
            _expect_stage1(r, where, pred, answer1, fault1 in inputs.NON_RECOVERABLE)


WORKLOADS = {cls.name: cls for cls in (StubLifecycle, ToyTuneEpp, LiveLoopback)}
