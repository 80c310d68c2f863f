"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cbdetect.labels import Task, labels_in_order  # noqa: E402
from cbdetect.tuning import ToyNetConfig, ToyTokenizer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_at_tiny_size(name):
    out = _result(_run("--workload", name, "--seed", "7", "--seconds", "0.2", "--scale", "0.05"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    out = _result(_run("--workload", name, "--seed", "7", "--seconds", "0.2",
                       "--scale", "0.05", "--trace", "1"))
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_same_seed_same_inputs(tmp_path):
    for attempt in ("a", "b"):
        workload = workloads.StubLifecycle(scale=0.05)
        workload.setup(tmp_path / attempt, seed=3)
    first = (tmp_path / "a" / "raw" / "d6.csv").read_bytes()
    assert first == (tmp_path / "b" / "raw" / "d6.csv").read_bytes()


@pytest.mark.parametrize("cls", [workloads.StubLifecycle, workloads.LiveLoopback])
def test_checks_catch_a_wrong_answer(tmp_path, cls):
    workload = cls(scale=0.05)
    workload.setup(tmp_path / "setup", seed=5)
    try:
        # claim a different answer for one record than its response implies
        if cls is workloads.StubLifecycle:
            post_id, planned = next(
                (k, v) for k, v in workload.plan.stage2.items() if v.label is not None
            )
            other = inputs.CB[(int(planned.label) + 1) % len(inputs.CB)]
            workload.plan.stage2[post_id] = inputs.Planned(planned.kind, other)
        else:
            post_id, record = next(iter(workload.plan.records.items()))
            record["zs"] = (inputs.DENY_401 if record["zs"][0] == inputs.OK else inputs.OK,
                            record["zs"][1])
        problems = workload.round(tmp_path / "round").problems
    finally:
        workload.close()
    assert problems and all(post_id in p for p in problems)


def test_filler_words_never_hash_onto_a_cue_word():
    tokenizer = ToyTokenizer(ToyNetConfig().vocab_size)
    words = lambda text: re.findall(r"[\w']+", text.lower())  # noqa: E731
    cue = {w for task in Task for lab in labels_in_order(task) for w in words(lab.display_name)}
    cue_ids = {tokenizer.encode(w)[0] for w in cue}
    for phrase in inputs._OPENERS + inputs._FILLER + inputs._CLOSERS:
        for word in words(phrase):
            assert word not in cue and tokenizer.encode(word)[0] not in cue_ids, word


def test_absent_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("cbdetect.pipeline.no_such_function", "pipeline.gone", None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["cbdetect.pipeline.no_such_function"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "stub-lifecycle", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
