"""cbdetect benchmark: one lifecycle workload, measured and checked.

    python3 bench/run.py --workload stub-lifecycle --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` next to
this directory, never from an installed copy; without it the command exits
non-zero before measuring anything.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics
of the traced rounds plus ``trace.overhead_ratio``. Output checks run in
both modes; a failed check makes ``correct`` false and the exit code 1.
See README.md for the metric, workload and layer map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_ROUNDS = 3
# The reference loop's duration on a quiet machine of the kind the bounds
# were set on (2 vCPU). Only the scale of the reported rates depends on it.
REFERENCE_NOMINAL_S = 0.010

PHASE_RATES = {
    "records_per_s": "runs",
    "ingest_rows_per_s": "ingest",
    "scored_records_per_s": "report",
    "train_steps_per_s": "train",
}


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "cbdetect" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no cbdetect sources under {src.name}/ next to the benchmark")
    sys.path.insert(0, str(src))
    # One BLAS thread: the toy matrices are tiny, and client threads plus
    # BLAS threads must stay at or below the processor count.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # the endpoint stand-in is on loopback; never route it through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"


def _reference_seconds() -> float:
    """Time a fixed CPU-bound loop of the kinds of work the program does
    (JSON, hashing, string handling, small matrix products).

    Shared machines change speed by tens of percent from one minute to the
    next. Timing this loop next to each phase and dividing it out makes a
    CPU-bound rate comparable across runs; the loop never touches cbdetect,
    so a change to the program moves the rates and not the reference. The
    garbage collector is off while it runs, because a collection would
    scan the program's heap and tie the reference to the program's state.
    """
    import numpy as np

    doc = {f"k{i}": [f"text {i}", i, {"x": i * 0.5}] for i in range(200)}
    base = np.arange(256.0).reshape(16, 16) / 256.0
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(20):
            text = json.dumps(doc, sort_keys=True)
            json.loads(text)
            hashlib.sha1(text.encode("utf-8")).hexdigest()
            "|".join(sorted(text.split(","))).lower()
            matrix = base
            for _ in range(40):
                matrix = np.tanh(matrix @ base)
        return perf_counter() - started
    finally:
        gc.enable()


def _slowdown(before: float, after: float) -> float:
    """Host slowdown over a span bracketed by two reference timings."""
    return (before + after) / 2 / REFERENCE_NOMINAL_S


def _scaled_round(workload, out: Path):
    """Run one round with the reference loop timed around every phase, and
    turn each phase's seconds into reference-scaled seconds, except where the
    workload keeps the wall clock."""
    references: list[float] = []
    result = workload.round(out, between=lambda: references.append(_reference_seconds()))
    for i, phase in enumerate(result.seconds):  # phases in the order they ran
        if phase not in workload.wall_clock_phases:
            result.seconds[phase] /= _slowdown(references[i], references[i + 1])
    return result


def _rate(rounds, phase: str) -> float:
    """Median per-round rate of one phase."""
    return statistics.median(r.units[phase] / r.seconds[phase] for r in rounds)


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, scale: float) -> dict:
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    setup_times = []
    for i in range(SETUP_REPEATS):
        workload = cls(scale)

        before = _reference_seconds()
        started = perf_counter()
        workload.setup(work / f"setup-{i}", seed)
        seconds_taken = perf_counter() - started
        setup_times.append(seconds_taken / _slowdown(before, _reference_seconds()))
        if i < SETUP_REPEATS - 1:
            workload.close()
            shutil.rmtree(work / f"setup-{i}")

    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    problems: list[str] = []
    try:
        # warm-up round: checked, not timed (lazy imports, first template reads)
        gc.collect()
        reference = workload.round(work / "round-0")
        problems += reference.problems
        shutil.rmtree(work / "round-0")
        index = 0
        deadline = perf_counter() + seconds
        min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
        while perf_counter() < deadline or index < min_rounds:
            index += 1
            on = trace and index % 2 == 0  # alternate, so drift hits both sides alike
            gc.collect()  # every round starts from the same heap state
            if on:
                tracer.install()
            try:
                result = _scaled_round(workload, work / f"round-{index}")
            finally:
                if on:
                    tracer.remove()
            shutil.rmtree(work / f"round-{index}")
            problems += result.problems
            if result.digests != reference.digests:
                changed = sorted(k for k in result.digests if result.digests[k] != reference.digests.get(k))
                problems.append(f"round {index}: predictions.jsonl changed between repeats: {changed}")
            if on:
                layers.append(tracing.round_layers(tracer.take(), result.endpoint, result.live_records))
                traced.append(result)
            else:
                plain.append(result)
    finally:
        workload.close()

    rounds = plain + traced
    out = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(problems),
        "problems": problems,
        "rounds": len(rounds),
    }
    if trace:
        metrics = tracing.summarize(layers)
        metrics["trace.overhead_ratio"] = _rate(plain, "runs") / _rate(traced, "runs") - 1.0
        out["metrics"] = metrics
        out["absent"] = tracer.absent
        return out

    metrics = {
        "setup_s": statistics.median(setup_times),
        **{metric: _rate(rounds, phase) for metric, phase in PHASE_RATES.items()},
        "answered_ratio": sum(r.answered for r in rounds) / sum(r.attempted for r in rounds),
        "macro_f1": statistics.median(statistics.fmean(r.macro_f1) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out["metrics"] = metrics
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for smoke tests")
    args = parser.parse_args(argv)

    _bootstrap()
    # a terminated benchmark still runs its cleanup (stops the stand-in)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, args.scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in out.pop("problems")[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name in out.pop("absent", ()):
        print(f"absent (not traced): {name}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {out.pop('rounds')} rounds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in out["metrics"].items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    out["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
