"""Command-line surface: data preparation, training, runs, and reports.

All commands are driven by declarative JSON configs. A persisted run
manifest is not a ``run`` config; it reruns through
``pipeline.run_from_manifest``. Exit codes: 0 success, 1 runtime failure,
2 usage or config error. Configs are validated fully (with key paths in
the message) before any side effect; a record, predictions or manifest
file that does not decode exits 1, naming the file and line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from ._config import read_json
from .backend import BackendDescriptor, BackendError
from .corpus import (
    CorpusError,
    DatasetId,
    SplitSpec,
    load_dataset,
    load_records,
    save_records,
    save_rejects,
    split_corpus,
)
from .evalkit import (
    EvalError,
    ParseFailurePolicy,
    build_confusion,
    compute_metrics,
    render_grid,
)
from .labels import Task, label_space
from .pipeline import (
    ExperimentSpec,
    Method,
    PipelineError,
    load_manifest,
    load_predictions,
    run_experiment,
)
from .prompting import PromptError
from .rundir import publish
from .tuning import (
    MtlTrainer,
    SftTrainer,
    ToyNetConfig,
    ToyTransformer,
    TuneConfig,
    TuningError,
    save_checkpoint,
    write_metrics_log,
)

# Split defaults: the five aggression sources use 80/10/10, the
# cyberbullying source holds out 25% with a fixed 2,000-record validation
# slice carved from it.
_DEFAULT_SPLIT = "0.8/0.1/0.1"
_DEFAULT_SPLITS = {"D6": "0.75/2000/0.25"}

# The top-level keys of a train and a run config; any other key exits 2.
_TRAIN_KEYS = ("method", "task", "corpus", "tune", "model", "out_dir")
_RUN_KEYS = ("method", "task", "backends", "templates", "exemplar_k", "seed", "corpus", "out_dir")
# The corpus keys each train method reads.
_TRAIN_CORPUS = {"lora_sft": ("train",), "mtl": ("aggression_train", "cyberbullying_train")}


def _parse_split_spec(text: str, seed: int) -> SplitSpec:
    parts = text.split("/")
    if len(parts) != 3:
        raise click.UsageError(
            f"--split-spec must be TRAIN/VALIDATION/TEST, got {text!r} "
            "(fractions, or an integer count for validation)"
        )
    try:
        train = float(parts[0])
        validation = int(parts[1]) if "." not in parts[1] else float(parts[1])
        test = float(parts[2])
        return SplitSpec(train_fraction=train, validation=validation, test_fraction=test, seed=seed)
    except ValueError as exc:
        raise click.UsageError(f"invalid --split-spec {text!r}: {exc}") from None


def _read_config(path: str, keys: tuple[str, ...]) -> dict:
    """The config object at ``path``; a top-level key outside ``keys`` is a usage error."""
    try:
        config = read_json(path, lambda config: config, click.UsageError)
    except FileNotFoundError:
        raise click.UsageError(f"config file not found: {path}") from None
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise click.UsageError(f"unknown config keys: {unknown}")
    return config


def _require(config: dict, key: str, kind: type, path: str = "") -> object:
    where = f"{path}.{key}" if path else key
    if key not in config:
        raise click.UsageError(f"missing config key: {where}")
    value = config[key]
    # as for a config field, a bool is no number
    if not isinstance(value, kind) or (type(value) is bool and kind is not bool):
        raise click.UsageError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _corpus_paths(config: dict, method: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The record-file path under ``corpus`` of each of ``keys``, the keys
    ``method`` reads; any other key there is a usage error."""
    corpus = _require(config, "corpus", dict)
    unread = sorted(set(corpus) - set(keys))
    if unread:
        raise click.UsageError(f"corpus.{unread[0]}: method {method} does not read this key")
    return {key: _require(corpus, key, str, path="corpus") for key in keys}


def _decode(where: str, build, *args, **kwargs):
    """Call a config decoder; a malformed value becomes a usage error (exit 2)."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as exc:
        raise click.UsageError(f"{where}: {exc}") from None


# Library and I/O failures of a command; each exits 1 with its message.
_FAILURES = (OSError, CorpusError, PromptError, BackendError, PipelineError, TuningError)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _FAILURES as exc:
            if isinstance(exc, BrokenPipeError):
                raise  # click's own handler exits quietly when stdout closes
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main() -> None:
    """Aggression-conditioned cyberbullying detection toolkit."""


@main.command("prepare-data")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Raw CSV dump.")
@click.option(
    "--schema",
    required=True,
    type=click.Choice([d.value for d in DatasetId], case_sensitive=False),
    help="Source dataset schema id.",
)
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--split-spec", "split_text", default=None, help="TRAIN/VALIDATION/TEST.")
@click.option("--seed", default=0, show_default=True, help="Split shuffling seed.")
def cmd_prepare_data(input_path: str, schema: str, out_dir: str, split_text: str | None, seed: int) -> None:
    """Normalize a raw dataset into per-split record files plus a rejects report."""
    schema = schema.upper()
    spec = _parse_split_spec(split_text or _DEFAULT_SPLITS.get(schema, _DEFAULT_SPLIT), seed)
    result = load_dataset(input_path, schema)
    if not result.accepted:
        raise click.ClickException(f"no usable rows in {input_path} ({len(result.rejects)} rejected)")

    splits = split_corpus(result.accepted, spec)
    out = Path(out_dir)
    names = {split: f"{schema.lower()}_{split.value}.jsonl" for split in splits}
    rejects_name = f"{schema.lower()}_rejects.jsonl"

    def write(staging: Path) -> None:
        for split, posts in splits.items():
            save_records(posts, staging / names[split])
        save_rejects(result.rejects, staging / rejects_name)

    publish(out, write)
    for split, posts in splits.items():
        click.echo(f"{split.value}: {len(posts)} records -> {out / names[split]}")
    click.echo(f"rejected: {len(result.rejects)} rows -> {out / rejects_name}")


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config.")
def cmd_train(config_path: str) -> None:
    """Tune adapters on a prepared corpus; writes checkpoint and metrics log."""
    config = _read_config(config_path, _TRAIN_KEYS)
    method = _require(config, "method", str)
    if method not in _TRAIN_CORPUS:
        raise click.UsageError(f"method: must be lora_sft or mtl, got {method!r}")
    if method == "mtl" and "task" in config:
        raise click.UsageError("task: mtl tunes both tasks; drop the key")
    paths = _corpus_paths(config, method, _TRAIN_CORPUS[method])
    out_dir = Path(_require(config, "out_dir", str))
    tune_config = _decode("tune", TuneConfig.from_dict, config.get("tune", {}))
    model_config = _decode("model", ToyNetConfig.from_dict, config.get("model", {}))

    low, high = TuneConfig.MTL_EPOCH_RANGE
    epochs_warning = method == "mtl" and not low <= tune_config.epochs <= high
    if epochs_warning:
        click.echo(
            f"warning: mtl epochs={tune_config.epochs} is outside the "
            f"conventional [{low}, {high}] range",
            err=True,
        )

    base = ToyTransformer(model_config)
    manifest: dict = {
        "method": method,
        "tune": tune_config.to_dict(),
        "model": model_config.to_dict(),
        "corpus": paths,
    }

    if method == "lora_sft":
        task = _decode("task", Task, _require(config, "task", str))
        posts = load_records(paths["train"])
        trainer = SftTrainer(base, task, tune_config)
        records = trainer.train(posts)
        adapters = {task: trainer.adapters}
        heads = {task: trainer.head}
        manifest["task"] = task.value
    else:
        posts_agg = load_records(paths["aggression_train"])
        posts_cb = load_records(paths["cyberbullying_train"])
        trainer = MtlTrainer(base, tune_config)
        records = trainer.train(posts_agg, posts_cb)
        adapters = trainer.adapters
        heads = trainer.heads
        manifest["tasks"] = [Task.AGGRESSION.value, Task.CYBERBULLYING.value]
        manifest["epochs_warning"] = epochs_warning

    manifest["steps"] = len(records)
    manifest["checkpoint"] = str(out_dir / "checkpoint.npz")

    def write(staging: Path) -> None:
        save_checkpoint(staging / "checkpoint.npz", model_config, tune_config, adapters, heads)
        write_metrics_log(records, staging / "metrics.jsonl")
        (staging / "train_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline=""
        )

    publish(out_dir, write)
    click.echo(f"checkpoint: {out_dir / 'checkpoint.npz'}")
    click.echo(f"metrics ({len(records)} steps): {out_dir / 'metrics.jsonl'}")
    click.echo(f"manifest: {out_dir / 'train_manifest.json'}")


def _experiment_spec_from(config: dict) -> ExperimentSpec:
    method = _decode("method", Method, _require(config, "method", str))
    task = _decode("task", Task, _require(config, "task", str))
    backends = tuple(
        _decode(f"backends[{i}]", BackendDescriptor.from_dict, entry)
        for i, entry in enumerate(_require(config, "backends", list))
    )
    optional = {key: config[key] for key in ("templates", "exemplar_k", "seed") if key in config}
    return _decode("config", ExperimentSpec, method, task, backends, **optional)


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config.")
def cmd_run(config_path: str) -> None:
    """Execute an experiment; writes a content-addressed run directory."""
    config = _read_config(config_path, _RUN_KEYS)
    spec = _experiment_spec_from(config)
    keys = ("eval", "train") if spec.method is Method.FEW_SHOT else ("eval",)
    paths = _corpus_paths(config, spec.method.value, keys)
    out_dir = _require(config, "out_dir", str)

    train_posts = load_records(paths["train"]) if "train" in paths else None
    posts = load_records(paths["eval"])
    result = run_experiment(posts, spec, train_posts=train_posts, out_dir=out_dir)

    n_failures = sum(1 for p in result.predictions if p.failure)
    click.echo(f"run_id: {result.run_id}")
    click.echo(f"predictions: {len(result.predictions)} ({n_failures} failures)")
    click.echo(f"run_dir: {result.run_dir}")


@main.command("report")
@click.option(
    "--runs",
    "run_dirs",
    multiple=True,
    required=True,
    type=click.Path(),
    help="Run directory (repeatable); a parent of run directories also works.",
)
@click.option("--out", "out_path", required=True, type=click.Path(), help="Plain-text grid file.")
@click.option("--csv", "csv_path", default=None, type=click.Path(), help="Delimited grid file.")
@click.option(
    "--policy",
    type=click.Choice([p.value for p in ParseFailurePolicy]),
    default=ParseFailurePolicy.EXCLUDE_AND_REPORT.value,
    show_default=True,
    help="How unparseable responses are scored.",
)
def cmd_report(run_dirs: tuple[str, ...], out_path: str, csv_path: str | None, policy: str) -> None:
    """Aggregate persisted runs into a method-by-task comparison grid."""
    policy_enum = ParseFailurePolicy(policy)
    reports = {}
    sources: dict[tuple[str, str, str], Path] = {}
    for run_dir in _discover_run_dirs(run_dirs):
        spec, run_id = load_manifest(run_dir / "manifest.json")
        model = spec.backends[-1].model_name or spec.backends[-1].backend_id
        key = (model, spec.method.value, spec.task.value)
        if key in sources:
            raise click.ClickException(
                f"runs {sources[key]} and {run_dir} both report model {model!r}, "
                f"method {key[1]}, task {key[2]}; pass only one of them"
            )
        sources[key] = run_dir
        predictions = load_predictions(run_dir / "predictions.jsonl", spec.task)
        try:
            cm = build_confusion(predictions, label_space(spec.task))
            reports[key] = compute_metrics(cm, policy=policy_enum, run_id=run_id)
        except EvalError as exc:
            raise click.ClickException(f"cannot score run {run_dir}: {exc}") from exc

    if not reports:
        raise click.ClickException("no runs found under the given directories")
    grid = render_grid(reports)
    grid.write(out_path, csv_path)
    click.echo(grid.text)
    click.echo(f"grid: {out_path}" + (f" and {csv_path}" if csv_path else ""))


def _discover_run_dirs(paths: tuple[str, ...]) -> list[Path]:
    found = []
    for raw in paths:
        path = Path(raw)
        if (path / "manifest.json").is_file():
            found.append(path)
            continue
        if path.is_dir():
            for child in sorted(path.iterdir()):
                if (child / "manifest.json").is_file():
                    found.append(child)
    return found


if __name__ == "__main__":
    sys.exit(main())
