import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cbdetect import Task, save_records, synth_fixture
from cbdetect.cli import main
from cbdetect.tuning import load_classifier


@pytest.fixture
def runner():
    return CliRunner()


def write_d1_csv(path, rows):
    lines = ["text,label"] + [f"\"{text}\",{label}" for text, label in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def stub_backend_dict(task):
    from cbdetect import class_name_stub

    return class_name_stub(task).to_dict()


class TestPrepareData:
    def test_valid_file_produces_three_splits(self, runner, tmp_path):
        rows = [(f"record number {i} with words", i % 3) for i in range(20)]
        src = write_d1_csv(tmp_path / "raw.csv", rows)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["prepare-data", "--input", str(src), "--schema", "D1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        for split in ("train", "validation", "test"):
            assert (out / f"d1_{split}.jsonl").is_file()
        assert (out / "d1_rejects.jsonl").is_file()

    def test_unknown_schema_is_usage_error(self, runner, tmp_path):
        src = write_d1_csv(tmp_path / "raw.csv", [("hello there", 0)])
        result = runner.invoke(
            main,
            ["prepare-data", "--input", str(src), "--schema", "D9", "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    def test_malformed_rows_exit_zero_with_rejects(self, runner, tmp_path):
        rows = [(f"record number {i}", i % 3) for i in range(19)] + [("bad row", 9)]
        src = write_d1_csv(tmp_path / "raw.csv", rows)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["prepare-data", "--input", str(src), "--schema", "D1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rejects = (out / "d1_rejects.jsonl").read_text().splitlines()
        assert len(rejects) == 1
        assert "unmappable_label" in rejects[0]

    def test_long_row_extra_values_reach_the_rejects_report(self, runner, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text(
            "tweet_text,cyberbullying_type\n"
            "first post here,religion\n"
            "second post here,gender\n"
            "long,age,extra\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "prepare-data", "--input", str(src), "--schema", "D6",
                "--out", str(out), "--split-spec", "0.5/0.5/0",
            ],
        )
        assert result.exit_code == 0, result.output
        (line,) = (out / "d6_rejects.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert record["row_number"] == 3
        assert record["raw"] == {
            "tweet_text": "long", "cyberbullying_type": "age", "__extra__": ["extra"]
        }

    def test_input_file_is_never_mutated(self, runner, tmp_path):
        rows = [(f"record number {i} with words", i % 3) for i in range(20)]
        src = write_d1_csv(tmp_path / "raw.csv", rows)
        before = src.read_bytes()
        result = runner.invoke(
            main,
            ["prepare-data", "--input", str(src), "--schema", "D1", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 0
        assert src.read_bytes() == before

    def test_custom_split_spec(self, runner, tmp_path):
        rows = [(f"record number {i} text", i % 3) for i in range(10)]
        src = write_d1_csv(tmp_path / "raw.csv", rows)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "prepare-data", "--input", str(src), "--schema", "D1",
                "--out", str(out), "--split-spec", "0.6/0.2/0.2",
            ],
        )
        assert result.exit_code == 0, result.output
        assert len((out / "d1_train.jsonl").read_text().splitlines()) == 6


class TestTrain:
    def _sft_config(self, tmp_path, **tune):
        posts = synth_fixture(4, Task.AGGRESSION, seed=1)
        corpus_path = save_records(posts, tmp_path / "train.jsonl")
        return write_json(
            tmp_path / "train_config.json",
            {
                "method": "lora_sft",
                "task": "aggression",
                "corpus": {"train": str(corpus_path)},
                "tune": {"epochs": 2, "seed": 3, **tune},
                "model": {"d_model": 8, "n_layers": 1, "d_ff": 16},
                "out_dir": str(tmp_path / "artifacts"),
            },
        )

    def test_sft_checkpoint_round_trips(self, runner, tmp_path):
        config = self._sft_config(tmp_path)
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        checkpoint = tmp_path / "artifacts" / "checkpoint.npz"
        assert checkpoint.is_file()
        bundle = load_classifier(checkpoint)
        reloaded = load_classifier(checkpoint)
        for task, state in bundle.adapters.items():
            for name, factors in state.factors.items():
                assert np.array_equal(factors.down, reloaded.adapters[task].factors[name].down)

    def test_metrics_line_count_equals_steps(self, runner, tmp_path):
        config = self._sft_config(tmp_path, batch_size=4)
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        metrics = (tmp_path / "artifacts" / "metrics.jsonl").read_text().splitlines()
        manifest = json.loads((tmp_path / "artifacts" / "train_manifest.json").read_text())
        assert len(metrics) == manifest["steps"] == 6  # 12 posts / batch 4 * 2 epochs

    def test_manifest_ends_lines_with_newline_on_a_crlf_platform(self, runner, tmp_path, crlf_platform):
        result = runner.invoke(main, ["train", "--config", str(self._sft_config(tmp_path))])
        assert result.exit_code == 0, result.output
        data = (tmp_path / "artifacts" / "train_manifest.json").read_bytes()
        assert b"\r" not in data and data.endswith(b"}\n")

    def test_default_learning_rate_recorded(self, runner, tmp_path):
        config = self._sft_config(tmp_path)  # lr omitted
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "artifacts" / "train_manifest.json").read_text())
        assert manifest["tune"]["learning_rate"] == 1e-4

    def test_mtl_epoch_warning(self, runner, tmp_path):
        agg = save_records(synth_fixture(2, Task.AGGRESSION, seed=1), tmp_path / "agg.jsonl")
        cb = save_records(synth_fixture(2, Task.CYBERBULLYING, seed=1), tmp_path / "cb.jsonl")
        config = write_json(
            tmp_path / "mtl.json",
            {
                "method": "mtl",
                "corpus": {"aggression_train": str(agg), "cyberbullying_train": str(cb)},
                "tune": {"epochs": 1, "seed": 3},
                "model": {"d_model": 8, "n_layers": 1, "d_ff": 16},
                "out_dir": str(tmp_path / "artifacts"),
            },
        )
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert "outside the conventional" in result.output
        manifest = json.loads((tmp_path / "artifacts" / "train_manifest.json").read_text())
        assert manifest["epochs_warning"] is True

    def test_bad_method_is_usage_error(self, runner, tmp_path):
        config = write_json(tmp_path / "bad.json", {"method": "full_finetune"})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2


class TestRun:
    def _run_config(self, tmp_path, method="zero_shot", backends=None, out="runs"):
        posts = synth_fixture(2, Task.CYBERBULLYING, seed=5)
        eval_path = save_records(posts, tmp_path / "eval.jsonl")
        return write_json(
            tmp_path / "run_config.json",
            {
                "method": method,
                "task": "cyberbullying",
                "corpus": {"eval": str(eval_path)},
                "backends": backends or [stub_backend_dict(Task.CYBERBULLYING)],
                "seed": 0,
                "out_dir": str(tmp_path / out),
            },
        )

    def test_epp_run_produces_run_directory(self, runner, tmp_path):
        from cbdetect import constant_stub

        config = self._run_config(
            tmp_path,
            method="epp",
            backends=[
                constant_stub("Overtly Aggressive", backend_id="agg").to_dict(),
                stub_backend_dict(Task.CYBERBULLYING),
            ],
        )
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 0, result.output
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "manifest.json").is_file()
        assert (run_dirs[0] / "predictions.jsonl").is_file()

    def test_epp_missing_second_backend_fails_before_side_effects(self, runner, tmp_path):
        config = self._run_config(tmp_path, method="epp")
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2
        assert not (tmp_path / "runs").exists()

    def test_undersized_exemplar_pool_fails_cleanly(self, runner, tmp_path):
        config_path = self._run_config(tmp_path, method="few_shot")
        config = json.loads(config_path.read_text(encoding="utf-8"))
        pool = synth_fixture(1, Task.CYBERBULLYING, seed=6)
        config["corpus"]["train"] = str(save_records(pool, tmp_path / "train.jsonl"))
        config["exemplar_k"] = 3
        write_json(config_path, config)
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert "has only 1 training records, cannot select k=3" in result.output

    def test_unknown_template_id_fails_cleanly(self, runner, tmp_path):
        config_path = self._run_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["templates"] = {"main": "nope_v1"}
        write_json(config_path, config)
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "unknown template id: 'nope_v1'" in result.output

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        config = self._run_config(tmp_path)
        first = runner.invoke(main, ["run", "--config", str(config)])
        assert first.exit_code == 0, first.output
        run_dir = next((tmp_path / "runs").iterdir())
        before = (run_dir / "predictions.jsonl").read_bytes()
        second = runner.invoke(main, ["run", "--config", str(config)])
        assert second.exit_code == 0
        after = (run_dir / "predictions.jsonl").read_bytes()
        assert before == after


class TestReport:
    def _make_run(self, runner, tmp_path, name, n_per_class=2, backend=None):
        config = write_json(
            tmp_path / f"{name}.json",
            {
                "method": "zero_shot",
                "task": "cyberbullying",
                "corpus": {
                    "eval": str(
                        save_records(
                            synth_fixture(n_per_class, Task.CYBERBULLYING, seed=5),
                            tmp_path / f"{name}_eval.jsonl",
                        )
                    )
                },
                "backends": [backend or stub_backend_dict(Task.CYBERBULLYING)],
                "out_dir": str(tmp_path / "runs"),
            },
        )
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 0, result.output
        return tmp_path / "runs" / result.output.split("run_id: ")[1].split()[0]

    def test_grid_from_runs(self, runner, tmp_path):
        self._make_run(runner, tmp_path, "a")
        out = tmp_path / "grid.txt"
        csv_out = tmp_path / "grid.csv"
        result = runner.invoke(
            main,
            ["report", "--runs", str(tmp_path / "runs"), "--out", str(out), "--csv", str(csv_out)],
        )
        assert result.exit_code == 0, result.output
        assert "Zero-shot" in out.read_text()
        assert "macro_f1" in csv_out.read_text()

    def test_empty_runs_directory_fails(self, runner, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        result = runner.invoke(
            main, ["report", "--runs", str(empty), "--out", str(tmp_path / "grid.txt")]
        )
        assert result.exit_code == 1
        assert "no runs found" in result.output

    def test_run_with_every_response_unparseable_fails_cleanly(self, runner, tmp_path):
        from cbdetect import constant_stub

        run_dir = self._make_run(
            runner, tmp_path, "a", backend=constant_stub("no idea").to_dict()
        )
        result = runner.invoke(
            main, ["report", "--runs", str(run_dir), "--out", str(tmp_path / "grid.txt")]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert str(run_dir) in result.output
        assert "empty confusion matrix" in result.output
        assert not (tmp_path / "grid.txt").exists()

    def test_duplicate_model_method_task_is_refused(self, runner, tmp_path):
        first = self._make_run(runner, tmp_path, "a", n_per_class=2)
        second = self._make_run(runner, tmp_path, "b", n_per_class=3)
        assert first != second
        result = runner.invoke(
            main, ["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "grid.txt")]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert str(first) in result.output and str(second) in result.output
        assert not (tmp_path / "grid.txt").exists()

    @pytest.mark.parametrize(
        "name, corrupt, where",
        [
            ("manifest.json", lambda lines: ["{"], ""),
            ("manifest.json", lambda lines: ['{"task": "cyberbullying"}'], ""),
            ("predictions.jsonl", lambda lines: lines[:2] + ["{"] + lines[3:], ":3"),
            ("manifest.json", lambda lines: [_empty_stub_rules("\n".join(lines))], ""),
        ],
        ids=[
            "manifest-not-json", "manifest-no-method", "predictions-line", "manifest-bad-backend"
        ],
    )
    def test_corrupt_run_file_fails_cleanly(self, runner, tmp_path, name, corrupt, where):
        run_dir = self._make_run(runner, tmp_path, "a")
        path = run_dir / name
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join(corrupt(lines)), encoding="utf-8")
        result = runner.invoke(
            main, ["report", "--runs", str(run_dir), "--out", str(tmp_path / "grid.txt")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {path}{where}: " in result.output
        assert not (tmp_path / "grid.txt").exists()


def _empty_stub_rules(manifest_text):
    manifest = json.loads(manifest_text)
    manifest["backends"][0]["stub_rules"] = []
    return json.dumps(manifest)


def _valid_config(command, tmp_path):
    if command == "train":
        posts = synth_fixture(2, Task.AGGRESSION, seed=1)
        return {
            "method": "lora_sft",
            "task": "aggression",
            "corpus": {"train": str(save_records(posts, tmp_path / "train.jsonl"))},
            "tune": {"seed": 3},
            "model": {"d_model": 8, "n_layers": 1, "d_ff": 16},
            "out_dir": str(tmp_path / "artifacts"),
        }
    posts = synth_fixture(2, Task.CYBERBULLYING, seed=5)
    return {
        "method": "zero_shot",
        "task": "cyberbullying",
        "corpus": {"eval": str(save_records(posts, tmp_path / "eval.jsonl"))},
        "backends": [stub_backend_dict(Task.CYBERBULLYING)],
        "out_dir": str(tmp_path / "runs"),
    }


def _put(*keys, value):
    """Config edit setting the value at a key path; ints index lists."""

    def edit(config, tmp_path):
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return config

    return edit


def _below_file(*keys):
    """Config edit pointing a path key below a regular file."""

    def edit(config, tmp_path):
        return _put(*keys, value=str(tmp_path / "blocker" / "below"))(config, tmp_path)

    return edit


_RECORD = {
    "dataset_id": "D1", "id": "p1", "label": "NAG", "language_tag": "en",
    "split": "train", "task": "aggression", "text": "a post",
}
# prepared-record lines that do not decode or do not build a post
_BAD_RECORD_LINES = {
    "not-json": "{not json",
    "missing-key": '{"id": "x"}',
    "text": json.dumps({**_RECORD, "text": 5}),
    "label": json.dumps({**_RECORD, "label": 7}),
    "array": '["x"]',
    "id": json.dumps({**_RECORD, "id": 5}),
}


def _bad_records(key, line):
    """Config edit pointing ``corpus.<key>`` at a record file whose second
    line is ``line``; the path is relative, so the message shows it as is."""

    def edit(config, tmp_path):
        text = json.dumps(_RECORD) + "\n" + line + "\n"
        (tmp_path / "records.jsonl").write_text(text, encoding="utf-8")
        return _put("corpus", key, value="records.jsonl")(config, tmp_path)

    return edit


def _bad_checkpoint(write):
    """Config edit pointing the run's backend at a toy checkpoint that
    ``write`` fills with a file that does not decode; the path is relative."""

    def edit(config, tmp_path):
        write(tmp_path / "checkpoint.npz")
        backend = {"backend_id": "toy", "kind": "toy_checkpoint"}
        backend["checkpoint_path"] = "checkpoint.npz"
        return _put("backends", value=[backend])(config, tmp_path)

    return edit


_BAD_CHECKPOINTS = {
    "text": lambda path: path.write_text("not an archive\n", encoding="utf-8"),
    "no-meta": lambda path: np.savez(path, head=np.zeros(3)),
    "meta-not-json": lambda path: np.savez(path, __meta__=np.array("{not json")),
}


# (command, config edit, exit code, text the message must hold)
MALFORMED = {
    "run-exemplar_k": ("run", _put("exemplar_k", value="x"), 2, "exemplar_k"),
    "run-seed": ("run", _put("seed", value="abc"), 2, "seed"),
    "run-checkpoints": ("run", _put("checkpoints", value=5), 2, "checkpoints"),
    "run-misspelled-key": ("run", _put("seeed", value=3), 2, "unknown config keys: ['seeed']"),
    "run-stub_rules": ("run", _put("backends", 0, "stub_rules", value=5), 2, "backends[0]"),
    "run-retry_policy": (
        "run", _put("backends", 0, "retry_policy", value="x"), 2, "backends[0]: RetryPolicy"
    ),
    "run-timeout": ("run", _put("backends", 0, "timeout", value=None), 2, "backends[0]: timeout"),
    "run-unknown-key": ("run", _put("backends", 0, "timeoutt", value=1.0), 2, "timeoutt"),
    "run-not-object": ("run", lambda config, tmp_path: 5, 2, "JSON object"),
    "run-array": ("run", lambda config, tmp_path: [], 2, "JSON object"),
    "run-out_dir": ("run", _below_file("out_dir"), 1, "Not a directory"),
    "train-rank_r": ("train", _put("tune", "rank_r", value=None), 2, "tune: rank_r"),
    "train-unknown-key": ("train", _put("tune", "learning_rte", value=0.1), 2, "learning_rte"),
    "train-misspelled-key": ("train", _put("modle", value={}), 2, "unknown config keys: ['modle']"),
    "train-vocab_size": ("train", _put("model", "vocab_size", value=2), 2, "model: vocab_size"),
    "train-d_model": ("train", _put("model", "d_model", value=0), 2, "model: d_model"),
    "train-task": ("train", _put("task", value="nope"), 2, "task: 'nope'"),
    "train-not-object": ("train", lambda config, tmp_path: 5, 2, "JSON object"),
    "train-out_dir": ("train", _below_file("out_dir"), 1, "Not a directory"),
    "train-corpus-dir": ("train", _put("corpus", "train", value="."), 1, "Is a directory"),
    **{
        f"{command}-record-{fault}": (
            command, _bad_records(key, line), 1, "Error: records.jsonl:2: "
        )
        for command, key in (("run", "eval"), ("train", "train"))
        for fault, line in _BAD_RECORD_LINES.items()
    },
    **{
        f"run-checkpoint-{fault}": ("run", _bad_checkpoint(write), 1, "Error: checkpoint.npz: ")
        for fault, write in _BAD_CHECKPOINTS.items()
    },
}


class TestMalformedInput:
    """Config faults exit 2 naming the key; I/O faults exit 1 with the OS
    message; a prepared-record line that does not decode or build exits 1
    naming its file and line. None ends in a traceback."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_clean_exit(self, runner, tmp_path, monkeypatch, case):
        command, edit, code, message = MALFORMED[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("", encoding="utf-8")
        config = edit(_valid_config(command, tmp_path), tmp_path)
        path = write_json(tmp_path / "config.json", config)
        result = runner.invoke(main, [command, "--config", str(path)])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize(
        "data, message",
        [(b'{"method": "\xff"}', "'utf-8' codec"), (b"{", "Expecting")],
        ids=["bad-utf8", "bad-json"],
    )
    def test_config_that_does_not_decode(self, runner, tmp_path, command, data, message):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        result = runner.invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {path}: {message}" in result.output

    def test_prepare_data_out_below_a_file(self, runner, tmp_path):
        src = write_d1_csv(tmp_path / "raw.csv", [(f"record {i} words", i % 3) for i in range(9)])
        (tmp_path / "blocker").write_text("", encoding="utf-8")
        result = runner.invoke(
            main,
            [
                "prepare-data", "--input", str(src), "--schema", "D1",
                "--out", str(tmp_path / "blocker" / "out"),
            ],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Not a directory" in result.output


README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("command", ["train", "run"])
def test_readme_config_example_is_a_valid_config(runner, tmp_path, monkeypatch, command):
    # the example's corpus files do not exist here: a valid config gets as
    # far as reading them (exit 1); a config the CLI refuses exits 2
    pattern = rf"A `{command}` config:\n\n```json\n(.*?)```"
    (example,) = re.findall(pattern, README.read_text(encoding="utf-8"), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    path = write_json(tmp_path / "config.json", json.loads(example))
    result = runner.invoke(main, [command, "--config", str(path)])
    assert result.exit_code == 1, result.output
    assert "No such file or directory: 'prepared/" in result.output
