import errno
import json
import os
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cbdetect import Task, save_records, synth_fixture
from cbdetect.cli import main
from cbdetect.tuning import (
    SftTrainer, ToyNetConfig, ToyTransformer, TuneConfig, load_classifier,
)
from cbdetect.tuning.training import tuned_arrays


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


TRAIN_FILES = ("checkpoint.npz", "metrics.jsonl", "train_manifest.json")


def held_files(out_dir):
    """The bytes of each training file that ``out_dir`` holds."""
    return {n: (out_dir / n).read_bytes() for n in TRAIN_FILES if (out_dir / n).exists()}


def as_mount_point(monkeypatch, mount):
    """Make the directory ``mount`` act as a mount point: a rename onto it
    fails with EBUSY, and a rename or link between a path inside it and one
    outside it fails with EXDEV."""
    mount = Path(os.path.abspath(mount))

    def guard(call):
        def guarded(src, dst, *args, **kwargs):
            src, dst = Path(os.path.abspath(src)), Path(os.path.abspath(dst))
            if dst == mount:
                raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), str(dst))
            if (mount in src.parents) != (mount in dst.parents):
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), str(src), None, str(dst))
            return call(src, dst, *args, **kwargs)

        return guarded

    for name in ("rename", "replace", "link"):
        monkeypatch.setattr(os, name, guard(getattr(os, name)))


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

    def _other_posts_config(self, tmp_path):
        """The SFT config on other posts, into the same out_dir."""
        config = json.loads(self._sft_config(tmp_path).read_text(encoding="utf-8"))
        posts_b = save_records(synth_fixture(4, Task.AGGRESSION, seed=2), tmp_path / "b.jsonl")
        config["corpus"]["train"] = str(posts_b)
        return write_json(tmp_path / "train_config_b.json", config)

    def test_never_replaces_another_run(self, runner, tmp_path):
        """A second run on other posts into the same out_dir exits 1, names
        the directory and leaves the first run's files; the first run again
        exits 0."""
        config_a = self._sft_config(tmp_path)
        config_b = self._other_posts_config(tmp_path)
        out = tmp_path / "artifacts"

        result = runner.invoke(main, ["train", "--config", str(config_a)])
        assert result.exit_code == 0, result.output
        first = {name: (out / name).read_bytes() for name in TRAIN_FILES}
        result = runner.invoke(main, ["train", "--config", str(config_b)])
        assert result.exit_code == 1, result.output
        assert str(out) in result.output
        assert {name: (out / name).read_bytes() for name in TRAIN_FILES} == first
        assert sorted(path.name for path in out.iterdir()) == sorted(TRAIN_FILES)
        result = runner.invoke(main, ["train", "--config", str(config_a)])
        assert result.exit_code == 0, result.output
        assert {name: (out / name).read_bytes() for name in TRAIN_FILES} == first

    def test_never_replaces_a_run_that_lands_first(self, runner, tmp_path, monkeypatch):
        """Run B, on other posts into the same out_dir, finishes while run A
        moves its files in: A exits 1 naming out_dir, B's files keep their
        bytes, and no staging directory stays beside out_dir."""
        config_a = self._sft_config(tmp_path)
        config_b = self._other_posts_config(tmp_path)
        out = tmp_path / "artifacts"
        first = iter([True])
        run_b = {}

        def hooked(move):
            def hook(path, target):
                if next(first, False):  # run B to completion, then make A's first move
                    run_b["result"] = CliRunner().invoke(main, ["train", "--config", str(config_b)])
                    run_b["files"] = held_files(out)
                return move(path, target)

            return hook

        for name in ("rename", "replace"):
            monkeypatch.setattr(Path, name, hooked(getattr(Path, name)))
        result = runner.invoke(main, ["train", "--config", str(config_a)])
        assert run_b["result"].exit_code == 0, run_b["result"].output
        assert result.exit_code == 1, result.output
        assert str(out) in result.output
        assert held_files(out) == run_b["files"]
        assert not list(tmp_path.glob(".artifacts.*"))

    @pytest.mark.parametrize("first_run", [False, True], ids=["absent", "holding-a-run"])
    def test_a_failed_write_leaves_out_dir_as_it_was(
        self, runner, tmp_path, monkeypatch, first_run
    ):
        """A run whose metrics log fails after its checkpoint is staged
        exits 1, leaves an absent out_dir absent and a held one's files as
        they were, and no staging directory."""
        out = tmp_path / "artifacts"
        if first_run:
            result = runner.invoke(main, ["train", "--config", str(self._sft_config(tmp_path))])
            assert result.exit_code == 0, result.output
        before = held_files(out)
        staged = []

        def failing_log(records, path):
            staged.append(Path(path).with_name("checkpoint.npz").is_file())
            raise OSError("metrics log: no space left")

        monkeypatch.setattr("cbdetect.cli.write_metrics_log", failing_log)
        result = runner.invoke(main, ["train", "--config", str(self._other_posts_config(tmp_path))])
        assert result.exit_code == 1, result.output
        assert "no space left" in result.output
        assert staged == [True]
        assert held_files(out) == before
        if first_run:
            assert sorted(path.name for path in out.iterdir()) == sorted(before)
        else:
            assert not out.exists()
        assert not list(tmp_path.glob(".artifacts.*"))

    @pytest.mark.parametrize("mounted", [False, True], ids=["one-filesystem", "mount-point"])
    @pytest.mark.parametrize("out_dir", ["artifacts", "."])
    def test_into_an_existing_out_dir_a_rerun_rewrites_nothing(
        self, runner, tmp_path, monkeypatch, out_dir, mounted
    ):
        """out_dir as an existing empty directory, or as the working
        directory, on the filesystem of its parent or as a mount point, gets
        the three files and stays the same directory; a rerun exits 0 and
        rewrites none."""
        work = tmp_path / "work"
        out = work / out_dir
        out.mkdir(parents=True)
        monkeypatch.chdir(work)
        config = json.loads(self._sft_config(tmp_path).read_text(encoding="utf-8"))
        path = write_json(tmp_path / "train_config.json", {**config, "out_dir": out_dir})
        if mounted:
            as_mount_point(monkeypatch, out)
        inode = out.stat().st_ino
        stats = []
        for _ in range(2):
            result = runner.invoke(main, ["train", "--config", str(path)])
            assert result.exit_code == 0, result.output
            assert sorted(p.name for p in out.iterdir()) == sorted(TRAIN_FILES)
            assert not list(work.glob(".*"))
            assert out.stat().st_ino == inode
            stats.append([(out / name).stat() for name in TRAIN_FILES])
        for first, rerun in zip(*stats):
            assert (rerun.st_ino, rerun.st_mtime_ns) == (first.st_ino, first.st_mtime_ns)

    def test_a_mounted_out_dir_holding_a_run_is_kept(self, runner, tmp_path, monkeypatch):
        """A run on other posts into an out_dir that is a mount point
        holding a run exits 1 naming it, and the held files stay."""
        out = tmp_path / "artifacts"
        result = runner.invoke(main, ["train", "--config", str(self._sft_config(tmp_path))])
        assert result.exit_code == 0, result.output
        before = held_files(out)
        as_mount_point(monkeypatch, out)
        result = runner.invoke(main, ["train", "--config", str(self._other_posts_config(tmp_path))])
        assert result.exit_code == 1, result.output
        assert f"{out}: holds other files" in result.output
        assert held_files(out) == before
        assert sorted(path.name for path in out.iterdir()) == sorted(TRAIN_FILES)

    def test_a_new_out_dir_is_made_as_mkdir_makes_one(self, runner, tmp_path):
        """An absent out_dir is made with the mode of a plain mkdir, not a
        staging directory's 0700."""
        plain = tmp_path / "plain"
        plain.mkdir()
        result = runner.invoke(main, ["train", "--config", str(self._sft_config(tmp_path))])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "artifacts").stat().st_mode == plain.stat().st_mode

    def _mtl_config(self, tmp_path, **extra):
        agg = save_records(synth_fixture(2, Task.AGGRESSION, seed=1), tmp_path / "agg.jsonl")
        cb = save_records(synth_fixture(2, Task.CYBERBULLYING, seed=1), tmp_path / "cb.jsonl")
        return write_json(
            tmp_path / "mtl.json",
            {
                "method": "mtl",
                "corpus": {"aggression_train": str(agg), "cyberbullying_train": str(cb)},
                "tune": {"epochs": 1, "seed": 3},
                "model": {"d_model": 8, "n_layers": 1, "d_ff": 16},
                "out_dir": str(tmp_path / "artifacts"),
                **extra,
            },
        )

    def test_mtl_epoch_warning(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--config", str(self._mtl_config(tmp_path))])
        assert result.exit_code == 0, result.output
        assert "outside the conventional" in result.output
        manifest = json.loads((tmp_path / "artifacts" / "train_manifest.json").read_text())
        assert manifest["epochs_warning"] is True

    def test_mtl_refuses_a_task_key(self, runner, tmp_path):
        config = self._mtl_config(tmp_path, task="aggression")
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert "task: mtl tunes both tasks" in result.output
        assert not (tmp_path / "artifacts").exists()

    def test_mtl_refuses_a_corpus_key_it_does_not_read(self, runner, tmp_path):
        path = self._mtl_config(tmp_path)
        config = json.loads(path.read_text(encoding="utf-8"))
        config["corpus"]["train"] = "nope.jsonl"
        result = runner.invoke(main, ["train", "--config", str(write_json(path, config))])
        assert result.exit_code == 2, result.output
        assert "corpus.train: method mtl does not read this key" in result.output
        assert not (tmp_path / "artifacts").exists()

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

    def test_template_id_outside_the_package_fails_cleanly(self, runner, tmp_path):
        (tmp_path / "evil.txt").write_text("{class_list}\n{post_text}\n", encoding="utf-8")
        template_id = os.path.relpath(tmp_path / "evil", str(resources.files("cbdetect.templates")))
        config_path = self._run_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["templates"] = {"main": template_id}
        write_json(config_path, config)
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"unknown template id: {template_id!r}" in result.output
        assert not (tmp_path / "runs").exists()

    def test_template_role_the_method_never_reads_fails_cleanly(self, runner, tmp_path):
        from cbdetect import constant_stub

        config_path = self._run_config(
            tmp_path,
            method="epp",
            backends=[
                constant_stub("Overtly Aggressive", backend_id="agg").to_dict(),
                stub_backend_dict(Task.CYBERBULLYING),
            ],
        )
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["templates"] = {"enrichd": "enriched_v1"}
        write_json(config_path, config)
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 2
        assert "'enrichd'" in result.output
        assert not (tmp_path / "runs").exists()

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


def _format_1_checkpoint(path):
    """A checkpoint as format 1 wrote it: the header, then each tuned array
    under its own name."""
    net, tune, task = ToyNetConfig(), TuneConfig(), Task.CYBERBULLYING
    trainer = SftTrainer(ToyTransformer(net), task, tune)
    state, head = trainer.adapters, trainer.head
    meta = {
        "format_version": 1, "model": net.to_dict(), "tune": tune.to_dict(),
        "tasks": [task.value],
    }
    np.savez(
        path, __meta__=np.array(json.dumps(meta, sort_keys=True)),
        **tuned_arrays({task: state}, {task: head}),
    )


# (command, config edit, exit code, text the message must hold)
MALFORMED = {
    "run-exemplar_k": ("run", _put("exemplar_k", value="x"), 2, "exemplar_k"),
    "run-seed": ("run", _put("seed", value="abc"), 2, "seed"),
    "run-exemplar_k-bool": (
        "run", _put("exemplar_k", value=True), 2, "exemplar_k: expected int, got bool"
    ),
    "run-seed-bool": ("run", _put("seed", value=True), 2, "seed: expected int, got bool"),
    "run-checkpoints": ("run", _put("checkpoints", value=5), 2, "checkpoints"),
    "run-toy-rendered_text": (
        "run",
        _put("backends", value=[{
            "backend_id": "toy", "kind": "toy_checkpoint",
            "checkpoint_path": "checkpoint.npz", "input_mode": "rendered_text",
        }]),
        2,
        "backends[0]: a toy checkpoint reads the post text it was tuned on",
    ),
    "run-misspelled-key": ("run", _put("seeed", value=3), 2, "unknown config keys: ['seeed']"),
    "run-corpus-train": (
        "run", _put("corpus", "train", value="train.jsonl"), 2,
        "corpus.train: method zero_shot does not read this key",
    ),
    "run-stub-checkpoint_path": (
        "run", _put("backends", 0, "checkpoint_path", value="c.npz"), 2,
        "backends[0]: checkpoint_path: a stub backend holds no such field",
    ),
    "run-stub_rules": ("run", _put("backends", 0, "stub_rules", value=5), 2, "backends[0]"),
    "run-stub_rules-pair": (
        "run", _put("backends", 0, "stub_rules", value=["ab"]), 2, "backends[0]: stub_rules"
    ),
    "run-retry_policy": (
        "run", _put("backends", 0, "retry_policy", value="x"), 2, "backends[0]: RetryPolicy"
    ),
    "run-max_attempts-zero": (
        "run", _put("backends", 0, "retry_policy", value={"max_attempts": 0}), 2,
        "backends[0]: max_attempts",
    ),
    "run-timeout": ("run", _put("backends", 0, "timeout", value=None), 2, "backends[0]: timeout"),
    "run-unknown-key": ("run", _put("backends", 0, "timeoutt", value=1.0), 2, "timeoutt"),
    "run-timeout-nan-string": (
        "run", _put("backends", 0, "timeout", value="nan"), 2, "backends[0]: timeout"
    ),
    "run-timeout-nan": (
        "run", _put("backends", 0, "timeout", value=float("nan")), 2, "backends[0]: timeout"
    ),
    "run-fail_patterns-string": (
        "run", _put("backends", 0, "fail_patterns", value="abc"), 2, "backends[0]: fail_patterns"
    ),
    "run-backoff-string": (
        "run", _put("backends", 0, "retry_policy", value={"backoff": "12"}), 2,
        "backends[0]: backoff",
    ),
    "run-not-object": ("run", lambda config, tmp_path: 5, 2, "JSON object"),
    "run-array": ("run", lambda config, tmp_path: [], 2, "JSON object"),
    "run-out_dir": ("run", _below_file("out_dir"), 1, "Not a directory"),
    "train-rank_r": ("train", _put("tune", "rank_r", value=None), 2, "tune: rank_r"),
    "train-rank_r-fraction": ("train", _put("tune", "rank_r", value=2.7), 2, "tune: rank_r"),
    "train-learning_rate-nan-string": (
        "train", _put("tune", "learning_rate", value="nan"), 2, "tune: learning_rate"
    ),
    "train-learning_rate-nan": (
        "train", _put("tune", "learning_rate", value=float("nan")), 2, "tune: learning_rate"
    ),
    "train-unknown-key": ("train", _put("tune", "learning_rte", value=0.1), 2, "learning_rte"),
    "train-misspelled-key": ("train", _put("modle", value={}), 2, "unknown config keys: ['modle']"),
    "train-vocab_size": ("train", _put("model", "vocab_size", value=2), 2, "model: vocab_size"),
    "train-d_model": ("train", _put("model", "d_model", value=0), 2, "model: d_model"),
    "train-tune-seed-negative": ("train", _put("tune", "seed", value=-1), 2, "tune: seed"),
    "train-model-seed-negative": ("train", _put("model", "seed", value=-1), 2, "model: seed"),
    # the test's empty "blocker" file as the record file
    "train-empty-pool": (
        "train", _put("corpus", "train", value="blocker"), 1,
        "Error: no aggression posts to train on",
    ),
    "train-task": ("train", _put("task", value="nope"), 2, "task: 'nope'"),
    "train-corpus-cyberbullying_train": (
        "train", _put("corpus", "cyberbullying_train", value="cb.jsonl"), 2,
        "corpus.cyberbullying_train: method lora_sft does not read this key",
    ),
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
    "run-checkpoint-format-1": (
        "run", _bad_checkpoint(_format_1_checkpoint), 1,
        "Error: checkpoint.npz: unsupported checkpoint format: 1",
    ),
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
