import dataclasses
import hashlib
import json
import re

import pytest

from cbdetect import (
    AggressionLabel,
    BackendDescriptor,
    BackendKind,
    ExperimentSpec,
    Method,
    PipelineError,
    PromptError,
    Task,
    build_confusion,
    class_name_stub,
    compute_metrics,
    constant_stub,
    label_space,
    load_template,
    make_stub,
    render_enriched,
    run_baseline,
    run_epp,
    run_experiment,
    run_from_manifest,
    synth_fixture,
)
from cbdetect.pipeline import load_manifest, load_predictions
from cbdetect.tuning import SftTrainer, ToyNetConfig, ToyTransformer, TuneConfig, save_checkpoint


def cb_spec(method=Method.ZERO_SHOT, **kwargs):
    defaults = dict(
        method=method,
        task=Task.CYBERBULLYING,
        backends=(class_name_stub(Task.CYBERBULLYING),),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def epp_spec(stage1=None, stage2=None, **kwargs):
    return ExperimentSpec(
        method=Method.EPP,
        task=Task.CYBERBULLYING,
        backends=(
            stage1 or constant_stub("Covertly Aggressive", backend_id="agg-stage"),
            stage2 or class_name_stub(Task.CYBERBULLYING, backend_id="cb-stage"),
        ),
        **kwargs,
    )


class TestSpecValidation:
    def test_epp_needs_two_backends(self):
        with pytest.raises(PipelineError, match="two backends"):
            ExperimentSpec(
                method=Method.EPP,
                task=Task.CYBERBULLYING,
                backends=(class_name_stub(Task.CYBERBULLYING),),
            )

    def test_baseline_takes_one_backend(self):
        with pytest.raises(PipelineError, match="exactly one backend"):
            cb_spec(backends=(class_name_stub(Task.CYBERBULLYING),) * 2)

    def test_epp_is_cyberbullying_only(self):
        with pytest.raises(PipelineError, match="cyberbullying"):
            ExperimentSpec(
                method=Method.EPP,
                task=Task.AGGRESSION,
                backends=(
                    constant_stub("Covertly Aggressive"),
                    class_name_stub(Task.CYBERBULLYING),
                ),
            )

    def test_overrides_are_copied_when_the_spec_is_built(self):
        overrides = {}
        spec = epp_spec(aggression_overrides=overrides)
        overrides["p1"] = "OAG"
        assert spec.aggression_overrides == {}

    def test_override_must_be_an_aggression_label(self):
        with pytest.raises(PipelineError, match="override for 'p1' is not an aggression label"):
            epp_spec(aggression_overrides={"p1": "OAG"})


class TestRunBaseline:
    def test_zero_shot_stub_run_all_correct(self, cyberbullying_fixture):
        result = run_baseline(cyberbullying_fixture, cb_spec())
        assert len(result.predictions) == 12
        assert all(
            p.predicted is post.label
            for p, post in zip(result.predictions, cyberbullying_fixture)
        )

    def test_order_preserved_with_parallel_backend(self, cyberbullying_fixture):
        stub = class_name_stub(Task.CYBERBULLYING)
        stub = dataclasses.replace(stub, max_parallel_requests=4)
        result = run_baseline(cyberbullying_fixture, cb_spec(backends=(stub,)))
        assert [p.post_id for p in result.predictions] == [
            post.id for post in cyberbullying_fixture
        ]

    def test_few_shot_fails_fast_before_any_backend_call(self, cyberbullying_fixture):
        calls = []
        probe = make_stub([("", "Religion")])

        import cbdetect.backend as backend_mod

        original = backend_mod._classify_stub

        def counting(text, *args):
            calls.append(text)
            return original(text, *args)

        backend_mod._classify_stub = counting
        try:
            undersized = cyberbullying_fixture[:4]  # one record per class
            with pytest.raises(PromptError, match="cannot select k=3"):
                run_baseline(
                    cyberbullying_fixture,
                    cb_spec(method=Method.FEW_SHOT, backends=(probe,)),
                    train_posts=undersized,
                )
        finally:
            backend_mod._classify_stub = original
        assert calls == []

    def test_exemplar_leakage_fails_before_any_backend_call(
        self, cyberbullying_fixture, monkeypatch
    ):
        # the last eval post is one of only three pool records of its class,
        # so k=3 must pick it: its prompt leaks, after eleven clean ones
        leaked = cyberbullying_fixture[-1]
        others = [p for p in synth_fixture(3, Task.CYBERBULLYING, seed=99) if p.label is not leaked.label]
        same_class = [p for p in synth_fixture(3, Task.CYBERBULLYING, seed=99) if p.label is leaked.label]
        pool = others + same_class[:2] + [leaked]
        import cbdetect.backend as backend_mod

        calls = []
        original = backend_mod._classify_stub
        monkeypatch.setattr(
            backend_mod,
            "_classify_stub",
            lambda text, *args: calls.append(text) or original(text, *args),
        )
        with pytest.raises(PromptError, match="exemplar leakage"):
            run_baseline(cyberbullying_fixture, cb_spec(method=Method.FEW_SHOT), train_posts=pool)
        assert calls == []

    def test_one_backend_batch_per_stage(self, cyberbullying_fixture, monkeypatch):
        import cbdetect.backend as backend_mod

        batches = []
        original = backend_mod.classify_batch
        monkeypatch.setattr(
            backend_mod,
            "classify_batch",
            lambda prompts, descriptor: batches.append(len(prompts)) or original(prompts, descriptor),
        )
        run_baseline(cyberbullying_fixture, cb_spec())
        assert batches == [12]
        batches.clear()
        run_epp(cyberbullying_fixture, epp_spec())
        assert batches == [12, 12]

    def test_few_shot_runs_with_adequate_pool(self, cyberbullying_fixture):
        pool = synth_fixture(4, Task.CYBERBULLYING, seed=99)
        result = run_baseline(
            cyberbullying_fixture, cb_spec(method=Method.FEW_SHOT), train_posts=pool
        )
        assert len(result.predictions) == 12
        assert result.manifest["exemplars"]["k"] == 3
        assert len(result.manifest["exemplars"]["source_ids"]) == 12

    def test_transport_failure_is_isolated(self, cyberbullying_fixture):
        target = cyberbullying_fixture[5]
        failing = make_stub(
            [(lab.display_name, lab.display_name) for lab in label_space(Task.CYBERBULLYING)],
            fail_patterns=[target.text],
        )
        clean_result = run_baseline(cyberbullying_fixture, cb_spec())
        result = run_baseline(cyberbullying_fixture, cb_spec(backends=(failing,)))
        assert len(result.predictions) == 12
        failed = [p for p in result.predictions if p.failure]
        assert len(failed) == 1 and failed[0].post_id == target.id
        assert failed[0].failure.startswith("transport_error")
        for clean, other in zip(clean_result.predictions, result.predictions):
            if other.post_id != target.id:
                assert clean.predicted is other.predicted

    def test_parse_failure_outcome(self, cyberbullying_fixture):
        gibberish = constant_stub("&&&&")
        result = run_baseline(cyberbullying_fixture, cb_spec(backends=(gibberish,)))
        assert all(p.failure == "parse_failure" for p in result.predictions)
        assert all(p.predicted is None for p in result.predictions)

    def test_empty_split_rejected(self):
        with pytest.raises(PipelineError, match="empty"):
            run_baseline([], cb_spec())

    def test_epp_method_rejected(self, cyberbullying_fixture):
        with pytest.raises(PipelineError, match="run_epp"):
            run_baseline(cyberbullying_fixture, epp_spec())

    def test_run_dir_layout(self, tmp_path, cyberbullying_fixture):
        result = run_baseline(cyberbullying_fixture, cb_spec(), out_dir=tmp_path)
        assert result.run_dir is not None
        assert (result.run_dir / "manifest.json").is_file()
        assert (result.run_dir / "predictions.jsonl").is_file()
        assert (result.run_dir / "responses.jsonl").is_file()
        assert result.run_dir.name == result.run_id


class TestRunEpp:
    def test_every_prediction_carries_aggression_annotation(self, cyberbullying_fixture):
        result = run_epp(cyberbullying_fixture, epp_spec())
        assert len(result.predictions) == 12
        assert all(p.aggression_annotation is not None for p in result.predictions)
        assert all(not p.stage1_fallback for p in result.predictions)

    def test_stage2_prompts_start_with_stage1_prediction(self, cyberbullying_fixture):
        result = run_epp(
            cyberbullying_fixture,
            epp_spec(stage1=constant_stub("Overtly Aggressive", backend_id="agg")),
        )
        stage2 = [e for e in result.audit if e["stage"] == "stage2"]
        assert len(stage2) == 12
        for entry in stage2:
            assert entry["rendered_text"].startswith(
                "This post was predicted as Overtly Aggressive. Based on this, "
                "classify the following content for cyberbullying."
            )

    def test_epp_decomposition_byte_exact(self, cyberbullying_fixture):
        result = run_epp(cyberbullying_fixture, epp_spec())
        template = load_template("enriched_v1", Task.CYBERBULLYING)
        stage2 = {e["post_id"]: e["rendered_text"] for e in result.audit if e["stage"] == "stage2"}
        for post, prediction in zip(cyberbullying_fixture, result.predictions):
            expected = render_enriched(post, prediction.aggression_annotation, template)
            assert stage2[post.id] == expected.rendered_text

    def test_injected_stage1_parse_failure_flags_exactly_one_record(
        self, cyberbullying_fixture
    ):
        target = cyberbullying_fixture[7]
        stage1 = make_stub(
            [(target.text, "%%%"), ("", "Covertly Aggressive")], backend_id="agg-stage"
        )
        clean = run_epp(cyberbullying_fixture, epp_spec())
        result = run_epp(cyberbullying_fixture, epp_spec(stage1=stage1))
        flagged = [p for p in result.predictions if p.stage1_fallback]
        assert len(flagged) == 1
        assert flagged[0].post_id == target.id
        assert flagged[0].aggression_annotation is AggressionLabel.NAG
        for before, after in zip(clean.predictions, result.predictions):
            if after.post_id != target.id:
                assert before.predicted is after.predicted
                assert before.stage1_fallback == after.stage1_fallback

    def test_swapping_stage1_stub_changes_only_display_span(self, cyberbullying_fixture):
        nag_run = run_epp(
            cyberbullying_fixture, epp_spec(stage1=constant_stub("Not-Aggressive"))
        )
        cag_run = run_epp(
            cyberbullying_fixture, epp_spec(stage1=constant_stub("Covertly Aggressive"))
        )
        nag_prompts = {e["post_id"]: e["rendered_text"] for e in nag_run.audit if e["stage"] == "stage2"}
        cag_prompts = {e["post_id"]: e["rendered_text"] for e in cag_run.audit if e["stage"] == "stage2"}
        for post_id, nag_text in nag_prompts.items():
            cag_text = cag_prompts[post_id]
            assert nag_text.replace("Not-Aggressive", "@", 1) == cag_text.replace(
                "Covertly Aggressive", "@", 1
            )

    def test_manifest_lists_the_toy_checkpoints(self, tmp_path, cyberbullying_fixture):
        base, tune = ToyTransformer(ToyNetConfig(seed=0)), TuneConfig()
        trainer = SftTrainer(base, Task.AGGRESSION, tune)  # untrained: any answer parses
        path = save_checkpoint(
            tmp_path / "agg.npz", base.config, tune,
            {Task.AGGRESSION: trainer.adapters}, {Task.AGGRESSION: trainer.head},
        )
        toy = BackendDescriptor(
            backend_id="toy", kind=BackendKind.TOY_CHECKPOINT, checkpoint_path=str(path)
        )
        result = run_epp(cyberbullying_fixture, epp_spec(stage1=toy))
        assert result.manifest["checkpoints"] == [str(path)]

    def test_macro_f1_is_one_on_fixture(self, cyberbullying_fixture):
        result = run_epp(cyberbullying_fixture, epp_spec())
        cm = build_confusion(result.predictions, label_space(Task.CYBERBULLYING))
        assert compute_metrics(cm).macro_f1 == 1.0


class TestGoldOverrideDiagnostics:
    def test_overrides_replace_stage1_and_are_marked(self, cyberbullying_fixture):
        target = cyberbullying_fixture[3]
        overrides = {target.id: AggressionLabel.OAG}
        result = run_epp(cyberbullying_fixture, epp_spec(aggression_overrides=overrides))
        by_id = {p.post_id: p for p in result.predictions}
        assert by_id[target.id].aggression_annotation is AggressionLabel.OAG
        assert by_id[target.id].provenance["stage1_mode"] == "gold_override"
        # everyone else still went through stage 1
        others = [p for p in result.predictions if p.post_id != target.id]
        assert all(p.provenance["stage1_mode"] == "predicted" for p in others)
        assert all(
            p.aggression_annotation is AggressionLabel.CAG for p in others
        )  # the constant stub says Covertly Aggressive
        # stage-2 prompt for the overridden record embeds the gold cue
        stage2 = {e["post_id"]: e["rendered_text"] for e in result.audit if e["stage"] == "stage2"}
        assert stage2[target.id].startswith("This post was predicted as Overtly Aggressive.")
        assert result.manifest["aggression_overrides"] == {target.id: "OAG"}

    def test_run_experiment_passes_overrides_to_epp_only(self, cyberbullying_fixture):
        overrides = {cyberbullying_fixture[0].id: AggressionLabel.OAG}
        result = run_experiment(cyberbullying_fixture, epp_spec(aggression_overrides=overrides))
        assert result.manifest["aggression_overrides"] == {cyberbullying_fixture[0].id: "OAG"}
        # a non-epp spec refuses overrides when it is built, before any run
        with pytest.raises(PipelineError, match="only to an epp experiment spec"):
            cb_spec(aggression_overrides=overrides)

    def test_override_runs_reproduce_from_manifest(self, tmp_path, cyberbullying_fixture):
        overrides = {cyberbullying_fixture[0].id: AggressionLabel.NAG}
        first = run_epp(
            cyberbullying_fixture, epp_spec(aggression_overrides=overrides), out_dir=tmp_path / "a"
        )
        manifest = json.loads((first.run_dir / "manifest.json").read_text())
        second = run_from_manifest(manifest, cyberbullying_fixture, out_dir=tmp_path / "b")
        assert (first.run_dir / "predictions.jsonl").read_bytes() == (
            second.run_dir / "predictions.jsonl"
        ).read_bytes()


class TestReproducibility:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, cyberbullying_fixture):
        first = run_baseline(cyberbullying_fixture, cb_spec(), out_dir=tmp_path / "a")
        manifest = json.loads((first.run_dir / "manifest.json").read_text())
        second = run_from_manifest(manifest, cyberbullying_fixture, out_dir=tmp_path / "b")
        first_bytes = (first.run_dir / "predictions.jsonl").read_bytes()
        second_bytes = (second.run_dir / "predictions.jsonl").read_bytes()
        assert first_bytes == second_bytes
        assert first.run_id == second.run_id

    def test_epp_rerun_from_manifest_matches(self, tmp_path, cyberbullying_fixture):
        first = run_epp(cyberbullying_fixture, epp_spec(), out_dir=tmp_path / "a")
        manifest = json.loads((first.run_dir / "manifest.json").read_text())
        second = run_from_manifest(manifest, cyberbullying_fixture, out_dir=tmp_path / "b")
        assert (first.run_dir / "predictions.jsonl").read_bytes() == (
            second.run_dir / "predictions.jsonl"
        ).read_bytes()

    def test_few_shot_rerun_matches(self, tmp_path, cyberbullying_fixture):
        pool = synth_fixture(4, Task.CYBERBULLYING, seed=99)
        spec = cb_spec(method=Method.FEW_SHOT, seed=21)
        first = run_baseline(cyberbullying_fixture, spec, train_posts=pool, out_dir=tmp_path / "a")
        manifest = json.loads((first.run_dir / "manifest.json").read_text())
        second = run_from_manifest(
            manifest, cyberbullying_fixture, train_posts=pool, out_dir=tmp_path / "b"
        )
        assert (first.run_dir / "predictions.jsonl").read_bytes() == (
            second.run_dir / "predictions.jsonl"
        ).read_bytes()


# Stubs that reach every parse stage, both failure kinds and a non-ASCII
# response, so the pinned files cover each outcome branch of the pipeline.
PIN_STAGE1 = make_stub(
    [
        ("Ethnicity/Race", "Overtly Aggressive"),
        ("Religion", "Sounds passive aggressive to me."),
        ("Gender/Sexual", "%%%"),
        ("", "Answer: not-aggressive, mostly"),
    ],
    backend_id="pin-agg",
    fail_patterns=["#1"],
)
PIN_STAGE2 = make_stub(
    [
        ("Ethnicity/Race", "Ethnicity/Race"),
        ("Religion", "This reads as religious, not gender-based."),
        ("Gender/Sexual", "Leaning Not Cyberbullyingish"),
        ("", "Keine Angabe — Straße"),
    ],
    backend_id="pin-cb",
    fail_patterns=["#2"],
)
# sha256 of (predictions.jsonl, responses.jsonl, manifest.json) per run, as
# written before the per-run caching of parse, render and persist pieces
PINNED_RUN_DIGESTS = {
    "zero_shot": (
        "cdc9fecbca61bc93b98b3eb2f5e173aab7afa96f032778e1b3820d6d9a93d5fc",
        "6e6de7986cb8559e8df8e6be0633f6ecac37482f3154b6c05cec4c01930749ec",
        "3509b780fe27bfd79413f99bc45fce39497a8a464ad35eb4941b6a6b30d2db2d",
    ),
    "few_shot": (
        "c7f5e85ccdd04851e8da2ec50195d3687d315cd211adcf4f8617e281f82006bd",
        "273eec364042c2dc83b37bf4e82208d5b69f6b5c1edd2811d6f40343b6cdc29f",
        "24d6e229110b7731600eb40d91c96e3f66a9ab378f2f47a8e49e288c29b07ffe",
    ),
    "epp": (
        "759e54d85bb745c146c3f583e40d632f58c6a1b8b83b0420e4d714fe5a6d9bc7",
        "637614da71e8f9e0f9ae904913c9e809e16f174f3e20cab80050731306095675",
        "7d522ed433aca0ad9fa8f64a3d8571af6c672aac2369ae409c887c788fd82f70",
    ),
    "epp_override": (
        "126df97cb73668afef0845324ab60a295c9adf159fff444e97361ba1131082ef",
        "15e94b0b303bfd482ea77b892e24138e9fbba50cf20fe945b7c52f1fbb78a06a",
        "bd3e68c6c11b3e3a355ac37eff14b97ebda4b3fd188eeb550ec8bc9a1d45fd3e",
    ),
}


PINNED_RUN_FILES = ("predictions.jsonl", "responses.jsonl", "manifest.json")


def _pinned_inputs(name):
    """(evaluation posts, spec, exemplar pool) of a pinned run."""
    posts = synth_fixture(3, Task.CYBERBULLYING, seed=1)
    if name == "zero_shot":
        return posts, cb_spec(backends=(PIN_STAGE2,)), None
    if name == "few_shot":
        spec = cb_spec(method=Method.FEW_SHOT, backends=(PIN_STAGE2,), seed=5)
        return posts, spec, synth_fixture(4, Task.CYBERBULLYING, seed=99)
    overrides = {posts[4].id: AggressionLabel.OAG} if name == "epp_override" else {}
    return posts, epp_spec(PIN_STAGE1, PIN_STAGE2, aggression_overrides=overrides), None


def _pinned_run(name, out_dir):
    posts, spec, pool = _pinned_inputs(name)
    return run_experiment(posts, spec, train_posts=pool, out_dir=out_dir)


class TestPinnedBytes:
    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_run_files_match_pinned_digests(self, tmp_path, name):
        run_dir = _pinned_run(name, tmp_path).run_dir
        digests = tuple(
            hashlib.sha256((run_dir / f).read_bytes()).hexdigest() for f in PINNED_RUN_FILES
        )
        assert digests == PINNED_RUN_DIGESTS[name]

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_run_files_match_pinned_digests_on_a_crlf_platform(self, tmp_path, name, crlf_platform):
        run_dir = _pinned_run(name, tmp_path).run_dir
        digests = tuple(
            hashlib.sha256((run_dir / f).read_bytes()).hexdigest() for f in PINNED_RUN_FILES
        )
        assert digests == PINNED_RUN_DIGESTS[name]

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_loaded_manifest_spec_reruns_identically(self, tmp_path, name):
        first = _pinned_run(name, tmp_path / "a")
        posts, _, pool = _pinned_inputs(name)
        spec, run_id = load_manifest(first.run_dir / "manifest.json")
        second = run_experiment(posts, spec, train_posts=pool, out_dir=tmp_path / "b")
        assert second.run_id == run_id == first.run_id
        for f in PINNED_RUN_FILES:
            assert (second.run_dir / f).read_bytes() == (first.run_dir / f).read_bytes(), f

    def test_unknown_override_name_in_a_manifest_names_the_file(self, tmp_path):
        path = _pinned_run("epp_override", tmp_path).run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["aggression_overrides"] = {"p1": "XAG"}
        path.write_text(json.dumps(manifest), encoding="utf-8")
        message = f"{path}: unknown aggression label name: 'XAG'"
        with pytest.raises(PipelineError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_predictions_read_back_field_for_field(self, tmp_path, name):
        result = _pinned_run(name, tmp_path)
        path = result.run_dir / "predictions.jsonl"
        assert load_predictions(path, result.spec.task) == result.predictions

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_unknown_prediction_key_names_its_line(self, tmp_path, name):
        path = _pinned_run(name, tmp_path).run_dir / "predictions.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = json.dumps({**json.loads(lines[1]), "surprise": 1})
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{path}:2: ")):
            load_predictions(path, Task.CYBERBULLYING)


class TestPredictionsFile:
    def test_line_separators_in_a_response_read_back(self, tmp_path):
        # written unescaped, U+2028 and U+0085 end a line for str.splitlines
        # but not for a file read line by line
        stub = constant_stub("Religion\u2028or\x85not")
        posts = synth_fixture(1, Task.CYBERBULLYING)
        result = run_baseline(posts, cb_spec(backends=(stub,)), out_dir=tmp_path)
        path = result.run_dir / "predictions.jsonl"
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert load_predictions(path, Task.CYBERBULLYING) == result.predictions
