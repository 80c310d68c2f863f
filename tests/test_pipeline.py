import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from cbdetect import (
    AggressionLabel,
    BackendDescriptor,
    BackendKind,
    CyberbullyingLabel,
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
    persist_run,
    render_enriched,
    run_baseline,
    run_epp,
    run_experiment,
    run_from_manifest,
    synth_fixture,
)
from cbdetect.cli import main
from cbdetect.pipeline import load_manifest, load_predictions, spec_from_manifest
from cbdetect.tuning import SftTrainer, ToyNetConfig, ToyTransformer, TuneConfig, save_checkpoint


def cb_spec(method=Method.ZERO_SHOT, **kwargs):
    defaults = dict(
        method=method,
        task=Task.CYBERBULLYING,
        backends=(class_name_stub(Task.CYBERBULLYING),),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def prompt_reading_stub():
    """The default stage-2 stub, reading the whole rendered prompt: its
    audit entries hold the prompt, cue included."""
    stub = class_name_stub(Task.CYBERBULLYING, backend_id="cb-stage")
    return dataclasses.replace(stub, input_mode="rendered_text")


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

    @pytest.mark.parametrize(
        "value, message",
        [
            ("x", "expected a mapping of str to aggression label, got str"),
            (5, "expected a mapping of str to aggression label, got int"),
            (["p1"], "expected a mapping of str to aggression label, got list"),
            ({"p1": "OAG"}, "override for 'p1' is not an aggression label"),
            ({1: AggressionLabel.OAG}, "post id 1 is not a string"),
        ],
    )
    def test_aggression_overrides_are_checked(self, value, message):
        with pytest.raises(PipelineError, match=re.escape(f"aggression_overrides: {message}")):
            epp_spec(aggression_overrides=value)

    @pytest.mark.parametrize(
        "method, role, roles",
        [
            (Method.EPP, "enrichd", "['stage1', 'enriched']"),
            (Method.EPP, "main", "['stage1', 'enriched']"),
            (Method.ZERO_SHOT, "stage1", "['main']"),
            (Method.FEW_SHOT, "enriched", "['main']"),
        ],
    )
    def test_template_role_the_method_never_reads_is_refused(self, method, role, roles):
        message = f"{method.value} reads no template role {role!r}; it reads {roles}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            if method is Method.EPP:
                epp_spec(templates={role: "enriched_v1"})
            else:
                cb_spec(method=method, templates={role: "zero_shot_v1"})

    def test_template_id_must_be_a_string(self):
        with pytest.raises(PipelineError, match="template id for role 'main' is not a string"):
            cb_spec(templates={"main": 1})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", True, "seed: expected int, got bool"),
            ("seed", "7", "seed: expected int, got str"),
            ("seed", 1.5, "seed: expected int, got float"),
            ("exemplar_k", "1", "exemplar_k: expected int, got str"),
            ("exemplar_k", False, "exemplar_k: expected int, got bool"),
            ("templates", "main", "templates: expected a mapping of str to str, got str"),
            ("templates", [("main", "zero_shot_v1")], "templates: expected a mapping"),
        ],
    )
    def test_field_types_are_checked(self, field, value, message):
        with pytest.raises(PipelineError, match=re.escape(message)):
            cb_spec(method=Method.FEW_SHOT, **{field: value})

    def test_templates_are_copied_when_the_spec_is_built(self):
        templates = {"main": "zero_shot_v1"}
        spec = cb_spec(templates=templates)
        templates["stage1"] = "zero_shot_v1"
        templates["main"] = "few_shot_v1"
        assert spec.templates == {"main": "zero_shot_v1"}
        assert spec.template_id("main") == "zero_shot_v1"

    @pytest.mark.parametrize(
        "name, key, value",
        [("templates", "enrichd", "enriched_v1"), ("aggression_overrides", "p2", "OAG")],
    )
    def test_checked_dicts_are_read_only(self, name, key, value):
        spec = epp_spec(aggression_overrides={"p1": AggressionLabel.OAG})
        before = dict(getattr(spec, name))
        with pytest.raises(TypeError):
            getattr(spec, name)[key] = value
        assert getattr(spec, name) == before


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
            epp_spec(
                stage1=constant_stub("Overtly Aggressive", backend_id="agg"),
                stage2=prompt_reading_stub(),
            ),
        )
        stage2 = [e for e in result.audit if e["stage"] == "stage2"]
        assert len(stage2) == 12
        for entry in stage2:
            assert entry["rendered_text"].startswith(
                "This post was predicted as Overtly Aggressive. Based on this, "
                "classify the following content for cyberbullying."
            )

    def test_epp_decomposition_byte_exact(self, cyberbullying_fixture):
        result = run_epp(cyberbullying_fixture, epp_spec(stage2=prompt_reading_stub()))
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
            cyberbullying_fixture,
            epp_spec(stage1=constant_stub("Not-Aggressive"), stage2=prompt_reading_stub()),
        )
        cag_run = run_epp(
            cyberbullying_fixture,
            epp_spec(stage1=constant_stub("Covertly Aggressive"), stage2=prompt_reading_stub()),
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
        result = run_epp(
            cyberbullying_fixture,
            epp_spec(stage2=prompt_reading_stub(), aggression_overrides=overrides),
        )
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


    def test_every_record_overridden_sends_an_empty_stage1_batch(
        self, cyberbullying_fixture, monkeypatch
    ):
        import cbdetect.backend as backend_mod

        # a live endpoint with no address fails any request it is sent
        stage1 = BackendDescriptor(backend_id="agg-live", kind=BackendKind.LIVE_ENDPOINT)
        overrides = {post.id: AggressionLabel.OAG for post in cyberbullying_fixture}
        sizes = []
        original = backend_mod.classify_batch
        monkeypatch.setattr(
            backend_mod,
            "classify_batch",
            lambda prompts, descriptor: sizes.append(len(prompts)) or original(prompts, descriptor),
        )
        result = run_epp(cyberbullying_fixture, epp_spec(stage1=stage1, aggression_overrides=overrides))
        assert sizes == [0, 12]
        ids = [post.id for post in cyberbullying_fixture]
        assert result.audit[:12] == [
            {"post_id": post_id, "stage": "stage1", "response_text": None, "failure": None,
             "gold_override": "OAG"}
            for post_id in ids
        ]
        assert [(e["post_id"], e["stage"]) for e in result.audit[12:]] == [
            (post_id, "stage2") for post_id in ids
        ]
        assert all(p.provenance["stage1_mode"] == "gold_override" for p in result.predictions)
        assert all(p.failure is None for p in result.predictions)


class TestAuditHoldsWhatTheBackendRead:
    """A stage renders a prompt's text only when its backend reads it, and
    the audit entry holds exactly the text the backend was given."""

    def _runs(self, posts, stage2=None):
        """Zero-shot, few-shot and EPP runs over ``posts``, each run when its
        result is asked for."""
        pool = synth_fixture(4, Task.CYBERBULLYING, seed=99)
        stage2 = stage2 or class_name_stub(Task.CYBERBULLYING, backend_id="cb-stage")
        yield run_baseline(posts, cb_spec(backends=(stage2,)))
        yield run_baseline(posts, cb_spec(method=Method.FEW_SHOT, backends=(stage2,)), pool)
        yield run_epp(posts, epp_spec(stage2=stage2))

    def test_post_text_stages_render_nothing(self, cyberbullying_fixture, monkeypatch):
        import cbdetect.prompting as prompting

        expected = [result.predictions for result in self._runs(cyberbullying_fixture)]

        def no_render(*args):
            raise AssertionError("a post_text stage rendered a prompt")

        monkeypatch.setattr(prompting, "_substitute", no_render)
        results = list(self._runs(cyberbullying_fixture))
        assert [r.predictions for r in results] == expected
        for result in results:
            assert all(
                entry.keys() == {"failure", "post_id", "response_text", "stage"}
                for entry in result.audit
            )

    def test_rendered_text_stub_entries_hold_what_it_read(
        self, cyberbullying_fixture, monkeypatch
    ):
        import cbdetect.backend as backend_mod

        read = []
        original = backend_mod._classify_stub
        monkeypatch.setattr(
            backend_mod,
            "_classify_stub",
            lambda text, *args: read.append(text) or original(text, *args),
        )
        for result in self._runs(cyberbullying_fixture, stage2=prompt_reading_stub()):
            read_by_stage2 = read[-len(cyberbullying_fixture) :]
            entries = [e for e in result.audit if e["stage"] in ("main", "stage2")]
            assert [e["rendered_text"] for e in entries] == read_by_stage2
            assert all("rendered_text" not in e for e in result.audit if e["stage"] == "stage1")
            read.clear()

    def test_override_entry_holds_no_prompt(self, cyberbullying_fixture):
        target = cyberbullying_fixture[0]
        spec = epp_spec(stage1=dataclasses.replace(prompt_reading_stub(), backend_id="agg"),
                        aggression_overrides={target.id: AggressionLabel.OAG})
        result = run_epp(cyberbullying_fixture, spec)
        stage1 = {e["post_id"]: e for e in result.audit if e["stage"] == "stage1"}
        assert stage1.pop(target.id) == {
            "post_id": target.id, "stage": "stage1", "response_text": None, "failure": None,
            "gold_override": "OAG",
        }
        assert all("rendered_text" in e for e in stage1.values())

    @pytest.mark.parametrize(
        "posts, spec, message",
        [
            ("cyberbullying", cb_spec(templates={"main": "few_shot_v1"}), "unbound"),
            ("aggression", cb_spec(), "is bound to CyberbullyingLabel"),
        ],
        ids=["unbound-placeholder", "template-task-mismatch"],
    )
    def test_prompt_errors_fail_before_any_backend_call(
        self, request, monkeypatch, posts, spec, message
    ):
        import cbdetect.backend as backend_mod

        calls = []
        original = backend_mod.classify_batch
        monkeypatch.setattr(
            backend_mod,
            "classify_batch",
            lambda prompts, descriptor: calls.append(descriptor) or original(prompts, descriptor),
        )
        posts = request.getfixturevalue(f"{posts}_fixture")
        with pytest.raises(PromptError, match=message):
            run_baseline(posts, spec)
        assert calls == []


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", True, "seed: expected int, got bool"),
            ("seed", "7", "seed: expected int, got str"),
            ("seed", 1.5, "seed: expected int, got float"),
            ("exemplars", {"k": "1"}, "exemplar_k: expected int, got str"),
        ],
    )
    def test_manifest_with_a_mistyped_field_is_not_rerun(
        self, tmp_path, cyberbullying_fixture, key, value, message
    ):
        pool = synth_fixture(4, Task.CYBERBULLYING, seed=99)
        spec = cb_spec(method=Method.FEW_SHOT, seed=21)
        first = run_baseline(cyberbullying_fixture, spec, train_posts=pool, out_dir=tmp_path / "a")
        manifest = json.loads((first.run_dir / "manifest.json").read_text())
        manifest[key] = value
        with pytest.raises(PipelineError, match=re.escape(message)):
            run_from_manifest(manifest, cyberbullying_fixture, pool, out_dir=tmp_path / "b")
        assert not (tmp_path / "b").exists()


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
# The same outcomes from stubs that read the rendered prompt, so their
# audit logs hold every prompt. A stage-2 pattern ends in the blank line
# after the query post, which no few-shot exemplar is followed by, or
# names the enrichment cue.
PIN_RENDERED_STAGE1 = dataclasses.replace(PIN_STAGE1, input_mode="rendered_text")
PIN_RENDERED_STAGE2 = dataclasses.replace(
    make_stub(
        [
            ("#0\n\n", "Ethnicity/Race"),
            ("#1\n\n", "This reads as religious, not gender-based."),
            ("predicted as Overtly Aggressive.", "Leaning Not Cyberbullyingish"),
            ("", "Keine Angabe — Straße"),
        ],
        backend_id="pin-cb-rendered",
        fail_patterns=["religion, mods are asleep #0\n\n"],
    ),
    input_mode="rendered_text",
)
# sha256 of (predictions.jsonl, responses.jsonl, manifest.json) per run. The
# audit logs are as written once an entry holds the rendered prompt only
# where its backend read it (these stubs read the post, so zero-shot and
# few-shot logs agree); predictions and manifests as written once a line's
# provenance holds only per-record facts and the manifest every run fact.
PINNED_RUN_DIGESTS = {
    "zero_shot": (
        "346d78f7769423d5321ebed9a2ce0cbff24ba0f91cc9e8df27f12c751199eb91",
        "82a1ef8e80595203e721f630985304ebda81fe2dbc59c736553f178558cadab8",
        "1dc5d4cca512faa57196d8d0f7eb396b3406d4634e2e480303d1373ad6d281a4",
    ),
    "few_shot": (
        "346d78f7769423d5321ebed9a2ce0cbff24ba0f91cc9e8df27f12c751199eb91",
        "82a1ef8e80595203e721f630985304ebda81fe2dbc59c736553f178558cadab8",
        "5a4474e2162f937355fee7eb1b3f7aa923501a47f332c9122a2736ee15343c1c",
    ),
    "epp": (
        "2e7dfa495dcb9a3db7fa31b17881fb36e662a107f4f70505336e24957b325735",
        "bdb669cb1fc1dba0028d7cd39def3a247f6beeaa2fbe355859f427a02cab8a84",
        "8774437bde74d5b38004679bb9c281e8e6b8a1d9686914607216315077fae733",
    ),
    "epp_override": (
        "07ce1ca9395a15ca25da63ec3d7f777b83bf30f36affb2ddb5b0c7bba6d0febf",
        "787d9d335e448320b49e3bb853c558b86c96b1fa236928bcf94476bdbd89ea0a",
        "968e6d0cafe7d32a0df4b44bf398c2ab220028dd7cb57b6ffc35c2172a3e0ad4",
    ),
    # stubs that read the rendered prompt: the audit logs hold every prompt
    "few_shot_rendered": (
        "c1eae80984378b90443cafae08e53b214eee40849a9b49d22560b4ac70e45ba9",
        "64b7a8b6f79152c32b01c862b1530cb4d1d4dd051fc5e42084fd793bdf652039",
        "7ee65ab55885ac156b82e1363e7a3f8ac09a7b2abfd39eae2aad739a606c9174",
    ),
    "epp_rendered": (
        "e26d39c9de514cef11fdf0418fa2dfdb52b9f7ed27074f304698eb500b9c5b36",
        "951dc7e5e9fcca620ac894875c43e2e9879f3c95a77bea6a0a9acf4dc930cb0c",
        "fe87820eaa119469e4f5ae70738587451979df3f78ddac09a63ab78967a6d556",
    ),
}


# the run ids hash the manifest as the run builds it, so they hold while
# the files' layout changes
PINNED_RUN_IDS = {
    "zero_shot": "f6fd112df18b",
    "few_shot": "8f1994a5d5db",
    "epp": "c445a2fe5321",
    "epp_override": "8f8d0705f775",
    "few_shot_rendered": "2ce201d4b1e5",
    "epp_rendered": "c8fa60b01a00",
}
PINNED_RUNS = tuple(PINNED_RUN_IDS)
PINNED_RUN_FILES = ("predictions.jsonl", "responses.jsonl", "manifest.json")
# each pinned run's manifest.json and predictions.jsonl as written when the
# manifest held a "shared_provenance" block: the provenance pairs every
# record shared, which the lines left out
SHARED_PROVENANCE_RUNS = Path(__file__).parent / "data" / "runs_with_shared_provenance"


def _pinned_inputs(name):
    """(evaluation posts, spec, exemplar pool) of a pinned run."""
    posts = synth_fixture(3, Task.CYBERBULLYING, seed=1)
    if name == "zero_shot":
        return posts, cb_spec(backends=(PIN_STAGE2,)), None
    if name == "few_shot":
        spec = cb_spec(method=Method.FEW_SHOT, backends=(PIN_STAGE2,), seed=5)
        return posts, spec, synth_fixture(4, Task.CYBERBULLYING, seed=99)
    if name == "few_shot_rendered":
        spec = cb_spec(method=Method.FEW_SHOT, backends=(PIN_RENDERED_STAGE2,), seed=5)
        return posts, spec, synth_fixture(4, Task.CYBERBULLYING, seed=99)
    if name == "epp_rendered":
        return posts, epp_spec(PIN_RENDERED_STAGE1, PIN_RENDERED_STAGE2), None
    overrides = {posts[4].id: AggressionLabel.OAG} if name == "epp_override" else {}
    return posts, epp_spec(PIN_STAGE1, PIN_STAGE2, aggression_overrides=overrides), None


def _pinned_run(name, out_dir):
    posts, spec, pool = _pinned_inputs(name)
    return run_experiment(posts, spec, train_posts=pool, out_dir=out_dir)


class TestPinnedBytes:
    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_run_files_match_pinned_digests(self, tmp_path, name):
        run_dir = _pinned_run(name, tmp_path).run_dir
        digests = tuple(
            hashlib.sha256((run_dir / f).read_bytes()).hexdigest() for f in PINNED_RUN_FILES
        )
        assert digests == PINNED_RUN_DIGESTS[name]

    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_run_id_matches_pinned_id(self, tmp_path, name):
        result = _pinned_run(name, tmp_path)
        assert result.run_id == result.run_dir.name == PINNED_RUN_IDS[name]

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_provenance_holds_only_per_record_facts(self, tmp_path, name):
        result = _pinned_run(name, tmp_path)
        for p in result.predictions:
            assert set(p.provenance) <= {"match_kind", "stage1_mode"}, p.post_id
        manifest = json.loads((result.run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert "shared_provenance" not in manifest

    @pytest.mark.parametrize("name", PINNED_RUNS)
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

    @pytest.mark.parametrize(
        "value, message",
        [
            (5, "expected a mapping of str to aggression label, got int"),
            (["p1"], "expected a mapping of str to aggression label, got list"),
            ({"p1": 3}, "override for 'p1' is not an aggression label"),
        ],
    )
    def test_malformed_overrides_in_a_manifest_name_the_field(self, tmp_path, value, message):
        path = _pinned_run("epp_override", tmp_path).run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["aggression_overrides"] = value
        message = f"aggression_overrides: {message}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            spec_from_manifest(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{path}: {message}")):
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


@pytest.fixture
def parse_calls(monkeypatch):
    """The (response text, label space) of every parse the pipeline runs."""
    import cbdetect.pipeline as pipeline_mod

    calls = []
    original = pipeline_mod.parse_label

    def counting(raw, space, *args):
        calls.append((raw.text, space))
        return original(raw, space, *args)

    monkeypatch.setattr(pipeline_mod, "parse_label", counting)
    return calls


class TestParseOncePerAnswer:
    """Within a stage batch each distinct answer text is parsed once."""

    def test_zero_shot_parses_each_distinct_answer_once(self, cyberbullying_fixture, parse_calls):
        stub = make_stub(
            [("Religion", "Religion"), ("Gender/Sexual", "sounds sexist")],
            default_response="harmless",
        )
        result = run_baseline(cyberbullying_fixture, cb_spec(backends=(stub,)))
        assert len({p.response_text for p in result.predictions}) == 3
        assert all(p.predicted is not None for p in result.predictions)
        assert sorted(parse_calls) == [
            ("Religion", CyberbullyingLabel),
            ("harmless", CyberbullyingLabel),
            ("sounds sexist", CyberbullyingLabel),
        ]

    def test_epp_parses_each_distinct_answer_once_per_stage(
        self, cyberbullying_fixture, parse_calls
    ):
        stage1 = make_stub([("Religion", "Overtly Aggressive")], default_response="neutral")
        result = run_epp(cyberbullying_fixture, epp_spec(stage1=stage1))
        stage1_texts = {p.stage1_response_text for p in result.predictions}
        stage2_texts = {p.response_text for p in result.predictions}
        assert len(stage1_texts) == 2 and len(stage2_texts) == 4
        assert sorted(parse_calls, key=repr) == sorted(
            [(text, AggressionLabel) for text in stage1_texts]
            + [(text, CyberbullyingLabel) for text in stage2_texts],
            key=repr,
        )

    def test_repeated_unparseable_answer_fails_every_record(
        self, cyberbullying_fixture, parse_calls
    ):
        result = run_baseline(cyberbullying_fixture, cb_spec(backends=(constant_stub("&&&&"),)))
        assert all(p.failure == "parse_failure" for p in result.predictions)
        assert all(p.response_text == "&&&&" for p in result.predictions)
        assert parse_calls == [("&&&&", CyberbullyingLabel)]

    def test_one_text_is_parsed_in_each_label_space(self, cyberbullying_fixture, parse_calls):
        # "Religion" names no aggression class, so stage 1 falls back
        spec = epp_spec(stage1=constant_stub("Religion"), stage2=constant_stub("Religion"))
        result = run_epp(cyberbullying_fixture, spec)
        assert all(p.stage1_fallback for p in result.predictions)
        assert all(p.predicted is CyberbullyingLabel.RELIGION for p in result.predictions)
        assert parse_calls == [("Religion", AggressionLabel), ("Religion", CyberbullyingLabel)]

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_runs_equal_runs_that_parse_every_record(self, monkeypatch, name):
        import cbdetect.pipeline as pipeline_mod

        posts, spec, pool = _pinned_inputs(name)
        shared = run_experiment(posts, spec, train_posts=pool)
        parse = pipeline_mod._parse
        # a fresh parse dict per record parses every record's answer
        monkeypatch.setattr(pipeline_mod, "_parse", lambda *args: parse(*args[:-1], {}))
        per_record = run_experiment(posts, spec, train_posts=pool)
        assert shared.predictions == per_record.predictions
        assert shared.audit == per_record.audit
        assert [list(entry) for entry in shared.audit] == [list(e) for e in per_record.audit]


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

    @pytest.mark.parametrize("name", ["zero_shot", "few_shot", "epp", "epp_override"])
    def test_older_run_dir_still_reports(self, tmp_path, name):
        older = SHARED_PROVENANCE_RUNS / name
        assert "shared_provenance" in json.loads((older / "manifest.json").read_text("utf-8"))
        assert load_manifest(older / "manifest.json")[1] == PINNED_RUN_IDS[name]
        current = _pinned_run(name, tmp_path / "runs").run_dir
        grids = []
        for run_dir in (older, current):
            out = tmp_path / f"{run_dir.name}.txt"
            result = CliRunner().invoke(main, ["report", "--runs", str(run_dir), "--out", str(out)])
            assert result.exit_code == 0, result.output
            grids.append(out.read_text(encoding="utf-8"))
        assert grids[0] == grids[1]


def _toy_checkpoint(path, seed):
    base, tune = ToyTransformer(ToyNetConfig(seed=seed)), TuneConfig()
    trainer = SftTrainer(base, Task.AGGRESSION, tune)  # untrained: any answer parses
    return save_checkpoint(
        path, base.config, tune, {Task.AGGRESSION: trainer.adapters}, {Task.AGGRESSION: trainer.head}
    )


class TestRunIdentity:
    def test_runs_over_different_records_keep_their_own_directories(self, tmp_path):
        first = run_baseline(synth_fixture(5, Task.CYBERBULLYING, seed=1), cb_spec(), out_dir=tmp_path)
        second = run_baseline(synth_fixture(5, Task.CYBERBULLYING, seed=2), cb_spec(), out_dir=tmp_path)
        assert first.run_id != second.run_id
        for result in (first, second):
            path = result.run_dir / "predictions.jsonl"
            assert load_predictions(path, Task.CYBERBULLYING) == result.predictions

    @pytest.mark.parametrize(
        "field, value",
        [("id", "another-id"), ("label", CyberbullyingLabel.RELIGION), ("text", "another text")],
    )
    def test_run_id_hashes_each_record_field(self, field, value):
        posts = list(synth_fixture(2, Task.CYBERBULLYING, seed=1))
        before = run_baseline(posts, cb_spec()).run_id
        assert getattr(posts[3], field) != value
        posts[3] = dataclasses.replace(posts[3], **{field: value})
        assert run_baseline(posts, cb_spec()).run_id != before

    def test_run_id_hashes_the_exemplars_rendered(self, cyberbullying_fixture):
        spec = cb_spec(method=Method.FEW_SHOT, seed=5)
        pool = list(synth_fixture(4, Task.CYBERBULLYING, seed=99))
        first = run_baseline(cyberbullying_fixture, spec, train_posts=pool)
        # the same exemplar ids, one exemplar's text changed
        chosen = first.manifest["exemplars"]["source_ids"][0]
        pool = [dataclasses.replace(p, text=p.text + " x") if p.id == chosen else p for p in pool]
        second = run_baseline(cyberbullying_fixture, spec, train_posts=pool)
        assert second.manifest["exemplars"]["source_ids"] == first.manifest["exemplars"]["source_ids"]
        assert second.run_id != first.run_id

    def test_run_id_hashes_the_checkpoint_bytes(self, tmp_path, cyberbullying_fixture):
        path = _toy_checkpoint(tmp_path / "agg.npz", seed=0)
        toy = BackendDescriptor(
            backend_id="toy", kind=BackendKind.TOY_CHECKPOINT, checkpoint_path=str(path)
        )
        first = run_epp(cyberbullying_fixture, epp_spec(stage1=toy))
        _toy_checkpoint(path, seed=1)  # rewritten in place
        second = run_epp(cyberbullying_fixture, epp_spec(stage1=toy))
        assert second.manifest["checkpoints"] == first.manifest["checkpoints"] == [str(path)]
        assert second.run_id != first.run_id

    def test_same_inputs_same_run_id(self, cyberbullying_fixture):
        first = run_baseline(cyberbullying_fixture, cb_spec())
        second = run_baseline(tuple(cyberbullying_fixture), cb_spec())
        assert first.run_id == second.run_id

    def test_rerun_into_the_same_directory(self, tmp_path):
        first = _pinned_run("epp", tmp_path)
        second = _pinned_run("epp", tmp_path)
        assert second.run_dir == first.run_dir
        assert sorted(p.name for p in tmp_path.iterdir()) == [first.run_id]

    def test_different_files_under_one_run_id_are_refused(self, tmp_path):
        first = _pinned_run("epp", tmp_path)
        before = {f: (first.run_dir / f).read_bytes() for f in PINNED_RUN_FILES}
        first.predictions[0] = dataclasses.replace(first.predictions[0], failure="changed")
        with pytest.raises(PipelineError, match=re.escape(f"{first.run_dir}: ")):
            persist_run(first, tmp_path)
        assert {f: (first.run_dir / f).read_bytes() for f in PINNED_RUN_FILES} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [first.run_id]

    def test_a_failed_write_leaves_no_run_directory(self, tmp_path):
        result = _pinned_run("epp", None)
        result.audit.append({"post_id": object()})  # not JSON
        with pytest.raises(TypeError):
            persist_run(result, tmp_path)
        assert list(tmp_path.iterdir()) == []
