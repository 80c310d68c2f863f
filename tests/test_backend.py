import dataclasses
import enum
import hashlib
import http.client
import json
import math
import random
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from cbdetect import (
    AggressionLabel,
    BackendDescriptor,
    BackendError,
    BackendKind,
    BackendTimeout,
    CyberbullyingLabel,
    ExperimentSpec,
    MatchKind,
    Method,
    ParseFailure,
    RawResponse,
    RetryPolicy,
    Task,
    TransportError,
    build_confusion,
    class_name_stub,
    classify,
    classify_batch,
    compute_metrics,
    constant_stub,
    label_space,
    load_synonym_table,
    make_stub,
    parse_label,
    render_zero_shot,
    run_epp,
    load_template,
    labels_in_order,
    synth_fixture,
)
import cbdetect.backend as backend_mod
from cbdetect.tuning import (
    AdapterState,
    SftTrainer,
    TaskHead,
    ToyNetConfig,
    ToyTransformer,
    TuneConfig,
    load_classifier,
    save_checkpoint,
)
from cbdetect.tuning.training import PREDICT_CHUNK_ROWS


def raw(text):
    return RawResponse(text=text, latency=0.0, backend_id="test")


class TestParseCascade:
    def test_exact_display_name(self):
        parsed = parse_label(raw("Overtly Aggressive"), AggressionLabel)
        assert parsed.label is AggressionLabel.OAG
        assert parsed.match_kind is MatchKind.EXACT

    def test_exact_is_case_insensitive_and_trimmed(self):
        parsed = parse_label(raw("  not-aggressive \n"), AggressionLabel)
        assert parsed.label is AggressionLabel.NAG
        assert parsed.match_kind is MatchKind.EXACT

    def test_synonym_inside_prose(self):
        # cascade walk: not exact, synonym table has "not aggressive"
        table = load_synonym_table(Task.AGGRESSION)
        assert "not aggressive" in table
        parsed = parse_label(raw("I think this is not aggressive."), AggressionLabel)
        assert parsed.label is AggressionLabel.NAG
        assert parsed.match_kind is MatchKind.SYNONYM

    def test_substring_earliest_occurrence_wins(self):
        text = "Covertly Aggressive or Overtly Aggressive"
        pos_cag = text.find("Covertly Aggressive")
        pos_oag = text.find("Overtly Aggressive")
        assert pos_cag < pos_oag
        parsed = parse_label(raw(text), AggressionLabel)
        assert parsed.label is AggressionLabel.CAG
        assert parsed.match_kind is MatchKind.SUBSTRING_FIRST

    def test_round_trip_every_display_name(self):
        for space in (AggressionLabel, CyberbullyingLabel):
            for lab in space:
                parsed = parse_label(raw(lab.display_name), space)
                assert parsed.label is lab

    def test_parser_never_leaves_label_space(self):
        responses = [
            "Not Cyberbullying", "gender related", "totally fine",
            "Religion", "racist stuff",
        ]
        for text in responses:
            try:
                parsed = parse_label(raw(text), CyberbullyingLabel)
            except ParseFailure:
                continue
            assert parsed.label in list(CyberbullyingLabel)

    def test_parse_failure_carries_raw_text(self):
        with pytest.raises(ParseFailure) as info:
            parse_label(raw("%%% garbage %%%"), AggressionLabel)
        assert info.value.raw_text == "%%% garbage %%%"

    def test_word_boundaries_for_synonyms(self):
        # "none" must not fire inside "nonetheless"
        with pytest.raises(ParseFailure):
            parse_label(raw("nonetheless unclear"), CyberbullyingLabel)
        parsed = parse_label(raw("verdict: none"), CyberbullyingLabel)
        assert parsed.label is CyberbullyingLabel.NOT_CYBERBULLYING

    def test_foreign_space_has_no_shipped_synonym_table(self):
        class MailLabel(enum.IntEnum):
            HAM = 0
            SPAM = 1

            @property
            def display_name(self):
                return self.name.title()

        # "religious" is a shipped cyberbullying synonym; it must not leak in
        with pytest.raises(BackendError, match="not a task label space"):
            parse_label(raw("religious spam"), MailLabel)
        assert parse_label(raw("spam"), MailLabel).label is MailLabel.SPAM


def reference_parse(text, space, synonym_table=None):
    """The cascade as first written: the table is re-read and every phrase
    pattern compiled on each call. Returns (label, match kind) or None."""
    trimmed = text.strip().lower()
    for lab in space:
        if trimmed == lab.display_name.lower():
            return lab, MatchKind.EXACT
    if synonym_table is None:
        task = Task.AGGRESSION if space is AggressionLabel else Task.CYBERBULLYING
        synonym_table = load_synonym_table(task)
    hits = []
    for phrase, lab in synonym_table.items():
        match = re.search(rf"\b{re.escape(phrase)}\b", text, flags=re.IGNORECASE)
        if match:
            hits.append((match.start(), -len(phrase), int(lab), lab))
    if hits:
        return sorted(hits)[0][3], MatchKind.SYNONYM
    positional = sorted(
        (text.lower().find(lab.display_name.lower()), int(lab), lab)
        for lab in space
        if lab.display_name.lower() in text.lower()
    )
    if positional:
        return positional[0][2], MatchKind.SUBSTRING_FIRST
    return None


OVERLAPPING_RESPONSES = {
    AggressionLabel: [
        "not aggressive, maybe passive aggressive",
        "passive-aggressive or passive aggressive",
        "non-aggressive, non aggressive, no aggression",
        "NEUTRAL tone but overt aggression later",
        "openly aggressive; covert aggression too",
        "covertly-aggressive and overtly-aggressive",
        "Overtly Aggressive? or Covertly Aggressive",
        "neutralized",
        "it is Not-Aggressive mostly",
        "%%%",
    ],
    CyberbullyingLabel: [
        "not cyberbullying; none",
        "racist, sexist and religious",
        "no cyberbullying at all, harmless",
        "not bullying, none of it",
        "faith-based racial gender abuse",
        "sexual orientation and gender",
        "Religion, then Gender/Sexual",
        "nonetheless unclear",
        "verdict: None",
        "racist-ish misogyny",
    ],
}


@pytest.fixture
def crafted_table(monkeypatch):
    """Make ``parse_label`` read a crafted synonym table in place of the
    shipped one: call the fixture with the table, which it returns. The
    matcher's cache is cleared before and after, so no other test sees it."""

    def use(table):
        monkeypatch.setattr(backend_mod, "load_synonym_table", lambda task: dict(table))
        backend_mod._synonym_matcher.cache_clear()
        return table

    yield use
    backend_mod._synonym_matcher.cache_clear()


class TestParseCaching:
    def test_matches_reference_on_overlapping_phrases(self):
        for space, responses in OVERLAPPING_RESPONSES.items():
            for text in responses:
                try:
                    parsed = parse_label(raw(text), space)
                    got = (parsed.label, parsed.match_kind)
                except ParseFailure:
                    got = None
                assert got == reference_parse(text, space), text

    def test_custom_table_tie_rules(self, crafted_table):
        # same start: the longest phrase wins; same start and length: the
        # earlier label wins, whatever the table order
        table = crafted_table({
            "HATE": CyberbullyingLabel.NOT_CYBERBULLYING,
            "hate": CyberbullyingLabel.RELIGION,
            "hate speech": CyberbullyingLabel.GENDER_SEXUAL,
            "speech": CyberbullyingLabel.ETHNICITY_RACE,
        })
        expected = {
            "pure hate speech": CyberbullyingLabel.GENDER_SEXUAL,
            "pure hate": CyberbullyingLabel.RELIGION,
            "speech of hate": CyberbullyingLabel.ETHNICITY_RACE,
        }
        for text, label in expected.items():
            parsed = parse_label(raw(text), CyberbullyingLabel)
            assert parsed.label is label
            assert reference_parse(text, CyberbullyingLabel, table) == (label, MatchKind.SYNONYM)

    def test_default_table_is_not_reread_per_parse(self, monkeypatch):
        parse_label(raw("this is not aggressive"), AggressionLabel)
        parse_label(raw("racist"), CyberbullyingLabel)
        calls = []
        original = backend_mod.load_synonym_table
        monkeypatch.setattr(
            backend_mod, "load_synonym_table", lambda task: calls.append(task) or original(task)
        )
        for _ in range(20):
            parse_label(raw("this is not aggressive"), AggressionLabel)
            parse_label(raw("racist"), CyberbullyingLabel)
        assert calls == []

    def test_load_synonym_table_returns_a_fresh_dict(self):
        table = load_synonym_table(Task.AGGRESSION)
        table.clear()
        assert load_synonym_table(Task.AGGRESSION)["not aggressive"] is AggressionLabel.NAG


def _parse_or_none(text, space):
    try:
        parsed = parse_label(raw(text), space)
    except ParseFailure:
        return None
    return parsed.label, parsed.match_kind


class TestAlternationParse:
    def test_metacharacter_and_non_ascii_phrases(self, crafted_table):
        table = crafted_table({
            "c++": CyberbullyingLabel.RELIGION,
            "a.b": CyberbullyingLabel.GENDER_SEXUAL,
            "Straße": CyberbullyingLabel.ETHNICITY_RACE,
            "İstanbul": CyberbullyingLabel.NOT_CYBERBULLYING,
            "(x|y)": CyberbullyingLabel.RELIGION,
        })
        responses = [
            "c++ code", "I like c++", "acb is not a.b", "a.b.c", "axb",
            "STRASSE", "straße!", "die STRAßE", "istanbul", "İSTANBUL", "i̇stanbul trip",
            "x|y or (x|y)", "(X|Y)", "none of these", "Religion",
        ]
        for text in responses:
            expected = reference_parse(text, CyberbullyingLabel, table)
            assert _parse_or_none(text, CyberbullyingLabel) == expected, text
        # a metacharacter is literal: "a.b" does not match "axb"
        assert _parse_or_none("axb", CyberbullyingLabel) is None

    def test_shorter_phrase_where_the_longer_fails_its_trailing_boundary(self, crafted_table):
        table = crafted_table({
            "hate": CyberbullyingLabel.NOT_CYBERBULLYING,
            "hate s": CyberbullyingLabel.RELIGION,
            "hate speech": CyberbullyingLabel.GENDER_SEXUAL,
        })
        expected = {
            "hate speechless": CyberbullyingLabel.NOT_CYBERBULLYING,
            "hate s": CyberbullyingLabel.RELIGION,
            "hate speech!": CyberbullyingLabel.GENDER_SEXUAL,
        }
        for text, label in expected.items():
            assert reference_parse(text, CyberbullyingLabel, table) == (label, MatchKind.SYNONYM)
            assert _parse_or_none(text, CyberbullyingLabel) == (label, MatchKind.SYNONYM)

    def test_empty_custom_table_falls_through_to_substring(self, crafted_table):
        text = "maybe Religion"
        table = crafted_table({})
        assert _parse_or_none(text, CyberbullyingLabel) == reference_parse(
            text, CyberbullyingLabel, table
        )

    @pytest.mark.parametrize("space", [AggressionLabel, CyberbullyingLabel])
    def test_random_responses_match_reference(self, space):
        task = Task.AGGRESSION if space is AggressionLabel else Task.CYBERBULLYING
        phrases = list(load_synonym_table(task))
        names = [lab.display_name for lab in space]
        filler = ["the", "post", "is", "maybe", "not", "non", "none", "-", ",", "ok.", "ish"]
        rng = random.Random(7)
        kinds = {}
        for _ in range(500):
            words = [
                rng.choice((phrases, names, filler)[rng.randrange(3)])
                for _ in range(rng.randint(1, 6))
            ]
            words = [w.upper() if rng.random() < 0.2 else w for w in words]
            text = rng.choice((" ", "", "-")).join(words)
            expected = reference_parse(text, space)
            assert _parse_or_none(text, space) == expected, text
            kind = expected[1] if expected else None
            kinds[kind] = kinds.get(kind, 0) + 1
        # the mix reaches every stage of the cascade and the failure case
        assert set(kinds) == {MatchKind.EXACT, MatchKind.SYNONYM, MatchKind.SUBSTRING_FIRST, None}


class TestClassifyBatch:
    def test_order_and_length(self, cyberbullying_fixture):
        stub = class_name_stub(Task.CYBERBULLYING)
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        prompts = [render_zero_shot(post, template) for post in reversed(cyberbullying_fixture)]
        outcomes = classify_batch(prompts, stub)
        assert [o.text for o in outcomes] == [
            post.label.display_name for post in reversed(cyberbullying_fixture)
        ]

    def test_transport_error_returned_in_place(self, cyberbullying_fixture):
        target = cyberbullying_fixture[5]
        stub = make_stub([("", "Religion")], fail_patterns=[target.text])
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        outcomes = classify_batch(
            [render_zero_shot(post, template) for post in cyberbullying_fixture], stub
        )
        assert len(outcomes) == len(cyberbullying_fixture)
        for i, outcome in enumerate(outcomes):
            if i == 5:
                assert isinstance(outcome, TransportError)
            else:
                assert isinstance(outcome, RawResponse) and outcome.text == "Religion"

    def test_empty_prompt_list(self, tmp_path):
        assert classify_batch([], class_name_stub(Task.CYBERBULLYING)) == []
        # an empty batch does no backend work, not even a checkpoint read
        missing = BackendDescriptor(
            backend_id="toy", kind=BackendKind.TOY_CHECKPOINT,
            checkpoint_path=str(tmp_path / "absent.npz"),
        )
        assert classify_batch([], missing) == []


TOY_NET = ToyNetConfig(seed=0)


def save_toy(path, tasks, seed=0, head_bias_class=None):
    """A checkpoint with random adapters and heads; with
    ``head_bias_class`` the head answers that class index for every input."""
    base = ToyTransformer(TOY_NET)
    tune = TuneConfig(seed=seed)
    rng = np.random.default_rng(seed)
    adapters, heads = {}, {}
    for offset, task in enumerate(tasks):
        state = SftTrainer(base, task, TuneConfig(seed=seed + offset)).adapters
        for factors in state.factors.values():
            factors.up[...] = rng.normal(0.0, 0.3, factors.up.shape)
        n = len(labels_in_order(task))
        if head_bias_class is None:
            head = TaskHead(task, rng.normal(0.0, 1.0, (n, TOY_NET.d_model)), np.zeros(n))
        else:
            head = TaskHead(task, np.zeros((n, TOY_NET.d_model)), np.eye(n)[head_bias_class] * 10.0)
        adapters[task], heads[task] = state, head
    return save_checkpoint(path, TOY_NET, tune, adapters, heads)


def toy_descriptor(path):
    return BackendDescriptor(
        backend_id="toy", kind=BackendKind.TOY_CHECKPOINT, model_name="toy-net",
        checkpoint_path=str(path), input_mode="post_text",
    )


def varied_prompts(task, n, seed=0):
    """n zero-shot prompts over texts of mixed length, including texts
    longer than the network's max_len and emoji-only texts."""
    posts = synth_fixture(math.ceil(n / len(labels_in_order(task))), task, seed=seed)
    template = load_template("zero_shot_v1", task)
    extras = [
        " ".join(f"word{i}" for i in range(TOY_NET.max_len + 9)),
        "\U0001f600\U0001f621\U0001f600",
        "ok",
        "Ünïcödé wörds ça 日本語 and more words here",
    ]
    prompts = []
    for i, post in enumerate(posts[:n]):
        if i % 5 == 0:
            post = dataclasses.replace(post, text=extras[(i // 5) % len(extras)])
        prompts.append(render_zero_shot(post, template))
    return prompts


class TestToyBackend:
    def test_batched_labels_equal_one_by_one(self, tmp_path):
        path = save_toy(tmp_path / "cb.npz", [Task.CYBERBULLYING])
        prompts = varied_prompts(Task.CYBERBULLYING, 2 * PREDICT_CHUNK_ROWS + 11)
        assert len(prompts) % PREDICT_CHUNK_ROWS
        assert any(len(p.post_text.split()) > TOY_NET.max_len for p in prompts)
        classifier = load_classifier(path)
        expected = [classifier.predict(p.post_text, Task.CYBERBULLYING).display_name for p in prompts]
        got = [o.text for o in classify_batch(prompts, toy_descriptor(path))]
        assert got == expected
        assert len(set(got)) > 1  # the check is not vacuous

    def test_batched_labels_are_pinned(self, tmp_path):
        """The labels of one fixed checkpoint over a mixed-length batch, as
        the padded full-width forward pass gave them. Unlike the one-by-one
        check above, this catches a change shared by both sides."""
        path = save_toy(tmp_path / "cb.npz", [Task.CYBERBULLYING], seed=5)
        texts = [p.post_text for p in varied_prompts(Task.CYBERBULLYING, 75, seed=4)]
        labels = load_classifier(path).predict_batch(texts, Task.CYBERBULLYING)
        assert len({label.display_name for label in labels}) == 4  # the pin is not vacuous
        digest = hashlib.sha256("\n".join(l.display_name for l in labels).encode("utf-8"))
        assert digest.hexdigest() == (
            "8d475dbf33e33dacaff375771a5465ad7465ba8512e3feb02572c0da2f2c3663"
        )

    def test_one_forward_per_chunk_per_task(self, tmp_path, monkeypatch):
        path = save_toy(tmp_path / "mtl.npz", [Task.AGGRESSION, Task.CYBERBULLYING])
        agg = [(Task.AGGRESSION, p) for p in varied_prompts(Task.AGGRESSION, 40, seed=1)]
        cb = [(Task.CYBERBULLYING, p) for p in varied_prompts(Task.CYBERBULLYING, 70, seed=2)]
        tagged = [p for pair in zip(agg, cb) for p in pair] + cb[len(agg):]
        prompts = [prompt for _, prompt in tagged]
        classifier = load_classifier(path)
        expected = [classifier.predict(p.post_text, task).display_name for task, p in tagged]

        outcomes = classify_batch(prompts, toy_descriptor(path))
        assert [o.text for o in outcomes] == expected
        # a task group's records share its time evenly
        for task in (Task.AGGRESSION, Task.CYBERBULLYING):
            group = [o for (t, _), o in zip(tagged, outcomes) if t is task]
            assert {o.latency for o in group} == {group[0].latency} and group[0].latency > 0
            assert {o.backend_id for o in group} == {"toy"}

        calls = {"forward_pooled": 0, "effective_weights": 0}
        pooled, effective = ToyTransformer.forward_pooled, AdapterState.effective_weights

        def counting_pooled(self, *args, **kwargs):
            calls["forward_pooled"] += 1
            return pooled(self, *args, **kwargs)

        def counting_effective(self, *args, **kwargs):
            calls["effective_weights"] += 1
            return effective(self, *args, **kwargs)

        monkeypatch.setattr(ToyTransformer, "forward_pooled", counting_pooled)
        monkeypatch.setattr(AdapterState, "effective_weights", counting_effective)
        got = [o.text for o in classify_batch(prompts, toy_descriptor(path))]
        assert got == expected
        n_chunks = math.ceil(40 / PREDICT_CHUNK_ROWS) + math.ceil(70 / PREDICT_CHUNK_ROWS)
        assert calls == {"forward_pooled": n_chunks, "effective_weights": 2}

    def test_rewritten_checkpoint_serves_new_weights(self, tmp_path):
        path = tmp_path / "cb.npz"
        descriptor = toy_descriptor(path)
        prompt = varied_prompts(Task.CYBERBULLYING, 1)[0]
        order = labels_in_order(Task.CYBERBULLYING)
        save_toy(path, [Task.CYBERBULLYING], head_bias_class=0)
        assert classify(prompt, descriptor).text == order[0].display_name
        save_toy(path, [Task.CYBERBULLYING], head_bias_class=2)
        assert classify(prompt, descriptor).text == order[2].display_name

    def test_toy_stages_render_no_prompt(self, tmp_path, cyberbullying_fixture, monkeypatch):
        import cbdetect.prompting as prompting

        path = save_toy(tmp_path / "both.npz", [Task.AGGRESSION, Task.CYBERBULLYING])
        toy = toy_descriptor(path)
        spec = ExperimentSpec(Method.EPP, Task.CYBERBULLYING, (toy, toy))
        expected = run_epp(cyberbullying_fixture, spec).predictions

        def no_render(*args):
            raise AssertionError("a toy stage rendered a prompt")

        monkeypatch.setattr(prompting, "_substitute", no_render)
        assert run_epp(cyberbullying_fixture, spec).predictions == expected


class TestStub:
    def test_class_name_rule_hits_fixture(self, cyberbullying_fixture):
        stub = class_name_stub(Task.CYBERBULLYING)
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        for post in cyberbullying_fixture:
            response = classify(render_zero_shot(post, template), stub)
            assert response.text == post.label.display_name

    def test_deterministic(self, cyberbullying_fixture):
        stub = class_name_stub(Task.CYBERBULLYING)
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        prompt = render_zero_shot(cyberbullying_fixture[0], template)
        assert classify(prompt, stub).text == classify(prompt, stub).text

    def test_default_response_when_no_rule_matches(self, cyberbullying_fixture):
        stub = make_stub([("zzz-never", "x")], default_response="no idea")
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        prompt = render_zero_shot(cyberbullying_fixture[0], template)
        assert classify(prompt, stub).text == "no idea"

    def test_empty_rule_table_rejected(self):
        with pytest.raises(BackendError, match="non-empty rule table"):
            make_stub([])

    def test_all_to_one_class_macro_f1_matches_metric_oracle(self, cyberbullying_fixture):
        stub = constant_stub("Religion")
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        pairs = []
        for post in cyberbullying_fixture:
            parsed = parse_label(classify(render_zero_shot(post, template), stub), CyberbullyingLabel)
            pairs.append((post.label, parsed.label))
        report = compute_metrics(build_confusion(pairs, CyberbullyingLabel))
        # oracle: build the expected confusion by hand, run the metric engine
        expected_pairs = [(post.label, CyberbullyingLabel.RELIGION) for post in cyberbullying_fixture]
        oracle = compute_metrics(build_confusion(expected_pairs, CyberbullyingLabel))
        assert report.macro_f1 == oracle.macro_f1
        # 3 of 12 correct, recall 1 for religion, precision 1/4: F1 = 0.4; others 0
        assert abs(report.macro_f1 - 0.1) < 1e-12

    def test_rendered_text_mode_matches_instruction_text(self, cyberbullying_fixture):
        stub = make_stub([("content-safety classifier", "Religion")], default_response="none")
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        prompt = render_zero_shot(cyberbullying_fixture[0], template)
        assert "content-safety classifier" not in prompt.post_text
        assert classify(prompt, stub).text == "none"
        whole = dataclasses.replace(stub, input_mode="rendered_text")
        assert classify(prompt, whole).text == "Religion"

    def test_fail_pattern_raises_transport_error(self, cyberbullying_fixture):
        post = cyberbullying_fixture[0]
        stub = make_stub([("", "Religion")], fail_patterns=[post.text])
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        with pytest.raises(TransportError):
            classify(render_zero_shot(post, template), stub)


class TestStubBatch:
    """The stub builds each answer once per batch; outcomes are unchanged."""

    def _outcomes(self, posts, stub):
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        return classify_batch([render_zero_shot(post, template) for post in posts], stub)

    def test_records_matched_by_one_rule_get_equal_answers(self, cyberbullying_fixture):
        stub = make_stub(
            [("Religion", "Religion"), ("Gender/Sexual", "sexist")],
            backend_id="s", default_response="none",
        )
        answers = {
            CyberbullyingLabel.RELIGION: "Religion", CyberbullyingLabel.GENDER_SEXUAL: "sexist"
        }
        outcomes = self._outcomes(cyberbullying_fixture, stub)
        for post, outcome in zip(cyberbullying_fixture, outcomes):
            # a record matching no rule gets the default response
            assert outcome == RawResponse(answers.get(post.label, "none"), 0.0, "s")

    def test_each_injected_failure_is_its_own_error(self, cyberbullying_fixture):
        stub = make_stub([("", "Religion")], fail_patterns=["zzz", "RELIGION"])
        outcomes = self._outcomes(cyberbullying_fixture, stub)
        failed = [o for o in outcomes if isinstance(o, TransportError)]
        assert len(failed) == 3
        assert len({id(error) for error in failed}) == 3
        for error in failed:
            assert error.attempts == (
                backend_mod.AttemptRecord(1, "injected failure on 'RELIGION'", 0.0),
            )


class TestDescriptor:
    def test_parallelism_validated(self):
        with pytest.raises(BackendError):
            BackendDescriptor(backend_id="x", kind=BackendKind.LIVE_ENDPOINT, max_parallel_requests=0)

    def test_timeout_validated(self):
        with pytest.raises(BackendError):
            BackendDescriptor(backend_id="x", kind=BackendKind.LIVE_ENDPOINT, timeout=0)
        with pytest.raises(BackendError, match="timeout must be > 0"):
            BackendDescriptor(backend_id="x", kind=BackendKind.LIVE_ENDPOINT, timeout=float("nan"))

    def test_retry_attempts_validated(self):
        with pytest.raises(BackendError, match="max_attempts must be >= 1"):
            RetryPolicy(max_attempts=0)

    def test_round_trip_through_dict(self):
        stub = make_stub([("a", "b")], default_response="d", fail_patterns=["f"])
        assert BackendDescriptor.from_dict(stub.to_dict()) == stub

    def test_input_mode_validated(self):
        with pytest.raises(BackendError, match="bad input_mode"):
            BackendDescriptor(backend_id="x", kind=BackendKind.TOY_CHECKPOINT, input_mode="post")

    DESCRIPTORS = {
        BackendKind.STUB: make_stub([("a", "b")]),
        BackendKind.TOY_CHECKPOINT: BackendDescriptor(
            backend_id="toy", kind=BackendKind.TOY_CHECKPOINT, checkpoint_path="c.npz"
        ),
        BackendKind.LIVE_ENDPOINT: BackendDescriptor(
            backend_id="live", kind=BackendKind.LIVE_ENDPOINT, endpoint_address="http://h/v1"
        ),
    }

    @pytest.mark.parametrize("mode", ["post_text", "rendered_text"])
    @pytest.mark.parametrize(
        "kind, key",
        [
            (BackendKind.STUB, "input_mode"),
            (BackendKind.TOY_CHECKPOINT, "input_mode"),
            (BackendKind.LIVE_ENDPOINT, None),
        ],
    )
    def test_input_mode_serialized_per_kind(self, kind, key, mode):
        if (kind, mode) == (BackendKind.TOY_CHECKPOINT, "rendered_text"):
            # a toy reads the post text it was tuned on, never the prompt
            with pytest.raises(BackendError, match="toy checkpoint reads the post text"):
                dataclasses.replace(self.DESCRIPTORS[kind], input_mode=mode)
            return
        descriptor = dataclasses.replace(self.DESCRIPTORS[kind], input_mode=mode)
        data = descriptor.to_dict()
        assert {"match_on", "input_mode"} & set(data) == ({key} if key else set())
        if key:
            assert data[key] == mode
        else:  # a live endpoint always receives the rendered prompt
            assert descriptor.input_mode == "rendered_text"
        assert BackendDescriptor.from_dict(data) == descriptor

    # the exact JSON each kind writes: a new descriptor field would change
    # every manifest and run id, so it must show here
    COMMON = {
        "model_name": "", "max_parallel_requests": 1, "timeout": 30.0,
        "retry_policy": {"max_attempts": 3, "backoff": [0.5, 1.0, 2.0]},
        "temperature": 0.0, "max_output_tokens": 64,
    }
    WRITTEN = {
        BackendKind.STUB: {
            "backend_id": "stub", "kind": "stub", **COMMON, "model_name": "rule-stub",
            "stub_rules": [["a", "b"]], "default_response": "", "fail_patterns": [],
            "input_mode": "post_text",
        },
        BackendKind.TOY_CHECKPOINT: {
            "backend_id": "toy", "kind": "toy_checkpoint", **COMMON,
            "checkpoint_path": "c.npz", "input_mode": "post_text",
        },
        BackendKind.LIVE_ENDPOINT: {
            "backend_id": "live", "kind": "live_endpoint", **COMMON,
            "endpoint_address": "http://h/v1",
        },
    }

    @pytest.mark.parametrize("kind", list(BackendKind))
    def test_to_dict_writes_exactly_the_kind_s_fields(self, kind):
        data = self.DESCRIPTORS[kind].to_dict()
        assert data == self.WRITTEN[kind]
        # and the same text, where 30 and 30.0 differ
        assert json.dumps(data, sort_keys=True) == json.dumps(self.WRITTEN[kind], sort_keys=True)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            (BackendKind.STUB, "checkpoint_path", "c.npz"),
            (BackendKind.STUB, "endpoint_address", "http://h/v1"),
            (BackendKind.TOY_CHECKPOINT, "stub_rules", [["a", "b"]]),
            (BackendKind.TOY_CHECKPOINT, "fail_patterns", []),
            (BackendKind.LIVE_ENDPOINT, "input_mode", "rendered_text"),
            (BackendKind.LIVE_ENDPOINT, "default_response", ""),
        ],
    )
    def test_from_dict_refuses_another_kind_s_field(self, kind, key, value):
        data = {**self.DESCRIPTORS[kind].to_dict(), key: value}
        with pytest.raises(ValueError, match=f"^{key}: a {kind.value} backend holds no such field$"):
            BackendDescriptor.from_dict(data)

    def test_toy_rendered_text_refused_from_dict(self):
        data = self.DESCRIPTORS[BackendKind.TOY_CHECKPOINT].to_dict()
        data["input_mode"] = "rendered_text"
        with pytest.raises(BackendError, match="input_mode 'rendered_text' is not served"):
            BackendDescriptor.from_dict(data)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("timeout", "30", "timeout"),
            ("timeout", float("nan"), "timeout"),
            ("timeout", float("inf"), "timeout"),
            ("max_parallel_requests", 2.0, "max_parallel_requests"),
            ("max_parallel_requests", True, "max_parallel_requests"),
            ("default_response", 5, "default_response"),
            ("fail_patterns", "abc", "fail_patterns"),
            ("fail_patterns", ["#1", 2], "fail_patterns"),
            ("retry_policy", {"backoff": "12"}, "backoff"),
            ("retry_policy", {"max_attempts": 2.5}, "max_attempts"),
            ("stub_rules", 5, "stub_rules"),
            ("stub_rules", ["ab"], "stub_rules"),
            ("stub_rules", [[5, "x"]], "stub_rules"),
            ("stub_rules", [["a", "b", "c"]], "stub_rules"),
            ("stub_rules", [["a"]], "stub_rules"),
        ],
    )
    def test_from_dict_takes_only_values_of_the_declared_type(self, key, value, named):
        data = {**self.DESCRIPTORS[BackendKind.STUB].to_dict(), key: value}
        with pytest.raises(ValueError, match=f"^{named}: expected "):
            BackendDescriptor.from_dict(data)

    def test_from_dict_widens_an_integer_to_a_float_field(self):
        data = {**self.DESCRIPTORS[BackendKind.STUB].to_dict(), "timeout": 5}
        data["retry_policy"] = {"backoff": [1, 0.5]}
        descriptor = BackendDescriptor.from_dict(data)
        assert (descriptor.timeout, descriptor.retry_policy.backoff) == (5.0, (1.0, 0.5))
        assert type(descriptor.timeout) is type(descriptor.retry_policy.backoff[0]) is float

    def test_match_on_is_an_unknown_key(self):
        data = self.DESCRIPTORS[BackendKind.STUB].to_dict()
        data["match_on"] = data.pop("input_mode")
        with pytest.raises(ValueError, match=re.escape("unknown BackendDescriptor keys: ['match_on']")):
            BackendDescriptor.from_dict(data)


def _answer(content):
    body = {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
    return 200, {}, json.dumps(body).encode()


class _Endpoint:
    """A chat endpoint on 127.0.0.1 that answers POSTs from a script of
    ``(status, headers, body)`` replies, the last one repeating, and counts
    requests and connections. A reply of None stalls until the test ends,
    then closes without answering."""

    def __init__(self):
        self.lock = threading.Lock()
        self.released = threading.Event()
        self.replies = []
        self.payloads, self.headers = [], []
        self.connections = 0
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with endpoint.lock:
                    endpoint.connections += 1

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with endpoint.lock:
                    endpoint.payloads.append(payload)
                    endpoint.headers.append(dict(self.headers))
                    replies = endpoint.replies
                    reply = replies.pop(0) if len(replies) > 1 else replies[0]
                if reply is None:
                    endpoint.released.wait(5.0)
                    self.close_connection = True
                    return
                status, headers, body = reply
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat"

    def script(self, *replies):
        self.replies = list(replies)

    @property
    def requests(self):
        return len(self.payloads)

    def close(self):
        self.released.set()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


@pytest.fixture
def endpoint(monkeypatch):
    # a proxy configured in the environment must not intercept loopback
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = _Endpoint()
    yield server
    server.close()


class TestLiveClient:
    def _descriptor(self, attempts=3):
        return BackendDescriptor(
            backend_id="live",
            kind=BackendKind.LIVE_ENDPOINT,
            model_name="m",
            endpoint_address="http://example.invalid/v1/chat",
            retry_policy=RetryPolicy(max_attempts=attempts, backoff=(0.0, 0.0)),
        )

    def _prompt(self, cyberbullying_fixture):
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        return render_zero_shot(cyberbullying_fixture[0], template)

    def test_unreachable_endpoint_logs_every_attempt(self, monkeypatch, cyberbullying_fixture):
        calls = []

        def failing(url, payload, headers, timeout):
            calls.append(url)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(backend_mod, "_post_json", failing)
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert len(info.value.attempts) == 3
        assert len(calls) == 3
        assert not isinstance(info.value, BackendTimeout)

    def test_timeout_is_a_distinct_error(self, monkeypatch, cyberbullying_fixture):
        monkeypatch.setattr(
            backend_mod,
            "_post_json",
            lambda *a, **k: (_ for _ in ()).throw(TimeoutError("slow")),
        )
        with pytest.raises(BackendTimeout) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert len(info.value.attempts) == 3

    def test_recovers_after_transient_failure(self, monkeypatch, cyberbullying_fixture):
        state = {"calls": 0}

        def flaky(url, payload, headers, timeout):
            state["calls"] += 1
            if state["calls"] < 3:
                raise ConnectionRefusedError("blip")
            return {"choices": [{"message": {"content": "Religion"}, "finish_reason": "stop"}]}

        monkeypatch.setattr(backend_mod, "_post_json", flaky)
        response = classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert response.text == "Religion"
        assert not response.truncated
        assert state["calls"] == 3

    def test_request_payload_shape(self, monkeypatch, cyberbullying_fixture):
        seen = {}

        def capture(url, payload, headers, timeout):
            seen.update(payload)
            return {"choices": [{"message": {"content": "ok"}, "finish_reason": "length"}]}

        monkeypatch.setattr(backend_mod, "_post_json", capture)
        prompt = self._prompt(cyberbullying_fixture)
        response = classify(prompt, self._descriptor())
        assert seen["messages"] == [{"role": "user", "content": prompt.rendered_text}]
        assert seen["temperature"] == 0.0
        assert response.truncated

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_non_retryable_status_fails_fast(self, monkeypatch, cyberbullying_fixture, status):
        calls = []

        def rejecting(url, payload, headers, timeout):
            calls.append(url)
            raise backend_mod.HTTPStatusError(status, {}, "")

        monkeypatch.setattr(backend_mod, "_post_json", rejecting)
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert len(calls) == 1
        assert len(info.value.attempts) == 1

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_retryable_status_is_retried(self, monkeypatch, cyberbullying_fixture, status):
        calls = []

        def overloaded(url, payload, headers, timeout):
            calls.append(url)
            raise backend_mod.HTTPStatusError(status, {}, "")

        monkeypatch.setattr(backend_mod, "_post_json", overloaded)
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert len(calls) == 3
        assert len(info.value.attempts) == 3

    def _throttled(self, monkeypatch, status, retry_after, succeed_on=None):
        """_post_json answers ``status`` with the given Retry-After header
        (until call ``succeed_on``); returns the list of sleeps."""
        calls, sleeps = [], []

        def throttled(url, payload, headers, timeout):
            calls.append(url)
            if len(calls) == succeed_on:
                return {"choices": [{"message": {"content": "Religion"}, "finish_reason": "stop"}]}
            headers = {} if retry_after is None else {"Retry-After": retry_after}
            raise backend_mod.HTTPStatusError(status, headers, "")

        monkeypatch.setattr(backend_mod, "_post_json", throttled)
        monkeypatch.setattr(backend_mod.time, "sleep", sleeps.append)
        return sleeps

    def _paced(self, backoff, timeout=30.0):
        return dataclasses.replace(
            self._descriptor(), timeout=timeout, retry_policy=RetryPolicy(3, backoff)
        )

    @pytest.mark.parametrize(
        "status, retry_after, backoff, timeout, expected",
        [
            (429, "2", (0.5, 1.0), 30.0, [2.0, 2.0]),
            (503, " 1 ", (0.5, 3.0), 30.0, [1.0, 3.0]),  # the longer of the two
            (429, "120", (0.5, 1.0), 5.0, [5.0, 5.0]),  # capped at the timeout
            (429, "0", (0.5, 1.0), 30.0, [0.5, 1.0]),
            (429, "Wed, 21 Oct 2015 07:28:00 GMT", (0.5, 1.0), 30.0, [0.5, 1.0]),
            (429, "1.5", (0.5, 1.0), 30.0, [0.5, 1.0]),  # not delta-seconds
            (429, "-3", (0.5, 1.0), 30.0, [0.5, 1.0]),
            (429, "\u0663", (0.5, 1.0), 30.0, [0.5, 1.0]),  # a non-ASCII digit
            (429, None, (0.5, 1.0), 30.0, [0.5, 1.0]),
            (500, "9", (0.5, 1.0), 30.0, [0.5, 1.0]),  # only 429 and 503 ask to wait
            (408, "9", (0.5, 1.0), 30.0, [0.5, 1.0]),
        ],
    )
    def test_retry_after_floors_the_next_delay(
        self, monkeypatch, cyberbullying_fixture, status, retry_after, backoff, timeout, expected
    ):
        sleeps = self._throttled(monkeypatch, status, retry_after)
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._paced(backoff, timeout))
        assert len(info.value.attempts) == 3
        assert sleeps == expected

    def test_retry_after_then_success(self, monkeypatch, cyberbullying_fixture):
        sleeps = self._throttled(monkeypatch, 503, "4", succeed_on=2)
        response = classify(self._prompt(cyberbullying_fixture), self._paced((0.0, 0.0)))
        assert response.text == "Religion"
        assert sleeps == [4.0]

    def test_post_json_error_carries_status_code(self, endpoint):
        endpoint.script((401, {}, b'{"error": "invalid api key"}'))
        with pytest.raises(backend_mod.HTTPStatusError) as info:
            backend_mod._post_json(endpoint.url, {}, {}, 1.0)
        assert info.value.status == 401

    @pytest.mark.parametrize("parallel", [1, 3])
    def test_batch_fans_out_and_keeps_order(self, monkeypatch, cyberbullying_fixture, parallel):
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        prompts = [render_zero_shot(post, template) for post in cyberbullying_fixture[:6]]
        position = {p.rendered_text: i for i, p in enumerate(prompts)}
        lock = threading.Lock()
        active, peak = [0], [0]

        def echo(url, payload, headers, timeout):
            content = payload["messages"][0]["content"]
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            # earlier prompts answer later, so completion order is reversed
            time.sleep(0.005 * (len(prompts) - position[content]))
            with lock:
                active[0] -= 1
            if position[content] == 2:
                raise backend_mod.HTTPStatusError(401, {}, "")
            return {"choices": [{"message": {"content": content[-12:]}, "finish_reason": "stop"}]}

        monkeypatch.setattr(backend_mod, "_post_json", echo)
        descriptor = dataclasses.replace(self._descriptor(), max_parallel_requests=parallel)
        outcomes = classify_batch(prompts, descriptor)
        assert len(outcomes) == len(prompts)
        for i, (prompt, outcome) in enumerate(zip(prompts, outcomes)):
            if i == 2:
                assert isinstance(outcome, TransportError) and len(outcome.attempts) == 1
            else:
                assert outcome.text == prompt.rendered_text[-12:]
        assert (peak[0] == 1) if parallel == 1 else (peak[0] > 1)

    def test_missing_endpoint_is_an_error(self, monkeypatch, cyberbullying_fixture):
        monkeypatch.delenv(backend_mod.ENDPOINT_ENV_VAR, raising=False)
        descriptor = BackendDescriptor(backend_id="live", kind=BackendKind.LIVE_ENDPOINT)
        with pytest.raises(BackendError, match="no endpoint address"):
            classify(self._prompt(cyberbullying_fixture), descriptor)

    def test_malformed_body_is_in_the_attempt_log(self, monkeypatch, cyberbullying_fixture):
        state = {"calls": 0}

        def blip_then_malformed(url, payload, headers, timeout):
            state["calls"] += 1
            if state["calls"] == 1 and state["blip"]:
                raise ConnectionRefusedError("blip")
            return {"error": "no choices here"}

        monkeypatch.setattr(backend_mod, "_post_json", blip_then_malformed)
        for blip, numbers in ((False, [1]), (True, [1, 2])):
            state.update(calls=0, blip=blip)
            with pytest.raises(TransportError, match="malformed endpoint response") as info:
                classify(self._prompt(cyberbullying_fixture), self._descriptor())
            assert [a.number for a in info.value.attempts] == numbers
            assert "malformed endpoint response" in info.value.attempts[-1].error
            assert state["calls"] == len(numbers)

    def test_connect_timeout_is_a_timeout(self, monkeypatch, cyberbullying_fixture):
        # urllib wraps a connect timeout in a URLError whose reason is a TimeoutError
        def connect_timeout(url, payload, headers, timeout):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(backend_mod, "_post_json", connect_timeout)
        with pytest.raises(BackendTimeout) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert len(info.value.attempts) == 3

    @pytest.mark.parametrize(
        "exc, retried",
        [
            (urllib.error.URLError(ConnectionRefusedError("refused")), True),
            (http.client.RemoteDisconnected("closed"), True),
            (http.client.IncompleteRead(b""), True),
            (json.JSONDecodeError("Expecting value", "<html>", 0), False),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
    )
    def test_retry_rules_per_error(self, monkeypatch, cyberbullying_fixture, exc, retried):
        calls = []

        def failing(url, payload, headers, timeout):
            calls.append(url)
            raise exc

        monkeypatch.setattr(backend_mod, "_post_json", failing)
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor())
        assert len(calls) == (3 if retried else 1)
        assert info.value.attempts[-1].error.endswith(str(exc))


class TestLoopback:
    """The live transport against a real HTTP server on 127.0.0.1."""

    def _descriptor(self, url, attempts=3, timeout=2.0):
        return BackendDescriptor(
            backend_id="live",
            kind=BackendKind.LIVE_ENDPOINT,
            model_name="m",
            endpoint_address=url,
            timeout=timeout,
            retry_policy=RetryPolicy(max_attempts=attempts, backoff=(0.0, 0.0)),
        )

    def _prompt(self, cyberbullying_fixture):
        template = load_template("zero_shot_v1", Task.CYBERBULLYING)
        return render_zero_shot(cyberbullying_fixture[0], template)

    def test_answer_and_payload_shape(self, monkeypatch, endpoint, cyberbullying_fixture):
        monkeypatch.setenv(backend_mod.API_KEY_ENV_VAR, "secret")
        endpoint.script(_answer("Religion"))
        prompt = self._prompt(cyberbullying_fixture)
        response = classify(prompt, self._descriptor(endpoint.url))
        assert response.text == "Religion" and not response.truncated
        assert endpoint.payloads == [
            {
                "model": "m",
                "messages": [{"role": "user", "content": prompt.rendered_text}],
                "temperature": 0.0,
                "max_tokens": 64,
            }
        ]
        (headers,) = endpoint.headers
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer secret"

    def test_error_status_fails_after_one_attempt(self, endpoint, cyberbullying_fixture):
        endpoint.script((401, {}, b'{"error": "invalid api key"}'))
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor(endpoint.url))
        assert [a.error for a in info.value.attempts] == ['HTTP 401: {"error": "invalid api key"}']
        assert endpoint.requests == 1

    def test_retry_after_then_success(self, monkeypatch, endpoint, cyberbullying_fixture):
        sleeps = []
        monkeypatch.setattr(backend_mod.time, "sleep", sleeps.append)
        endpoint.script((503, {"Retry-After": "1"}, b"{}"), _answer("Religion"))
        response = classify(self._prompt(cyberbullying_fixture), self._descriptor(endpoint.url))
        assert response.text == "Religion"
        assert sleeps == [1.0]
        assert endpoint.requests == 2

    def test_body_that_is_not_json_is_not_retried(self, endpoint, cyberbullying_fixture):
        endpoint.script((200, {}, b"<html>busy</html>"))
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor(endpoint.url))
        assert len(info.value.attempts) == 1
        assert endpoint.requests == 1

    def test_closed_port_is_retried_and_not_a_timeout(self, monkeypatch, cyberbullying_fixture):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}/v1/chat"
        with pytest.raises(TransportError) as info:
            classify(self._prompt(cyberbullying_fixture), self._descriptor(url))
        assert len(info.value.attempts) == 3
        assert not isinstance(info.value, BackendTimeout)

    def test_stalled_handler_is_a_timeout(self, endpoint, cyberbullying_fixture):
        endpoint.script(None)
        descriptor = self._descriptor(endpoint.url, attempts=2, timeout=0.1)
        with pytest.raises(BackendTimeout) as info:
            classify(self._prompt(cyberbullying_fixture), descriptor)
        assert [a.error.startswith("timeout: ") for a in info.value.attempts] == [True, True]

    def test_epp_audit_holds_the_prompts_sent(self, endpoint, cyberbullying_fixture):
        endpoint.script(_answer("Overtly Aggressive"))
        live = self._descriptor(endpoint.url)
        spec = ExperimentSpec(Method.EPP, Task.CYBERBULLYING, (live, live))
        result = run_epp(cyberbullying_fixture, spec)
        sent = [payload["messages"][0]["content"] for payload in endpoint.payloads]
        assert len(sent) == 2 * len(cyberbullying_fixture)
        assert [entry["rendered_text"] for entry in result.audit] == sent
        cue = "This post was predicted as Overtly Aggressive."
        assert all(text.startswith(cue) for text in sent[len(cyberbullying_fixture) :])

    def test_one_connection_per_attempt(self, endpoint, cyberbullying_fixture):
        endpoint.script((500, {}, b"{}"), (500, {}, b"{}"), _answer("Religion"))
        response = classify(self._prompt(cyberbullying_fixture), self._descriptor(endpoint.url))
        assert response.text == "Religion"
        assert endpoint.requests == endpoint.connections == 3


def test_import_loads_no_http_client_library():
    # a fresh interpreter, so modules other tests import do not count
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; "
        f"sys.path.insert(0, {str(src)!r}); "
        "import cbdetect, cbdetect.cli, cbdetect.backend, cbdetect.pipeline; "
        "loaded = [name for name in ('requests', 'urllib3') if name in sys.modules]; "
        "sys.exit(f'imported: {loaded}' if loaded else 0)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
