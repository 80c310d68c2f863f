import os
import random
import re
import string
from importlib import resources

import pytest

from cbdetect import (
    AggressionLabel,
    PromptError,
    Task,
    display_names,
    load_template,
    render_enriched,
    render_few_shot,
    render_zero_shot,
    select_exemplars,
    synth_fixture,
)
from cbdetect import prompting

ENRICHMENT_SENTENCE = (
    "This post was predicted as {name}. "
    "Based on this, classify the following content for cyberbullying."
)


def zero_shot_template(task):
    return load_template("zero_shot_v1", task)


def few_shot_template(task):
    return load_template("few_shot_v1", task)


def enriched_template():
    return load_template("enriched_v1", Task.CYBERBULLYING)


class TestZeroShot:
    def test_contains_post_verbatim(self, cyberbullying_fixture):
        post = cyberbullying_fixture[0]
        prompt = render_zero_shot(post, zero_shot_template(Task.CYBERBULLYING))
        assert post.text in prompt.rendered_text

    def test_instruction_lists_classes_once_in_order(self, aggression_fixture):
        post = aggression_fixture[0]
        prompt = render_zero_shot(post, zero_shot_template(Task.AGGRESSION))
        # the class enumeration lives in the instruction, before the post
        instruction = prompt.rendered_text.split("Post:")[0]
        names = display_names(Task.AGGRESSION)
        assert names == ["Not-Aggressive", "Covertly Aggressive", "Overtly Aggressive"]
        positions = [instruction.find(name) for name in names]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)
        for name in names:
            assert instruction.count(name) == 1

    def test_byte_identical_on_repeat(self, cyberbullying_fixture):
        post = cyberbullying_fixture[3]
        template = zero_shot_template(Task.CYBERBULLYING)
        assert (
            render_zero_shot(post, template).rendered_text
            == render_zero_shot(post, template).rendered_text
        )

    def test_task_mismatch(self, aggression_fixture):
        with pytest.raises(PromptError, match="bound to"):
            render_zero_shot(aggression_fixture[0], zero_shot_template(Task.CYBERBULLYING))


class TestSelectExemplars:
    def test_forced_selection_uses_all(self, aggression_fixture):
        # 6 posts, k=2 over 3 classes: the whole fixture must be selected
        exemplars = select_exemplars(aggression_fixture, k=2, seed=0)
        assert sorted(exemplars.source_ids) == sorted(p.id for p in aggression_fixture)

    def test_undersized_class_names_the_class(self, aggression_fixture):
        with pytest.raises(PromptError, match="Not-Aggressive"):
            select_exemplars(aggression_fixture, k=3, seed=0)

    def test_count_is_k_times_classes(self, cyberbullying_fixture):
        exemplars = select_exemplars(cyberbullying_fixture, k=3, seed=5)
        assert len(exemplars.exemplars) == 12

    def test_order_independent_determinism(self, cyberbullying_fixture):
        pool = list(cyberbullying_fixture)
        first = select_exemplars(pool, k=2, seed=3)
        shuffled = pool[:]
        random.Random(99).shuffle(shuffled)
        second = select_exemplars(shuffled, k=2, seed=3)
        assert first == second

    @pytest.mark.parametrize("at", [0, -1])
    def test_mixed_task_pool_is_refused(self, aggression_fixture, cyberbullying_fixture, at):
        pool = list(cyberbullying_fixture)
        pool[at] = aggression_fixture[0]
        with pytest.raises(PromptError, match="^exemplar pool mixes tasks$"):
            select_exemplars(pool, k=1, seed=0)


class TestFewShot:
    def test_exemplar_label_line_count(self, cyberbullying_fixture):
        pool = synth_fixture(4, Task.CYBERBULLYING, seed=42)
        exemplars = select_exemplars(pool, k=3, seed=1)
        post = cyberbullying_fixture[0]
        prompt = render_few_shot(post, few_shot_template(Task.CYBERBULLYING), exemplars)
        label_lines = [
            line for line in prompt.rendered_text.splitlines() if line.startswith("Label:")
        ]
        assert len(label_lines) == 12

    def test_leakage_error(self, cyberbullying_fixture):
        exemplars = select_exemplars(cyberbullying_fixture, k=3, seed=1)
        victim = cyberbullying_fixture[0]
        assert victim.id in exemplars.source_ids
        with pytest.raises(PromptError, match="leakage"):
            render_few_shot(victim, few_shot_template(Task.CYBERBULLYING), exemplars)

    def test_template_check_precedes_leakage_check(self, cyberbullying_fixture):
        exemplars = select_exemplars(cyberbullying_fixture, k=3, seed=1)
        victim = cyberbullying_fixture[0]
        assert victim.id in exemplars.source_ids
        with pytest.raises(PromptError, match="is bound to AggressionLabel"):
            render_few_shot(victim, few_shot_template(Task.AGGRESSION), exemplars)

    def test_identical_prefix_up_to_query(self):
        pool = synth_fixture(4, Task.CYBERBULLYING, seed=42)
        queries = synth_fixture(1, Task.CYBERBULLYING, seed=43)
        exemplars = select_exemplars(pool, k=2, seed=1)
        template = few_shot_template(Task.CYBERBULLYING)
        first = render_few_shot(queries[0], template, exemplars).rendered_text
        second = render_few_shot(queries[1], template, exemplars).rendered_text
        marker = "Now classify this post."
        assert first.split(marker)[0] == second.split(marker)[0]

    @pytest.mark.parametrize("task", list(Task))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_size_law_holds_for_all_k_and_tasks(self, task, k):
        pool = synth_fixture(4, task, seed=42)
        queries = synth_fixture(1, task, seed=43)
        exemplars = select_exemplars(pool, k=k, seed=1)
        prompt = render_few_shot(queries[0], few_shot_template(task), exemplars)
        label_lines = [
            line for line in prompt.rendered_text.splitlines() if line.startswith("Label:")
        ]
        assert len(label_lines) == k * len(display_names(task))

    def test_exemplars_before_query_and_interleaved(self):
        pool = synth_fixture(2, Task.AGGRESSION, seed=42)
        queries = synth_fixture(1, Task.AGGRESSION, seed=77)
        exemplars = select_exemplars(pool, k=2, seed=1)
        prompt = render_few_shot(queries[0], few_shot_template(Task.AGGRESSION), exemplars)
        text = prompt.rendered_text
        # class-interleaved: labels cycle NAG, CAG, OAG, NAG, CAG, OAG
        label_lines = [l for l in text.splitlines() if l.startswith("Label:")]
        expected_cycle = [lab.display_name for lab in AggressionLabel] * 2
        assert [l.removeprefix("Label: ") for l in label_lines] == expected_cycle
        assert text.rfind(queries[0].text) > text.rfind(label_lines[-1])


class TestEnriched:
    @pytest.mark.parametrize("label", list(AggressionLabel))
    def test_exact_prefix(self, cyberbullying_fixture, label):
        post = cyberbullying_fixture[0]
        prompt = render_enriched(post, label, enriched_template())
        prefix = ENRICHMENT_SENTENCE.format(name=label.display_name)
        assert prompt.rendered_text.startswith(prefix + "\n\n" + post.text)

    def test_newlines_and_emoji_preserved(self, cyberbullying_fixture):
        import dataclasses

        post = dataclasses.replace(
            cyberbullying_fixture[0],
            text="line one\nline two \U0001f621\n\ttabbed",
        )
        prompt = render_enriched(post, AggressionLabel.OAG, enriched_template())
        assert post.text in prompt.rendered_text

    def test_locality_of_label_swap(self, cyberbullying_fixture):
        post = cyberbullying_fixture[2]
        template = enriched_template()
        rendered = {
            lab: render_enriched(post, lab, template).rendered_text
            for lab in AggressionLabel
        }
        # everything after the enrichment sentence is identical across labels
        tails = {
            lab: text.split(". Based on this,", maxsplit=1)[1]
            for lab, text in rendered.items()
        }
        assert len(set(tails.values())) == 1
        heads = {
            lab: text.split(". Based on this,", maxsplit=1)[0] for lab, text in rendered.items()
        }
        for lab, head in heads.items():
            assert head == f"This post was predicted as {lab.display_name}"

    def test_wrong_task(self, aggression_fixture):
        with pytest.raises(PromptError, match="cyberbullying task"):
            render_enriched(aggression_fixture[0], AggressionLabel.NAG, enriched_template())

    def test_task_check_precedes_cue_check(self, aggression_fixture):
        from cbdetect import CyberbullyingLabel

        with pytest.raises(PromptError, match="cyberbullying task"):
            render_enriched(
                aggression_fixture[0], list(CyberbullyingLabel)[0], enriched_template()
            )


class TestTemplates:
    def test_unknown_template(self):
        with pytest.raises(PromptError, match="unknown template"):
            load_template("missing_v1", Task.AGGRESSION)

    def test_template_id_cannot_leave_the_package(self, tmp_path):
        (tmp_path / "evil.txt").write_text("{class_list}\n{post_text}\n", encoding="utf-8")
        template_id = os.path.relpath(tmp_path / "evil", str(resources.files("cbdetect.templates")))
        with pytest.raises(PromptError, match=re.escape(f"unknown template id: {template_id!r}")):
            load_template(template_id, Task.CYBERBULLYING)

    @pytest.mark.parametrize("template_id", ["../templates/zero_shot_v1", "./zero_shot_v1"])
    def test_template_id_must_be_a_plain_name(self, template_id):
        with pytest.raises(PromptError, match=re.escape(f"unknown template id: {template_id!r}")):
            load_template(template_id, Task.CYBERBULLYING)

    def test_unbound_placeholder_detected(self, cyberbullying_fixture):
        template = few_shot_template(Task.CYBERBULLYING)
        # zero-shot rendering of a few-shot template leaves {exemplars} unbound
        with pytest.raises(PromptError, match="unbound"):
            render_zero_shot(cyberbullying_fixture[0], template)

    def test_template_without_post_placeholder_fails_when_built(self, cyberbullying_fixture):
        import dataclasses

        template = dataclasses.replace(
            zero_shot_template(Task.CYBERBULLYING), instruction_text="Pick one: {class_list}"
        )
        with pytest.raises(PromptError, match="no {post_text} placeholder"):
            render_zero_shot(cyberbullying_fixture[0], template)

    def test_braces_in_post_text_survive(self, cyberbullying_fixture):
        import dataclasses

        post = dataclasses.replace(cyberbullying_fixture[0], text="code {sample} here")
        prompt = render_zero_shot(post, zero_shot_template(Task.CYBERBULLYING))
        assert "code {sample} here" in prompt.rendered_text


class TestLazyText:
    def test_text_is_substituted_once_on_first_read(self, cyberbullying_fixture, monkeypatch):
        calls = []
        substitute = prompting._substitute
        monkeypatch.setattr(
            prompting,
            "_substitute",
            lambda text, values: calls.append(values["post_text"]) or substitute(text, values),
        )
        post = cyberbullying_fixture[0]
        prompt = render_enriched(post, AggressionLabel.OAG, enriched_template())
        assert calls == []
        assert prompt.post_text == post.text
        assert calls == []
        first = prompt.rendered_text
        assert prompt.rendered_text is first
        assert calls == [post.text]


def test_verbatim_substring_randomized():
    # property: every render contains the post text verbatim
    import dataclasses

    rng = random.Random(5)
    alphabet = string.ascii_letters + string.digits + " \n\téü\U0001f600\U0001f4a5"
    base = synth_fixture(1, Task.CYBERBULLYING, seed=0)[0]
    template = zero_shot_template(Task.CYBERBULLYING)
    enriched = enriched_template()
    for _ in range(50):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 120))) or "x"
        if not text.strip():
            text = "x" + text
        post = dataclasses.replace(base, text=text)
        assert text in render_zero_shot(post, template).rendered_text
        assert text in render_enriched(post, AggressionLabel.CAG, enriched).rendered_text
