"""Prompt construction: zero-shot, few-shot, and aggression-enriched.

Every render is a pure function of its arguments and produces byte-identical
output on repeated calls. The original post text always appears verbatim as
a contiguous substring of the rendered prompt. Template text lives in
versioned files under ``cbdetect/templates/``, not in code.

A render function runs every check when it is called and returns a
``Prompt`` whose text is substituted only when first read: a backend that
reads only the post never pays for the prompt. A ``Prompt`` holds only
what a backend reads; the facts that define a run (template, method,
exemplars, cue) are in its manifest and prediction lines.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .corpus import LabeledPost
from .labels import (
    _SPACE_TASKS,
    AggressionLabel,
    Label,
    Task,
    label_space,
    labels_in_order,
)


class PromptError(ValueError):
    """Template/task mismatch, unbound placeholder, or exemplar leakage."""


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@functools.lru_cache(maxsize=64)
def _template_pieces(template_text: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """Literal text at even indices and placeholder names at odd ones, plus
    the placeholder set; scanned once per template text."""
    pieces = tuple(_PLACEHOLDER_RE.split(template_text))
    return pieces, frozenset(pieces[1::2])


def _substitute(template_text: str, values: dict[str, str]) -> str:
    # Single pass: substituted values are never re-scanned, so braces inside
    # post text cannot trigger another substitution round. ``Prompt`` has
    # checked that ``values`` binds every placeholder.
    pieces, _ = _template_pieces(template_text)
    out = list(pieces)
    out[1::2] = [values[name] for name in pieces[1::2]]
    return "".join(out)


@functools.lru_cache(maxsize=64)
def _check_placeholders(template_text: str, value_keys: tuple[str, ...]) -> None:
    """Fail a template that the class list, the post text and ``value_keys``
    leave a placeholder of unbound, or that has no ``{post_text}``: its
    prompt would not hold the post verbatim. Checked once per (template,
    value keys)."""
    names = _template_pieces(template_text)[1]
    missing = names.difference(("class_list", "post_text", *value_keys))
    if missing:
        raise PromptError(f"unbound template placeholders: {sorted(missing)}")
    if "post_text" not in names:
        raise PromptError(
            "template has no {post_text} placeholder: the rendered prompt must "
            "contain the post text verbatim"
        )


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    instruction_text: str
    label_space: type
    version: int


def load_template(template_id: str, task: Task) -> PromptTemplate:
    """Load a shipped template file and bind it to a task's label space.

    A template id is a plain name (ASCII letters, digits, underscores), so
    it names a file in the package and never a path out of it.
    """
    unknown = PromptError(f"unknown template id: {template_id!r}")
    if not re.fullmatch(r"\w+", template_id, re.ASCII):
        raise unknown
    ref = resources.files("cbdetect.templates").joinpath(f"{template_id}.txt")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise unknown from None
    match = re.search(r"_v(\d+)$", template_id)
    version = int(match.group(1)) if match else 1
    return PromptTemplate(
        template_id=template_id,
        instruction_text=text,
        label_space=label_space(task),
        version=version,
    )


class Prompt:
    """A model input plus its target label space: what a backend reads.

    Built from a post, a template, whose label space gives the class list,
    and ``values`` for the template's mode-specific placeholders. Building
    raises PromptError for a template those leave a placeholder unbound in,
    or one without ``{post_text}``, so reading the text never fails.
    ``rendered_text`` is substituted the first time it is read, then kept,
    so a stage whose backend reads only ``post_text`` renders nothing.
    """

    __slots__ = ("label_space", "post_text", "_template", "_values", "_text")

    def __init__(self, post: LabeledPost, template: PromptTemplate, values: dict[str, str]) -> None:
        _check_placeholders(template.instruction_text, tuple(values))
        self.label_space = template.label_space
        self.post_text = post.text
        self._template = template
        self._values = values
        self._text = None

    @property
    def rendered_text(self) -> str:
        text = self._text
        if text is None:
            values = {
                "class_list": _class_list(self.label_space), "post_text": self.post_text,
                **self._values,
            }
            text = self._text = _substitute(self._template.instruction_text, values)
        return text


@dataclass(frozen=True)
class ExemplarSet:
    """k labelled training examples per class, in class-interleaved order."""

    task: Task
    k: int
    exemplars: tuple[tuple[str, Label], ...]
    source_ids: tuple[str, ...]
    seed: int

    def __post_init__(self) -> None:
        classes = labels_in_order(self.task)
        if len(self.exemplars) != self.k * len(classes):
            raise PromptError(
                f"exemplar set must hold k*|classes| = {self.k * len(classes)} "
                f"examples, got {len(self.exemplars)}"
            )
        per_class: dict[Label, int] = {}
        for _, lab in self.exemplars:
            per_class[lab] = per_class.get(lab, 0) + 1
        for lab in classes:
            if per_class.get(lab, 0) != self.k:
                raise PromptError(f"class {lab.display_name!r} has {per_class.get(lab, 0)} exemplars, expected {self.k}")

    @functools.cached_property
    def block(self) -> str:
        """One 'Post:/Label:' pair per exemplar, blank line between pairs;
        built once per set."""
        return "\n\n".join(f"Post: {text}\nLabel: {lab.display_name}" for text, lab in self.exemplars)


def select_exemplars(train: Sequence[LabeledPost], k: int, seed: int) -> ExemplarSet:
    """Sample k exemplars per class from a training pool.

    Selection is seeded uniform sampling without replacement and does not
    depend on the input ordering (candidates are sorted by id first).
    """
    if k < 1:
        raise PromptError("k must be >= 1")
    if not train:
        raise PromptError("empty training pool")
    # by identity: a set of tasks would hash each post's Task in Python
    task = train[0].task
    if any(p.task is not task for p in train):
        raise PromptError("exemplar pool mixes tasks")

    rng = random.Random(seed)
    chosen = []
    for lab in labels_in_order(task):
        candidates = sorted((p for p in train if p.label is lab), key=lambda p: p.id)
        if len(candidates) < k:
            raise PromptError(
                f"class {lab.display_name!r} has only {len(candidates)} training "
                f"records, cannot select k={k}"
            )
        chosen.append(rng.sample(candidates, k))

    # class-interleaved: round by round, each class's next pick in class order
    picks = [post for round_posts in zip(*chosen) for post in round_posts]
    return ExemplarSet(
        task=task, k=k, exemplars=tuple((p.text, p.label) for p in picks),
        source_ids=tuple(p.id for p in picks), seed=seed,
    )


def _check_template_task(template: PromptTemplate, task: Task) -> None:
    # by identity: label_space(task) would hash the Task in Python
    if _SPACE_TASKS.get(template.label_space) is not task:
        raise PromptError(
            f"template {template.template_id!r} is bound to "
            f"{template.label_space.__name__}, post task is {task.value}"
        )


@functools.lru_cache(maxsize=None)
def _class_list(space: type) -> str:
    return ", ".join(label.display_name for label in space)


def render_zero_shot(
    post: LabeledPost, template: PromptTemplate, task: Task | None = None
) -> Prompt:
    """Instruction + enumerated class list + the post, no examples.

    ``task`` is what the post is classified for, its own task by default;
    the enriched pipeline's first stage asks for aggression on a
    cyberbullying post.
    """
    task = post.task if task is None else task
    _check_template_task(template, task)
    return Prompt(post, template, {})


def render_few_shot(
    post: LabeledPost, template: PromptTemplate, exemplars: ExemplarSet
) -> Prompt:
    """Class-interleaved labelled examples followed by the unlabeled query."""
    _check_template_task(template, post.task)
    if exemplars.task is not post.task:
        raise PromptError("exemplar set task does not match the post task")
    if post.id in exemplars.source_ids:
        raise PromptError(f"exemplar leakage: post {post.id!r} is in the exemplar set")
    return Prompt(post, template, {"exemplars": exemplars.block})


def render_enriched(
    post: LabeledPost, predicted: AggressionLabel, template: PromptTemplate
) -> Prompt:
    """Prefix the cyberbullying prompt with a predicted aggression cue.

    The enrichment sentence comes first, then one blank line, then the post
    verbatim. Swapping the predicted label changes only the display-name
    span of the sentence.
    """
    if post.task is not Task.CYBERBULLYING:
        raise PromptError("enriched prompts are only defined for the cyberbullying task")
    if not isinstance(predicted, AggressionLabel):
        raise PromptError(f"predicted must be an aggression label, got {predicted!r}")
    _check_template_task(template, post.task)
    return Prompt(post, template, {"aggression_label": predicted.display_name})
