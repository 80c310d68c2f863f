"""Label spaces for the two classification tasks.

Integer codes and display names are part of the wire contract: they appear
in record files, prompts, and model responses, so they must never change
between releases.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Union


class Task(enum.Enum):
    AGGRESSION = "aggression"
    CYBERBULLYING = "cyberbullying"


class AggressionLabel(enum.IntEnum):
    """Three-way aggression scale. Codes 0/1/2 are stable."""

    NAG = 0
    CAG = 1
    OAG = 2

    @property
    def display_name(self) -> str:
        return _AGGRESSION_DISPLAY[self]


_AGGRESSION_DISPLAY = {
    AggressionLabel.NAG: "Not-Aggressive",
    AggressionLabel.CAG: "Covertly Aggressive",
    AggressionLabel.OAG: "Overtly Aggressive",
}


class CyberbullyingLabel(enum.IntEnum):
    """Four-way cyberbullying taxonomy."""

    ETHNICITY_RACE = 0
    RELIGION = 1
    GENDER_SEXUAL = 2
    NOT_CYBERBULLYING = 3

    @property
    def display_name(self) -> str:
        return _CYBERBULLYING_DISPLAY[self]


_CYBERBULLYING_DISPLAY = {
    CyberbullyingLabel.ETHNICITY_RACE: "Ethnicity/Race",
    CyberbullyingLabel.RELIGION: "Religion",
    CyberbullyingLabel.GENDER_SEXUAL: "Gender/Sexual",
    CyberbullyingLabel.NOT_CYBERBULLYING: "Not Cyberbullying",
}

Label = Union[AggressionLabel, CyberbullyingLabel]

_TASK_LABELS = {
    Task.AGGRESSION: AggressionLabel,
    Task.CYBERBULLYING: CyberbullyingLabel,
}
_MEMBERS = {task: dict(space.__members__) for task, space in _TASK_LABELS.items()}


def label_space(task: Task) -> type:
    """Return the label enumeration owning `task`."""
    return _TASK_LABELS[task]


_SPACE_TASKS = {space: task for task, space in _TASK_LABELS.items()}


def task_of_label(label: Label) -> Task:
    # an enum with members cannot be subclassed, so the exact type decides
    try:
        return _SPACE_TASKS[type(label)]
    except KeyError:
        raise TypeError(f"not a task label: {label!r}") from None


def labels_in_order(task: Task) -> list[Label]:
    """All labels of a task in canonical (code) order."""
    return list(label_space(task))


def display_names(task: Task) -> list[str]:
    return [lab.display_name for lab in labels_in_order(task)]


def label_to_name(label: Label) -> str:
    """Serialized form: 'NAG'/'CAG'/'OAG' or 'ethnicity_race' etc."""
    if isinstance(label, AggressionLabel):
        return label.name
    return label.name.lower()


def label_from_name(task: Task, name: str) -> Label:
    """Resolve a serialized label name for a task (inverse of label_to_name)."""
    return _read_name(task, _MEMBERS[task], name)


def label_reader(task: Task) -> Callable[[str], Label]:
    """``label_from_name`` for one task, its name table looked up once."""
    return partial(_read_name, task, _MEMBERS[task])


def _read_name(task: Task, members: dict[str, Label], name: str) -> Label:
    try:
        return members[name.upper()]
    except KeyError:
        raise ValueError(f"unknown {task.value} label name: {name!r}") from None
