"""Dataset ingestion, normalization, splits, and synthetic fixtures.

Six heterogeneous source datasets (five aggression, one cyberbullying) are
normalized into a single record shape. Raw files are read through
per-dataset schema configs shipped under ``cbdetect/schemas/``; dirty rows
are rejected with a reason instead of aborting the load. Text is stored
as-is: no lowercasing, no emoji or punctuation stripping, because surface
cues matter for covert aggression.
"""

from __future__ import annotations

import csv
import enum
import json
import operator
import random
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence, Union

from ._config import read_lines, write_lines
from .labels import (
    JSON_LABEL_NAMES,
    Label,
    Task,
    label_from_name,
    label_to_name,
    labels_in_order,
    task_of_label,
)


class DatasetId(enum.Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"


class Split(enum.Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


class CorpusError(ValueError):
    """Invalid record, schema, or split configuration."""


# value -> member tables for reading records; a value they lack goes to the
# enum call (or label_from_name), which resolves it or raises its own error.
# Every per-record table is keyed by a str or a type, never by an Enum
# member: Enum.__hash__ is a Python-level call.
_TASKS = {task.value: task for task in Task}
_DATASETS = {dataset_id.value: dataset_id for dataset_id in DatasetId}
_SPLITS = {split.value: split for split in Split}
_LABEL_NAMES = {
    task.value: {label_to_name(lab): lab for lab in labels_in_order(task)} for task in Task
}

# The record format: one JSON object per line, exactly as
# json.dumps(record, sort_keys=True, ensure_ascii=False) writes it. The keys
# are fixed, so they are written out in sorted order, and every string goes
# through the C encoder json.dumps uses for ensure_ascii=False.
_encode = json.encoder.encode_basestring
_RECORD_LINE = (
    '{"dataset_id": %s, "id": %s, "label": %s, "language_tag": %s, '
    '"split": %s, "task": %s, "text": %s}\n'
)


@dataclass(frozen=True, slots=True)
class LabeledPost:
    """One normalized text record."""

    id: str
    text: str
    task: Task
    label: Label
    dataset_id: DatasetId
    split: Split
    language_tag: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise CorpusError(f"post {self.id!r}: empty text")
        if task_of_label(self.label) is not self.task:
            raise CorpusError(
                f"post {self.id!r}: label {self.label!r} does not belong to task {self.task.value}"
            )

    def to_record_line(self) -> str:
        """The post as one line of a record file, newline included."""
        # _value_ is the member's plain attribute; .value is a property
        return _RECORD_LINE % (
            _encode(self.dataset_id._value_),
            _encode(self.id),
            JSON_LABEL_NAMES[type(self.label)][self.label],
            _encode(self.language_tag),
            _encode(self.split._value_),
            _encode(self.task._value_),
            _encode(self.text),
        )

    @classmethod
    def from_record(cls, record: dict) -> "LabeledPost":
        # fields are read in the order the checked path reads them, so a
        # record with several faults raises the same one either way
        try:
            task_value = record["task"]
            task = _TASKS[task_value]
            post_id, text = record["id"], record["text"]
            label = _LABEL_NAMES[task_value][record["label"]]
            dataset_id = _DATASETS[record["dataset_id"]]
            split = _SPLITS[record["split"]]
        except (KeyError, TypeError):
            task = Task(record["task"])
            post_id, text = record["id"], record["text"]
            label = label_from_name(task, record["label"])
            dataset_id = DatasetId(record["dataset_id"])
            split = Split(record["split"])
        language_tag = record["language_tag"]
        if not (type(post_id) is str and type(text) is str and type(language_tag) is str):
            name = next(k for k in ("id", "text", "language_tag") if type(record[k]) is not str)
            raise CorpusError(f"{name}: expected a string, got {type(record[name]).__name__}")
        return cls(post_id, text, task, label, dataset_id, split, language_tag)

    def _retagged(self, split: Split) -> "LabeledPost":
        """``dataclasses.replace(self, split=split)`` without re-running the
        validation this post passed when it was built: each slot is copied
        as the generated ``__init__`` sets it."""
        post = object.__new__(type(self))
        for name in _FIELD_NAMES:
            object.__setattr__(post, name, getattr(self, name))
        object.__setattr__(post, "split", split)
        return post


_FIELD_NAMES = tuple(f.name for f in fields(LabeledPost) if f.name != "split")


@dataclass(frozen=True)
class RejectedRow:
    """A source row that could not become a LabeledPost."""

    row_number: int
    reason: str
    raw: dict


@dataclass(frozen=True)
class LoadResult:
    accepted: tuple[LabeledPost, ...]
    rejects: tuple[RejectedRow, ...]

    @property
    def rows_read(self) -> int:
        return len(self.accepted) + len(self.rejects)


@dataclass(frozen=True)
class SchemaConfig:
    """Column and label mapping for one source dataset."""

    schema_id: DatasetId
    version: int
    task: Task
    language_tag: str
    text_column: str
    label_column: str
    id_column: str | None
    label_map: dict[str, Label]

    @classmethod
    def from_dict(cls, data: dict) -> "SchemaConfig":
        task = Task(data["task"])
        return cls(
            schema_id=DatasetId(data["schema_id"]),
            version=int(data["version"]),
            task=task,
            language_tag=data["language_tag"],
            text_column=data["text_column"],
            label_column=data["label_column"],
            id_column=data.get("id_column"),
            label_map={
                raw: label_from_name(task, name) for raw, name in data["label_map"].items()
            },
        )


def load_schema(schema_id: Union[DatasetId, str]) -> SchemaConfig:
    """Load the shipped schema config for a dataset id."""
    if isinstance(schema_id, str):
        try:
            schema_id = DatasetId(schema_id.upper())
        except ValueError:
            raise CorpusError(f"unknown schema id: {schema_id!r}") from None
    name = f"{schema_id.value.lower()}.json"
    ref = resources.files("cbdetect.schemas").joinpath(name)
    return SchemaConfig.from_dict(json.loads(ref.read_text(encoding="utf-8")))


_ABSENT = sys.maxsize  # the column index of a field the header does not name


def load_dataset(path: Union[str, Path], schema_id: Union[DatasetId, str]) -> LoadResult:
    """Read a raw CSV dump and normalize every row.

    Rows with an empty text, an unmapped label value, a missing field, or a
    duplicate id are routed to the rejects list with a reason; they never
    abort the load. accepted + rejected always equals rows read. A UTF-8
    byte order mark at the start of the file is skipped; blank lines are
    not rows and take no row number.
    """
    schema = load_schema(schema_id)
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"cannot read dataset file: {path}")

    accepted: list[LabeledPost] = []
    rejects: list[RejectedRow] = []
    seen_ids: set[str] = set()

    label_map = schema.label_map
    task, dataset_id, language_tag = schema.task, schema.schema_id, schema.language_tag
    id_prefix = dataset_id.value.lower()

    # utf-8-sig: a byte order mark must not become part of the first column name
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        # as in csv.DictReader, the last of two same-named columns wins; a
        # column the header lacks lies past the end of every row
        column = {name: i for i, name in enumerate(header)}
        text_at = column.get(schema.text_column, _ABSENT)
        label_at = column.get(schema.label_column, _ABSENT)
        id_at = column.get(schema.id_column, _ABSENT)
        row_number = 0
        for row in reader:
            if not row:  # a blank line is no row and takes no number
                continue
            row_number += 1
            width = len(row)
            text = row[text_at] if text_at < width else None
            raw_label = row[label_at] if label_at < width else None
            reason = None
            if text is None:
                reason = f"missing_field:{schema.text_column}"
            elif raw_label is None:
                reason = f"missing_field:{schema.label_column}"
            else:
                text = text.strip("\ufeff")
                raw_label = raw_label.strip()
                if not text.strip():
                    reason = "empty_text"
                elif raw_label not in label_map:
                    reason = f"unmappable_label:{raw_label}"

            if reason is None:
                if schema.id_column:
                    post_id = (row[id_at] if id_at < width else "").strip()
                    if not post_id:
                        reason = f"missing_field:{schema.id_column}"
                else:
                    post_id = f"{id_prefix}-{row_number:06d}"

            if reason is None and post_id in seen_ids:
                reason = f"duplicate_id:{post_id}"

            if reason is not None:
                rejects.append(
                    RejectedRow(row_number=row_number, reason=reason, raw=_raw_row(header, row))
                )
                continue

            seen_ids.add(post_id)
            accepted.append(
                LabeledPost(
                    post_id, text, task, label_map[raw_label], dataset_id, Split.TRAIN, language_tag
                )
            )

    return LoadResult(accepted=tuple(accepted), rejects=tuple(rejects))


def _raw_row(header: list[str], row: list[str]) -> dict:
    """A source row keyed as csv.DictReader keys it: a short row's missing
    columns map to None, a long row's extra values sit under the key None."""
    raw = dict(zip(header, row))
    if len(row) > len(header):
        raw[None] = row[len(header) :]
    else:
        for name in header[len(row) :]:
            raw[name] = None
    return raw


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test partition policy.

    ``validation`` is either a fraction (float) or an absolute record count
    (int). With a fraction, all three fractions must cover the corpus
    exactly; validation and test sizes are floored and the remainder goes
    to train. With a count, train is floored from ``train_fraction``, the
    count is carved out, and test takes whatever remains.
    """

    train_fraction: float
    validation: Union[float, int]
    test_fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise CorpusError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if isinstance(self.validation, bool):
            raise CorpusError("validation must be a fraction or a count")
        if isinstance(self.validation, int):
            if self.validation < 0:
                raise CorpusError("validation count must be >= 0")
            if abs(self.train_fraction + self.test_fraction - 1.0) > 1e-9:
                raise CorpusError(
                    "with an absolute validation count, train and test fractions "
                    "must cover the corpus (validation is carved out of the test side)"
                )
        else:
            if self.validation < 0 or self.test_fraction < 0:
                raise CorpusError("fractions must be >= 0")
            total = self.train_fraction + self.validation + self.test_fraction
            if abs(total - 1.0) > 1e-9:
                raise CorpusError(f"split fractions must sum to 1, got {total}")


def split_sizes(spec: SplitSpec, n: int) -> tuple[int, int, int]:
    """(train, validation, test) sizes for a corpus of n records."""
    if isinstance(spec.validation, int):
        n_train = int(spec.train_fraction * n)
        n_val = spec.validation
        n_test = n - n_train - n_val
        if n_test < 0:
            raise CorpusError(
                f"split demands {n_val} validation records but only "
                f"{n - n_train} remain after the training cut of {n_train}"
            )
    else:
        n_val = int(spec.validation * n)
        n_test = int(spec.test_fraction * n)
        n_train = n - n_val - n_test
    return n_train, n_val, n_test


def split_corpus(
    posts: Sequence[LabeledPost], spec: SplitSpec
) -> dict[Split, tuple[LabeledPost, ...]]:
    """Partition posts into train/validation/test deterministically.

    The partition depends only on the record ids and the seed, never on the
    input order. Every post lands in exactly one split, tagged with its
    destination: a post already tagged so is returned as it is (posts are
    frozen, so sharing one is safe), every other post is re-tagged.
    """
    if not posts:
        raise CorpusError("cannot split an empty corpus")
    n_train, n_val, n_test = split_sizes(spec, len(posts))

    ordered = sorted(posts, key=operator.attrgetter("id"))
    rng = random.Random(spec.seed)
    rng.shuffle(ordered)

    sections = {
        Split.TRAIN: ordered[:n_train],
        Split.VALIDATION: ordered[n_train : n_train + n_val],
        Split.TEST: ordered[n_train + n_val :],
    }
    return {
        split: tuple(post if post.split is split else post._retagged(split) for post in chunk)
        for split, chunk in sections.items()
    }


_SYNTH_OPENERS = [
    "just saw this thread and",
    "quoting the reply:",
    "screenshot from the group chat,",
    "someone in the comments said",
    "repost from earlier today,",
    "overheard on the timeline:",
]

_SYNTH_CLOSERS = [
    "make of that what you will",
    "context in the replies",
    "mods are asleep",
    "not the first time either",
    "thread continues below",
    "ratio incoming",
]


def synth_fixture(n_per_class: int, task: Task, seed: int = 0) -> tuple[LabeledPost, ...]:
    """Generate a balanced synthetic corpus for desk-scale tests.

    Every text embeds its class display name verbatim, so a rule-based stub
    backend keyed on class names can classify the fixture perfectly.
    Synthetic aggression records are tagged D1, cyberbullying records D6.
    """
    if n_per_class < 1:
        raise CorpusError("n_per_class must be >= 1")
    rng = random.Random(seed)
    dataset_id = DatasetId.D1 if task is Task.AGGRESSION else DatasetId.D6
    posts = []
    for i in range(n_per_class):
        for lab in labels_in_order(task):
            opener = rng.choice(_SYNTH_OPENERS)
            closer = rng.choice(_SYNTH_CLOSERS)
            name = label_to_name(lab)
            posts.append(
                LabeledPost(
                    id=f"synth-{task.value}-s{seed}-{name}-{i:03d}",
                    text=f"{opener} reviewers tagged it {lab.display_name}, {closer} #{i}",
                    task=task,
                    label=lab,
                    dataset_id=dataset_id,
                    split=Split.TRAIN,
                    language_tag="en",
                )
            )
    return tuple(posts)


def class_distribution(posts: Sequence[LabeledPost]) -> dict[Label, int]:
    """Per-label counts over a single-task corpus."""
    if not posts:
        return {}
    tasks = {p.task for p in posts}
    if len(tasks) > 1:
        raise CorpusError(f"mixed tasks in class_distribution: {sorted(t.value for t in tasks)}")
    counts: dict[Label, int] = {}
    for post in posts:
        counts[post.label] = counts.get(post.label, 0) + 1
    return counts


def save_records(posts: Iterable[LabeledPost], path: Union[str, Path]) -> Path:
    """Write posts as line-delimited records (UTF-8, sorted keys)."""
    return write_lines(path, posts, LabeledPost.to_record_line)


def load_records(path: Union[str, Path]) -> tuple[LabeledPost, ...]:
    """Inverse of save_records; round-trips exactly. A bad line is a CorpusError."""
    return tuple(read_lines(path, LabeledPost.from_record, CorpusError))


def save_rejects(rejects: Iterable[RejectedRow], path: Union[str, Path]) -> Path:
    """Write a rejects report next to a normalized corpus.

    A row longer than its header keeps its extra values, a list, under the
    ``None`` key of ``raw``; the report writes them under ``"__extra__"``.
    """
    return write_lines(path, rejects, _reject_line)


def _reject_line(reject: RejectedRow) -> str:
    raw = {"__extra__" if key is None else key: value for key, value in reject.raw.items()}
    record = {"row_number": reject.row_number, "reason": reject.reason, "raw": raw}
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
