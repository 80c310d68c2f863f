"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives the
same raw CSV, the same response plans and the same synthetic posts. The
program under test only ever sees the generated files and posts; the plans
stay on the benchmark side, where the output checks compare against them.

Evaluation records get their gold labels and planned responses in exact,
class-balanced proportions, so the confusion matrix of a run -- and with it
macro-F1 and the share of failed records -- is the same for every seed. Only
the texts, the row order and which record gets which response vary.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cbdetect import corpus
from cbdetect.backend import MatchKind
from cbdetect.labels import AggressionLabel, CyberbullyingLabel, Task, labels_in_order

CB = list(CyberbullyingLabel)
AGG = list(AggressionLabel)

# Extra leading column: a row cut short after it is the only way a CSV row
# can lack the text field, which is one of the reject classes.
CSV_FIELDS = ("tweet_id", "tweet_text", "cyberbullying_type")
# "age" and "other_cyberbullying" are raw D6 labels that the four-way
# taxonomy drops, so the schema does not map them.
REJECT_REASONS = (
    "empty_text",
    "unmappable_label:age",
    "unmappable_label:other_cyberbullying",
    "missing_field:tweet_text",
    "missing_field:cyberbullying_type",
)

# No word below shares a toy-tokenizer hash bucket with a class display-name
# word, and none is "not", so the cue in each text is unambiguous to the toy
# network (checked by the smoke tests).
_OPENERS = (
    "just saw this thread and", "quoting the reply:", "screenshot from the group chat,",
    "someone in the comments said", "overheard on the timeline:", "ngl,",
    "cousin sent this:", "from the replies, verbatim:", "okay so",
)
_FILLER = (
    "honestly", "lol", "again", "people", "timeline", "thread", "seriously", "tonight",
    "weekend", "school", "bus", "game", "phone", "group", "chat", "story", "video",
    "picture", "friends", "class", "match", "coffee", "rain", "city", "music", "morning",
)
_CLOSERS = (
    "make of that what you will", "context in the replies", "mods asleep again",
    "thread continues below", "ratio incoming", "\U0001F644\U0001F644",
    "\"unreal\", someone said", "honestly, wow", "lmao",
)


def post_text(rng: random.Random, cue: str, tags: str = "") -> str:
    """A tweet-like text ending in its class cue (the toy network pools the
    last token), with optional response-selecting tags; always shorter
    than the toy network's 32-token window."""
    parts = [rng.choice(_OPENERS), " ".join(rng.sample(_FILLER, rng.randint(2, 6)))]
    if tags:
        parts.append(tags)
    parts += [rng.choice(_CLOSERS), f"-- reviewers tagged it {cue}"]
    text = " ".join(parts)
    if rng.random() < 0.05:
        text = text.replace(", ", ",\n", 1)  # quoted multi-line CSV field
    return text


def synthetic_posts(task: Task, n_per_class: int, rng: random.Random, prefix: str):
    """Balanced labelled posts for tuning, cue words in the text."""
    posts = []
    for i in range(n_per_class):
        for lab in labels_in_order(task):
            posts.append(
                corpus.LabeledPost(
                    id=f"{prefix}-{lab.name.lower()}-{i:05d}",
                    text=post_text(rng, lab.display_name),
                    task=task,
                    label=lab,
                    dataset_id=corpus.DatasetId.D1 if task is Task.AGGRESSION else corpus.DatasetId.D6,
                    split=corpus.Split.TRAIN,
                    language_tag="en",
                )
            )
    rng.shuffle(posts)
    return posts


@dataclass
class RawCorpus:
    """A written D6-shaped CSV and everything the checks need to know."""

    path: Path
    rows: int
    rejects: dict[int, str]  # row number -> reject reason
    eval_ids: list[str]  # ids that land in the test split
    gold: dict[str, CyberbullyingLabel]
    split_seed: int


SPLIT_FRACTIONS = (0.7, 0.1, 0.2)


def split_spec(seed: int) -> corpus.SplitSpec:
    return corpus.SplitSpec(*SPLIT_FRACTIONS, seed=seed)


def eval_per_class(n_clean: int) -> int:
    """Evaluation (test split) records per gold class for a clean corpus."""
    n_test = corpus.split_sizes(split_spec(0), n_clean)[2]
    if n_test % len(CB):
        raise ValueError(f"test split of {n_test} records cannot be class-balanced")
    return n_test // len(CB)


def write_d6_csv(
    path: Path,
    n_clean: int,
    n_dirty: int,
    rng: random.Random,
    tags_for: Callable[[str, CyberbullyingLabel], str] | None = None,
) -> RawCorpus:
    """Raw D6 dump with dirty rows of every reject class.

    The test split is worked out before any label is assigned (it depends
    only on record ids and the split seed), so evaluation golds can be
    balanced exactly; ``eval_per_class(n_clean)`` gives the count per class.
    ``tags_for(post_id, gold)`` returns the response-selecting tags of an
    evaluation record.
    """
    raw_of = {lab: raw for raw, lab in corpus.load_schema("D6").label_map.items()}
    n_rows = n_clean + n_dirty
    dirty_rows = sorted(rng.sample(range(1, n_rows + 1), n_dirty))
    rejects = {row: REJECT_REASONS[i % len(REJECT_REASONS)] for i, row in enumerate(dirty_rows)}
    clean_rows = [r for r in range(1, n_rows + 1) if r not in rejects]
    ids = [f"d6-{r:06d}" for r in clean_rows]

    split_seed = rng.randrange(1 << 30)
    placeholders = [
        corpus.LabeledPost(pid, "x", Task.CYBERBULLYING, CB[0], corpus.DatasetId.D6,
                           corpus.Split.TRAIN, "en")
        for pid in ids
    ]
    test_ids = {p.id for p in corpus.split_corpus(placeholders, split_spec(split_seed))[corpus.Split.TEST]}
    per_class = eval_per_class(len(ids))

    eval_golds = [lab for lab in CB for _ in range(per_class)]
    rng.shuffle(eval_golds)
    gold: dict[str, CyberbullyingLabel] = {}
    eval_ids: list[str] = []
    rows = []
    for row, pid in zip(clean_rows, ids):
        if pid in test_ids:
            lab = eval_golds[len(eval_ids)]
            tags = tags_for(pid, lab) if tags_for else ""
            eval_ids.append(pid)
        else:
            lab, tags = rng.choice(CB), ""
        gold[pid] = lab
        rows.append((row, [f"t{row}", post_text(rng, lab.display_name, tags), raw_of[lab]]))
    for row, reason in rejects.items():
        rows.append((row, _dirty_row(row, reason, rng)))
    rows.sort(key=lambda item: item[0])

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for _, fields in rows:
            writer.writerow(fields)
    return RawCorpus(path, n_rows, rejects, eval_ids, gold, split_seed)


def _dirty_row(row: int, reason: str, rng: random.Random) -> list[str]:
    text = post_text(rng, rng.choice(CB).display_name)
    if reason == "empty_text":
        return [f"t{row}", rng.choice(("", "   ", "\ufeff")), "religion"]
    if reason.startswith("unmappable_label:"):
        return [f"t{row}", text, reason.split(":", 1)[1]]
    if reason == "missing_field:tweet_text":
        return [f"t{row}"]
    return [f"t{row}", text]  # missing_field:cyberbullying_type


# --- stub response plans ----------------------------------------------------
#
# A response is selected by a tag in the post text ("[s2 synonym religion]"); the
# stub's rule table maps each tag to one fixed response string whose parse
# outcome is known by construction. Every gold class gets whole shuffled
# blocks of planned responses, so the response mix is exact per class.

FAIL = "fail"  # injected transport failure
UNPARSE = "unparse"

_CB_EXACT = {lab: f"{lab.display_name}\n" for lab in CB}
_CB_SYNONYM = {
    CyberbullyingLabel.ETHNICITY_RACE: "That reads as racist to me.",
    CyberbullyingLabel.RELIGION: "Looks faith-based to me.",
    CyberbullyingLabel.GENDER_SEXUAL: "Looks sexist to me.",
    CyberbullyingLabel.NOT_CYBERBULLYING: "Seems harmless to me.",
}
# Every other cyberbullying display name contains a synonym phrase, so only
# Religion can reach the substring stage of the parse cascade.
_CB_SUBSTRING = {CyberbullyingLabel.RELIGION: "Most likely Religion, judging by the wording."}
_AGG_EXACT = {lab: f"{lab.display_name}\n" for lab in AGG}
_AGG_SYNONYM = {
    AggressionLabel.NAG: "The tone is neutral.",
    AggressionLabel.CAG: "It is passive aggressive.",
    AggressionLabel.OAG: "That is openly aggressive.",
}
_AGG_SUBSTRING = {lab: f"I'd say {lab.display_name} here." for lab in AGG}
UNPARSEABLE_TEXT = "I would rather not say."

# The response mixes below, the live fault mix and the share of dirty CSV
# rows are assumptions, not measurements: the repository holds no recorded
# model responses or raw dumps to take them from. README.md lists each
# share with its reason; the traced run reports the share that reaches each
# parse stage.
#
# (kind, offset from gold | fixed label), one block of 20 per gold class
STUB_STAGE2_BLOCK = (
    [(MatchKind.EXACT, 0)] * 8 + [(MatchKind.EXACT, 1)]
    + [(MatchKind.SYNONYM, 0)] * 4 + [(MatchKind.SYNONYM, 2)]
    + [(MatchKind.SUBSTRING_FIRST, CyberbullyingLabel.RELIGION)] * 2
    + [(UNPARSE, None)] * 2 + [(FAIL, None)] * 2
)
# stage-1 kinds only: the aggression answer is drawn at random per record
STUB_STAGE1_BLOCK = (
    [MatchKind.EXACT] * 8 + [MatchKind.SYNONYM] * 5 + [MatchKind.SUBSTRING_FIRST] * 3
    + [UNPARSE] * 2 + [FAIL] * 2
)


@dataclass(frozen=True)
class Planned:
    """What one stage's response for one record must turn into."""

    kind: object  # MatchKind, UNPARSE or FAIL
    label: object  # expected parsed label, or None

    @property
    def tag_key(self) -> str:
        kind = self.kind.value if isinstance(self.kind, MatchKind) else self.kind
        return kind if self.label is None else f"{kind} {self.label.name.lower()}"


def _answer(kind, answer, gold):
    if kind in (FAIL, UNPARSE):
        return Planned(kind, None)
    if isinstance(answer, CyberbullyingLabel):
        return Planned(kind, answer)
    return Planned(kind, CB[(int(gold) + answer) % len(CB)])


def _blocks(block: list, n_per_class: int, rng: random.Random) -> dict:
    """One shuffled run of whole blocks per gold class."""
    if n_per_class % len(block):
        raise ValueError(f"evaluation size per class must be a multiple of {len(block)}")
    out = {lab: block * (n_per_class // len(block)) for lab in CB}
    for planned in out.values():
        rng.shuffle(planned)
    return out


class StubPlan:
    """Per-record planned responses for both stub stages of one seed."""

    def __init__(self, rng: random.Random, n_per_class: int):
        self.rng = rng
        self._stage1 = _blocks(STUB_STAGE1_BLOCK, n_per_class, rng)
        self._stage2 = _blocks(STUB_STAGE2_BLOCK, n_per_class, rng)
        self.stage1: dict[str, Planned] = {}
        self.stage2: dict[str, Planned] = {}

    def tags_for(self, post_id: str, gold: CyberbullyingLabel) -> str:
        s2 = _answer(*self._stage2[gold].pop(), gold)
        kind1 = self._stage1[gold].pop()
        s1 = Planned(kind1, None if kind1 in (FAIL, UNPARSE) else self.rng.choice(AGG))
        self.stage1[post_id] = s1
        self.stage2[post_id] = s2
        return f"[s1 {s1.tag_key}] [s2 {s2.tag_key}]"


def stub_rules(stage: str) -> tuple[list[tuple[str, str]], list[str]]:
    """(rule table, fail patterns) of the stub serving one stage."""
    if stage == "s2":
        kinds = ((MatchKind.EXACT, _CB_EXACT), (MatchKind.SYNONYM, _CB_SYNONYM),
                 (MatchKind.SUBSTRING_FIRST, _CB_SUBSTRING))
    else:
        kinds = ((MatchKind.EXACT, _AGG_EXACT), (MatchKind.SYNONYM, _AGG_SYNONYM),
                 (MatchKind.SUBSTRING_FIRST, _AGG_SUBSTRING))
    rules = [
        (f"[{stage} {Planned(kind, lab).tag_key}]", response)
        for kind, table in kinds
        for lab, response in table.items()
    ]
    rules.append((f"[{stage} {UNPARSE}]", UNPARSEABLE_TEXT))
    return rules, [f"[{stage} {FAIL}]"]


# --- live endpoint plans ----------------------------------------------------
#
# Faults the endpoint stand-in injects, keyed by (record tag, stage model).
# "503once" fails the first attempt only and carries no Retry-After header;
# "401" and "malformed" can never succeed.

OK, RETRY_503, DENY_401, MALFORMED = "ok", "503once", "401", "malformed"
NON_RECOVERABLE = (DENY_401, MALFORMED)
LIVE_BLOCK = (
    [(OK, 0)] * 14 + [(OK, 1)] * 2 + [(RETRY_503, 0)] * 2 + [(DENY_401, 0), (MALFORMED, 0)]
)
LIVE_STAGES = ("zs", "s1", "s2")


class LivePlan:
    """Per-record (fault, answer) for each stage model of the endpoint."""

    def __init__(self, rng: random.Random, n_per_class: int):
        self.rng = rng
        self._blocks = {stage: _blocks(LIVE_BLOCK, n_per_class, rng) for stage in LIVE_STAGES}
        self.records: dict[str, dict[str, tuple[str, object]]] = {}

    def tags_for(self, post_id: str, gold: CyberbullyingLabel) -> str:
        entry = {}
        for stage in LIVE_STAGES:
            fault, offset = self._blocks[stage][gold].pop()
            if stage == "s1":  # stage-1 answers have no gold to be right about
                entry[stage] = (fault, self.rng.choice(AGG))
            else:
                entry[stage] = (fault, CB[(int(gold) + offset) % len(CB)])
        self.records[post_id] = entry
        return f"ref#{post_id}"

    def to_json(self) -> dict:
        """Wire form for the endpoint: tag -> stage -> [fault, answer text]."""
        return {
            f"ref#{post_id}": {stage: [fault, lab.display_name] for stage, (fault, lab) in rec.items()}
            for post_id, rec in self.records.items()
        }
