import csv
import dataclasses
import hashlib
import json
import re
import tracemalloc

import pytest

from cbdetect import (
    AggressionLabel,
    CorpusError,
    CyberbullyingLabel,
    DatasetId,
    LabeledPost,
    LoadResult,
    RejectedRow,
    Split,
    SplitSpec,
    Task,
    class_distribution,
    load_dataset,
    load_records,
    load_schema,
    save_records,
    save_rejects,
    split_corpus,
    split_sizes,
    synth_fixture,
)
from cbdetect.labels import task_of_label


class TestLabels:
    def test_aggression_codes_and_names(self):
        assert [int(lab) for lab in AggressionLabel] == [0, 1, 2]
        assert [lab.display_name for lab in AggressionLabel] == [
            "Not-Aggressive",
            "Covertly Aggressive",
            "Overtly Aggressive",
        ]

    def test_cyberbullying_members(self):
        assert len(list(CyberbullyingLabel)) == 4
        assert [lab.display_name for lab in CyberbullyingLabel] == [
            "Ethnicity/Race",
            "Religion",
            "Gender/Sexual",
            "Not Cyberbullying",
        ]


class TestLabeledPost:
    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError, match="empty text"):
            LabeledPost(
                id="x", text="   ", task=Task.AGGRESSION, label=AggressionLabel.NAG,
                dataset_id=DatasetId.D1, split=Split.TRAIN, language_tag="en",
            )

    def test_label_task_mismatch_rejected(self):
        with pytest.raises(CorpusError, match="does not belong"):
            LabeledPost(
                id="x", text="hi", task=Task.AGGRESSION,
                label=CyberbullyingLabel.RELIGION,
                dataset_id=DatasetId.D1, split=Split.TRAIN, language_tag="en",
            )


class TestSchemas:
    def test_all_schemas_load(self):
        for dataset_id in DatasetId:
            schema = load_schema(dataset_id)
            assert schema.schema_id is dataset_id
            assert schema.version >= 1

    def test_label_maps_total_and_one_to_one(self):
        # every raw key maps to exactly one label and no two raws share one
        for dataset_id in DatasetId:
            schema = load_schema(dataset_id)
            values = list(schema.label_map.values())
            assert len(set(values)) == len(values)

    def test_unknown_schema_id(self):
        with pytest.raises(CorpusError, match="unknown schema"):
            load_schema("D9")


class TestLoadDataset:
    def test_raw_label_2_is_overtly_aggressive(self, write_csv):
        for schema_id in ("D1", "D2", "D3", "D4", "D5"):
            schema = load_schema(schema_id)
            row = {schema.text_column: "some post", schema.label_column: "2"}
            if schema.id_column:
                row[schema.id_column] = "r1"
            path = write_csv(f"{schema_id}.csv", list(row), [row])
            result = load_dataset(path, schema_id)
            assert len(result.accepted) == 1
            assert result.accepted[0].label is AggressionLabel.OAG

    def test_empty_text_rejected_with_reason(self, write_csv):
        path = write_csv(
            "d1.csv", ["text", "label"],
            [{"text": "ok post", "label": "0"}, {"text": "   ", "label": "1"}],
        )
        result = load_dataset(path, "D1")
        assert len(result.accepted) == 1
        assert len(result.rejects) == 1
        assert result.rejects[0].reason == "empty_text"

    def test_ten_rows_one_malformed(self, write_csv):
        rows = [{"text": f"post number {i}", "label": str(i % 3)} for i in range(9)]
        rows.append({"text": "bad label row", "label": "7"})
        path = write_csv("d1.csv", ["text", "label"], rows)
        result = load_dataset(path, "D1")
        assert len(result.accepted) == 9
        assert len(result.rejects) == 1
        assert result.rows_read == 10
        assert result.rejects[0].reason.startswith("unmappable_label")

    def test_d6_maps_and_rejects_extra_categories(self, write_csv):
        rows = [
            {"tweet_text": "a", "cyberbullying_type": "ethnicity"},
            {"tweet_text": "b", "cyberbullying_type": "religion"},
            {"tweet_text": "c", "cyberbullying_type": "gender"},
            {"tweet_text": "d", "cyberbullying_type": "not_cyberbullying"},
            {"tweet_text": "e", "cyberbullying_type": "age"},
            {"tweet_text": "f", "cyberbullying_type": "other_cyberbullying"},
        ]
        path = write_csv("d6.csv", ["tweet_text", "cyberbullying_type"], rows)
        result = load_dataset(path, "D6")
        assert [p.label for p in result.accepted] == [
            CyberbullyingLabel.ETHNICITY_RACE,
            CyberbullyingLabel.RELIGION,
            CyberbullyingLabel.GENDER_SEXUAL,
            CyberbullyingLabel.NOT_CYBERBULLYING,
        ]
        assert sorted(r.reason for r in result.rejects) == [
            "unmappable_label:age",
            "unmappable_label:other_cyberbullying",
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_dataset(tmp_path / "nope.csv", "D1")

    def test_bom_prefixed_file(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte order mark; it
        # must not become part of the first column's name
        path = tmp_path / "d6_bom.csv"
        path.write_bytes(
            "\ufefftweet_text,cyberbullying_type\r\n"
            "first,religion\r\n\ufeff,religion\r\nthird,gender\r\nfourth,age\r\n".encode("utf-8")
        )
        result = load_dataset(path, "D6")
        assert [p.text for p in result.accepted] == ["first", "third"]
        assert [(r.row_number, r.reason) for r in result.rejects] == [
            (2, "empty_text"),
            (4, "unmappable_label:age"),
        ]
        assert list(result.rejects[0].raw) == ["tweet_text", "cyberbullying_type"]

    def test_duplicate_ids_rejected(self, write_csv):
        rows = [
            {"id": "a", "text": "one", "label": "0"},
            {"id": "a", "text": "two", "label": "1"},
        ]
        path = write_csv("d2.csv", ["id", "text", "label"], rows)
        result = load_dataset(path, "D2")
        assert len(result.accepted) == 1
        assert result.rejects[0].reason == "duplicate_id:a"


class TestSplits:
    def test_80_10_10_exact(self):
        posts = synth_fixture(34, Task.AGGRESSION, seed=0)[:100]
        assert len(posts) == 100
        splits = split_corpus(posts, SplitSpec(0.8, 0.1, 0.1, seed=7))
        assert (
            len(splits[Split.TRAIN]),
            len(splits[Split.VALIDATION]),
            len(splits[Split.TEST]),
        ) == (80, 10, 10)

    def test_d6_policy_sizes(self):
        # 75% train, 2,000 fixed validation records, remainder to test
        assert split_sizes(SplitSpec(0.75, 2000, 0.25, seed=0), 10_000) == (7500, 2000, 500)

    def test_validation_count_larger_than_corpus(self):
        posts = synth_fixture(4, Task.AGGRESSION, seed=0)
        with pytest.raises(CorpusError, match="validation"):
            split_corpus(posts, SplitSpec(0.75, 2000, 0.25, seed=0))

    def test_partition_disjoint_and_complete(self):
        posts = synth_fixture(40, Task.CYBERBULLYING, seed=3)
        splits = split_corpus(posts, SplitSpec(0.8, 0.1, 0.1, seed=5))
        ids = [p.id for chunk in splits.values() for p in chunk]
        assert len(ids) == len(posts)
        assert set(ids) == {p.id for p in posts}

    def test_deterministic_and_order_independent(self):
        posts = list(synth_fixture(20, Task.AGGRESSION, seed=3))
        spec = SplitSpec(0.8, 0.1, 0.1, seed=11)
        first = split_corpus(posts, spec)
        second = split_corpus(list(reversed(posts)), spec)
        for split in Split:
            assert [p.id for p in first[split]] == [p.id for p in second[split]]

    def test_split_tags_reassigned(self):
        posts = synth_fixture(10, Task.AGGRESSION, seed=3)
        splits = split_corpus(posts, SplitSpec(0.8, 0.1, 0.1, seed=5))
        for split, chunk in splits.items():
            assert all(p.split is split for p in chunk)

    def test_fraction_sum_validated(self):
        with pytest.raises(CorpusError, match="sum to 1"):
            SplitSpec(0.8, 0.3, 0.1, seed=0)

    def test_empty_corpus(self):
        with pytest.raises(CorpusError, match="empty"):
            split_corpus([], SplitSpec(0.8, 0.1, 0.1, seed=0))


class TestSynthFixture:
    def test_counts_per_class(self):
        posts = synth_fixture(2, Task.AGGRESSION, seed=1)
        assert len(posts) == 6
        assert class_distribution(posts) == {lab: 2 for lab in AggressionLabel}

    def test_cyberbullying_counts(self):
        posts = synth_fixture(3, Task.CYBERBULLYING, seed=1)
        assert len(posts) == 12
        assert class_distribution(posts) == {lab: 3 for lab in CyberbullyingLabel}

    def test_texts_embed_display_name(self):
        for post in synth_fixture(2, Task.CYBERBULLYING, seed=9):
            assert post.label.display_name in post.text

    def test_texts_are_distinct(self):
        posts = synth_fixture(10, Task.AGGRESSION, seed=9)
        assert len({p.text for p in posts}) == len(posts)

    def test_deterministic(self):
        assert synth_fixture(4, Task.AGGRESSION, seed=2) == synth_fixture(
            4, Task.AGGRESSION, seed=2
        )

    def test_invalid_count(self):
        with pytest.raises(CorpusError):
            synth_fixture(0, Task.AGGRESSION, seed=0)


class TestClassDistribution:
    def test_empty_input(self):
        assert class_distribution([]) == {}

    def test_counts_sum(self, write_csv):
        rows = [{"text": f"post number {i}", "label": str(i % 3)} for i in range(9)]
        rows.append({"text": "bad label row", "label": "7"})
        path = write_csv("d1.csv", ["text", "label"], rows)
        accepted = load_dataset(path, "D1").accepted
        assert sum(class_distribution(accepted).values()) == 9

    def test_mixed_tasks_error(self):
        mixed = list(synth_fixture(1, Task.AGGRESSION, seed=0)) + list(
            synth_fixture(1, Task.CYBERBULLYING, seed=0)
        )
        with pytest.raises(CorpusError, match="mixed tasks"):
            class_distribution(mixed)


class TestRoundTrip:
    def test_records_round_trip_identically(self, tmp_path):
        posts = synth_fixture(3, Task.CYBERBULLYING, seed=8)
        posts = tuple(
            dataclasses.replace(p, text=p.text + "\nsecond line \U0001f600") for p in posts
        )
        path = save_records(posts, tmp_path / "corpus.jsonl")
        assert load_records(path) == posts


# --- pinned record bytes and the DictReader reference ----------------------


def _pin_posts():
    """Posts whose texts exercise every escaping rule of the record writer."""
    texts = [
        "café naïve — “curly” ¿qué? नमस्ते",
        "emoji \U0001f600\U0001f525 zwj \U0001f469\u200d\U0001f469\u200d\U0001f467"
        " flag \U0001f1ee\U0001f1f3",
        "line one\nline two\r\nline three\rend",
        'he said "stop" and \'left\'',
        "back\\slash C:\\Users\\x and a literal \\n",
        "ctl \x00\x01\x07\x08\t\x0b\x0c\x1b\x1f\x7f \x85 \u2028 \u2029 end",
        "\ufeffBOM-led text",
        "  padded both sides  ",
        "</script> & <b>tags</b> / slash",
    ]
    posts = []
    for i, text in enumerate(texts):
        task = Task.AGGRESSION if i % 2 == 0 else Task.CYBERBULLYING
        space = AggressionLabel if task is Task.AGGRESSION else CyberbullyingLabel
        posts.append(
            LabeledPost(
                id=f'id-{i} "q" \\ ü',
                text=text,
                task=task,
                label=list(space)[i % len(space)],
                dataset_id=list(DatasetId)[i % len(DatasetId)],
                split=list(Split)[i % len(Split)],
                language_tag="hi-en" if i % 3 else "en",
            )
        )
    return tuple(posts)


def _pin_rejects():
    return (
        RejectedRow(1, "empty_text", {"tweet_text": "\ufeff", "cyberbullying_type": "religion"}),
        RejectedRow(
            2,
            "missing_field:cyberbullying_type",
            {"tweet_text": "só \"x\"\n\U0001f600", "cyberbullying_type": None},
        ),
        RejectedRow(
            7,
            "unmappable_label:age",
            {"tweet_text": "ctl \x00\x1f \\", "cyberbullying_type": " age "},
        ),
        RejectedRow(9, "duplicate_id:a", {"id": "a", "text": "two", "label": "1"}),
    )


# sha256 of the files the dict-and-json.dumps writers produced
PINNED_RECORDS_SHA256 = "f5b01fb4b4cbe299de67a316675741a7a867ddccf99e74fa94d4f0175738656a"
PINNED_REJECTS_SHA256 = "fa201bfdaef92d330205ee310b47ff1d8186ebce644d631a6bf3e4ca2e5d255f"


class TestPinnedRecordBytes:
    def test_save_records_bytes(self, tmp_path):
        path = save_records(_pin_posts(), tmp_path / "records.jsonl")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_RECORDS_SHA256

    def test_save_rejects_bytes(self, tmp_path):
        path = save_rejects(_pin_rejects(), tmp_path / "rejects.jsonl")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_REJECTS_SHA256

    def test_pinned_records_round_trip(self, tmp_path):
        posts = _pin_posts()
        assert load_records(save_records(posts, tmp_path / "records.jsonl")) == posts


def _dictreader_load(path, schema_id):
    """The csv.DictReader loop load_dataset used before it read rows with
    csv.reader; the reference its results are compared with. It opens files
    as utf-8, as that loop did, so no fixture below starts with a byte
    order mark (test_bom_prefixed_file covers that)."""
    schema = load_schema(schema_id)
    accepted, rejects, seen_ids = [], [], set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row_number, row in enumerate(reader, start=1):
            reason = None
            text = (row.get(schema.text_column) or "").strip("\ufeff")
            raw_label = row.get(schema.label_column)
            if schema.text_column not in row or row[schema.text_column] is None:
                reason = f"missing_field:{schema.text_column}"
            elif raw_label is None:
                reason = f"missing_field:{schema.label_column}"
            elif not text.strip():
                reason = "empty_text"
            elif raw_label.strip() not in schema.label_map:
                reason = f"unmappable_label:{raw_label.strip()}"

            if reason is None:
                if schema.id_column:
                    post_id = (row.get(schema.id_column) or "").strip()
                    if not post_id:
                        reason = f"missing_field:{schema.id_column}"
                else:
                    post_id = f"{schema.schema_id.value.lower()}-{row_number:06d}"

            if reason is None and post_id in seen_ids:
                reason = f"duplicate_id:{post_id}"

            if reason is not None:
                rejects.append(RejectedRow(row_number=row_number, reason=reason, raw=dict(row)))
                continue

            seen_ids.add(post_id)
            accepted.append(
                LabeledPost(
                    id=post_id,
                    text=text,
                    task=schema.task,
                    label=schema.label_map[raw_label.strip()],
                    dataset_id=schema.schema_id,
                    split=Split.TRAIN,
                    language_tag=schema.language_tag,
                )
            )
    return LoadResult(accepted=tuple(accepted), rejects=tuple(rejects))


def _write_rows(path, rows):
    """Raw CSV rows; an empty list writes a blank line."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for row in rows:
            writer.writerow(row)
    return path


PARITY_CASES = {
    "d2_ragged": ("D2", [
        ["id", "text", "label"],
        ["a", "first post", "0"],
        [],
        ["b", "second, with comma", " 2 "],
        ["a", "duplicate id", "1"],
        ["c", "long row", "1", "extra", "more"],
        ["d", "short row"],
        ["e"],
        [],
        [],
        ["  ", "blank id", "0"],
        ["f", "\ufeff", "1"],
        ["g", "\ufeff  \ufeff", "1"],
        ["h", "\ufeffbom-led text\ufeff", "\t1\n"],
        ["i", "multi\nline\r\ntext", "2"],
        ["j", "bad label", "3"],
        ["k", "   ", "0"],
        [""],
        [" b ", "padded duplicate id", "0"],
        ["l", 'quote " and \\ backslash', "0"],
        ["m", "", ""],
    ]),
    "d6_ragged": ("D6", [
        ["tweet_text", "cyberbullying_type"],
        ["plain", "religion"],
        ["padded label", "  gender  "],
        ["short"],
        [],
        ["long", "ethnicity", "x", "y"],
        ["\ufeff", "religion"],
        ["", "religion"],
        ["age row", "age"],
        ["upper label", "Religion"],
        ["same text", "not_cyberbullying"],
        ["same text", "not_cyberbullying"],
        [],
    ]),
    "d6_columns_swapped_and_extra": ("D6", [
        ["cyberbullying_type", "note", "tweet_text"],
        ["religion", "n1", "text last"],
        ["gender", "n2"],
        ["ethnicity"],
        ["not_cyberbullying", "n4", "t4", "overflow"],
    ]),
    "d6_duplicate_header": ("D6", [
        ["tweet_text", "cyberbullying_type", "tweet_text"],
        ["first copy", "religion", "second copy"],
        ["only first", "religion"],
        ["a", "gender", ""],
    ]),
    "d6_missing_label_column": ("D6", [
        ["tweet_text", "label"],
        ["no label column", "religion"],
        ["short"],
    ]),
    "d2_missing_id_column": ("D2", [
        ["text", "label"],
        ["no id column", "0"],
    ]),
    "d6_blank_header_line": ("D6", [
        [],
        ["tweet_text", "cyberbullying_type"],
        ["after a blank first line", "religion"],
    ]),
    "d6_header_only": ("D6", [["tweet_text", "cyberbullying_type"]]),
    "d6_empty_file": ("D6", []),
}


class TestLoadDatasetParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_matches_dictreader_reference(self, tmp_path, case):
        schema_id, rows = PARITY_CASES[case]
        path = _write_rows(tmp_path / f"{case}.csv", rows)
        got = load_dataset(path, schema_id)
        want = _dictreader_load(path, schema_id)
        assert got == want
        # dict equality ignores key order; the rejects report does not
        assert [list(r.raw.items()) for r in got.rejects] == [
            list(r.raw.items()) for r in want.rejects
        ]


class TestRecordValidation:
    """load_records reads files from outside the program, so every field is
    still checked on the way in."""

    GOOD = (
        '{"dataset_id": "D1", "id": "x", "label": "NAG", "language_tag": "en", '
        '"split": "train", "task": "aggression", "text": "fine"}'
    )

    def _load(self, tmp_path, **fields):
        line = json.dumps({**json.loads(self.GOOD), **fields})
        path = tmp_path / "corrupt.jsonl"
        path.write_text(self.GOOD + "\n" + line + "\n", encoding="utf-8")
        return load_records(path)

    def test_good_line_loads(self, tmp_path):
        assert len(self._load(tmp_path)) == 2

    def test_undecodable_line_names_its_line(self, tmp_path):
        # blank lines are skipped but keep their line numbers
        path = tmp_path / "corrupt.jsonl"
        path.write_bytes(self.GOOD.encode() + b"\n\n" + b'{"id": "\xff"}\n')
        with pytest.raises(CorpusError, match=re.escape(f"{path}:3: 'utf-8' codec can't decode")):
            load_records(path)

    @pytest.mark.parametrize("field", ["id", "text", "language_tag"])
    def test_non_string_field_names_the_field(self, tmp_path, field):
        path = tmp_path / "corrupt.jsonl"
        with pytest.raises(
            CorpusError, match=re.escape(f"{path}:2: {field}: expected a string, got int")
        ):
            self._load(tmp_path, **{field: 5})

    def test_lower_case_label_name_still_resolves(self, tmp_path):
        assert self._load(tmp_path, label="cag")[1].label is AggressionLabel.CAG

    def test_empty_text(self, tmp_path):
        with pytest.raises(CorpusError, match="empty text"):
            self._load(tmp_path, text=" \n ")

    def test_label_from_the_other_task(self, tmp_path):
        # the name is looked up in the record's own task, so it is unknown there
        with pytest.raises(ValueError, match="unknown aggression label name: 'religion'"):
            self._load(tmp_path, label="religion")

    def test_label_of_the_other_task_on_a_post(self):
        # NAG and ETHNICITY_RACE are both code 0 and compare equal as ints
        with pytest.raises(CorpusError, match="does not belong to task cyberbullying"):
            LabeledPost(
                id="x", text="hi", task=Task.CYBERBULLYING, label=AggressionLabel.NAG,
                dataset_id=DatasetId.D6, split=Split.TRAIN, language_tag="en",
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("task", "harassment", "'harassment' is not a valid Task"),
            ("split", "dev", "'dev' is not a valid Split"),
            ("dataset_id", "D9", "'D9' is not a valid DatasetId"),
            ("dataset_id", "d1", "'d1' is not a valid DatasetId"),
        ],
    )
    def test_unknown_enum_value(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=message):
            self._load(tmp_path, **{field: value})

    def test_unhashable_enum_value(self, tmp_path):
        with pytest.raises(ValueError, match="is not a valid Split"):
            self._load(tmp_path, split=["train"])

    def test_task_of_a_non_label(self):
        with pytest.raises(TypeError, match="not a task label: 3"):
            task_of_label(3)

    def test_task_of_every_label(self):
        assert {task_of_label(lab) for lab in AggressionLabel} == {Task.AGGRESSION}
        assert {task_of_label(lab) for lab in CyberbullyingLabel} == {Task.CYBERBULLYING}


class TestSplitRetag:
    def test_equals_dataclasses_replace(self):
        posts = synth_fixture(10, Task.CYBERBULLYING, seed=4)
        for split, chunk in split_corpus(posts, SplitSpec(0.8, 0.1, 0.1, seed=2)).items():
            for post in chunk:
                original = next(p for p in posts if p.id == post.id)
                expected = dataclasses.replace(original, split=split)
                assert dataclasses.astuple(post) == dataclasses.astuple(expected)
                assert post == expected and hash(post) == hash(expected)
                assert type(post) is LabeledPost

    def test_retagged_post_stays_frozen(self):
        post = split_corpus(synth_fixture(1, Task.AGGRESSION), SplitSpec(0.5, 0.25, 0.25))[
            Split.TRAIN
        ][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            post.split = Split.TEST

    SPEC = SplitSpec(0.6, 0.2, 0.2, seed=5)

    @staticmethod
    def _tagged(posts, splits):
        """The posts, each tagged on input with its split in ``splits``."""
        return tuple(dataclasses.replace(p, split=s) for p, s in zip(posts, splits, strict=True))

    def test_post_in_place_is_the_same_object(self):
        posts = synth_fixture(10, Task.CYBERBULLYING, seed=4)
        splits = split_corpus(posts, self.SPEC)
        assert splits[Split.TRAIN] and all(
            any(post is p for p in posts) for post in splits[Split.TRAIN]
        )

    def test_posts_tagged_elsewhere_land_where_the_seed_sends_them(self):
        posts = synth_fixture(10, Task.CYBERBULLYING, seed=4)
        destination = {
            post.id: split for split, chunk in split_corpus(posts, self.SPEC).items()
            for post in chunk
        }
        cycle = [Split.VALIDATION, Split.TEST, Split.TRAIN]
        tagged = self._tagged(posts, [cycle[i % 3] for i in range(len(posts))])
        assert {p.split for p in tagged} == set(Split)
        for split, chunk in split_corpus(tagged, self.SPEC).items():
            for post in chunk:
                original = next(p for p in tagged if p.id == post.id)
                assert destination[post.id] is split and post.split is split
                if original.split is split:
                    assert post is original
                else:
                    assert post is not original
                    assert post == dataclasses.replace(original, split=split)

    def test_retagged_post_in_every_split_stays_frozen(self):
        posts = synth_fixture(10, Task.AGGRESSION, seed=4)
        destination = {
            post.id: split for split, chunk in split_corpus(posts, self.SPEC).items()
            for post in chunk
        }
        # every post tagged with a split other than its destination
        other = {Split.TRAIN: Split.TEST, Split.VALIDATION: Split.TRAIN, Split.TEST: Split.VALIDATION}
        tagged = self._tagged(posts, [other[destination[p.id]] for p in posts])
        for split, chunk in split_corpus(tagged, self.SPEC).items():
            post = chunk[0]
            assert post.split is split and all(post is not p for p in tagged)
            with pytest.raises(dataclasses.FrozenInstanceError):
                post.split = Split.TEST
            with pytest.raises(dataclasses.FrozenInstanceError):
                post.text = "changed"


def test_load_records_holds_one_block_of_decoded_text(tmp_path):
    # One character beyond U+FFFF makes a decoded text 4 bytes a character,
    # so a reader that decoded the whole file at once would hold its bytes
    # and that text together, at least 5 bytes per file byte (19.78 MB, 6.0
    # per file byte, measured on this file); the block reader stays under
    # half of that floor.
    words = "tease " * 160
    posts = [
        LabeledPost(
            f"p{i:05d}", f"{words}{i}" + ("\U0001f600" if i == 1500 else ""), Task.CYBERBULLYING,
            CyberbullyingLabel.RELIGION, DatasetId.D6, Split.TRAIN, "en",
        )
        for i in range(3000)
    ]
    path = save_records(posts, tmp_path / "train.jsonl")
    size = path.stat().st_size
    assert size > 3_000_000
    tracemalloc.start()
    try:
        loaded = load_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == tuple(posts)
    assert peak < 5 * size / 2
