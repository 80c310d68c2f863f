"""The run files' line writers against the canonical encoding.

Every line of ``predictions.jsonl`` and ``responses.jsonl`` must equal
``json.dumps(record, sort_keys=True, ensure_ascii=False,
separators=(",", ":")) + "\\n"`` of the record it stands for, whatever the
strings hold and whichever provenance keys and values a record carries. A
prediction line's provenance leaves out what the run's manifest holds
once, and ``load_predictions`` puts it back.
"""

import json
import random
from dataclasses import replace

import pytest

from cbdetect import (
    AggressionLabel,
    CyberbullyingLabel,
    ExperimentSpec,
    Method,
    RunResult,
    Task,
    class_name_stub,
    persist_run,
)
from cbdetect._config import write_lines
from cbdetect.pipeline import Prediction, load_predictions

# characters the JSON string escaping treats differently, and %-format markers
PIECES = [
    "%", "%s", "%%", "%(x)s", '"', "\\", "\\n", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
    "\x85", "\u00a0", "\u2028", "\u2029", "é", "Straße", "\U0001f600", "plain", "{", "}", ":",
]


def canonical(record):
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def shared_provenance(preds):
    """The manifest's shared provenance of ``preds``: the keys every record
    copies from a top-level field, and the pairs every record holds with
    the same canonical JSON whose value is a scalar or a list of scalars."""
    copied = {
        "post_id": lambda p: p.post_id,
        # not `annotation and annotation.name`: AggressionLabel.NAG is 0
        "aggression_label": lambda p: None if p.aggression_annotation is None
        else p.aggression_annotation.name,
    }
    from_fields = sorted(
        key for key, field in copied.items()
        if preds and all(
            type(p.provenance.get(key)) is str and p.provenance[key] == field(p) for p in preds
        )
    )
    pairs = {}
    for key, value in preds[0].provenance.items() if preds else ():
        flat = value if type(value) is list else [value]
        if key in from_fields or not all(type(item) in SCALARS for item in flat):
            continue
        if all(key in p.provenance and canon(p.provenance[key]) == canon(value) for p in preds):
            pairs[key] = value
    return {"from_fields": from_fields, "pairs": pairs}


SCALARS = (str, int, float, bool, type(None))


def canon(value):
    return json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def prediction_record(p, shared):
    """The record a prediction line stands for; its keys are the field names."""
    omit = set(shared["pairs"]) | set(shared["from_fields"])
    record = {
        "post_id": p.post_id,
        "gold": label_name(p.gold),
        "predicted": None if p.predicted is None else label_name(p.predicted),
        "failure": p.failure,
        "provenance": {key: value for key, value in p.provenance.items() if key not in omit},
        "response_text": p.response_text,
    }
    if p.aggression_annotation is not None:
        record["aggression_annotation"] = p.aggression_annotation.name
        record["stage1_fallback"] = p.stage1_fallback
        record["stage1_response_text"] = p.stage1_response_text
    return record


def label_name(label):
    return label.name if isinstance(label, AggressionLabel) else label.name.lower()


def text(rng, empty=True):
    if empty and rng.random() < 0.1:
        return ""
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))


def maybe(rng, value):
    return None if rng.random() < 0.3 else value


def provenance(rng, i, post_id, annotation, parsed):
    epp = annotation is not None
    out = {
        "template_id": "few_shot_v1" if i < 60 else "few_shot_%v2",
        "template_version": 1 if i < 45 else 2,
        "mode": "enriched" if epp else "few_shot",
        "post_id": post_id,
        "exemplar_source_ids": ["e1", "e%s2", "e\"3"],
        "backend_id": "stub-%s-β",
    }
    if epp:
        # the record's own annotation in the first 45 records
        out["aggression_label"] = (
            annotation.name if i < 45 else rng.choice(list(AggressionLabel)).name
        )
        out["enrichment_order"] = "cue_first"
        out["stage1_backend_id"] = "agg"
        out["stage1_template_id"] = "zero_shot_v1"
        out["stage1_mode"] = rng.choice(["predicted", "gold_override"])
    if parsed:
        out["match_kind"] = rng.choice(["exact", "synonym", "substring_first"])
    if i % 17 == 5:
        out["note%"] = text(rng)  # an extra fixed-position key
    if i % 19 == 7:
        out["score"] = rng.choice([0.5, -0.0, 0.0, 1, True])  # values that compare equal
    if i % 23 == 11:
        out["match_kind"] = rng.choice([None, 3, ["exact"]])  # a hole that is not a str
    if i % 29 == 13:
        out["exemplar_source_ids"] = ["e1", 2, None]
    if i % 31 == 17:
        out["nested"] = {"b": [1, 2.0], "a": {"%s": "x"}}
    if i == 70:
        out = {}
    if i == 71:
        out = {"post_id": post_id}
    return out


def predictions(rng, n, epp):
    space = CyberbullyingLabel if epp or rng.random() < 0.5 else AggressionLabel
    out = []
    for i in range(n):
        parsed = rng.random() < 0.7  # failure records carry no match_kind
        post_id = text(rng)
        gold = rng.choice(list(space))
        predicted = rng.choice(list(space)) if parsed else None
        annotation = rng.choice(list(AggressionLabel)) if epp else None
        out.append(
            Prediction(
                post_id=post_id,
                gold=gold,
                predicted=predicted,
                failure=None if parsed else rng.choice(["parse_failure", "transport_error: %s"]),
                aggression_annotation=annotation,
                stage1_fallback=rng.random() < 0.5,
                provenance=provenance(rng, i, post_id, annotation, parsed),
                response_text=maybe(rng, text(rng)),
                stage1_response_text=maybe(rng, text(rng)),
            )
        )
    return out


def audit(rng, n):
    shared = "Instruction with %s, \"quotes\", \\ and   — " * 20
    first = {"post_id": "p0", "stage": "main", "rendered_text": shared + "%s first",
             "response_text": None, "failure": None}
    entries = [first]
    for i in range(n):
        stage = rng.choice(["main", "stage1", "stage2", "st%sage"])
        if stage == "main":
            prompt = shared + text(rng)
        elif stage == "stage1":
            prompt = text(rng, empty=False)  # prompts that share no prefix
        else:
            prompt = rng.choice([shared[:40], shared, shared + text(rng), text(rng)])
        entry = {
            "post_id": text(rng),
            "stage": stage,
            "rendered_text": maybe(rng, prompt),
            "response_text": maybe(rng, text(rng)),
            "failure": maybe(rng, "transport_error: " + text(rng)),
        }
        if i % 11 == 3:
            entry = {**entry, "rendered_text": None, "gold_override": "OAG"}
        if i % 13 == 6:
            entry["post_id"] = 7
        if i % 37 == 8:
            entry["rendered_text"] = 8  # after its stage's prefix is fixed, or before
        entries.append(entry)
    # later prompts that are strict prefixes of their stage's first prompt
    for cut in (-1, 10, 0):
        entries.append({**first, "rendered_text": first["rendered_text"][:cut]})
    return entries


def written_lines(tmp_path, preds, entries):
    """Persist a run of ``preds`` and ``entries``: its prediction and audit
    lines, after checking its manifest's shared provenance and that the
    predictions read back field for field."""
    stub = class_name_stub(Task.CYBERBULLYING)
    spec = ExperimentSpec(Method.ZERO_SHOT, Task.CYBERBULLYING, (stub,))
    result = RunResult(spec=spec, predictions=preds, manifest={"run_id": "r"}, audit=entries)
    run_dir = persist_run(result, tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert canon(manifest["shared_provenance"]) == canon(shared_provenance(preds))
    if preds:
        task = Task.AGGRESSION if type(preds[0].gold) is AggressionLabel else Task.CYBERBULLYING
        # a record without an aggression annotation is written without the
        # stage-1 fields, which then read back as their defaults
        assert load_predictions(run_dir / "predictions.jsonl", task) == [
            p if p.aggression_annotation is not None
            else replace(p, stage1_fallback=False, stage1_response_text=None)
            for p in preds
        ]
    split = lambda name: [
        line.decode("utf-8") + "\n" for line in (run_dir / name).read_bytes().split(b"\n")[:-1]
    ]
    return split("predictions.jsonl"), split("responses.jsonl")


def expected_lines(preds):
    shared = shared_provenance(preds)
    return [canonical(prediction_record(p, shared)) for p in preds]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("epp", [False, True])
def test_prediction_lines_are_canonical(tmp_path, seed, epp):
    # record 70 has no provenance, so the run shares none
    preds = predictions(random.Random(seed), 120, epp)
    lines, _ = written_lines(tmp_path, preds, [])
    assert len(lines) == len(preds)
    assert lines == expected_lines(preds)


# the first 40 records share more than the first 70
@pytest.mark.parametrize("n", [40, 70])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("epp", [False, True])
def test_shared_provenance_is_written_once(tmp_path, seed, epp, n):
    preds = predictions(random.Random(seed), 120, epp)[:n]
    lines, _ = written_lines(tmp_path, preds, [])
    assert shared_provenance(preds)["pairs"]
    assert lines == expected_lines(preds)


def test_fallback_is_written_both_ways(tmp_path):
    preds = [
        Prediction("a", CyberbullyingLabel.RELIGION, None, aggression_annotation=AggressionLabel.NAG,
                   stage1_fallback=fallback)
        for fallback in (True, False)
    ]
    lines, _ = written_lines(tmp_path, preds, [])
    assert '"stage1_fallback":true' in lines[0] and '"stage1_fallback":false' in lines[1]
    assert lines == expected_lines(preds)


def test_label_names_are_read_per_label_space(tmp_path):
    # AggressionLabel.NAG == CyberbullyingLabel.ETHNICITY_RACE: both are 0
    p = Prediction("a", CyberbullyingLabel.ETHNICITY_RACE, CyberbullyingLabel.RELIGION,
                   aggression_annotation=AggressionLabel.NAG)
    lines, _ = written_lines(tmp_path, [p], [])
    record = json.loads(lines[0])
    assert (record["gold"], record["aggression_annotation"]) == ("ethnicity_race", "NAG")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_lines_are_canonical(tmp_path, seed):
    entries = audit(random.Random(seed), 150)
    _, lines = written_lines(tmp_path, [], entries)
    assert lines == [canonical(entry) for entry in entries]


def test_fixed_values_that_compare_equal_but_encode_apart(tmp_path):
    # 0.0 == -0.0 and [1] == [1.0] == [True], but each encodes its own way
    values = [(0.0, [1]), (-0.0, [1.0]), (0.0, [True]), (0.0, [1])]
    preds = [
        Prediction("a", CyberbullyingLabel.RELIGION, None,
                   provenance={"post_id": "a", "score": score, "ids": ids})
        for score, ids in values
    ]
    lines, _ = written_lines(tmp_path, preds, [])
    assert shared_provenance(preds)["pairs"] == {}
    assert lines == expected_lines(preds)


@pytest.mark.parametrize(
    "values, shared",
    [
        ([(-0.0, [1.0, "x"])] * 3, ["ids", "score"]),
        ([(1, [1]), (True, [1])], ["ids"]),
        # lists of lists are not shared, whatever they hold
        ([(0.5, [[1]])] * 2, ["score"]),
    ],
)
def test_a_pair_is_shared_when_its_json_is(tmp_path, values, shared):
    preds = [
        Prediction("a", CyberbullyingLabel.RELIGION, None,
                   provenance={"post_id": "a", "score": score, "ids": list(ids)})
        for score, ids in values
    ]
    lines, _ = written_lines(tmp_path, preds, [])
    assert sorted(shared_provenance(preds)["pairs"]) == shared
    assert lines == expected_lines(preds)


@pytest.mark.parametrize(
    "provenance, from_fields",
    [
        ({"post_id": "p", "aggression_label": "OAG"}, ["aggression_label", "post_id"]),
        ({"post_id": "q", "aggression_label": "OAG"}, ["aggression_label"]),
        ({"aggression_label": "CAG"}, []),
        ({"post_id": "p", "aggression_label": None}, ["post_id"]),
    ],
)
def test_keys_equal_to_a_top_level_field_are_written_once(tmp_path, provenance, from_fields):
    preds = [
        Prediction("p", CyberbullyingLabel.RELIGION, None, aggression_annotation=AggressionLabel.OAG,
                   provenance={"post_id": "p", "aggression_label": "OAG", "match_kind": "exact"}),
        Prediction("p", CyberbullyingLabel.GENDER_SEXUAL, None,
                   aggression_annotation=AggressionLabel.OAG, provenance=provenance),
    ]
    lines, _ = written_lines(tmp_path, preds, [])
    assert shared_provenance(preds)["from_fields"] == from_fields
    assert lines == expected_lines(preds)


def test_each_record_reads_back_its_own_shared_list(tmp_path):
    preds = [
        Prediction(f"p{i}", CyberbullyingLabel.RELIGION, None, provenance={"ids": ["e1", "e2"]})
        for i in range(2)
    ]
    written_lines(tmp_path, preds, [])
    first, second = load_predictions(tmp_path / "r" / "predictions.jsonl", Task.CYBERBULLYING)
    first.provenance["ids"].append("e3")
    assert second.provenance["ids"] == ["e1", "e2"]


def test_write_lines_writes_newline_on_a_crlf_platform(tmp_path, crlf_platform):
    path = write_lines(tmp_path / "x.jsonl", [{"a": 1}, {"b": "\r"}], canonical)
    assert path.read_bytes() == b'{"a":1}\n{"b":"\\r"}\n'
