"""The run files' line writers against the canonical encoding.

Every line of ``predictions.jsonl`` and ``responses.jsonl`` must equal
``json.dumps(record, sort_keys=True, ensure_ascii=False,
separators=(",", ":")) + "\\n"`` of the record it stands for, whatever the
strings hold and whichever provenance keys and values a record carries, and
``load_predictions`` must read each prediction back field for field.
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
from cbdetect.rundir import publish

# characters the JSON string escaping treats differently, and %-format markers
PIECES = [
    "%", "%s", "%%", "%(x)s", '"', "\\", "\\n", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
    "\x85", "\u00a0", "\u2028", "\u2029", "é", "Straße", "\U0001f600", "plain", "{", "}", ":",
]


def canonical(record):
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def prediction_record(p):
    """The record a prediction line stands for; its keys are the field names."""
    record = {
        "post_id": p.post_id,
        "gold": label_name(p.gold),
        "predicted": None if p.predicted is None else label_name(p.predicted),
        "failure": p.failure,
        "provenance": p.provenance,
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


def provenance(rng, i, annotation, parsed):
    """A record's provenance: the keys a run writes, and now and then keys
    and values of other kinds, which the writer encodes all the same."""
    out = {}
    if annotation is not None:
        out["stage1_mode"] = rng.choice(["predicted", "gold_override"])
    if parsed:
        out["match_kind"] = rng.choice(["exact", "synonym", "substring_first"])
    if i % 17 == 5:
        out["note%"] = text(rng)
    if i % 19 == 7:
        out["score"] = rng.choice([0.5, -0.0, 0.0, 1, True])
    if i % 23 == 11:
        out["match_kind"] = rng.choice([None, 3, ["exact"]])
    if i % 29 == 13:
        out["ids"] = ["e1", "e%s2", 'e"3', 2, None]
    if i % 31 == 17:
        out["nested"] = {"b": [1, 2.0], "a": {"%s": "x"}}
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
                provenance=provenance(rng, i, annotation, parsed),
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
            prompt = text(rng, empty=False)  # prompts without the shared instruction
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
            entry["rendered_text"] = 8  # a prompt that is no string
        entries.append(entry)
    # prompts that are strict prefixes of another prompt of their stage
    for cut in (-1, 10, 0):
        entries.append({**first, "rendered_text": first["rendered_text"][:cut]})
    return entries


def written_lines(tmp_path, preds, entries):
    """Persist a run of ``preds`` and ``entries``: its prediction and audit
    lines, after checking that the predictions read back field for field."""
    stub = class_name_stub(Task.CYBERBULLYING)
    spec = ExperimentSpec(Method.ZERO_SHOT, Task.CYBERBULLYING, (stub,))
    result = RunResult(spec=spec, predictions=preds, manifest={"run_id": "r"}, audit=entries)
    run_dir = persist_run(result, tmp_path)
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
    return [canonical(prediction_record(p)) for p in preds]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("epp", [False, True])
def test_prediction_lines_are_canonical(tmp_path, seed, epp):
    preds = predictions(random.Random(seed), 120, epp)
    lines, _ = written_lines(tmp_path, preds, [])
    assert len(lines) == len(preds)
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


def test_write_lines_writes_newline_on_a_crlf_platform(tmp_path, crlf_platform):
    path = write_lines(tmp_path / "x.jsonl", [{"a": 1}, {"b": "\r"}], canonical)
    assert path.read_bytes() == b'{"a":1}\n{"b":"\\r"}\n'


def test_publish_leaves_a_file_the_write_made_at_the_target(tmp_path):
    """A ``write`` that also makes ``target`` a file: the rename onto it
    fails, the file keeps its bytes and the staging directory goes."""
    target = tmp_path / "run"

    def write(staging):
        (staging / "a.txt").write_text("a", encoding="utf-8")
        target.write_bytes(b"held")

    with pytest.raises(NotADirectoryError):
        publish(target, write)
    assert target.read_bytes() == b"held"
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
