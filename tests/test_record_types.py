"""The per-record value types are frozen, slotted dataclasses.

A program builds one of these per post, prediction, response, parse or
retry attempt, so none carries an instance ``__dict__``; each stays a
frozen dataclass, so ``dataclasses.replace``, equality and hashing work
field by field as before.
"""

import dataclasses

import pytest

from cbdetect import (
    AggressionLabel,
    CyberbullyingLabel,
    DatasetId,
    LabeledPost,
    Split,
    Task,
)
from cbdetect.backend import AttemptRecord, MatchKind, ParsedLabel, RawResponse
from cbdetect.pipeline import Prediction

# one instance of each type, a field to change, and a value for it
RECORDS = {
    "LabeledPost": (
        lambda: LabeledPost(
            "p1", "some text", Task.CYBERBULLYING, CyberbullyingLabel.RELIGION,
            DatasetId.D6, Split.TRAIN, "en",
        ),
        "split", Split.TEST,
    ),
    "Prediction": (
        lambda: Prediction(
            post_id="p1", gold=CyberbullyingLabel.RELIGION, predicted=CyberbullyingLabel.GENDER_SEXUAL,
            aggression_annotation=AggressionLabel.CAG, provenance={"match_kind": "exact"},
            response_text="Gender/Sexual",
        ),
        "predicted", None,
    ),
    "RawResponse": (lambda: RawResponse("Religion", 0.25, "stub"), "truncated", True),
    "ParsedLabel": (
        lambda: ParsedLabel(AggressionLabel.OAG, MatchKind.SYNONYM), "match_kind", MatchKind.EXACT
    ),
    "AttemptRecord": (lambda: AttemptRecord(2, "timed out", 1.5), "error", "refused"),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_is_a_slotted_frozen_dataclass(record):
    make, name, _ = record
    obj = make()
    assert dataclasses.is_dataclass(obj) and type(obj).__dataclass_params__.frozen
    assert not hasattr(obj, "__dict__")
    assert type(obj).__slots__ == tuple(f.name for f in dataclasses.fields(obj))


def test_writing_a_field_or_a_new_attribute_is_refused(record):
    make, name, value = record
    obj = make()
    before = values(obj)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)
    # a name that is no field is refused too, as TypeError on Python
    # versions whose generated __setattr__ names, in its super() call, the
    # class that slots=True replaced
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        obj.extra = 1
    assert not hasattr(obj, "extra")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    assert values(obj) == before


def test_replace_equality_and_hash_go_by_field(record):
    make, name, value = record
    obj, same = make(), make()
    assert obj == same and obj is not same
    changed = dataclasses.replace(obj, **{name: value})
    assert type(changed) is type(obj) and getattr(changed, name) == value
    assert changed != obj
    assert dataclasses.replace(changed, **{name: getattr(obj, name)}) == obj
    assert {f.name for f in dataclasses.fields(obj) if getattr(changed, f.name) != getattr(obj, f.name)} == {name}
    if type(obj) is Prediction:  # its provenance is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
    else:
        assert hash(obj) == hash(same) == hash(values(obj))
