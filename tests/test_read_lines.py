"""The one-pass line reader behind ``load_records`` and ``load_predictions``.

A good file loads as it did when each line was decoded on its own. A bad
line, wherever it stands and whatever else the file holds, raises exactly
the ``<path>:<line>: <reason>`` the line-by-line read raises.
"""

import json

import pytest

from cbdetect import (
    CorpusError,
    DatasetId,
    LabeledPost,
    PipelineError,
    Split,
    Task,
    constant_stub,
    load_records,
    run_baseline,
    save_records,
    synth_fixture,
)
from cbdetect import _config
from cbdetect.labels import CyberbullyingLabel
from cbdetect.pipeline import ExperimentSpec, Method, load_predictions

ODD_TEXT = "a\u2028b\x85c"  # line ends for str.splitlines, not for a file


def records_file(tmp_path, odd):
    posts = list(synth_fixture(2, Task.CYBERBULLYING))
    if odd:
        posts[1] = LabeledPost(
            id="odd", text=ODD_TEXT, task=Task.CYBERBULLYING,
            label=CyberbullyingLabel.RELIGION, dataset_id=DatasetId.D6,
            split=Split.TRAIN, language_tag="en",
        )
    path = save_records(posts, tmp_path / "records" / "train.jsonl")
    return path, lambda: load_records(path), CorpusError


def predictions_file(tmp_path, odd):
    stub = constant_stub(f"Religion{ODD_TEXT}" if odd else "Religion")
    spec = ExperimentSpec(Method.ZERO_SHOT, Task.CYBERBULLYING, (stub,))
    result = run_baseline(synth_fixture(2, Task.CYBERBULLYING), spec, out_dir=tmp_path / "runs")
    path = result.run_dir / "predictions.jsonl"
    return path, lambda: load_predictions(path, Task.CYBERBULLYING), PipelineError


def build_fault(line: bytes, loader: str) -> bytes:
    """A JSON object the loader's ``build`` refuses."""
    record = json.loads(line)
    record["label" if loader == "records" else "gold"] = "no_such_label"
    return json.dumps(record, ensure_ascii=False).encode("utf-8")


def split_after_comma(line: bytes) -> list:
    cut = line.index(b",") + 1
    return [line[:cut], line[cut:]]


# fault -> (bad line(s) in place of a good one, a piece of the reason)
FAULTS = {
    "utf8": (lambda line, loader: [line[:12] + b"\xff" + line[12:]], "can't decode byte 0xff"),
    "json": (lambda line, loader: [line[:-1]], "Expecting"),
    "non_object": (lambda line, loader: [b'["a", 1]'], "expected a JSON object, got list"),
    "build": (lambda line, loader: [build_fault(line, loader)], "no_such_label"),
    # one object spread over two lines: each line alone is bad JSON
    "split_object": (lambda line, loader: split_after_comma(line), "Expecting"),
}
LOADERS = {"records": records_file, "predictions": predictions_file}


def rewrite(path, fault, where, variant, loader):
    """Rewrite ``path`` with the fault at ``where``; the bad line's number."""
    lines = path.read_bytes().split(b"\n")[:-1]
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines) - 1}[where]
    lines[at : at + 1] = FAULTS[fault][0](lines[at], loader)
    number = at + 1
    if variant == "blank_lines":
        blanks = [b"", b"  ", b"\t\x0b\x0c"]
        lines[at:at] = blanks
        lines.insert(0, b"")
        number += len(blanks) + 1
    end = b"\r\n" if variant == "crlf" else b"\n"
    path.write_bytes(b"".join(line + end for line in lines))
    return number


def line_by_line(monkeypatch, load):
    """What ``load`` raises when every line is decoded on its own."""
    def refuse(text, build):
        raise ValueError("read line by line")

    with monkeypatch.context() as patch:
        patch.setattr(_config, "_build_each", refuse)
        with pytest.raises(ValueError) as caught:
            load()
    return str(caught.value)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("variant", ["plain", "blank_lines", "crlf", "odd_text"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_bad_line_gives_the_line_by_line_message(tmp_path, monkeypatch, loader, variant, where, fault):
    path, load, error = LOADERS[loader](tmp_path, variant == "odd_text")
    number = rewrite(path, fault, where, variant, loader)
    expected = line_by_line(monkeypatch, load)
    assert expected.startswith(f"{path}:{number}: ") and FAULTS[fault][1] in expected
    with pytest.raises(error) as caught:
        load()
    assert str(caught.value) == expected


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("variant", ["blank_lines", "crlf", "odd_text", "leading_space"])
def test_good_file_loads_as_line_by_line(tmp_path, monkeypatch, loader, variant):
    path, load, _ = LOADERS[loader](tmp_path, variant == "odd_text")
    written = load()
    lines = path.read_bytes().split(b"\n")[:-1]
    if variant == "blank_lines":
        lines = [b"", *lines[:1], b" \t", b"\r", *lines[1:], b"\x0c"]
    if variant == "crlf":
        lines = [line + b"\r" for line in lines]
    if variant == "leading_space":
        lines = [b" " + line for line in lines]
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    assert load() == written


@pytest.mark.parametrize("blank", ["\x85", " ", "\xa0", "\x1c"])
def test_unicode_white_space_line_is_not_blank(tmp_path, monkeypatch, blank):
    path, load, error = records_file(tmp_path, False)
    path.write_bytes(path.read_bytes() + blank.encode("utf-8") + b"\n")
    expected = line_by_line(monkeypatch, load)
    assert expected.startswith(f"{path}:9: ")
    with pytest.raises(error) as caught:
        load()
    assert str(caught.value) == expected


def test_lines_that_rejoin_into_objects_are_refused(tmp_path, monkeypatch):
    # joined by commas into one array these read as two objects; the lines
    # themselves are not objects
    path, load, error = records_file(tmp_path, False)
    path.write_bytes(b'{"a":[{}\n{}]},{"b":3}\n')
    expected = line_by_line(monkeypatch, load)
    assert expected.startswith(f"{path}:1: ")
    with pytest.raises(error) as caught:
        load()
    assert str(caught.value) == expected


@pytest.mark.parametrize("line", [b"[1]", b'"text"', b"3", b"null"])
def test_non_object_refused_by_a_build_that_takes_anything(tmp_path, line):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a":1}\n' + line + b"\n")
    with pytest.raises(ValueError, match=rf"^{path}:2: expected a JSON object, got "):
        _config.read_lines(path, lambda record: record, ValueError)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_last_line_without_a_newline_loads_in_one_pass(tmp_path, monkeypatch, loader):
    path, load, _ = LOADERS[loader](tmp_path, False)
    written = load()
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))

    def refuse(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(_config, "decode_json", refuse)
    assert load() == written
