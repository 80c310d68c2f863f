"""Model inference behind one classification interface.

Three backend kinds share the batch-first ``classify_batch`` entry point
(``classify`` is its one-prompt form):

* ``stub`` — a deterministic rule table, for desk-scale end-to-end tests.
  Rules match against the descriptor's ``input_mode`` text, the post
  content by default (prompts enumerate every class name in their
  instructions, so scanning the whole prompt would be ambiguous).
* ``live_endpoint`` — a chat-completion-style HTTP endpoint with bounded
  retries of transient failures, fanned out over up to
  ``max_parallel_requests`` threads. Credentials come from the
  environment, never from config files.
* ``toy_checkpoint`` — a trained toy-network checkpoint evaluated by head
  argmax on the post text, the form it was tuned on, so tuned-model
  experiments run without accelerators. The checkpoint is read once per
  batch and each task's posts run as padded multi-row forward passes.

Free-text responses are mapped into a label space by a three-stage cascade:
exact display-name match, synonym-table match, earliest display-name
substring. Unparseable responses raise ``ParseFailure``; callers decide the
fallback policy.
"""

from __future__ import annotations

import enum
import functools
import http.client
import json
import operator
import os
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Mapping, Sequence

from ._config import from_fields
from .labels import _SPACE_TASKS, Label, Task, label_space, labels_in_order
from .prompting import Prompt

ENDPOINT_ENV_VAR = "CBDETECT_ENDPOINT"
API_KEY_ENV_VAR = "CBDETECT_API_KEY"


class BackendError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    number: int
    error: str
    elapsed: float


class TransportError(BackendError):
    """All retry attempts failed; carries the per-attempt log."""

    def __init__(self, message: str, attempts: tuple[AttemptRecord, ...]):
        super().__init__(message)
        self.attempts = attempts


class BackendTimeout(TransportError):
    """Retries exhausted and the final failure was a timeout."""


class HTTPStatusError(Exception):
    """The endpoint answered with an error status (400 or more)."""

    def __init__(self, status: int, headers: Mapping[str, str], body: str):
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status
        self.headers = headers


class ParseFailure(BackendError):
    """Model output maps to no label in the target label space."""

    def __init__(self, raw_text: str, label_space_name: str):
        super().__init__(f"response maps to no {label_space_name} label: {raw_text!r}")
        self.raw_text = raw_text


class BackendKind(enum.Enum):
    LIVE_ENDPOINT = "live_endpoint"
    STUB = "stub"
    TOY_CHECKPOINT = "toy_checkpoint"


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise BackendError("max_attempts must be >= 1")

    def delay_before(self, attempt_number: int) -> float:
        # attempt_number is 1-based; no delay before the first attempt
        if attempt_number <= 1 or not self.backoff:
            return 0.0
        return self.backoff[min(attempt_number - 2, len(self.backoff) - 1)]


# The Prompt text each input mode hands a backend.
_INPUT_TEXT = {
    "post_text": operator.attrgetter("post_text"),
    "rendered_text": operator.attrgetter("rendered_text"),
}

# The descriptor fields only some kinds hold; every other field is every kind's.
_KIND_FIELDS = {
    BackendKind.LIVE_ENDPOINT: ("endpoint_address",),
    BackendKind.STUB: ("stub_rules", "default_response", "fail_patterns", "input_mode"),
    BackendKind.TOY_CHECKPOINT: ("checkpoint_path", "input_mode"),
}


def _foreign_fields(kind: BackendKind) -> set[str]:
    """The fields only kinds other than ``kind`` hold."""
    return {name for names in _KIND_FIELDS.values() for name in names} - set(_KIND_FIELDS[kind])


@dataclass(frozen=True)
class BackendDescriptor:
    backend_id: str
    kind: BackendKind
    model_name: str = ""
    endpoint_address: str = ""
    max_parallel_requests: int = 1
    timeout: float = 30.0
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    temperature: float = 0.0
    max_output_tokens: int = 64
    # stub-only
    stub_rules: tuple[tuple[str, str], ...] = ()
    default_response: str = ""
    fail_patterns: tuple[str, ...] = ()
    # toy_checkpoint-only
    checkpoint_path: str = ""
    # The Prompt text the model is given: "post_text" or "rendered_text".
    # A live endpoint always receives rendered_text: the field is set so
    # for it, and not serialized. A toy reads only post_text.
    input_mode: str = "post_text"

    def __post_init__(self) -> None:
        if self.max_parallel_requests < 1:
            raise BackendError("max_parallel_requests must be >= 1")
        if not self.timeout > 0:
            raise BackendError("timeout must be > 0")
        if self.kind is BackendKind.STUB and not self.stub_rules:
            raise BackendError("stub backend needs a non-empty rule table")
        if self.input_mode not in _INPUT_TEXT:
            raise BackendError(f"bad input_mode: {self.input_mode!r}")
        if self.kind is BackendKind.TOY_CHECKPOINT and self.input_mode != "post_text":
            raise BackendError(
                f"a toy checkpoint reads the post text it was tuned on; "
                f"input_mode {self.input_mode!r} is not served"
            )
        if self.kind is BackendKind.LIVE_ENDPOINT:
            object.__setattr__(self, "input_mode", "rendered_text")

    def to_dict(self) -> dict:
        """The fields as JSON values, the kind as its value and tuples as
        arrays, without the fields only other kinds hold."""
        data = json.loads(json.dumps(asdict(self), default=operator.attrgetter("value")))
        foreign = _foreign_fields(self.kind)
        return {name: value for name, value in data.items() if name not in foreign}

    @classmethod
    def from_dict(cls, data: Mapping) -> "BackendDescriptor":
        if not isinstance(data, Mapping):
            raise BackendError(f"expected a JSON object, got {type(data).__name__}")
        kind = BackendKind(data["kind"])
        foreign = sorted(_foreign_fields(kind) & set(data))
        if foreign:
            raise BackendError(f"{foreign[0]}: a {kind.value} backend holds no such field")
        return from_fields(
            cls,
            data,
            kind=kind,
            retry_policy=from_fields(RetryPolicy, data.get("retry_policy", {})),
            stub_rules=_stub_rules(data.get("stub_rules", [])),
        )


def _stub_rules(value) -> tuple[tuple[str, str], ...]:
    """A JSON ``stub_rules`` value: an array of rules, each an array of two
    strings, pattern then response."""
    if type(value) is list and all(
        type(rule) is list and len(rule) == 2 and type(rule[0]) is type(rule[1]) is str
        for rule in value
    ):
        return tuple(map(tuple, value))
    raise ValueError(
        f"stub_rules: expected an array of [pattern, response] string pairs, got {value!r:.80}"
    )


@dataclass(frozen=True, slots=True)
class RawResponse:
    text: str
    latency: float
    backend_id: str
    truncated: bool = False


class MatchKind(enum.Enum):
    EXACT = "exact"
    SYNONYM = "synonym"
    SUBSTRING_FIRST = "substring_first"


@dataclass(frozen=True, slots=True)
class ParsedLabel:
    label: Label
    match_kind: MatchKind


def make_stub(
    rule_table: Sequence[tuple[str, str]],
    backend_id: str = "stub",
    default_response: str = "",
    fail_patterns: Sequence[str] = (),
) -> BackendDescriptor:
    """Build a deterministic rule-based backend.

    Rules are priority-ordered: the first pattern found (case-insensitive
    substring) in the descriptor's ``input_mode`` text (the post text by
    default) wins. An empty pattern matches anything.
    """
    return BackendDescriptor(
        backend_id=backend_id,
        kind=BackendKind.STUB,
        model_name="rule-stub",
        stub_rules=tuple(rule_table),
        default_response=default_response,
        fail_patterns=tuple(fail_patterns),
    )


def class_name_stub(task: Task, backend_id: str = "class-name-stub") -> BackendDescriptor:
    """Stub whose rules map each embedded class display name to itself."""
    rules = [(lab.display_name, lab.display_name) for lab in labels_in_order(task)]
    return make_stub(rules, backend_id=backend_id)


def constant_stub(response: str, backend_id: str = "constant-stub") -> BackendDescriptor:
    """Stub answering every prompt with the same response."""
    return make_stub([("", response)], backend_id=backend_id)


def classify_batch(
    prompts: Sequence[Prompt], descriptor: BackendDescriptor
) -> list[RawResponse | TransportError]:
    """Send prompts to a backend; one outcome per prompt, in input order.

    A per-record transport failure is returned in its slot, never raised,
    so it cannot disturb neighbouring records. Configuration errors raise:
    ``BackendError`` for a missing endpoint address, ``TuningError`` for a
    missing or unreadable checkpoint.
    """
    if not prompts:
        return []
    text_of = _INPUT_TEXT[descriptor.input_mode]
    if descriptor.kind is BackendKind.STUB:
        fails = tuple((pattern.lower(), pattern) for pattern in descriptor.fail_patterns)
        rules = tuple(
            (pattern.lower(), RawResponse(response, 0.0, descriptor.backend_id))
            for pattern, response in descriptor.stub_rules
        )
        default = RawResponse(descriptor.default_response, 0.0, descriptor.backend_id)
        return [_classify_stub(text_of(p), fails, rules, default) for p in prompts]
    if descriptor.kind is BackendKind.TOY_CHECKPOINT:
        return _classify_toy(prompts, text_of, descriptor)
    return _classify_live(prompts, text_of, descriptor)


def classify(prompt: Prompt, descriptor: BackendDescriptor) -> RawResponse:
    """Send one prompt to a backend; a transport failure is raised."""
    (outcome,) = classify_batch([prompt], descriptor)
    if isinstance(outcome, TransportError):
        raise outcome
    return outcome


def _classify_stub(
    text: str, fail_patterns: tuple, rules: tuple, default: RawResponse
) -> RawResponse | TransportError:
    """The stub's outcome for ``text``. Built once per batch: the fail
    patterns as (lower-cased, original) pairs, the rules as (lower-cased
    pattern, answer) pairs, and the default answer; records that get the
    same answer share one ``RawResponse``. An injected failure is returned,
    a new ``TransportError`` per record."""
    lowered = text.lower()
    for pattern, original in fail_patterns:
        if pattern in lowered:
            attempt = AttemptRecord(number=1, error=f"injected failure on {original!r}", elapsed=0.0)
            return TransportError("stub injected transport failure", (attempt,))
    for pattern, response in rules:
        if pattern in lowered:
            return response
    return default


def _classify_toy(
    prompts: Sequence[Prompt], text_of, descriptor: BackendDescriptor
) -> list[RawResponse]:
    """Read the checkpoint, then one ``predict_batch`` per task.

    The checkpoint is read on every call, never cached, so a file rewritten
    at the same path is always served fresh. A record's latency is its
    task group's prediction time shared evenly over the group's records,
    so a group's records with one predicted label share one ``RawResponse``.
    """
    from .tuning import checkpoint as toy_checkpoint

    classifier = toy_checkpoint.load_classifier(descriptor.checkpoint_path)
    rows_by_task: dict[Task, list[int]] = {}
    for row, prompt in enumerate(prompts):
        rows_by_task.setdefault(_task_of_space(prompt.label_space), []).append(row)

    responses: dict[int, RawResponse] = {}
    for task, rows in rows_by_task.items():
        texts = [text_of(prompts[row]) for row in rows]
        started = time.perf_counter()
        labels = classifier.predict_batch(texts, task)
        latency = (time.perf_counter() - started) / len(rows)
        answers = {
            label: RawResponse(label.display_name, latency, descriptor.backend_id)
            for label in set(labels)
        }
        for row, label in zip(rows, labels):
            responses[row] = answers[label]
    return [responses[row] for row in range(len(prompts))]


def _post_json(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """Single HTTP POST of ``payload`` as JSON on a fresh connection;
    swapped out by tests via monkeypatching.

    urllib's default opener honours the ``*_PROXY`` and ``NO_PROXY``
    variables and verifies TLS certificates. An error status raises
    ``HTTPStatusError`` with its ``status`` and ``headers``; a body that is
    not JSON raises ``ValueError``; the network fails with ``OSError``
    (urllib wraps a connect failure in a ``URLError``) or
    ``http.client.HTTPException``.
    """
    request = urllib.request.Request(
        url, json.dumps(payload).encode("utf-8"), headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            text = exc.read().decode("utf-8", "replace")
        raise HTTPStatusError(exc.code, exc.headers, text) from None
    return json.loads(body)


# What _post_json raises for one failed attempt.
_ATTEMPT_ERRORS = (HTTPStatusError, OSError, http.client.HTTPException, ValueError)


def _retryable(exc: Exception) -> bool:
    """Timeouts, connection errors, 408, 429 and 5xx may succeed on retry;
    other statuses and a body that is not JSON will not."""
    if isinstance(exc, HTTPStatusError):
        return exc.status in (408, 429) or exc.status >= 500
    return isinstance(exc, (OSError, http.client.HTTPException))


def _timed_out(exc: Exception) -> bool:
    """A read timeout raises ``TimeoutError``; urllib wraps a connect
    timeout in a ``URLError`` whose reason is one."""
    return isinstance(exc, TimeoutError) or (
        isinstance(exc, urllib.error.URLError) and isinstance(exc.reason, TimeoutError)
    )


def _retry_after(exc: Exception, cap: float) -> float:
    """The wait a 429 or 503 response asks for in its ``Retry-After``
    header, capped at ``cap``; 0 when there is none. Only the delta-seconds
    form counts: an HTTP-date is ignored."""
    if not isinstance(exc, HTTPStatusError) or exc.status not in (429, 503):
        return 0.0
    value = exc.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0.0
    return min(float(value), cap)


def _classify_live(
    prompts: Sequence[Prompt], text_of, descriptor: BackendDescriptor
) -> list[RawResponse | TransportError]:
    """Fan the prompts out over up to ``max_parallel_requests`` threads;
    ``map`` yields in submission order, so outcomes keep input order."""
    url = descriptor.endpoint_address or os.environ.get(ENDPOINT_ENV_VAR, "")
    if not url:
        raise BackendError(
            f"no endpoint address configured (set descriptor.endpoint_address "
            f"or the {ENDPOINT_ENV_VAR} environment variable)"
        )
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV_VAR, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    def one(prompt: Prompt) -> RawResponse | TransportError:
        try:
            return _send_live(url, headers, text_of(prompt), descriptor)
        except TransportError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=min(descriptor.max_parallel_requests, len(prompts))) as pool:
        return list(pool.map(one, prompts))


def _send_live(url: str, headers: dict, text: str, descriptor: BackendDescriptor) -> RawResponse:
    """One text with bounded retries; non-retryable failures stop at once."""
    payload = {
        "model": descriptor.model_name,
        "messages": [{"role": "user", "content": text}],
        "temperature": descriptor.temperature,
        "max_tokens": descriptor.max_output_tokens,
    }

    attempts: list[AttemptRecord] = []
    policy = descriptor.retry_policy
    last_was_timeout = False
    server_wait = 0.0  # the last failure's Retry-After: a floor on the next delay
    for number in range(1, policy.max_attempts + 1):
        delay = max(policy.delay_before(number), server_wait)
        if delay:
            time.sleep(delay)
        started = time.perf_counter()
        try:
            body = _post_json(url, payload, headers, descriptor.timeout)
        except _ATTEMPT_ERRORS as exc:
            last_was_timeout = _timed_out(exc)
            error = f"timeout: {exc}" if last_was_timeout else str(exc)
            attempts.append(
                AttemptRecord(number=number, error=error, elapsed=time.perf_counter() - started)
            )
            if not _retryable(exc):
                raise TransportError(
                    f"backend {descriptor.backend_id!r} failed on a non-retryable error: {error}",
                    tuple(attempts),
                ) from None
            server_wait = _retry_after(exc, descriptor.timeout)
            continue
        elapsed = time.perf_counter() - started
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError):
            error = f"malformed endpoint response: {json.dumps(body)[:200]}"
            attempts.append(AttemptRecord(number=number, error=error, elapsed=elapsed))
            raise TransportError(error, tuple(attempts)) from None
        truncated = choice.get("finish_reason") == "length"
        return RawResponse(
            text=text, latency=elapsed, backend_id=descriptor.backend_id, truncated=truncated
        )

    message = f"backend {descriptor.backend_id!r} failed after {policy.max_attempts} attempts"
    if last_was_timeout:
        raise BackendTimeout(message, tuple(attempts))
    raise TransportError(message, tuple(attempts))


def load_synonym_table(task: Task) -> dict[str, Label]:
    """Phrase -> label map from the shipped synonyms config."""
    ref = resources.files("cbdetect.data").joinpath("synonyms.json")
    data = json.loads(ref.read_text(encoding="utf-8"))
    space = label_space(task)
    table: dict[str, Label] = {}
    for member_name, phrases in data[task.value].items():
        lab = space[member_name]
        for phrase in phrases:
            table[phrase] = lab
    return table


def _task_of_space(space: type) -> Task:
    try:
        return _SPACE_TASKS[space]
    except KeyError:
        raise BackendError(f"not a task label space: {space.__name__}") from None


@functools.lru_cache(maxsize=16)
def _display_index(space: type) -> dict[str, Label]:
    """Lower-cased display name -> label; on a clash the earlier member wins."""
    return {lab.display_name.lower(): lab for lab in reversed(space)}


@functools.lru_cache(maxsize=None)
def _synonym_matcher(space: type) -> tuple[re.Pattern, tuple[Label, ...]]:
    """The shipped synonym table of the space's task as one case-insensitive
    word-bounded alternation, and each group's label; built once per label
    space (two entries at most), keyed by the space, as a Task key hashes
    in Python.

    At the leftmost position where any phrase matches, the regex takes
    the first alternative that fits; ordering the phrases by (-length,
    label code) makes that the longest phrase, then the earlier label."""
    table = load_synonym_table(_task_of_space(space))
    ordered = sorted(table.items(), key=lambda item: (-len(item[0]), int(item[1])))
    alternation = "|".join(f"({re.escape(phrase)})" for phrase, _ in ordered) or "(?!)"
    pattern = re.compile(rf"\b(?:{alternation})\b", re.IGNORECASE)
    return pattern, tuple(lab for _, lab in ordered)


def parse_label(raw: RawResponse, space: type) -> ParsedLabel:
    """Map a free-text response into a label space.

    Cascade, first hit wins:
      1. whole trimmed response equals a display name (case-insensitive);
      2. a phrase of the task's shipped synonym table occurs in the
         response (word-boundary, case-insensitive; earliest occurrence
         wins, ties to the longest phrase, then to the earlier label);
      3. earliest display-name occurrence as a substring.
    """
    names = _display_index(space)
    if not names:
        raise BackendError("empty label space")
    text = raw.text
    exact = names.get(text.strip().lower())
    if exact is not None:
        return ParsedLabel(label=exact, match_kind=MatchKind.EXACT)

    pattern, group_labels = _synonym_matcher(space)
    match = pattern.search(text)
    if match:
        # by group index: a case-folded match text need not equal its phrase
        label = group_labels[match.lastindex - 1]
        return ParsedLabel(label=label, match_kind=MatchKind.SYNONYM)

    lowered = text.lower()
    hits = [(lowered.find(name), int(lab), lab) for name, lab in names.items() if name in lowered]
    if hits:
        return ParsedLabel(label=min(hits)[2], match_kind=MatchKind.SUBSTRING_FIRST)

    raise ParseFailure(text, space.__name__)
