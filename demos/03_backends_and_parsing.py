"""Backend walkthrough: deterministic stubs, the response-parsing cascade,
and how a live endpoint would be declared.

Run from the repository root:  python demos/03_backends_and_parsing.py
"""

import dataclasses

from cbdetect import (
    BackendDescriptor,
    BackendKind,
    CyberbullyingLabel,
    ParseFailure,
    RawResponse,
    RetryPolicy,
    Task,
    class_name_stub,
    classify_batch,
    load_template,
    parse_label,
    render_zero_shot,
    synth_fixture,
)

# --- 1. the rule-based stub ------------------------------------------------
# classify_batch sends a list of prompts and returns one outcome per prompt,
# in order. Stub rules match against the descriptor's input_mode text: the
# post content by default. In "rendered_text" mode they scan the whole
# prompt, whose instructions enumerate every class name, so the first rule
# wins everywhere.
posts = synth_fixture(1, Task.CYBERBULLYING, seed=2)
stub = class_name_stub(Task.CYBERBULLYING)
whole_prompt = dataclasses.replace(stub, input_mode="rendered_text")
template = load_template("zero_shot_v1", Task.CYBERBULLYING)
prompts = [render_zero_shot(post, template) for post in posts]
print("stub responses on the synthetic fixture (post_text | rendered_text):")
for post, on_post, on_prompt in zip(
    posts, classify_batch(prompts, stub), classify_batch(prompts, whole_prompt)
):
    print(f"  gold={post.label.display_name:<17} "
          f"response={on_post.text!r:<19} | {on_prompt.text!r}")

# --- 2. the parsing cascade -------------------------------------------------
# 1) exact display name, 2) synonym table, 3) earliest display-name
# substring. Anything else is a ParseFailure the caller must decide about.
print("\nparsing cascade:")
samples = [
    "Religion",
    "I think this is not bullying at all.",
    "Could be Gender/Sexual or Ethnicity/Race, leaning to the first.",
    "beep boop 42",
]
for text in samples:
    raw = RawResponse(text=text, latency=0.0, backend_id="demo")
    try:
        parsed = parse_label(raw, CyberbullyingLabel)
        print(f"  {text!r:<62} -> {parsed.label.name} ({parsed.match_kind.value})")
    except ParseFailure:
        print(f"  {text!r:<62} -> ParseFailure")

# --- 3. a live endpoint declaration -----------------------------------------
# The address can live in config; credentials only ever come from the
# environment (CBDETECT_API_KEY), so manifests stay shareable. Requests are
# retried on transient failures per the policy, with a per-attempt log, and
# timeouts surface as a distinct error type.
live = BackendDescriptor(
    backend_id="prod-gemma",
    kind=BackendKind.LIVE_ENDPOINT,
    model_name="gemma-2-2b-it",
    endpoint_address="https://inference.example.com/v1/chat/completions",
    max_parallel_requests=4,
    timeout=30.0,
    retry_policy=RetryPolicy(max_attempts=3, backoff=(0.5, 1.0, 2.0)),
)
print("\nlive descriptor as it would appear in a run manifest:")
print(" ", live.to_dict())
