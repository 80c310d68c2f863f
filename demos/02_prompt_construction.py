"""Prompt construction walkthrough: zero-shot, few-shot, and the
aggression-enriched variant, all byte-deterministic.

Run from the repository root:  python demos/02_prompt_construction.py
"""

from cbdetect import (
    AggressionLabel,
    Task,
    load_template,
    render_enriched,
    render_few_shot,
    render_zero_shot,
    select_exemplars,
    synth_fixture,
)

posts = synth_fixture(4, Task.CYBERBULLYING, seed=11)
query = posts[0]

# --- zero-shot: instruction + enumerated classes + the post ---------------
zero = render_zero_shot(query, load_template("zero_shot_v1", Task.CYBERBULLYING))
print("=== zero-shot ===")
print(zero.rendered_text)

# --- few-shot: k exemplars per class, class-interleaved, query last --------
pool = synth_fixture(3, Task.CYBERBULLYING, seed=12)
exemplars = select_exemplars(pool, k=2, seed=0)
few = render_few_shot(query, load_template("few_shot_v1", Task.CYBERBULLYING), exemplars)
print("=== few-shot (k=2, 4 classes -> 8 exemplar lines) ===")
print(few.rendered_text)

# --- enriched: the predicted aggression cue leads the prompt ----------------
# Swapping the predicted label changes exactly the display-name span and
# nothing else; the post text is always embedded verbatim.
enriched_template = load_template("enriched_v1", Task.CYBERBULLYING)
print("=== enriched, one render per aggression cue ===")
for label in AggressionLabel:
    prompt = render_enriched(query, label, enriched_template)
    first_line = prompt.rendered_text.splitlines()[0]
    print(f"  [{label.name}] {first_line}")

print(f"\nenriched template: {enriched_template.template_id} v{enriched_template.version}")

again = render_enriched(query, AggressionLabel.OAG, enriched_template)
same = render_enriched(query, AggressionLabel.OAG, enriched_template)
print(f"\nbyte-identical on repeat: {again.rendered_text == same.rendered_text}")
