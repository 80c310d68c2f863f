"""The enriched pipeline end to end: tune an aggression artifact and a
cyberbullying artifact on the toy network, then run the two-stage flow
against plain zero-shot and compare macro-F1.

Run from the repository root:  python demos/05_epp_end_to_end.py
"""

import tempfile
from pathlib import Path

from cbdetect import (
    BackendDescriptor,
    BackendKind,
    ExperimentSpec,
    Method,
    Split,
    SplitSpec,
    Task,
    build_confusion,
    compute_metrics,
    label_space,
    load_template,
    render_enriched,
    run_epp,
    split_corpus,
    synth_fixture,
)
from cbdetect.tuning import SftTrainer, ToyNetConfig, ToyTransformer, TuneConfig, save_checkpoint

out = Path(tempfile.mkdtemp(prefix="cbdetect-demo-"))

# --- 1. tune the two stage artifacts independently --------------------------
# The aggression artifact is tuned once and reused as-is by the pipeline;
# enrichment never retrains it.
tune = TuneConfig(rank_r=8, learning_rate=1e-2, batch_size=8, epochs=30, seed=2)
checkpoints = {}
for task, seed in ((Task.AGGRESSION, 4), (Task.CYBERBULLYING, 5)):
    corpus = synth_fixture(30, task, seed=seed)
    splits = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=9))
    base = ToyTransformer(ToyNetConfig(seed=0))
    trainer = SftTrainer(base, task, tune)
    records = trainer.train(splits[Split.TRAIN])
    checkpoints[task] = save_checkpoint(
        out / f"{task.value}.npz", base.config, tune,
        {task: trainer.adapters}, {task: trainer.head},
    )
    print(f"tuned {task.value}: {len(records)} steps, final loss {records[-1]['loss']:.4f}")

# --- 2. wire both artifacts into the pipeline --------------------------------
def toy_backend(task: Task) -> BackendDescriptor:
    return BackendDescriptor(
        backend_id=f"toy-{task.value}",
        kind=BackendKind.TOY_CHECKPOINT,
        model_name="toy-net",
        checkpoint_path=str(checkpoints[task]),
    )

eval_posts = split_corpus(
    synth_fixture(30, Task.CYBERBULLYING, seed=5), SplitSpec(0.8, 0.1, 0.1, seed=9)
)[Split.TEST]

spec = ExperimentSpec(
    method=Method.EPP,
    task=Task.CYBERBULLYING,
    backends=(toy_backend(Task.AGGRESSION), toy_backend(Task.CYBERBULLYING)),
)
result = run_epp(eval_posts, spec, out_dir=out / "runs")

print(f"\nenriched run {result.run_id}: {len(result.predictions)} predictions")
print(f"  run directory: {result.run_dir}")
report = compute_metrics(
    build_confusion(result.predictions, label_space(Task.CYBERBULLYING)),
    run_id=result.run_id,
)
print(f"  macro-F1 {report.macro_f1:.2f}, accuracy {report.accuracy:.2f}")

# every record carries the stage-1 cue that conditioned its prompt
print("\nstage-1 cues attached to the first three predictions:")
for prediction in result.predictions[:3]:
    print(
        f"  {prediction.post_id}: cue={prediction.aggression_annotation.display_name:<19} "
        f"predicted={prediction.predicted.display_name}"
    )

# The stage-2 prompt embeds the cue verbatim. These toys read only the post
# (their input_mode is "post_text"), so the audit log holds no prompt for
# them; render the first record's stage-2 prompt here to show the cue.
stage2 = next(e for e in result.audit if e["stage"] == "stage2")
print(f"\nstage-2 audit entry keys: {sorted(stage2)}")
print("the toy read the post, so the run rendered no prompt for it;")
first = result.predictions[0]
post = next(p for p in eval_posts if p.id == first.post_id)
prompt = render_enriched(
    post, first.aggression_annotation, load_template("enriched_v1", Task.CYBERBULLYING)
)
print(f"the stage-2 prompt of {first.post_id}, rendered here:")
print("  " + prompt.rendered_text.splitlines()[0])
