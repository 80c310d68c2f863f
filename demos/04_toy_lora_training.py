"""Adapter-tuning walkthrough on the toy verification network: attach
rank-8 factor pairs to frozen attention weights, tune one task, tune both
jointly, and checkpoint the result.

Run from the repository root:  python demos/04_toy_lora_training.py
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from cbdetect import Split, SplitSpec, Task, split_corpus, synth_fixture
from cbdetect.tuning import (
    MtlTrainer,
    SftTrainer,
    ToyNetConfig,
    ToyTransformer,
    TuneConfig,
    load_classifier,
    predict_logits,
    save_checkpoint,
)

out = Path(tempfile.mkdtemp(prefix="cbdetect-demo-"))

# --- 1. independent tuning on one task -------------------------------------
# Heads start at zero, so the first loss is exactly ln(3) for the three-way
# task. Only the adapter factors and the head ever receive updates; the
# base network stays bit-identical.
corpus = synth_fixture(30, Task.AGGRESSION, seed=4)
splits = split_corpus(corpus, SplitSpec(0.8, 0.1, 0.1, seed=9))
train, test = splits[Split.TRAIN], splits[Split.TEST]

base = ToyTransformer(ToyNetConfig(seed=0))
frozen = {k: v.copy() for k, v in base.params.items()}
config = TuneConfig(rank_r=8, learning_rate=1e-2, batch_size=8, epochs=30, seed=2)
trainer = SftTrainer(base, Task.AGGRESSION, config)

records = trainer.train(train)
print(f"single-task tuning: {len(records)} steps")
print(f"  step   1 loss {records[0]['loss']:.4f}   (ln 3 = {math.log(3):.4f})")
print(f"  step {records[-1]['step']:>3} loss {records[-1]['loss']:.4f}")

logits = predict_logits(trainer.base, trainer.adapters, trainer.head, [p.text for p in test])
accuracy = (logits.argmax(axis=1) == np.array([int(p.label) for p in test])).mean()
print(f"  held-out accuracy: {accuracy:.2f} over {len(test)} records")
print(f"  base frozen bit-exactly: "
      f"{all(np.array_equal(frozen[k], base.params[k]) for k in frozen)}")

for name in trainer.adapters.targets[:1]:
    delta = trainer.adapters.delta(name)
    rank = int((np.linalg.svd(delta, compute_uv=False) > 1e-10).sum())
    print(f"  effective update rank at {name}: {rank} (bound {config.rank_r})")

# --- 2. joint tuning on both tasks ------------------------------------------
# One optimizer step on the summed per-task losses; two task-tagged adapter
# sets and two heads all move, the base still never does.
cb_corpus = synth_fixture(30, Task.CYBERBULLYING, seed=5)
cb_splits = split_corpus(cb_corpus, SplitSpec(0.8, 0.1, 0.1, seed=9))

joint_base = ToyTransformer(ToyNetConfig(seed=0))
mtl = MtlTrainer(joint_base, TuneConfig(rank_r=8, learning_rate=1e-2, batch_size=8, epochs=4, seed=2))
mtl_records = mtl.train(train, cb_splits[Split.TRAIN])
first, last = mtl_records[0], mtl_records[-1]
print(f"\njoint tuning: {len(mtl_records)} steps")
print(f"  step   1 joint {first['joint_loss']:.4f}   (ln 3 + ln 4 = {math.log(3)+math.log(4):.4f})")
print(f"  step {last['step']:>3} joint {last['joint_loss']:.4f} "
      f"(agg {last['loss_aggression']:.4f}, cb {last['loss_cyberbullying']:.4f})")

# --- 3. checkpoints rebuild exactly ------------------------------------------
path = save_checkpoint(
    out / "aggression.npz", base.config, config,
    {Task.AGGRESSION: trainer.adapters}, {Task.AGGRESSION: trainer.head},
)
classifier = load_classifier(path)
sample = test[0]
print(f"\ncheckpoint {path.name} reloaded; "
      f"prediction for one held-out post: "
      f"{classifier.predict_batch([sample.text], Task.AGGRESSION)[0].display_name} "
      f"(gold {sample.label.display_name})")
