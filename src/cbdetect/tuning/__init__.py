"""Parameter-efficient tuning contracts on a desk-scale network."""

from .checkpoint import ToyClassifier, load_classifier, save_checkpoint
from .lora import (
    AdapterState,
    TuneConfig,
    TuningError,
    resolve_targets,
)
from .network import (
    ToyNetConfig,
    ToyTokenizer,
    ToyTransformer,
    last_unmasked_index,
    pool_embedding,
)
from .training import (
    Adam,
    MtlTrainer,
    SftTrainer,
    TaskHead,
    cross_entropy,
    mtl_joint_loss,
    pairs_from_posts,
    predict_logits,
    write_metrics_log,
)

__all__ = [
    "Adam",
    "AdapterState",
    "MtlTrainer",
    "SftTrainer",
    "TaskHead",
    "ToyClassifier",
    "ToyNetConfig",
    "ToyTokenizer",
    "ToyTransformer",
    "TuneConfig",
    "TuningError",
    "cross_entropy",
    "last_unmasked_index",
    "load_classifier",
    "mtl_joint_loss",
    "pairs_from_posts",
    "pool_embedding",
    "predict_logits",
    "resolve_targets",
    "save_checkpoint",
    "write_metrics_log",
]
