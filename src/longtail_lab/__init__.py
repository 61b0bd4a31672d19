"""Desk-scale laboratory for long-tail classification methods.

Implements parametric re-sampling, the class-balanced focal loss, balanced
group softmax heads, and a two-branch square-root sampling classifier on a
small deterministic model trained in a decoupled two-stage regime, with
binned-accuracy and macro-F1 evaluation.
"""

__version__ = "0.1.0"

from .data import (Dataset, SplitSpec, SyntheticSpec, compute_class_stats,
                   generate_synthetic, load_embeddings, save_embeddings, split_dataset)
from .experiment import (ExperimentConfig, RunManifest, config_from_dict,
                         default_config, emit_f1_delta, plan, run_experiment)
from .heads import (GroupLayout, bags_infer, bags_scores, bags_train_heads,
                    build_group_layout, ssb_aggregate)
from .losses import LossSpec, LossValue, batch_loss, softmax
from .metrics import EvalReport, compare_methods, evaluate, load_report, save_report
from .model import (Backbone, ClassifierHead, TrainedModel, load_model,
                    predict, save_model, train_stage1, train_stage2)
from .optim import OptimSpec, OptimState, lr_at, optimizer_step
from .sampling import (SamplerSpec, bags_filter_batch, make_epoch_stream,
                       make_sampler, sampling_weights)

__all__ = [
    "Backbone", "ClassifierHead", "Dataset", "EvalReport", "ExperimentConfig", "GroupLayout",
    "LossSpec", "LossValue", "OptimSpec", "OptimState", "RunManifest",
    "SamplerSpec", "SplitSpec", "SyntheticSpec", "TrainedModel",
    "bags_filter_batch", "bags_infer", "bags_scores", "bags_train_heads",
    "batch_loss", "build_group_layout", "compare_methods", "compute_class_stats",
    "config_from_dict", "default_config", "emit_f1_delta", "evaluate",
    "generate_synthetic", "load_embeddings", "load_model", "load_report", "lr_at",
    "make_epoch_stream", "make_sampler", "optimizer_step", "plan", "predict",
    "run_experiment", "sampling_weights", "save_embeddings", "save_model",
    "save_report", "softmax", "split_dataset", "ssb_aggregate", "train_stage1",
    "train_stage2",
]
