"""Stage-scheduled knowledge distillation on a condensed, value-ranked
knowledge set: online per-sample value estimation, adaptive knowledge
summarization, and cost accounting around a plain teacher-student trainer."""

from .data import Dataset, gen_gaussian_mixture, load_csv
from .emdriver import (
    CostReport,
    DistillConfig,
    DistillationError,
    RunRecord,
    ScheduleConfig,
    init_student,
    relative_cost,
    run,
    run_with_fixed_labels,
    tau_schedule,
)
from .evaluation import accuracy, hamming_distance, ratio_sweep, reuse_run
from .knowledge import (
    CondensedSet,
    KnowledgeStore,
    LabelStreamError,
    ValueLabeling,
    build_store,
    export_labels,
    import_labels,
    load_labels,
    save_labels,
)
from .nn import MlpModel, TrainConfig, init_mlp, softmax, train_teacher
from .ogve import OgveConfig, ValueState, rank
from .vaks import augment, epsilon_schedule

__version__ = "0.1.0"
