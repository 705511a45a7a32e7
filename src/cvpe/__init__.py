"""Cross-variate patch embedding for channel-independent forecasters.

The package trains a small patch-based transformer forecaster in float64 on
a hand-rolled reverse-mode engine, and compares two patch embeddings under a
paired protocol: a vanilla per-channel projection, and the same projection
followed by a router-attention block that mixes information across variates
at each patch position with cost linear in the channel count.
"""

from .autodiff import NumericError, Tensor, no_grad, parameter
from .config import ConfigError, RunConfig, load_config, parse_config
from .data import (
    ConstantChannelWarning,
    CsvFormatError,
    MultivariateSeries,
    SplitSpec,
    SyntheticSpec,
    UndefinedCorrelationError,
    chronological_split,
    generate_synthetic,
    load_csv,
    pearson,
    select_top_k,
)
from .embedding import (
    AttentionConfig,
    CvpeParams,
    RouterBank,
    ScoreCounter,
    add_positional,
    cvpe_forward,
    multi_head_attention,
    router_attention,
)
from .evaluation import (
    ExperimentReport,
    mae,
    mse,
    run_experiment,
    write_experiment,
)
from .model import (
    BackboneConfig,
    ModelParams,
    PrototypeBank,
    ReprogramParams,
    backbone_forward,
    forecast_batch,
    load_checkpoint,
    reprogram,
    save_checkpoint,
)
from .preprocess import (
    PatchConfig,
    RevinState,
    patch,
    project_patches,
    revin_denormalize,
    revin_normalize,
)
from .train import (
    AdamState,
    GradCheckReport,
    MetricPair,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    adam_step,
    backward,
    evaluate,
    grad_check,
    make_windows,
    mse_loss,
    train_loop,
)

__version__ = "0.1.0"
