"""epsakit: pyramid squeeze attention and the EPSANet backbone family.

NumPy-only implementation with explicit backward passes, exact
parameter/FLOP accounting, finite-difference gradient verification, and a
desk-scale training harness.
"""

from .tensor import NonFiniteError, Tensor, random_uniform
from .ops import (
    BackwardReusedError,
    BatchNormParams,
    Conv2dParams,
    GradPair,
    LinearParams,
    batch_norm,
    conv2d,
    global_avg_pool,
    linear,
    max_pool,
    max_relative_error,
    relu,
    sigmoid,
    softmax_over_scales,
)
from .psa import (
    PsaConfig,
    PsaParams,
    SeWeightParams,
    kernel_to_group,
    psa_forward,
    psa_with_grad,
    se_weight,
    spc_forward,
)
from .models import (
    BlockSpec,
    Model,
    ModelSpec,
    StageSpec,
    MODEL_NAMES,
    ablation_configs,
    build_from_config,
    build_model,
    build_toy_epsanet,
    describe,
    forward,
)
from .complexity import ComplexityReport, analyze, compare, count_flops, count_params
from .training import (
    ToyDataset,
    TrainConfig,
    TrainingDiverged,
    label_smoothed_ce,
    lr_at,
    make_toy_dataset,
    sgd_step,
    train,
)

__version__ = "0.1.0"
