"""Cyclic block coordinate descent toolkit with an executable bound-check suite."""

from .blocks import BlockPartition, DiagonalMetric
from .regularizers import L1, Box, Regularizer, Zero, metric_prox
from .problems import (
    QuadraticFiniteSum,
    SigmoidClassification,
    StreamingClassification,
    StreamingQuadratic,
    estimate_sigma_sq,
    exact_coupling_matrices,
    exact_quadratic_metric,
    generate_classification,
    generate_quadratic,
    generate_streaming_classification,
    generate_streaming_quadratic,
)
from .sampling import (
    RngBundle,
    bernoulli_switch,
    draw_minibatch,
    subset_variance_identity,
    variance_factor,
)
from .smoothness import (
    SmoothnessProfile,
    admissible_eta,
    finite_sum_schedule,
    masked_smoothness_constants,
    spectral_norm,
    step_size,
)
from .algorithms import (
    RunConfig,
    RunTrace,
    page_run,
    pccd_run,
    prox_gd_run,
    vrccd_run,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .harness import run_experiment, sweep

__version__ = "0.1.0"
