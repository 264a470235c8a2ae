"""Gaussian-process temporal data fusion (GPTDF).

A library for zero-delay sequential online prediction at edge nodes: each
historical node distills its archive into a three-parameter temporal feature,
a cloud registry relays those features, and a cold-starting target node fuses
the resulting GP experts with dynamically averaged weights.
"""

from .errors import (
    ConfigError,
    DataError,
    GptdfError,
    NumericalError,
    PartialFailure,
    TransportError,
)
from .gp_core import (
    FitConfig,
    FitWarning,
    GPModel,
    Matern52,
    PredictiveDistribution,
    TemporalFeature,
    TimeSeries,
    build_covariance,
    eval_kernel,
    fit_hyperparameters,
    log_marginal_likelihood,
    predict,
    sample_prior,
)
from .data_io import (
    generate_synthetic,
    load_csv,
    normalize,
    prepare_stream,
)
from .fusion import (
    EnsembleState,
    FusedPrediction,
    StepRecord,
    ensemble_from_features,
    fuse_predictions,
    fused_prediction,
    gptdf_step,
    predictive_weights,
    run_stream,
    update_weights,
    write_prediction_log,
)
from .evaluation import (
    BenchmarkConfig,
    BenchmarkMethod,
    delay,
    mae,
    mse,
    nll,
    run_baseline_gp,
    run_benchmark,
)
from .edge_sim import (
    CloudRegistry,
    FeatureQuery,
    FeatureRecord,
    InProcessChannel,
    Scenario,
    SocketChannel,
    run_edge_node,
    run_simulation,
    serve_registry,
)

__version__ = "0.1.0"
