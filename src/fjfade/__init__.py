"""Friedkin-Johnsen opinion dynamics with a vanishing competition parameter."""

from .config import (
    ExperimentConfig,
    GraphSpec,
    ScheduleSpec,
    load_config,
    parse_config,
    serialize_config,
)
from .experiment import (
    ExperimentResult,
    RunResult,
    VerifyResult,
    run_experiment,
    tstar_report,
    verify_bounds,
    write_outputs,
)
from .bounds import (
    empirical_ratio,
    gap,
    lower_bound,
    lower_bound_series,
    upper_bound,
    worst_case_initial_condition,
)
from .deviation import DeviationReport, deviation_experiment
from .dynamics import (
    Trajectory,
    TransitionCalculator,
    TransitionDecomposition,
    iterate,
    modal_distances,
    simulate,
)
from .errors import (
    AsymmetricWeights,
    ConfigError,
    ConsensusInitialCondition,
    ConvergenceFailure,
    DimensionMismatch,
    DisconnectedNetwork,
    FjfadeError,
    InvalidParameter,
    NonUniformUnsupported,
    NonVanishingSchedule,
    NoStrictDrop,
)
from .network import (
    Network,
    WeightedNetwork,
    complete_graph,
    generate_erdos_renyi,
    metropolis_weights,
    path_graph,
    row_stochastic_weights,
    star_graph,
)
from .schedules import (
    CompetitionSchedule,
    InfiniteProducts,
    NonUniformSchedule,
    ScheduleKind,
    constant,
    custom,
    exponential,
    hyperbolic,
    infinite_products,
    lambda_product,
    make_adversarial_nonuniform,
    make_schedule,
    partition_of_unity,
    zero_consensus,
)

__version__ = "0.1.0"
