"""Desk-scale numerical verification of TAP upper bounds for mixed p-spin models."""

from .covariance import CovarianceSeries, RecenteredSeries
from .entropy import (
    binary_entropy,
    general_entropy_upper,
    halfspace_log_mass,
    ising_entropy,
    ising_uniform,
    lambda_min_entropy,
    point_cloud,
    sphere_uniform,
)
from .errors import (
    ConfigError,
    DomainError,
    InvariantViolationError,
    ResourceBudgetError,
    UnsupportedOperationError,
)
from .hamiltonian import (
    DisorderSample,
    ExternalField,
    MixedModel,
    energy,
    field_linear,
    field_none,
    field_quadratic_spike,
    gradient,
    recentered_energy,
    sample_disorder,
)
from .partition import (
    PartitionEstimate,
    log_partition_exact_ising,
    log_partition_mc_sphere,
    log_partition_mc_sphere_many,
    restricted_log_partition,
    slice_measures,
)
from .tap import TapProblem, maximize_tap, tap_energy, tap_gradient

__version__ = "0.1.0"
