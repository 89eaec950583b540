"""Age-of-information analysis for single-source preemptive networks.

Four mutually-verifying routes to the stationary age law at every node (and
node subset): exact subset recursion, its phase-type form (MGF values,
CDF values by uniformization, Chernoff bounds), Monte Carlo shortest-path
sampling, and discrete-event simulation of the actual preemptive dynamics.
"""

from .closed_forms import (
    TriangleRates,
    serial_cascade_age,
    triangle_age,
    triangle_cascade_age,
    triangle_min_tail,
)
from .exact import (
    MgfQuery,
    TailQuery,
    average_age,
    cdf_grid,
    chain_average_ages,
    chernoff_bound,
    mgf,
)
from .network import (
    AugmentedNetwork,
    EdgeSpec,
    NetworkSpec,
    parse_network,
    validate_ssn,
)
from .sampler import (
    Functional,
    RngPolicy,
    SampleBatch,
    empirical_cdf,
    estimate,
    sample_ages,
    sample_subset,
)
from .simulator import (
    SimConfig,
    SimResult,
    simulate,
    subset_time_average,
    time_average,
    time_average_stderr,
    violation_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedNetwork",
    "EdgeSpec",
    "Functional",
    "MgfQuery",
    "NetworkSpec",
    "RngPolicy",
    "SampleBatch",
    "SimConfig",
    "SimResult",
    "TailQuery",
    "TriangleRates",
    "average_age",
    "cdf_grid",
    "chain_average_ages",
    "chernoff_bound",
    "empirical_cdf",
    "estimate",
    "mgf",
    "parse_network",
    "sample_ages",
    "sample_subset",
    "serial_cascade_age",
    "simulate",
    "subset_time_average",
    "time_average",
    "time_average_stderr",
    "triangle_age",
    "triangle_cascade_age",
    "triangle_min_tail",
    "validate_ssn",
    "violation_fraction",
]
