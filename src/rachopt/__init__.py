"""Two-priority random-access channel analysis and tuning toolkit."""

from .model import AccessProbabilityPair, NetworkConfig, ThroughputPair
from .exact import (
    enumerate_patterns,
    pattern_probability,
    scaling_reference,
    slot_success_pmf,
    throughput_by_pattern_sum,
    throughput_closed_form,
)
from .actionspace import (
    ActionSpace,
    GridSpec,
    build_compact,
    full_space_size,
    generate_discretized,
    load_compact,
    save_compact,
)
from .baselines import acb_admission, acb_throughput
# The function simulate is not re-exported: here the name means its module.
from .simulate import SimTrace, empirical_throughput, load_trace, save_trace, sim_throughput
from .optimize import OptResult, SolverOptions, solve, structural_unconstrained
from .mab import (
    MabConfig,
    MabResult,
    estimate_load,
    mae_trace,
    run,
    run_nonstationary,
)
from .bench import (
    ExperimentSpec,
    TableReport,
    load_experiment,
    published_pair,
    reproduce,
    run_experiment,
)

__version__ = "0.1.0"
