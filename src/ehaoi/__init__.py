"""Age of information in energy-harvesting random access networks.

Analytical pipeline (energy-buffer chains, finite-blocklength thresholds,
Poisson-field AoI formulas, joint update-rate/blocklength optimization) and
the slotted Monte Carlo simulator that validates it.
"""

__version__ = "0.1.0"

from .aoi import (  # noqa: F401
    IntervalMoments,
    NetworkConfig,
    PhyConfig,
    db_to_linear,
    interval_moments,
    inv_success_moment,
    network_aoi_general,
    network_aoi_greedy,
    network_aoi_large_buffer,
    network_aoi_small_buffer,
    omega,
    zeta_rectification,
)
from .energy_chain import (  # noqa: F401
    EnergyChainConfig,
    Regime,
    SteadyState,
    build_transition_matrix,
    prob_energy_sufficient,
    solve_steady_numeric,
    steady_closed_large_buffer,
    steady_closed_n1,
    steady_closed_small_buffer,
    steady_eta_one,
    steady_infinite_buffer,
    steady_state,
)
from .fbl import (  # noqa: F401
    CodingConfig,
    effective_threshold_approx,
    effective_threshold_exact,
    max_coding_rate,
    q_inverse,
)
from .optimizer import OptimumResult, ecr_search, esr_search, optimize  # noqa: F401
from .sim import SimConfig, SimReport, run, sample_topology  # noqa: F401
