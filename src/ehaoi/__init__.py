"""Age of information in energy-harvesting random access networks.

Analytical pipeline (energy-buffer chains, finite-blocklength thresholds,
Poisson-field AoI formulas, joint update-rate/blocklength optimization) and
the slotted Monte Carlo simulator that validates it.  The analytical
pipeline runs on the standard library; the simulator's names are loaded,
and numpy with them, on first access.
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
from .optimizer import OptimumResult, optimize  # noqa: F401

_SIM_NAMES = ("SimConfig", "SimReport", "run", "sample_topology")
# what a star import bound when the simulator was imported eagerly
__all__ = [name for name in globals() if not name.startswith("_")] + list(_SIM_NAMES)


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
