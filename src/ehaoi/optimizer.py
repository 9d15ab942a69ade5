"""Joint optimization of the update rate and the per-packet energy units.

The infinite-buffer AoI splits into two regimes along N eta = xi.  In the
energy-sufficient regime the update rate has a unique interior optimum and
longer codewords always help, so an alternating scheme on (eta, N)
converges; in the energy-constrained regime the update rate belongs at 1
and the codeword length is found by a forward scan that stops at the first
increase.  The top-level optimize() runs both and keeps the better regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .aoi import NetworkConfig, PhyConfig, network_aoi_large_buffer, omega
from .errors import IterationBudgetExceeded, SaturatedAccess, bisect_increasing
# effective_threshold_approx is unused here; bench/spans.py traces it under this module
from .fbl import CodingConfig, effective_threshold_approx, effective_threshold_exact  # noqa: F401

_TOL = 1e-6  # the ESR search stops when the objective moves less than this
_MAX_ITER = 50  # ESR half-steps before IterationBudgetExceeded
_N_UPPER = 200  # longest codeword the ECR scan tries, however large the buffer

__all__ = [
    "OptimumResult",
    "optimal_eta_esr",
    "optimal_eta_esr_cubic",
    "clamp_eta_esr",
    "optimal_n_esr",
    "theta_for",
    "esr_search",
    "ecr_search",
    "optimize",
]


@dataclass(frozen=True)
class OptimumResult:
    """Best (eta, N) that one regime's search found, and its AoI.

    ``regime`` names the search: "ESR" (energy-sufficient) or "ECR"
    (energy-constrained, whose eta_star is always 1).  ``trace`` collects
    its (iteration, eta, N, aoi) diagnostics; the ECR scan's iteration is N.
    """

    aoi_star: float
    eta_star: float
    n_star: int
    regime: str  # "ESR" | "ECR"
    trace: tuple[tuple[int, float, int, float], ...]


def optimal_eta_esr(density: float, omega_n: float, r: float, alpha: float) -> float:
    """Interference-optimal update rate of the unconstrained ALOHA objective.

    Solves lambda Omega r^2 eta (1 - 2 eta/alpha) (1 - eta)^(2/alpha) =
    (1 - eta)^2 exactly; the left/right ratio is monotone in eta, so a
    bisection down to adjacent floats is enough.  Tends to 1 - 1e-15, the
    top of the bracket, as the interference load lambda Omega r^2 vanishes,
    and returns 1 when it is zero.
    """
    c = density * omega_n * r**2
    if c <= 0.0:
        return 1.0

    def balance(eta: float) -> float:
        # f(eta) = eta (1 - 2 eta/alpha) (1-eta)^(2/alpha - 2), increasing
        return eta * (1.0 - 2.0 * eta / alpha) * (1.0 - eta) ** (2.0 / alpha - 2.0) - 1.0 / c

    return bisect_increasing(balance, 1e-15, 1.0 - 1e-15)


def optimal_eta_esr_cubic(density: float, omega_n: float, r: float, alpha: float) -> float:
    """Cubic-surrogate update rate, from (1-eta)^(2/alpha) ~ 1 - 2 eta/alpha.

    Solves lambda Omega r^2 eta (1 - 2 eta/alpha)^2 = (1 - eta)^2 and keeps
    the real root in (0, 1); with several candidates the one nearest the
    exact bisection root is returned.  Kept for parity studies; the searches
    use the exact root.
    """
    import numpy as np

    c = density * omega_n * r**2
    if c <= 0.0:
        return 1.0
    coeffs = [4.0 * c / alpha**2, -(4.0 * c / alpha + 1.0), c + 2.0, -1.0]
    roots = np.roots(coeffs)
    candidates = [float(z.real) for z in roots if abs(z.imag) < 1e-9 and 0.0 < z.real < 1.0]
    if not candidates:
        candidates = [float(z.real) for z in roots if 0.0 < z.real < 1.0]
    exact = optimal_eta_esr(density, omega_n, r, alpha)
    return min(candidates, key=lambda v: abs(v - exact))


def clamp_eta_esr(eta_hat: float, xi: float, n: int) -> float:
    """Feasible energy-sufficient rate: min(eta_hat, xi / N)."""
    return min(eta_hat, xi / n)


def optimal_n_esr(xi: float, eta: float) -> int:
    """Largest energy-sufficient codeword: max(1, floor(xi / eta))."""
    return max(1, math.floor(xi / eta))


def theta_for(phy: PhyConfig, n: int) -> float:
    """Exact decoding threshold of ``phy``'s code at ``n`` energy units per packet, cached."""
    if phy.target_rate is None or phy.bits_per_unit is None:
        raise ValueError("phy.target_rate and phy.bits_per_unit are required to solve theta for N")
    cfg = CodingConfig(k=phy.bits_per_unit, N=n, target_rate=phy.target_rate, eps=phy.eps)
    return _exact_threshold(cfg)


@lru_cache(maxsize=4096)
def _exact_threshold(cfg: CodingConfig) -> float:
    # a miss calls the module-level name, so a wrapper installed there sees every solve
    return effective_threshold_exact(cfg)


def esr_search(phy_base: PhyConfig, net_base: NetworkConfig) -> OptimumResult:
    """Alternating (eta, N) optimization in the energy-sufficient regime.

    Each half-step solves its one-dimensional subproblem exactly (update
    rate by bisection with the xi/N clamp, codeword length by the floor
    rule, at most the buffer size B) with the decoding threshold retuned to
    the current N.  Stops when the objective moves less than _TOL.
    """
    xi = net_base.xi
    n = 1
    eta = xi
    trace: list[tuple[int, float, int, float]] = []
    prev = math.inf
    # each half-step (rate update, then codeword update) counts as one
    # iteration, mirroring the alternating scheme's own bookkeeping
    for it in range(1, _MAX_ITER + 1):
        if it % 2 == 1:
            phy_n = replace(phy_base, theta=theta_for(phy_base, n))
            om = omega(phy_n.theta, phy_n.alpha)
            eta = clamp_eta_esr(
                optimal_eta_esr(net_base.density, om, phy_n.r, phy_n.alpha), xi, n
            )
        else:
            n = min(optimal_n_esr(xi, eta), net_base.B)
            phy_n = replace(phy_base, theta=theta_for(phy_base, n))
        probe = NetworkConfig(density=net_base.density, N=n, B=net_base.B, xi=xi, eta=eta)
        aoi = network_aoi_large_buffer(probe, phy_n)
        trace.append((it, eta, n, aoi))
        if abs(aoi - prev) < _TOL:
            return OptimumResult(aoi_star=aoi, eta_star=eta, n_star=n, regime="ESR",
                                 trace=tuple(trace))
        prev = aoi
    raise IterationBudgetExceeded(f"energy-sufficient search open after {_MAX_ITER} iterations")


def ecr_search(phy_base: PhyConfig, net_base: NetworkConfig) -> OptimumResult:
    """Forward scan over N at eta = 1 in the energy-constrained regime.

    The greedy objective either increases monotonically or has a single
    minimum, so the scan stops at the first increase (or at a NaN) and
    returns the best N before it.  A codeword cannot need more units than
    the buffer holds, so N stops at min(_N_UPPER, B); if no increase is
    seen by then, the best value found is returned, and n_star equals that
    bound.
    """
    best_aoi = math.inf
    best_n = 1
    trace: list[tuple[int, float, int, float]] = []
    for n in range(1, min(_N_UPPER, net_base.B) + 1):
        phy_n = replace(phy_base, theta=theta_for(phy_base, n))
        probe = NetworkConfig(
            density=net_base.density, N=n, B=net_base.B, xi=net_base.xi, eta=1.0
        )
        try:
            aoi = network_aoi_large_buffer(probe, phy_n)
        except SaturatedAccess:
            # xi/N = 1 under interference: every node fires every slot
            aoi = math.inf
        trace.append((n, 1.0, n, aoi))
        if not aoi <= best_aoi:  # a NaN ends the scan too
            break
        best_aoi, best_n = aoi, n
    return OptimumResult(aoi_star=best_aoi, eta_star=1.0, n_star=best_n, regime="ECR",
                         trace=tuple(trace))


def optimize(phy_base: PhyConfig, net_base: NetworkConfig) -> OptimumResult:
    """Best (eta, N) over both regimes; ties go to the energy-sufficient one."""
    esr = esr_search(phy_base, net_base)
    ecr = ecr_search(phy_base, net_base)
    return esr if esr.aoi_star <= ecr.aoi_star else ecr
