"""Joint optimization of the update rate and the per-packet energy units.

For a fixed codeword length N the best update rate is known in each
regime of the infinite-buffer AoI: min(eta_hat, xi/N) in the
energy-sufficient regime (ESR), with eta_hat the interference-optimal
ALOHA rate, and 1 in the energy-constrained regime (ECR).  So optimize()
is one forward scan over N = 1, ..., B that scores both candidates at
each N and stops at the first N whose better candidate is worse than the
best so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .aoi import NetworkConfig, PhyConfig, network_aoi_large_buffer, omega
from .errors import OutOfRegime, SaturatedAccess, bisect_increasing
# effective_threshold_approx is unused here; bench/spans.py traces it under this module
from .fbl import CodingConfig, effective_threshold_approx, effective_threshold_exact  # noqa: F401

__all__ = [
    "OptimumResult",
    "optimal_eta_esr",
    "optimal_eta_esr_cubic",
    "theta_for",
    "optimize",
]


@dataclass(frozen=True)
class OptimumResult:
    """Best (eta, N) found by optimize(), and its AoI.

    ``regime`` names the candidate that won: "ESR" (energy-sufficient,
    eta_star = min(eta_hat, xi/N)) or "ECR" (energy-constrained, eta_star
    = 1).  ``trace`` holds one (N, eta_esr, aoi_esr, aoi_ecr) entry per
    scanned codeword length, with inf for a candidate whose access
    saturates.
    """

    aoi_star: float
    eta_star: float
    n_star: int
    regime: str  # "ESR" | "ECR"
    trace: tuple[tuple[int, float, float, float], ...]


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
    exact bisection root is returned.  Kept for parity studies; optimize()
    uses the exact root.
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


def _aoi_at(phy: PhyConfig, net_base: NetworkConfig, n: int, eta: float) -> float:
    probe = NetworkConfig(density=net_base.density, N=n, B=net_base.B, xi=net_base.xi, eta=eta)
    try:
        return network_aoi_large_buffer(probe, phy)
    except SaturatedAccess:
        # eta = xi/N = 1 under interference, or a success moment that overflows a float
        return math.inf


def optimize(phy_base: PhyConfig, net_base: NetworkConfig) -> OptimumResult:
    """Best (eta, N) over both regimes, by a forward scan over N <= B.

    At each N the ESR candidate min(eta_hat, xi/N) and the ECR candidate
    eta = 1 are scored with the decoding threshold retuned to N; the
    better one (the ESR on a tie) stands for N.  The scan stops at the
    first N whose candidate is worse than the best so far, or NaN, and
    returns the earliest N that reached the best.  Raises SaturatedAccess
    if both candidates saturate at every N.
    """
    density, xi = net_base.density, net_base.xi
    best_aoi, best = math.inf, None
    trace: list[tuple[int, float, float, float]] = []
    for n in range(1, net_base.B + 1):
        phy_n = replace(phy_base, theta=theta_for(phy_base, n))
        eta_hat = optimal_eta_esr(density, omega(phy_n.theta, phy_n.alpha), phy_n.r, phy_n.alpha)
        eta_esr = min(eta_hat, xi / n)
        if eta_esr == 0.0:
            raise OutOfRegime(f"the update rate xi / N = {xi!r} / {n} underflows a float")
        aoi_esr = _aoi_at(phy_n, net_base, n, eta_esr)
        aoi_ecr = _aoi_at(phy_n, net_base, n, 1.0)
        trace.append((n, eta_esr, aoi_esr, aoi_ecr))
        aoi, eta, regime = (aoi_esr, eta_esr, "ESR") if aoi_esr <= aoi_ecr else (aoi_ecr, 1.0, "ECR")
        if not aoi <= best_aoi:  # a NaN ends the scan too
            break
        if aoi < best_aoi:
            best_aoi, best = aoi, (eta, n, regime)
    if math.isinf(best_aoi):
        raise SaturatedAccess(f"access saturates at every codeword length up to B = {net_base.B}")
    eta_star, n_star, regime = best
    return OptimumResult(aoi_star=best_aoi, eta_star=eta_star, n_star=n_star, regime=regime,
                         trace=tuple(trace))
