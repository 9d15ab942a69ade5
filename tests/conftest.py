"""Shared oracles for the test suite.

These deliberately recompute target quantities through routes independent
of the code paths they validate: direct mixture enumeration for interval
moments, quadrature for the interference geometry factor, and golden-section
minimization for the optimizer.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from ehaoi.energy_chain import SteadyState

# Hypothesis profiles.  "replay" draws the same examples on every run, so
# the suite is deterministic; "fresh" draws new ones with ten times the
# budget, for a scheduled run: pytest --hypothesis-profile=fresh
settings.register_profile("replay", derandomize=True, deadline=None)
settings.register_profile("fresh", max_examples=10 * settings.default.max_examples, deadline=None)
settings.load_profile("replay")


def straddles_sign_change(g, z: float) -> bool:
    """z is one of two adjacent floats across which the increasing g turns non-negative."""
    up, down = math.nextafter(z, math.inf), math.nextafter(z, -math.inf)
    return g(z) < 0.0 <= g(up) or g(down) < 0.0 <= g(z)


def brute_interval_moments(ss: SteadyState, n: int, xi: float, eta: float):
    """Enumerate the accumulation+wait mixture directly from the buffer law.

    Conditioned on the level at an attempt slot (and that slot's arrival),
    the remaining units to harvest are w in {1..N}; with probability
    complementary to those cases no accumulation is needed at all.  Each
    component is NegBin(w, xi) + Geom(eta), whose first two moments are
    textbook, so the mixture moments follow by direct summation.
    """
    probs = np.asarray(ss.probs)
    b = len(probs) - 1

    def s_at(i):
        return float(probs[i]) if i <= b else 0.0

    p_suf = float(probs[n:].sum()) + ss.tail_mass
    comp = {}
    for w in range(1, n):
        comp[w] = (s_at(2 * n - w) * (1 - xi) + s_at(2 * n - w - 1) * xi) / p_suf
    comp[n] = s_at(n) * (1 - xi) / p_suf
    p_none = 1.0 - sum(comp.values())
    wait1, wait2 = 1.0 / eta, (2.0 - eta) / eta**2
    m1 = p_none * wait1
    m2 = p_none * wait2
    for w, p in comp.items():
        acc1 = w / xi
        acc2 = w * (w - xi + 1.0) / xi**2
        m1 += p * (acc1 + wait1)
        m2 += p * (acc2 + 2.0 * acc1 * wait1 + wait2)
    return m1, m2


def quadrature_omega(theta: float, alpha: float) -> float:
    """Interference factor by direct numerical integration of the path-loss
    integral (2 pi/alpha) theta^(2/alpha) Int_0^inf u^(2/alpha-1)/(u+1) du."""
    from scipy.integrate import quad

    val, _ = quad(lambda u: u ** (2.0 / alpha - 1.0) / (u + 1.0), 0.0, np.inf, limit=400)
    return (2.0 * np.pi / alpha) * theta ** (2.0 / alpha) * val


def golden_minimize(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section minimizer for a scalar unimodal function."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1, c2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = fn(c1), fn(c2)
    while b - a > tol:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - g * (b - a)
            f1 = fn(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + g * (b - a)
            f2 = fn(c2)
    return 0.5 * (a + b)


@pytest.fixture
def clean_phy():
    """Interference-free, noise-free, error-free physical layer."""
    from ehaoi.aoi import PhyConfig

    return PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=1.0, eps=0.0)
