"""Update-rate/blocklength optimizer against independent search oracles."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_minimize, straddles_sign_change
from ehaoi import optimizer
from ehaoi.aoi import NetworkConfig, PhyConfig, db_to_linear, network_aoi_large_buffer, omega
from ehaoi.fbl import CodingConfig, effective_threshold_exact
from ehaoi.errors import SaturatedAccess
from ehaoi.optimizer import optimal_eta_esr, optimal_eta_esr_cubic, optimize

PHY20 = PhyConfig(
    alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=1.0, eps=1e-6,
    target_rate=0.825, bits_per_unit=100,
)


def test_eta_esr_interference_free_limit():
    assert optimal_eta_esr(0.0, 7.0, 3.0, 3.8) == 1.0


def test_eta_esr_shrinks_with_load():
    small = optimal_eta_esr(1e-4, 7.0, 3.0, 3.8)
    large = optimal_eta_esr(1.0, 7.0, 3.0, 3.8)
    assert small > 0.95
    assert large < 0.2


@pytest.mark.parametrize("load", [0.01, 0.0636, 0.3, 1.0, 5.0])
def test_eta_esr_matches_golden_section(load):
    alpha, r = 3.8, 3.0
    density, om = load / (r * r), 1.0

    def objective(eta):
        return math.exp(load * eta / (1.0 - eta) ** (1.0 - 2.0 / alpha)) / eta

    star = golden_minimize(objective, 1e-9, 1.0 - 1e-9)
    assert optimal_eta_esr(density, om, r, alpha) == pytest.approx(star, abs=1e-6)


@pytest.mark.parametrize("alpha", [2.5, 3.8, 5.0])
def test_eta_esr_sits_at_the_sign_change_of_the_balance(alpha):
    for load in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 50.0):
        eta = optimal_eta_esr(load, 1.0, 1.0, alpha)
        balance = lambda e: e * (1.0 - 2.0 * e / alpha) * (1.0 - e) ** (2.0 / alpha - 2.0) - 1.0 / load
        assert straddles_sign_change(balance, eta)


def test_eta_esr_tends_to_the_bracket_top_at_vanishing_load():
    assert optimal_eta_esr(1e-30, 1.0, 1.0, 3.8) == 1.0 - 1e-15


def test_eta_cubic_close_to_exact_over_envelope():
    for alpha in (3.0, 3.8, 4.5):
        for load in (0.01, 0.1, 1.0, 5.0, 10.0):
            exact = optimal_eta_esr(load, 1.0, 1.0, alpha)
            cubic = optimal_eta_esr_cubic(load, 1.0, 1.0, alpha)
            assert 0.0 < cubic < 1.0
            assert abs(cubic - exact) < 0.05


def test_esr_search_interference_free(clean_phy):
    phy = PhyConfig(
        alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=1.0, eps=1e-6,
        target_rate=0.825, bits_per_unit=100,
    )
    net = NetworkConfig(density=0.0, N=1, B=100, xi=1.0, eta=1.0)
    res = optimize(phy, net)
    assert (res.regime, res.eta_star, res.n_star) == ("ESR", 1.0, 1)
    theta1 = effective_threshold_exact(CodingConfig(k=100, N=1, target_rate=0.825, eps=1e-6))
    expected = math.exp(3.0**3.8 * theta1 / db_to_linear(20.0)) / (1 - 1e-6)
    assert res.aoi_star == pytest.approx(expected, rel=1e-12)


def test_esr_trace_is_non_increasing():
    # the better candidate of each scanned N falls until the one entry that ends the scan
    net = NetworkConfig(density=0.005, N=1, B=100, xi=0.5, eta=0.5)
    res = optimize(PHY20, net)
    values = [min(aoi_esr, aoi_ecr) for _, _, aoi_esr, aoi_ecr in res.trace]
    assert all(a >= b for a, b in zip(values[:-1], values[1:-1]))
    assert values[-1] > res.aoi_star == min(values)


def test_ecr_search_monotone_case_stops_at_one():
    # no interference, no noise: greedy AoI = (N/xi)/(1-eps) - (N-1)/(2 xi) and
    # ESR AoI = (N/xi)/(1-eps) both grow with N, so the scan must stop at N = 2
    phy = PhyConfig(
        alpha=3.8, r=3.0, tx_snr=float("inf"), theta=1.0, eps=1e-6,
        target_rate=0.825, bits_per_unit=100,
    )
    net = NetworkConfig(density=0.0, N=1, B=100, xi=0.5, eta=1.0)
    res = optimize(phy, net)
    assert res.n_star == 1
    assert res.aoi_star == pytest.approx(2.0 / (1 - 1e-6), rel=1e-12)
    # at N = 1 the ESR point eta = xi/N and the ECR point coincide; the tie goes ESR
    assert (res.regime, res.eta_star) == ("ESR", 0.5)
    assert [pt[0] for pt in res.trace] == [1, 2]


def test_ecr_search_prefers_longer_codewords_when_dense():
    net = NetworkConfig(density=0.05, N=1, B=100, xi=0.5, eta=1.0)
    res = optimize(PHY20, net)
    assert res.regime == "ECR"
    assert res.n_star > 1


def test_ecr_search_flags_exhausted_upper_bound():
    net = NetworkConfig(density=0.05, N=1, B=2, xi=0.5, eta=1.0)
    res = optimize(PHY20, net)
    assert res.n_star == 2
    assert len(res.trace) == 2


def test_ecr_search_stops_at_the_buffer():
    # the AoI still falls at N = 10 = B, so the scan stops on the buffer bound
    net = NetworkConfig(density=0.5, N=1, B=10, xi=0.5, eta=1.0)
    res = optimize(PHY20, net)
    assert (res.regime, res.n_star) == ("ECR", 10)
    assert [pt[0] for pt in res.trace] == list(range(1, 11))


@pytest.mark.parametrize("density, b", [(0.5, 10), (50.0, 300)])
def test_searches_keep_codewords_within_the_buffer(density, b):
    # the AoI still falls at N = B here, and the scan goes no further
    net = NetworkConfig(density=density, N=1, B=b, xi=0.5, eta=0.5)
    best = optimize(PHY20, net)
    assert max(pt[0] for pt in best.trace) == best.n_star == b
    assert math.isfinite(best.aoi_star)


def test_ecr_search_scans_past_overflowing_success_moment():
    # at density 50 the ECR success moment of N = 1, 2 overflows a float; the
    # scan scores those candidates as saturated and goes on to longer codewords
    net = NetworkConfig(density=50.0, N=1, B=300, xi=0.5, eta=1.0)
    res = optimize(PHY20, net)
    assert [pt[3] for pt in res.trace[:2]] == [math.inf, math.inf]
    assert math.isfinite(res.aoi_star) and res.n_star > 2


def test_optimize_raises_when_every_length_saturates():
    # a noise exponent of about 3e12 overflows the success moment at every N
    phy = replace(PHY20, alpha=4.5, r=1000.0, tx_snr=10.0)
    with pytest.raises(SaturatedAccess):
        optimize(phy, NetworkConfig(density=0.01, N=1, B=20, xi=0.5, eta=0.5))


def _theta(n):
    return effective_threshold_exact(CodingConfig(k=100, N=n, target_rate=0.825, eps=1e-6))


def _candidates(net, n):
    """(aoi, eta, regime) of both regimes' points at codeword length n, ESR first."""
    phy = replace(PHY20, theta=_theta(n))
    eta_hat = optimal_eta_esr(net.density, omega(phy.theta, phy.alpha), phy.r, phy.alpha)
    points = []
    for eta, regime in ((min(eta_hat, net.xi / n), "ESR"), (1.0, "ECR")):
        probe = NetworkConfig(density=net.density, N=n, B=net.B, xi=net.xi, eta=eta)
        try:
            points.append((network_aoi_large_buffer(probe, phy), eta, regime))
        except SaturatedAccess:
            points.append((math.inf, eta, regime))
    return points


def test_ecr_matches_explicit_scan():
    net = NetworkConfig(density=0.01, N=1, B=100, xi=0.75, eta=1.0)
    res = optimize(PHY20, net)
    values = [min(aoi for aoi, _, _ in _candidates(net, n)) for n in range(1, 12)]
    assert res.aoi_star == pytest.approx(min(values), rel=1e-12)
    assert res.n_star == int(np.argmin(values)) + 1


@pytest.mark.parametrize("b", [1, 3, 100])
@pytest.mark.parametrize("density", [0.001, 0.01, 0.05, 0.5])
@pytest.mark.parametrize("xi", [0.25, 0.5, 0.75, 1.0])
def test_optimize_equals_exhaustive_scan(xi, density, b):
    # every candidate at every N <= B, with no early stop; min() keeps the
    # first of equal keys, so ties go to the shorter codeword, then to ESR
    net = NetworkConfig(density=density, N=1, B=b, xi=xi, eta=xi)
    points = [(aoi, n, eta, regime) for n in range(1, b + 1) for aoi, eta, regime in _candidates(net, n)]
    aoi, n, eta, regime = min(points, key=lambda pt: pt[0])
    best = optimize(PHY20, net)
    assert (best.aoi_star, best.n_star, best.eta_star, best.regime) == (aoi, n, eta, regime)


def test_optimize_prefers_esr_on_tie():
    net = NetworkConfig(density=0.001, N=1, B=100, xi=0.25, eta=0.25)
    best = optimize(PHY20, net)
    # at the clamp eta = xi/N both regime formulas coincide; ties go ESR
    assert best.regime == "ESR"
    assert best.eta_star == pytest.approx(0.25, abs=1e-12)


def test_optimize_flips_to_ecr_when_dense():
    sparse = optimize(PHY20, NetworkConfig(density=0.001, N=1, B=100, xi=0.5, eta=0.5))
    dense = optimize(PHY20, NetworkConfig(density=0.05, N=1, B=100, xi=0.5, eta=0.5))
    assert sparse.regime == "ESR"
    assert dense.regime == "ECR"
    assert dense.eta_star == 1.0
    assert dense.n_star > sparse.n_star


def test_optimize_beats_cross_regime_candidates():
    net = NetworkConfig(density=0.01, N=1, B=100, xi=0.5, eta=0.5)
    best = optimize(PHY20, net)
    assert all(best.aoi_star <= min(aoi_esr, aoi_ecr) for _, _, aoi_esr, aoi_ecr in best.trace)
    assert best.aoi_star <= min(aoi for n in range(1, 21) for aoi, _, _ in _candidates(net, n))


def test_optimize_requires_coding_context():
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=100.0, theta=1.0, eps=1e-6)
    with pytest.raises(ValueError):
        optimize(phy, NetworkConfig(density=0.01, N=1, B=100, xi=0.5, eta=0.5))


def test_density_sweep_solves_each_threshold_once(monkeypatch):
    solves = Counter()
    exact = optimizer.effective_threshold_exact

    def counted(cfg):
        solves[cfg] += 1
        return exact(cfg)

    monkeypatch.setattr(optimizer, "effective_threshold_exact", counted)
    optimizer._exact_threshold.cache_clear()
    for density in np.geomspace(0.001, 0.1, 80):
        optimize(PHY20, NetworkConfig(density=float(density), N=1, B=100, xi=0.55, eta=0.55))
    assert len(solves) > 1
    assert max(solves.values()) == 1
