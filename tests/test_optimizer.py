"""Update-rate/blocklength optimizer against independent search oracles."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import golden_minimize, straddles_sign_change
from ehaoi import optimizer
from ehaoi.aoi import NetworkConfig, PhyConfig, db_to_linear, network_aoi_large_buffer
from ehaoi.fbl import CodingConfig, effective_threshold_exact
from ehaoi.optimizer import (
    clamp_eta_esr,
    ecr_search,
    esr_search,
    optimal_eta_esr,
    optimal_eta_esr_cubic,
    optimal_n_esr,
    optimize,
)

PHY20 = PhyConfig(
    alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=1.0, eps=1e-6,
    target_rate=0.825, bits_per_unit=100,
)


def test_clamp_examples():
    assert clamp_eta_esr(0.9, 0.5, 1) == 0.5
    assert clamp_eta_esr(0.2, 0.5, 1) == 0.2
    assert clamp_eta_esr(0.9, 0.6, 3) == pytest.approx(0.2)


def test_floor_rule_examples():
    assert optimal_n_esr(0.9, 0.2) == 4
    assert optimal_n_esr(0.3, 0.5) == 1
    assert optimal_n_esr(1.0, 0.25) == 4


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
    res = esr_search(phy, net)
    assert res.eta == 1.0
    assert res.n_units == 1
    theta1 = effective_threshold_exact(CodingConfig(k=100, N=1, target_rate=0.825, eps=1e-6))
    expected = math.exp(3.0**3.8 * theta1 / db_to_linear(20.0)) / (1 - 1e-6)
    assert res.aoi == pytest.approx(expected, rel=1e-12)


def test_esr_trace_is_non_increasing():
    net = NetworkConfig(density=0.005, N=1, B=100, xi=0.5, eta=0.5)
    res = esr_search(PHY20, net)
    values = [pt[3] for pt in res.trace]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert len(res.trace) <= 50


def test_ecr_search_monotone_case_stops_at_one():
    # no interference, no noise: greedy AoI = (N/xi)/(1-eps) - (N-1)/(2 xi),
    # strictly increasing in N, so the scan must stop at N = 1
    phy = PhyConfig(
        alpha=3.8, r=3.0, tx_snr=float("inf"), theta=1.0, eps=1e-6,
        target_rate=0.825, bits_per_unit=100,
    )
    net = NetworkConfig(density=0.0, N=1, B=100, xi=0.5, eta=1.0)
    res = ecr_search(phy, net)
    assert res.n_units == 1
    assert res.aoi == pytest.approx(2.0 / (1 - 1e-6), rel=1e-12)
    assert not res.hit_upper


def test_ecr_search_prefers_longer_codewords_when_dense():
    net = NetworkConfig(density=0.05, N=1, B=100, xi=0.5, eta=1.0)
    res = ecr_search(PHY20, net)
    assert res.n_units > 1


def test_ecr_search_flags_exhausted_upper_bound():
    net = NetworkConfig(density=0.05, N=1, B=2, xi=0.5, eta=1.0)
    res = ecr_search(PHY20, net)
    assert res.hit_upper
    assert res.n_units == 2


def test_ecr_search_stops_at_the_buffer():
    # the AoI still falls at N = 10 = B, so the scan stops on the buffer bound
    net = NetworkConfig(density=0.5, N=1, B=10, xi=0.5, eta=1.0)
    res = ecr_search(PHY20, net)
    assert res.hit_upper
    assert res.n_units == 10
    assert [pt[2] for pt in res.trace] == list(range(1, 11))


@pytest.mark.parametrize("density, b", [(0.5, 10), (50.0, 300)])
def test_searches_keep_codewords_within_the_buffer(density, b):
    # the floor rule asks for N = 15 and N = 1547 here, more than the buffer holds
    net = NetworkConfig(density=density, N=1, B=b, xi=0.5, eta=0.5)
    esr, ecr = esr_search(PHY20, net), ecr_search(PHY20, net)
    assert max(pt[2] for pt in esr.trace + ecr.trace) <= b
    assert esr.n_units == b
    best = optimize(PHY20, net)
    assert math.isfinite(best.aoi_star)
    assert 1 <= best.n_star <= b


def test_ecr_search_scans_past_overflowing_success_moment():
    # at density 50 the success moment of N = 1, 2 overflows a float; the
    # scan scores those lengths as saturated and goes on to longer codewords
    net = NetworkConfig(density=50.0, N=1, B=300, xi=0.5, eta=1.0)
    res = ecr_search(PHY20, net)
    assert [pt[3] for pt in res.trace[:2]] == [math.inf, math.inf]
    assert math.isfinite(res.aoi) and res.n_units > 2


def test_ecr_matches_explicit_scan():
    net = NetworkConfig(density=0.01, N=1, B=100, xi=0.75, eta=1.0)
    res = ecr_search(PHY20, net)
    values = []
    for n in range(1, 12):
        theta_n = effective_threshold_exact(CodingConfig(k=100, N=n, target_rate=0.825, eps=1e-6))
        probe = NetworkConfig(density=0.01, N=n, B=100, xi=0.75, eta=1.0)
        values.append(network_aoi_large_buffer(probe, PHY20.with_theta(theta_n)))
    assert res.aoi == pytest.approx(min(values), rel=1e-12)
    assert res.n_units == int(np.argmin(values)) + 1


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
    esr = esr_search(PHY20, net)
    ecr = ecr_search(PHY20, net)
    assert best.aoi_star <= esr.aoi + 1e-12
    assert best.aoi_star <= ecr.aoi + 1e-12


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
