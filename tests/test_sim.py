"""Monte Carlo simulator: per-slot semantics, determinism, law checks."""

import math

import numpy as np
import pytest

from ehaoi.aoi import (
    NetworkConfig,
    PhyConfig,
    db_to_linear,
    interval_moments,
    inv_success_moment,
)
from ehaoi.energy_chain import EnergyChainConfig, prob_energy_sufficient, steady_state
from ehaoi.errors import EmptyRealization
from ehaoi.sim import (
    BernoulliArrivals,
    BernoulliUpdates,
    BinomialArrivals,
    LinkSimulation,
    PeriodicUpdates,
    SimConfig,
    Topology,
    TwoStateMarkovArrivals,
    run,
    sample_topology,
)

CLEAN = PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=1.0, eps=0.0)


def single_link_topology(side=20.0, r=3.0):
    return Topology(sources=np.array([[5.0, 5.0]]), receivers=np.array([[5.0 + r, 5.0]]), side=side)


def make_engine(chain, arrivals, updates, seed=0, phy=CLEAN):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return LinkSimulation(single_link_topology(), phy, chain, arrivals, updates, rng)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_topology_counts_match_intensity():
    rng = np.random.default_rng(5)
    counts = [sample_topology(0.01, 100.0, 3.0, rng).n_links for _ in range(400)]
    mean = np.mean(counts)
    assert abs(mean - 100.0) < 3.0 * 10.0 / math.sqrt(400)


def test_topology_link_distances_exact():
    rng = np.random.default_rng(6)
    topo = sample_topology(0.02, 60.0, 3.0, rng)
    d = topo.torus_distances()
    assert np.allclose(np.diag(d), 3.0, atol=1e-9)


def test_topology_empty_realization_raises():
    raised = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        try:
            sample_topology(1.0 / 9.0, 3.0, 1.0, rng)
        except EmptyRealization:
            raised += 1
    assert raised > 0


def test_topology_sources_are_spatially_uncorrelated():
    # complete spatial randomness: mean neighbor count within d is lam pi d^2
    rng = np.random.default_rng(7)
    lam, side = 0.02, 60.0
    pair_counts = {2.0: 0, 5.0: 0, 10.0: 0}
    total_pts = 0
    for _ in range(300):
        topo = sample_topology(lam, side, 3.0, rng)
        pts = topo.sources
        delta = np.abs(pts[:, None, :] - pts[None, :, :])
        delta = np.minimum(delta, side - delta)
        dist = np.hypot(delta[..., 0], delta[..., 1])
        np.fill_diagonal(dist, np.inf)
        total_pts += topo.n_links
        for d in pair_counts:
            pair_counts[d] += int((dist < d).sum())
    for d, count in pair_counts.items():
        expected = lam * math.pi * d * d
        assert count / total_pts == pytest.approx(expected, rel=0.08)


# ---------------------------------------------------------------------------
# per-slot semantics
# ---------------------------------------------------------------------------

def test_step_consumes_and_banks_same_slot_arrival():
    # full buffer, transmit and arrival together: level drops by N - 1
    chain = EnergyChainConfig(N=2, B=6, xi=0.5, eta=0.5)
    eng = make_engine(chain, BernoulliArrivals(1.0), BernoulliUpdates(1.0))
    eng.kappa[:] = 6
    idx, success, arr = eng.step()
    assert idx.tolist() == [0] and arr[0] == 1
    assert eng.kappa[0] == 5


def test_step_discards_overflow_when_idle():
    chain = EnergyChainConfig(N=2, B=6, xi=0.5, eta=0.5)
    eng = make_engine(chain, BernoulliArrivals(1.0), PeriodicUpdates(2))
    eng.phase = np.array([1])  # slot 0 is off-phase: no transmission
    eng.kappa[:] = 6
    idx, success, arr = eng.step()
    assert idx.size == 0 and arr[0] == 1
    assert eng.kappa[0] == 6


def test_step_requires_energy_at_slot_start():
    # one unit short: same-slot arrival must not enable the transmission
    chain = EnergyChainConfig(N=2, B=6, xi=0.5, eta=0.5)
    eng = make_engine(chain, BernoulliArrivals(1.0), BernoulliUpdates(1.0))
    eng.kappa[:] = 1
    idx, _, _ = eng.step()
    assert idx.size == 0
    assert eng.kappa[0] == 2


def test_step_energy_balance():
    chain = EnergyChainConfig(N=3, B=9, xi=0.7, eta=0.6)
    eng = make_engine(chain, BernoulliArrivals(0.7), BernoulliUpdates(0.6), seed=11)
    for _ in range(500):
        before = eng.kappa.copy()
        idx, _, arr = eng.step()
        fired = np.zeros_like(before)
        fired[idx] = 1
        expected = np.minimum(before - 3 * fired + arr, 9)
        assert np.array_equal(eng.kappa, expected)
        assert np.all(eng.kappa >= 0)


def test_step_aoi_resets_to_one():
    chain = EnergyChainConfig(N=1, B=1, xi=1.0, eta=1.0)
    eng = make_engine(chain, BernoulliArrivals(1.0), BernoulliUpdates(1.0))
    eng.kappa[:] = 1
    for _ in range(10):
        _, success, _ = eng.step()
        assert success[0]
        assert eng.aoi[0] == 1


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_run_every_slot_fresh():
    net = NetworkConfig(density=1.0 / 400.0, N=1, B=1, xi=1.0, eta=1.0)
    sim = SimConfig(slots=400, realizations=3, seed=1, side=20.0)
    rep = run(sim, CLEAN, net, topology=single_link_topology())
    assert rep.network_aoi == pytest.approx(1.0, abs=1e-12)
    assert rep.ci_halfwidth == pytest.approx(0.0, abs=1e-12)
    assert rep.empirical_mu == 1.0


def test_run_is_deterministic_and_thread_invariant():
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.5, eta=0.5)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.3, eps=1e-6)
    sim = SimConfig(slots=800, realizations=4, seed=33, side=40.0)
    a = run(sim, phy, net)
    b = run(sim, phy, net)
    c = run(sim, phy, net, threads=2)
    for x in (b, c):
        assert x.network_aoi == a.network_aoi
        assert x.empirical_mu == a.empirical_mu
        assert np.array_equal(x.per_link_aoi, a.per_link_aoi)
        assert np.array_equal(x.occupancy, a.occupancy)


def test_run_seed_changes_outcome():
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.5, eta=0.5)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.3, eps=1e-6)
    a = run(SimConfig(slots=500, realizations=2, seed=1, side=40.0), phy, net)
    b = run(SimConfig(slots=500, realizations=2, seed=2, side=40.0), phy, net)
    assert a.network_aoi != b.network_aoi


def test_occupancy_matches_greedy_law():
    net = NetworkConfig(density=0.05, N=2, B=8, xi=0.5, eta=1.0)
    sim = SimConfig(slots=20_000, realizations=2, seed=9, side=20.0)
    rep = run(sim, CLEAN, net)
    hist = rep.occupancy
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(hist[:3], [0.25, 0.5, 0.25], atol=0.01)
    assert np.allclose(hist[3:], 0.0, atol=1e-12)


def test_occupancy_matches_general_law():
    cfg = EnergyChainConfig(N=2, B=8, xi=0.5, eta=0.5)
    net = NetworkConfig(density=0.05, N=2, B=8, xi=0.5, eta=0.5)
    sim = SimConfig(slots=30_000, realizations=2, seed=10, side=20.0)
    rep = run(sim, CLEAN, net)
    hist = rep.occupancy
    assert np.max(np.abs(hist - steady_state(cfg).probs)) < 0.01


def test_intervals_match_renewal_formulas():
    cfg = EnergyChainConfig(N=2, B=8, xi=0.5, eta=0.5)
    net = NetworkConfig(density=1.0 / 400.0, N=2, B=8, xi=0.5, eta=0.5)
    sim = SimConfig(slots=120_000, realizations=2, seed=12, side=20.0)
    rep = run(sim, CLEAN, net)
    m = interval_moments(steady_state(cfg), cfg)
    assert rep.empirical_interval_mean == pytest.approx(m.mean, rel=0.02)
    assert rep.empirical_interval_second == pytest.approx(m.second, rel=0.05)


def test_single_link_micro_oracle_short():
    net = NetworkConfig(density=1.0 / 400.0, N=1, B=1, xi=0.5, eta=1.0)
    sim = SimConfig(slots=150_000, realizations=2, seed=21, side=20.0)
    rep = run(sim, CLEAN, net, topology=single_link_topology())
    assert rep.network_aoi == pytest.approx(2.0, rel=0.02)
    assert rep.empirical_interval_mean == pytest.approx(2.0, rel=0.02)
    assert rep.empirical_interval_second == pytest.approx(6.0, rel=0.05)
    assert rep.empirical_mu == 1.0


@pytest.mark.slow
def test_empirical_inv_mu_matches_poisson_moment():
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.5, eta=0.5)
    theta = 1.3
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=theta, eps=1e-6)
    sim = SimConfig(slots=40_000, realizations=8, seed=77, side=80.0)
    rep = run(sim, phy, net)
    ss = steady_state(net.chain)
    p_active = net.eta * prob_energy_sufficient(ss, net.N)
    predicted = inv_success_moment(phy, net, p_active)
    assert rep.empirical_inv_mu == pytest.approx(predicted, rel=0.10)


def test_periodic_one_equals_greedy_bernoulli_bitwise():
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.3, eps=1e-6)
    net = NetworkConfig(density=0.01, N=2, B=20, xi=0.5, eta=1.0)
    a = run(SimConfig(slots=2000, realizations=2, seed=5, side=40.0,
                      updates=BernoulliUpdates(1.0)), phy, net)
    b = run(SimConfig(slots=2000, realizations=2, seed=5, side=40.0,
                      updates=PeriodicUpdates(1)), phy, net)
    assert a.network_aoi == b.network_aoi
    assert np.array_equal(a.per_link_aoi, b.per_link_aoi)
    assert np.array_equal(a.occupancy, b.occupancy)


def test_binomial_arrivals_hit_mean_rate():
    pat = BinomialArrivals(e_max=10, p=0.05)
    assert pat.mean_rate == pytest.approx(0.5)
    chain = EnergyChainConfig(N=2, B=100, xi=0.5, eta=0.5)
    eng = make_engine(chain, pat, BernoulliUpdates(0.5), seed=3)
    total = 0
    for _ in range(20_000):
        _, _, arr = eng.step()
        total += int(arr.sum())
    assert total / 20_000 == pytest.approx(0.5, rel=0.05)


def test_markov_arrivals_hit_long_run_rate():
    pat = TwoStateMarkovArrivals(xi_good=0.8, xi_bad=0.2, p_good_to_bad=0.2, p_bad_to_good=0.2)
    assert pat.mean_rate == pytest.approx(0.5)
    chain = EnergyChainConfig(N=2, B=100, xi=0.5, eta=0.5)
    eng = make_engine(chain, pat, BernoulliUpdates(0.5), seed=4)
    total = 0
    for _ in range(40_000):
        _, _, arr = eng.step()
        total += int(arr.sum())
    assert total / 40_000 == pytest.approx(0.5, rel=0.05)


def test_plane_boundary_with_census_trims_links():
    rng = np.random.default_rng(8)
    topo = sample_topology(0.02, 60.0, 3.0, rng)
    net = NetworkConfig(density=0.02, N=1, B=2, xi=0.5, eta=0.5)
    sim = SimConfig(slots=300, realizations=2, seed=14, side=60.0,
                    census=0.25, boundary="plane")
    rep = run(sim, CLEAN, net)
    full = run(SimConfig(slots=300, realizations=2, seed=14, side=60.0), CLEAN, net)
    assert len(rep.per_link_aoi) < len(full.per_link_aoi)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(slots=0, realizations=1, seed=1, side=10.0)
    with pytest.raises(ValueError):
        SimConfig(slots=10, realizations=1, seed=1, side=10.0, warmup=10)
    with pytest.raises(ValueError):
        SimConfig(slots=10, realizations=1, seed=1, side=10.0, census=0.0)
    with pytest.raises(ValueError):
        SimConfig(slots=10, realizations=1, seed=1, side=10.0, boundary="mirror")
