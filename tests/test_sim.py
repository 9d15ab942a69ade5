"""Monte Carlo simulator: per-slot semantics, determinism, law checks."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ehaoi import sim as sim_module
from ehaoi.aoi import (
    NetworkConfig,
    PhyConfig,
    db_to_linear,
    interval_moments,
    inv_success_moment,
)
from ehaoi.energy_chain import EnergyChainConfig, prob_energy_sufficient, steady_state
from ehaoi.sim import (
    BernoulliArrivals,
    BernoulliUpdates,
    BinomialArrivals,
    LinkSimulation,
    PeriodicUpdates,
    SimConfig,
    SimReport,
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


def assert_same_report(x, a):
    for field in dataclasses.fields(SimReport):
        assert np.array_equal(getattr(x, field.name), getattr(a, field.name)), field.name


def test_run_is_deterministic_and_thread_invariant(monkeypatch):
    # reruns agree bit for bit, and so does a run batched in other chunks
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.5, eta=0.5)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.3, eps=1e-6)
    sim = SimConfig(slots=800, realizations=4, seed=33, side=40.0)
    a = run(sim, phy, net)
    b = run(sim, phy, net)
    monkeypatch.setattr(sim_module, "_CHUNK", 97)
    c = run(sim, phy, net)
    for x in (b, c):
        assert_same_report(x, a)


PATTERNS = {
    "bernoulli": (BernoulliArrivals(0.5), BernoulliUpdates(0.6)),
    "binomial": (BinomialArrivals(e_max=10, p=0.05), BernoulliUpdates(0.6)),
    "markov": (TwoStateMarkovArrivals(xi_good=0.8, xi_bad=0.2, p_good_to_bad=0.2, p_bad_to_good=0.2),
               BernoulliUpdates(0.6)),
    "periodic": (BernoulliArrivals(0.5), PeriodicUpdates(3)),
}


def test_default_warmup_follows_the_arrival_pattern():
    # Binomial arrivals at mean rate 10 x 0.01 = 0.1, far below net.xi = 0.9:
    # 10 max(N / 0.1, 1 / eta) = 200 warmup slots, not the 23 that xi would give
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.9, eta=0.5)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(30.0), theta=1.3, eps=0.05)
    sim = SimConfig(slots=1000, realizations=1, seed=2, side=20.0,
                    arrivals=BinomialArrivals(e_max=10, p=0.01))
    assert run(sim, phy, net).slots_measured == 800


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_run_does_not_depend_on_chunking(monkeypatch, pattern):
    # each draw kind has its own substream read in slot order, and every
    # tally is an integer, so neither chunk nor block sizes move a bit
    arrivals, updates = PATTERNS[pattern]
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.5, eta=0.6)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(30.0), theta=1.3, eps=0.05)
    sim = SimConfig(slots=1500, realizations=3, seed=8, side=40.0, warmup=150,
                    arrivals=arrivals, updates=updates)
    monkeypatch.setattr(sim_module, "_CHUNK", 4096)
    a = run(sim, phy, net)
    monkeypatch.setattr(sim_module, "_CHUNK", 97)
    assert_same_report(run(sim, phy, net), a)
    monkeypatch.setattr(sim_module, "_CELLS", 500)
    assert_same_report(run(sim, phy, net), a)


def test_run_does_not_depend_on_blas_threads():
    # ~50 links per realization; decoding sums interference terms in a matrix
    # product, whose bits must not move with the BLAS thread count
    code = (
        "import pickle, sys\n"
        "from ehaoi.aoi import NetworkConfig, PhyConfig, db_to_linear\n"
        "from ehaoi.sim import SimConfig, run\n"
        "net = NetworkConfig(density=0.02, N=2, B=10, xi=0.6, eta=0.7)\n"
        "phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=1.3, eps=0.01)\n"
        "rep = run(SimConfig(slots=3000, realizations=2, seed=17, side=50.0), phy, net)\n"
        "pickle.dump(rep, sys.stdout.buffer)\n"
    )
    src = Path(sim_module.__file__).parents[1]
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(pickle.loads(proc.stdout))
    assert reports[0].links.sum() > 60
    assert_same_report(reports[1], reports[0])


def test_interference_sums_are_exact():
    # the stored log-gains are whole numbers small enough that a float64
    # product of any 0/1 activity block equals the integer product, whatever
    # order the BLAS adds in; a receiver on top of a source is capped
    rng = np.random.default_rng(12)
    topo = sample_topology(0.01, 120.0, 3.0, rng)
    topo.sources[1] = topo.receivers[0]
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.6, eta=0.7)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=1.3, eps=0.01)
    sim = SimConfig(slots=10, realizations=1, seed=1, side=120.0)
    real = sim_module._Realization(0, sim, phy, net, BernoulliArrivals(0.6),
                                   BernoulliUpdates(0.7), topo)
    n = real.n
    assert n > 100
    whole = real.gain.astype(np.int64)
    assert np.array_equal(whole, real.gain)
    assert whole.sum(axis=0).max() < 2**53
    exact = np.log1p(phy.theta * real.link.pathloss / real.link.pathloss.diagonal())
    np.fill_diagonal(exact, 0.0)
    assert real.gain[1, 0] * real.quantum == sim_module._GAIN_CAP
    finite = np.isfinite(exact)
    assert np.all(np.abs(real.gain * real.quantum - exact)[finite] <= real.quantum / 2)
    active = rng.random((300, n)) < 0.6
    product = active.astype(np.float64) @ real.gain
    assert np.array_equal(product, active.astype(np.int64) @ whole)


# four links on a 50 m torus, each with its own length, and interference that
# is far from symmetric: source 1 sits 3.2 m from receiver 0, while source 0
# is 8.1 m from receiver 1
SKEWED = Topology(sources=np.array([[10.0, 10.0], [14.0, 13.0], [22.0, 9.0], [8.0, 18.0]]),
                  receivers=np.array([[13.0, 10.0], [17.5, 13.0], [19.5, 9.0], [8.0, 22.0]]),
                  side=50.0)
SKEWED_PHY = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=0.8, eps=0.15)
SATURATED = NetworkConfig(density=0.01, N=1, B=1, xi=1.0, eta=1.0)  # all links fire every slot


def saturated_success(topology, phy):
    """Per-link success probability when every link transmits: the Laplace product."""
    gain = topology.torus_distances() ** -phy.alpha  # [source j, receiver i]
    own = gain.diagonal()
    odds = 1.0 + phy.theta * gain / own
    np.fill_diagonal(odds, 1.0)
    return (1.0 - phy.eps) * np.exp(-phy.theta / (phy.tx_snr * own)) / odds.prod(axis=0)


def test_saturated_links_decode_with_the_laplace_product():
    # a geometric inter-delivery time of success probability p has mean age 1/p;
    # swapping interferer and receiver, dropping the noise term or dropping the
    # 1 - eps factor each move some link's 1/p by at least 15%
    p = saturated_success(SKEWED, SKEWED_PHY)
    sim = SimConfig(slots=20_000, realizations=12, seed=3, side=SKEWED.side, warmup=100)
    rep = run(sim, SKEWED_PHY, SATURATED, topology=SKEWED)
    per_link = rep.per_link_aoi.reshape(sim.realizations, SKEWED.n_links)
    mean = per_link.mean(axis=0)
    stderr = per_link.std(axis=0, ddof=1) / math.sqrt(sim.realizations)
    assert np.all(stderr < 0.01 * mean)
    assert np.all(np.abs(mean - 1.0 / p) < 4.0 * stderr), (mean, 1.0 / p, stderr)


def test_saturated_decode_draws_one_coin_per_attempt():
    # the decode substream is child 2 of the realization's seed sequence; from
    # slot 1 on every link attempts, and attempt (t, i) succeeds iff its uniform,
    # drawn in (slot, link) order, falls below the link's success probability
    p = saturated_success(SKEWED, SKEWED_PHY)
    sim = SimConfig(slots=3000, realizations=1, seed=11, side=SKEWED.side, warmup=40)
    rep = run(sim, SKEWED_PHY, SATURATED, topology=SKEWED)
    child = np.random.SeedSequence(entropy=sim.seed, spawn_key=(0,)).spawn(3)[2]
    coins = np.random.Generator(np.random.Philox(child)).random((sim.slots - 1, SKEWED.n_links))
    success = np.vstack((np.zeros((1, SKEWED.n_links), dtype=bool), coins < p))
    t = np.arange(sim.slots)[:, None]
    last = np.maximum.accumulate(np.where(success, t, 0))
    ages = (t - last + 1)[sim.warmup:]
    assert np.array_equal(rep.per_link_aoi, ages.sum(axis=0) / rep.slots_measured)


def test_source_on_a_receiver_silences_that_receiver_without_warnings():
    # source 1 sits exactly on receiver 0: an infinite path loss, so link 0
    # never decodes while link 1 fires, and no division by zero is reported
    topo = Topology(sources=np.array([[5.0, 5.0], [8.0, 5.0]]),
                    receivers=np.array([[8.0, 5.0], [8.0, 8.0]]), side=20.0)
    sim = SimConfig(slots=400, realizations=2, seed=6, side=topo.side, warmup=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run(sim, SKEWED_PHY, SATURATED, topology=topo)
        rng = np.random.Generator(np.random.Philox(key=np.array([6, 0], dtype=np.uint64)))
        eng = LinkSimulation(topo, SKEWED_PHY, SATURATED.chain, BernoulliArrivals(1.0),
                             BernoulliUpdates(1.0), rng)
        steps = [eng.step() for _ in range(200)]
    # link 0's age never resets: in slot t it is t + 1
    never = np.arange(sim.warmup, sim.slots).mean() + 1.0
    assert rep.per_link_aoi.reshape(sim.realizations, 2)[:, 0].tolist() == [never, never]
    assert rep.per_link_aoi.reshape(sim.realizations, 2)[:, 1].max() < 10.0
    assert all(0 in idx for idx, _, _ in steps[1:])
    assert not any(success[0] for _, success, _ in steps)
    assert any(success[1] for _, success, _ in steps)


def test_report_counts_links_and_activity():
    sim = SimConfig(slots=500, realizations=3, seed=4, side=SKEWED.side)
    rep = run(sim, SKEWED_PHY, SATURATED, topology=SKEWED)
    assert rep.links.tolist() == [4, 4, 4]
    assert rep.activity == 1.0
    # Bernoulli updating: a link is active when it holds N units and its eta coin fires
    net = NetworkConfig(density=0.01, N=2, B=8, xi=0.5, eta=0.5)
    sim = SimConfig(slots=20_000, realizations=2, seed=10, side=20.0)
    rep = run(sim, CLEAN, net)
    predicted = net.eta * prob_energy_sufficient(steady_state(net.chain), net.N)
    assert rep.links.shape == (2,) and np.all(rep.links > 0)
    assert rep.activity == pytest.approx(predicted, rel=0.03)


def test_realization_prefix_invariance():
    net = NetworkConfig(density=0.01, N=2, B=10, xi=0.5, eta=0.5)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.3, eps=1e-6)
    four = run(SimConfig(slots=600, realizations=4, seed=21, side=40.0), phy, net)
    two = run(SimConfig(slots=600, realizations=2, seed=21, side=40.0), phy, net)
    assert np.array_equal(four.realization_means[:2], two.realization_means)


def step_statistics(topology, chain, phy, arrivals, updates, slots, warmup, seed):
    """Occupancy, inter-attempt moments, mean age and success ratio of the per-slot engine."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    eng = LinkSimulation(topology, phy, chain, arrivals, updates, rng)
    occupancy = np.zeros(chain.B + 1)
    last = np.full(eng.n, -1)
    gaps = []
    age = attempts = successes = 0
    for t in range(slots):
        idx, success, _ = eng.step()
        if t >= warmup:
            occupancy += np.bincount(eng.kappa, minlength=chain.B + 1)
            seen = idx[last[idx] >= 0]
            gaps.extend(t - last[seen])
            last[idx] = t
            age += eng.aoi.mean()
            attempts += idx.size
            successes += success.sum()
    gaps = np.array(gaps, dtype=float)
    return (occupancy / occupancy.sum(), gaps.mean(), (gaps**2).mean(),
            age / (slots - warmup), successes / attempts)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_batched_engine_agrees_with_step_in_distribution(pattern):
    # same pinned topology, independent streams: buffer statistics must agree,
    # and so must ages and decoding where every realization sees the same
    # interference (periodic phases, drawn once per realization, fix who collides)
    arrivals, updates = PATTERNS[pattern]
    chain = EnergyChainConfig(N=2, B=6, xi=0.5, eta=0.6)
    net = NetworkConfig(density=0.01, N=2, B=6, xi=0.5, eta=0.6)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(30.0), theta=1.3, eps=0.05)
    topo = sample_topology(0.01, 40.0, 3.0, np.random.default_rng(3))
    slots, warmup = 12_000, 200
    occ, mean, second, age, mu = step_statistics(topo, chain, phy, arrivals, updates,
                                                 slots, warmup, seed=4)
    rep = run(SimConfig(slots=slots, realizations=2, seed=5, side=40.0, warmup=warmup,
                        arrivals=arrivals, updates=updates), phy, net, topology=topo)
    assert np.max(np.abs(rep.occupancy - occ)) < 0.02
    assert rep.empirical_interval_mean == pytest.approx(mean, rel=0.03)
    assert rep.empirical_interval_second == pytest.approx(second, rel=0.06)
    if pattern != "periodic":
        assert rep.network_aoi == pytest.approx(age, rel=0.05)
        assert rep.empirical_mu == pytest.approx(mu, rel=0.03)


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


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(slots=0, realizations=1, seed=1, side=10.0)
    with pytest.raises(ValueError):
        SimConfig(slots=10, realizations=1, seed=1, side=10.0, warmup=10)
    for side in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(slots=10, realizations=1, seed=1, side=side)
