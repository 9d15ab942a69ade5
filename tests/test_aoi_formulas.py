"""Analytical AoI quantities: moments, general formula, closed-form limits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_interval_moments, quadrature_omega
from ehaoi.aoi import (
    IntervalMoments,
    NetworkConfig,
    PhyConfig,
    active_probability_small_buffer,
    aoi_scaling_large_n,
    db_to_linear,
    interval_moments,
    inv_success_moment,
    network_aoi_general,
    network_aoi_greedy,
    network_aoi_large_buffer,
    network_aoi_small_buffer,
    omega,
    small_buffer_split,
    zeta_rectification,
)
from ehaoi.energy_chain import (
    EnergyChainConfig,
    SteadyState,
    build_transition_matrix,
    char_root,
    char_root_approx,
    solve_steady_numeric,
    steady_closed_n1,
    steady_state,
)
from ehaoi.errors import OutOfRegime, SaturatedAccess
from ehaoi.fbl import CodingConfig, effective_threshold_exact

PHY_13DB = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.3, eps=1e-6)


def oracle_ss(cfg):
    return solve_steady_numeric(build_transition_matrix(cfg))


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_alpha4_closed_form():
    assert omega(1.0, 4.0) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)


@pytest.mark.parametrize("theta,alpha", [(1.784, 3.8), (0.5, 3.0), (2.3, 4.5)])
def test_omega_against_quadrature(theta, alpha):
    assert omega(theta, alpha) == pytest.approx(quadrature_omega(theta, alpha), rel=1e-8)


def test_omega_vanishes_with_threshold():
    assert omega(0.0, 3.8) == 0.0


# ---------------------------------------------------------------------------
# reciprocal success moment
# ---------------------------------------------------------------------------

def test_inv_success_trivial_one():
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=1.784, eps=0.0)
    net = NetworkConfig(density=0.0, N=1, B=1, xi=0.5, eta=0.5)
    assert inv_success_moment(phy, net, 0.1) == pytest.approx(1.0, abs=1e-15)


def test_inv_success_monotone():
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.784, eps=1e-6)
    net1 = NetworkConfig(density=0.01, N=1, B=1, xi=0.5, eta=0.5)
    net2 = NetworkConfig(density=0.02, N=1, B=1, xi=0.5, eta=0.5)
    a = inv_success_moment(phy, net1, 0.1)
    assert inv_success_moment(phy, net1, 0.2) > a
    assert inv_success_moment(phy, net2, 0.1) > a


def test_inv_success_saturation():
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(13.0), theta=1.784, eps=1e-6)
    net = NetworkConfig(density=0.01, N=1, B=1, xi=0.5, eta=0.5)
    with pytest.raises(SaturatedAccess):
        inv_success_moment(phy, net, 1.0)
    # interference-free networks tolerate full activity
    free = NetworkConfig(density=0.0, N=1, B=1, xi=0.5, eta=0.5)
    assert inv_success_moment(phy, free, 1.0) > 1.0


def test_inv_success_overflow_is_saturation():
    # exponent ~960 at density 50 and activity 0.3: math.exp would overflow
    net = NetworkConfig(density=50.0, N=2, B=30, xi=0.5, eta=0.3)
    with pytest.raises(SaturatedAccess, match="exponent"):
        inv_success_moment(PHY_13DB, net, 0.3)


@pytest.mark.parametrize("field, value", [("alpha", 1e300), ("r", 1e200)])
def test_path_loss_overflow_is_saturation(field, value):
    # r**alpha (and r**2) overflow a float before the exponential is reached
    net = NetworkConfig(density=0.01, N=2, B=30, xi=0.5, eta=0.3)
    phy = replace(PHY_13DB, **{field: value})
    for moment in (lambda: inv_success_moment(phy, net, 0.3), lambda: aoi_scaling_large_n(net, phy)):
        with pytest.raises(SaturatedAccess, match="exponent"):
            moment()


@pytest.mark.parametrize("xi, eta", [(5e-324, 0.5), (0.5, 5e-324)])
def test_age_out_of_float_range_is_out_of_regime(xi, eta):
    # a product of the rates underflows to 0 on the way, and the age is past any float
    net = NetworkConfig(density=0.01, N=2, B=30, xi=xi, eta=eta)
    with pytest.raises(OutOfRegime):
        network_aoi_general(steady_state(net.chain), net, PHY_13DB)
    with pytest.raises(OutOfRegime):
        network_aoi_large_buffer(net, PHY_13DB)


@pytest.mark.parametrize("xi, eta", [(0.5, 1e-300), (1e-160, 1e-160)],
                         ids=["eta-squared-underflows", "second-moment-overflows"])
def test_interval_moments_out_of_float_range_is_out_of_regime(xi, eta):
    # eta^2 underflows to 0, a division by zero; or 1/eta^2 is past any float,
    # so the second moment is inf and squaring the mean to check it overflows
    cfg = EnergyChainConfig(N=2, B=6, xi=xi, eta=eta)
    with pytest.raises(OutOfRegime, match="interval_moments"):
        interval_moments(steady_state(cfg), cfg)


@pytest.mark.slow
def test_inv_success_against_poisson_field_monte_carlo():
    rng = np.random.default_rng(321)
    alpha, r, theta, lam, p = 3.8, 3.0, 1.784, 0.01, 0.1
    snr, eps = db_to_linear(13.0), 1e-6
    radius = 250.0
    draws = 30_000
    vals = np.empty(draws)
    for i in range(draws):
        n = rng.poisson(lam * math.pi * radius**2)
        radii = radius * np.sqrt(rng.random(n))
        thinning = 1.0 - p / (1.0 + radii**alpha / (theta * r**alpha))
        mu = (1 - eps) * math.exp(-(r**alpha) * theta / snr) * thinning.prod()
        vals[i] = 1.0 / mu
    phy = PhyConfig(alpha=alpha, r=r, tx_snr=snr, theta=theta, eps=eps)
    net = NetworkConfig(density=lam, N=1, B=1, xi=0.5, eta=0.5)
    predicted = inv_success_moment(phy, net, p)
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(predicted - vals.mean()) < 4.0 * se


# ---------------------------------------------------------------------------
# interval moments
# ---------------------------------------------------------------------------

def test_interval_micro_oracle():
    ss = steady_state(EnergyChainConfig(1, 1, 0.5, 1.0))
    m = interval_moments(ss, EnergyChainConfig(1, 1, 0.5, 1.0))
    assert m.mean == pytest.approx(2.0, abs=1e-14)
    assert m.second == pytest.approx(6.0, abs=1e-13)


def test_interval_pure_access_wait():
    # all stationary mass at levels >= 2N: no accumulation ever needed
    ss = SteadyState(probs=np.array([0, 0, 0, 0, 0.5, 0.5]))
    m = interval_moments(ss, EnergyChainConfig(2, 5, 0.5, 0.4))
    assert m.mean == pytest.approx(1 / 0.4, abs=1e-14)
    assert m.second == pytest.approx((2 - 0.4) / 0.4**2, abs=1e-13)


def test_interval_greedy_n1_geometric():
    for xi in (0.2, 0.5, 0.8):
        cfg = EnergyChainConfig(1, 3, xi, 1.0)
        m = interval_moments(steady_state(cfg), cfg)
        assert m.mean == pytest.approx(1.0 / xi, rel=1e-12)


@pytest.mark.parametrize(
    "n,b,xi,eta",
    [(1, 1, 0.5, 1.0), (2, 2, 0.5, 0.5), (2, 8, 0.5, 0.5), (3, 10, 0.8, 0.3),
     (3, 30, 0.8, 0.3), (5, 16, 0.3, 0.8), (2, 5, 0.9, 0.1)],
)
def test_interval_matches_mixture_enumeration(n, b, xi, eta):
    cfg = EnergyChainConfig(n, b, xi, eta)
    ss = oracle_ss(cfg)
    m = interval_moments(ss, cfg)
    b1, b2 = brute_interval_moments(ss, n, xi, eta)
    assert m.mean == pytest.approx(b1, rel=1e-12)
    assert m.second == pytest.approx(b2, rel=1e-12)
    assert m.second >= m.mean**2


def test_interval_moment_bits_do_not_depend_on_the_python_version():
    # the bits of math.fsum, exactly rounded on every Python version; the
    # builtin sum() of Python 3.11, a left-to-right sum, moves the second
    # moment of this chain in the last bit
    cfg = EnergyChainConfig(N=4, B=8, xi=0.8, eta=0.6)
    m = interval_moments(steady_state(cfg), cfg)
    assert (m.mean.hex(), m.second.hex()) == ("0x1.40a376719b6cep+2", "0x1.c5ccb32b22cd6p+4")


def test_interval_requires_reachable_energy():
    ss = SteadyState(probs=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(OutOfRegime, match="no mass at or above level N"):
        interval_moments(ss, EnergyChainConfig(2, 2, 0.5, 0.5))


def test_interval_moments_validation():
    with pytest.raises(ValueError):
        IntervalMoments(mean=2.0, second=1.0)


# ---------------------------------------------------------------------------
# general network AoI and its specializations
# ---------------------------------------------------------------------------

def test_general_every_slot_fresh(clean_phy):
    net = NetworkConfig(density=0.0, N=1, B=1, xi=1.0, eta=1.0)
    ss = steady_state(net.chain)
    assert network_aoi_general(ss, net, clean_phy) == pytest.approx(1.0, abs=1e-14)


def test_general_micro_oracle(clean_phy):
    net = NetworkConfig(density=0.0, N=1, B=1, xi=0.5, eta=1.0)
    ss = steady_state(net.chain)
    assert network_aoi_general(ss, net, clean_phy) == pytest.approx(2.0, abs=1e-14)


THM1_GRID = [(1, 0.5, 0.7), (2, 0.5, 0.5), (3, 0.8, 0.3), (5, 0.3, 0.9), (2, 0.2, 1.0)]


@pytest.mark.parametrize("n,xi,eta", THM1_GRID)
def test_theorem1_equals_general_at_bn(n, xi, eta):
    net = NetworkConfig(density=0.01, N=n, B=n, xi=xi, eta=eta)
    ss = oracle_ss(net.chain)
    general = network_aoi_general(ss, net, PHY_13DB)
    closed = network_aoi_small_buffer(net, PHY_13DB)
    assert closed == pytest.approx(general, abs=1e-9 * max(1.0, abs(general)))


def test_theorem1_micro_value(clean_phy):
    net = NetworkConfig(density=0.0, N=1, B=1, xi=0.5, eta=1.0)
    assert network_aoi_small_buffer(net, clean_phy) == pytest.approx(2.0, abs=1e-13)


def test_active_probability_value():
    assert active_probability_small_buffer(2, 0.5, 0.5) == pytest.approx(0.2, abs=1e-15)
    # equals eta * S_B of the B = N stationary law
    ss = steady_state(EnergyChainConfig(2, 2, 0.5, 0.5))
    assert active_probability_small_buffer(2, 0.5, 0.5) == pytest.approx(
        0.5 * ss.probs[-1], abs=1e-14
    )


def test_small_buffer_split_reassembles():
    net = NetworkConfig(density=0.01, N=3, B=3, xi=0.8, eta=0.3)
    sa, rect = small_buffer_split(net, PHY_13DB)
    assert sa + rect == pytest.approx(network_aoi_small_buffer(net, PHY_13DB), abs=1e-12)
    assert rect < 0.0  # energy correlation can only help here


@pytest.mark.parametrize("n,xi", [(1, 0.5), (2, 0.5), (3, 0.8), (5, 0.3)])
def test_corollary2_equals_theorem1_at_greedy(n, xi):
    net = NetworkConfig(density=0.01, N=n, B=n, xi=xi, eta=1.0)
    t1 = network_aoi_small_buffer(net, PHY_13DB)
    c2 = network_aoi_greedy(net, PHY_13DB)
    assert c2 == pytest.approx(t1, abs=1e-9 * max(1.0, abs(t1)))


def test_greedy_micro_values(clean_phy):
    assert network_aoi_greedy(
        NetworkConfig(density=0.0, N=1, B=1, xi=1.0, eta=1.0), clean_phy
    ) == pytest.approx(1.0, abs=1e-14)
    assert network_aoi_greedy(
        NetworkConfig(density=0.0, N=1, B=1, xi=0.5, eta=1.0), clean_phy
    ) == pytest.approx(2.0, abs=1e-14)


THM2_GRID = [(2, 0.5, 0.5), (3, 0.8, 0.3), (2, 0.5, 0.2), (3, 0.3, 0.9), (1, 0.5, 0.7), (1, 0.8, 0.3)]


@pytest.mark.parametrize("n,xi,eta", THM2_GRID)
def test_theorem2_is_big_buffer_limit(n, xi, eta):
    b = 200 * n
    cfg = EnergyChainConfig(n, b, xi, eta)
    ss = steady_closed_n1(cfg) if n == 1 else oracle_ss(cfg)
    net = NetworkConfig(density=0.01, N=n, B=b, xi=xi, eta=eta)
    finite = network_aoi_general(ss, net, PHY_13DB)
    infinite = network_aoi_large_buffer(net, PHY_13DB)
    assert finite == pytest.approx(infinite, abs=1e-6 * max(1.0, abs(infinite)))


def test_theorem2_abundant_energy_is_plain_aloha(clean_phy):
    # N eta <= xi with no interference/noise: 1/eta
    net = NetworkConfig(density=0.0, N=1, B=10, xi=0.9, eta=0.4)
    assert network_aoi_large_buffer(net, clean_phy) == pytest.approx(2.5, abs=1e-13)


def test_theorem2_greedy_reduction():
    netg = NetworkConfig(density=0.01, N=3, B=300, xi=0.8, eta=1.0)
    assert network_aoi_large_buffer(netg, PHY_13DB) == pytest.approx(
        network_aoi_greedy(netg, PHY_13DB), abs=1e-12
    )


@pytest.mark.parametrize("formula, args, message", [
    (network_aoi_small_buffer, (NetworkConfig(density=0.01, N=2, B=3, xi=0.5, eta=0.5), PHY_13DB),
     "B == N"),
    (network_aoi_greedy, (NetworkConfig(density=0.01, N=2, B=2, xi=0.5, eta=0.9), PHY_13DB),
     "eta == 1"),
    (zeta_rectification, (3, 0.5, 0.3, 1.0), "balance point z = 1"),
], ids=["small-buffer-B-not-N", "greedy-eta-below-1", "zeta-at-balance"])
def test_closed_form_outside_its_regime_is_out_of_regime(formula, args, message):
    # the arguments are valid configs; the closed form just does not hold there
    with pytest.raises(OutOfRegime, match=message):
        formula(*args)


# ---------------------------------------------------------------------------
# rectification term
# ---------------------------------------------------------------------------

def test_zeta_vanishes_for_single_unit():
    for eta in (0.4, 0.6, 0.8, 0.99):
        z = char_root(1, 0.3, eta)
        assert zeta_rectification(1, eta, 0.3, z) == pytest.approx(0.0, abs=1e-12)


def test_zeta_vanishes_at_greedy_limit():
    assert zeta_rectification(5, 1.0, 0.3, char_root(5, 0.3, 1.0)) == 0.0
    z = char_root(5, 0.3, 1.0 - 1e-9)
    assert abs(zeta_rectification(5, 1.0 - 1e-9, 0.3, z)) < 1e-6


def test_zeta_positive_and_matches_alternate_form():
    n, xi, eta = 3, 0.3, 0.5
    z = char_root(n, xi, eta)
    val = zeta_rectification(n, eta, xi, z)
    alt = (1.0 / eta) * (((xi / (n * eta)) - z**n) / (1.0 - z**n) - xi / n)
    assert val > 0.0
    assert val == pytest.approx(alt, rel=1e-10)


def test_ecr_flat_in_eta_for_single_unit():
    xi = 0.3
    net0 = NetworkConfig(density=0.01, N=1, B=100, xi=xi, eta=0.4)
    ref = network_aoi_large_buffer(net0, PHY_13DB)
    for eta in np.linspace(xi + 0.05, 1.0, 12):
        net = NetworkConfig(density=0.01, N=1, B=100, xi=xi, eta=float(eta))
        assert network_aoi_large_buffer(net, PHY_13DB) == pytest.approx(ref, abs=1e-9 * ref)


def test_ecr_minimized_at_greedy_for_multi_unit():
    n, xi = 5, 0.3
    best = network_aoi_large_buffer(
        NetworkConfig(density=0.01, N=n, B=100, xi=xi, eta=1.0), PHY_13DB
    )
    for eta in np.linspace(xi / n + 1e-3, 1.0, 25):
        net = NetworkConfig(density=0.01, N=n, B=100, xi=xi, eta=float(eta))
        assert network_aoi_large_buffer(net, PHY_13DB) >= best - 1e-9


def test_ecr_boundary_gap_with_surrogate_root():
    # greedy updating has no rectification, so the boundary excess over it is
    # the boundary's rectification; with the closed-form root it is N/xi - 1
    n, xi = 5, 0.3
    eta = (xi / n) * (1.0 + 1e-9)
    gap = zeta_rectification(n, eta, xi, char_root_approx(n, xi, eta))
    assert gap == pytest.approx(n / xi - 1.0, abs=1e-6)


def test_ecr_boundary_gap_with_exact_root():
    # with the exact root the boundary excess is (N-1)/(2 xi) instead
    n, xi = 5, 0.3
    eta = (xi / n) * (1.0 + 1e-9)
    base = NetworkConfig(density=0.01, N=n, B=100, xi=xi, eta=eta)
    lo = network_aoi_large_buffer(base, PHY_13DB)
    hi = network_aoi_large_buffer(
        NetworkConfig(density=0.01, N=n, B=100, xi=xi, eta=1.0), PHY_13DB
    )
    assert lo - hi == pytest.approx((n - 1.0) / (2.0 * xi), abs=1e-4)


# ---------------------------------------------------------------------------
# scaling law
# ---------------------------------------------------------------------------

def test_scaling_noise_free_value(clean_phy):
    net = NetworkConfig(density=0.01, N=10, B=1000, xi=0.5, eta=1.0)
    assert aoi_scaling_large_n(net, clean_phy) == pytest.approx(10.0, abs=1e-12)


def test_scaling_doubles_with_n(clean_phy):
    a = aoi_scaling_large_n(NetworkConfig(density=0.01, N=100, B=10_000, xi=0.5, eta=1.0), clean_phy)
    b = aoi_scaling_large_n(NetworkConfig(density=0.01, N=200, B=20_000, xi=0.5, eta=1.0), clean_phy)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_scaling_ratio_approaches_one():
    shannon = 2.0**0.825 - 1.0
    ratios = []
    for n in (200, 400):
        theta_n = effective_threshold_exact(CodingConfig(k=100, N=n, target_rate=0.825, eps=1e-6))
        phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=theta_n, eps=1e-6)
        net = NetworkConfig(density=0.01, N=n, B=100 * n, xi=0.5, eta=1.0)
        full = network_aoi_large_buffer(net, phy)
        scaling = aoi_scaling_large_n(net, replace(phy, theta=shannon))
        ratios.append(full / scaling)
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert abs(ratios[1] - 1.0) < 0.05


def test_phy_validation_and_db_helper():
    assert db_to_linear(13.0) == pytest.approx(10**1.3, rel=1e-15)
    # past the float range the link is noise-free; far below it, the SNR underflows to 0
    assert db_to_linear(4000.0) == math.inf and db_to_linear(-4000.0) == 0.0
    with pytest.raises(ValueError):
        PhyConfig(alpha=2.0, r=3.0, tx_snr=1.0, theta=1.0, eps=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(density=-0.1, N=1, B=1, xi=0.5, eta=0.5)
    with pytest.raises(ValueError):
        NetworkConfig(density=math.nan, N=1, B=1, xi=0.5, eta=0.5)
    with pytest.raises(ValueError, match="integers: N"):
        NetworkConfig(density=0.1, N=True, B=1, xi=0.5, eta=0.5)
    # an infinite transmit SNR is the noise-free link, not a non-finite input
    assert PhyConfig(alpha=3.8, r=3.0, tx_snr=math.inf, theta=1.0, eps=0.0).noise_exponent == 0.0


@pytest.mark.parametrize("field,value", [("alpha", math.nan), ("r", math.inf), ("theta", math.nan),
                                         ("tx_snr", math.nan)])
def test_phy_rejects_non_finite(field, value):
    kw = dict(alpha=3.8, r=3.0, tx_snr=10.0, theta=1.0, eps=0.0)
    kw[field] = value
    with pytest.raises(ValueError):
        PhyConfig(**kw)
