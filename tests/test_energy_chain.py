"""Energy buffer chain: transition structure, closed forms vs the oracle."""

import math

import numpy as np
import pytest

from conftest import straddles_sign_change
from ehaoi import energy_chain
from ehaoi.energy_chain import (
    EnergyChainConfig,
    Regime,
    SteadyState,
    build_transition_matrix,
    char_poly,
    char_root,
    char_root_approx,
    prob_energy_sufficient,
    solve_steady_numeric,
    steady_closed_large_buffer,
    steady_closed_n1,
    steady_closed_small_buffer,
    steady_eta_one,
    steady_infinite_buffer,
    steady_state,
)
from ehaoi.errors import NonConvergence, NotRecurrent, OutOfRegime

XI_GRID = (0.2, 0.5, 0.8)
ETA_GRID = (0.2, 0.5, 0.8)


def oracle(cfg: EnergyChainConfig) -> np.ndarray:
    return solve_steady_numeric(build_transition_matrix(cfg)).probs


def dense_reference(P: np.ndarray) -> np.ndarray:
    """The bordered dense system: P^T - I, its last row replaced by normalization."""
    m = P.shape[0]
    A = P.T - np.eye(m)
    A[-1, :] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("singular balance system") from exc


# ---------------------------------------------------------------------------
# transition matrix
# ---------------------------------------------------------------------------

def test_transition_full_buffer_tx_no_arrival():
    cfg = EnergyChainConfig(N=2, B=4, xi=0.3, eta=0.7)
    P = build_transition_matrix(cfg)
    # from an interior level, transmit with no arrival drops N units
    assert P[3, 1] == pytest.approx(cfg.eta * (1 - cfg.xi), abs=1e-15)


def test_transition_n1_b1_rows():
    P = build_transition_matrix(EnergyChainConfig(N=1, B=1, xi=0.5, eta=0.5))
    assert np.allclose(P[0], [0.5, 0.5])
    assert np.allclose(P[1], [0.25, 0.75])


@pytest.mark.parametrize("n,b", [(1, 1), (1, 5), (2, 2), (2, 7), (3, 10), (5, 16)])
@pytest.mark.parametrize("xi", XI_GRID)
@pytest.mark.parametrize("eta", (0.2, 0.8, 1.0))
def test_rows_sum_to_one(n, b, xi, eta):
    P = build_transition_matrix(EnergyChainConfig(N=n, B=b, xi=xi, eta=eta))
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(P >= 0.0)


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------

def test_numeric_matches_greedy_case():
    P = build_transition_matrix(EnergyChainConfig(N=2, B=6, xi=0.5, eta=1.0))
    ss = solve_steady_numeric(P)
    assert np.allclose(ss.probs[:3], [0.25, 0.5, 0.25], atol=1e-12)
    assert np.allclose(ss.probs[3:], 0.0, atol=1e-12)


def test_numeric_residual_and_mass():
    for (n, b, xi, eta) in [(1, 4, 0.3, 0.6), (3, 11, 0.7, 0.4), (2, 9, 0.2, 0.9)]:
        P = build_transition_matrix(EnergyChainConfig(N=n, B=b, xi=xi, eta=eta))
        ss = solve_steady_numeric(P, tol=1e-12)
        assert ss.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(ss.probs @ P - ss.probs)) <= 1e-12


# ---------------------------------------------------------------------------
# N = 1 closed form
# ---------------------------------------------------------------------------

def test_n1_example_values():
    ss = steady_closed_n1(EnergyChainConfig(N=1, B=2, xi=0.2, eta=0.5))
    assert ss.probs[0] == pytest.approx(0.3 / 0.4875, abs=1e-12)
    assert np.allclose(ss.probs, [0.615385, 0.307692, 0.076923], atol=1e-6)


def test_n1_large_buffer_limit():
    ss = steady_closed_n1(EnergyChainConfig(N=1, B=400, xi=0.25, eta=0.5))
    assert ss.probs[0] == pytest.approx(1 - 0.25 / 0.5, abs=1e-12)


def test_n1_degenerate_ratio():
    # xi == eta: rho = 1, S_0 = 1 / (1 + B/(1-eta)) and S_i = S_0 / (1-eta)
    ss = steady_closed_n1(EnergyChainConfig(N=1, B=3, xi=0.5, eta=0.5))
    assert np.allclose(ss.probs, [1 / 7, 2 / 7, 2 / 7, 2 / 7], atol=1e-15)


@pytest.mark.parametrize("xi", XI_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
@pytest.mark.parametrize("b", (1, 2, 4, 10))
def test_n1_matches_oracle(xi, eta, b):
    cfg = EnergyChainConfig(N=1, B=b, xi=xi, eta=eta)
    assert np.max(np.abs(steady_closed_n1(cfg).probs - oracle(cfg))) < 1e-10


# ---------------------------------------------------------------------------
# small buffer closed form (N <= B <= 2N)
# ---------------------------------------------------------------------------

def test_small_buffer_bn_example():
    ss = steady_closed_small_buffer(EnergyChainConfig(N=2, B=2, xi=0.5, eta=0.5))
    assert np.allclose(ss.probs, [0.2, 0.4, 0.4], atol=1e-14)


def test_small_buffer_out_of_regime():
    with pytest.raises(OutOfRegime):
        steady_closed_small_buffer(EnergyChainConfig(N=2, B=5, xi=0.5, eta=0.5))
    with pytest.raises(OutOfRegime):
        steady_closed_small_buffer(EnergyChainConfig(N=1, B=1, xi=0.5, eta=0.4))


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("xi", XI_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
def test_small_buffer_matches_oracle(n, xi, eta):
    for b in (n, 2 * n - 2, 2 * n - 1, 2 * n):
        if b < n:
            continue
        cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)
        dev = np.max(np.abs(steady_closed_small_buffer(cfg).probs - oracle(cfg)))
        assert dev < 1e-10, f"B={b}: dev={dev}"


# ---------------------------------------------------------------------------
# greedy updating (eta = 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", (1, 2, 3, 5))
@pytest.mark.parametrize("xi", XI_GRID)
def test_eta_one_matches_oracle_and_ignores_buffer(n, xi):
    reference = None
    for b in (n, 2 * n, 4 * n + 1):
        cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=1.0)
        ss = steady_eta_one(cfg)
        assert np.max(np.abs(ss.probs - oracle(cfg))) < 1e-10
        assert np.allclose(ss.probs[n + 1:], 0.0)
        if reference is None:
            reference = ss.probs[: n + 1]
        assert np.allclose(ss.probs[: n + 1], reference, atol=1e-14)


# ---------------------------------------------------------------------------
# characteristic root
# ---------------------------------------------------------------------------

def test_char_root_n1_exact():
    assert char_root(1, 0.25, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_char_root_n2_frozen():
    # deflated quadratic 0.1 z^2 + 0.5 z - 0.4 = 0
    expected = (math.sqrt(0.41) - 0.5) / 0.2
    root = char_root(2, 0.8, 0.5)
    assert root == pytest.approx(expected, abs=1e-13)
    assert abs(char_poly(root, 2, 0.8, 0.5)) < 1e-12


def test_char_root_balance_line():
    assert char_root(2, 0.8, 0.4) == 1.0
    assert char_root(5, 0.5, 0.1) == 1.0


def test_char_poly_fixed_point():
    for n in (1, 2, 4, 7):
        for xi in XI_GRID:
            for eta in ETA_GRID:
                assert abs(char_poly(1.0, n, xi, eta)) < 1e-15


@pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("xi", XI_GRID)
@pytest.mark.parametrize("eta", ETA_GRID)
def test_char_root_residual_and_sign(n, xi, eta):
    z = char_root(n, xi, eta)
    assert abs(char_poly(z, n, xi, eta)) < 1e-12
    if n * eta > xi:
        assert z < 1.0
    elif n * eta < xi:
        assert z > 1.0
    else:
        assert z == 1.0


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("xi", (0.2, 0.5, 0.8, 0.95))
def test_char_root_sits_at_the_sign_change_of_the_quotient(n, xi):
    for eta in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999):
        if n * eta == xi:
            continue
        z = char_root(n, xi, eta)
        assert straddles_sign_change(lambda v: float(energy_chain._deflated(v, n, xi, eta)), z)


@pytest.mark.parametrize("n, xi, eta", [(3, 0.8, 0.3), (2, 0.9, 0.2)])
def test_char_root_evaluates_the_quotient_at_most_70_times(monkeypatch, n, xi, eta):
    calls = []
    deflated = energy_chain._deflated

    def counted(*args):
        calls.append(args)
        return deflated(*args)

    monkeypatch.setattr(energy_chain, "_deflated", counted)
    assert char_root(n, xi, eta) >= 0.5
    assert len(calls) <= 70


@pytest.mark.parametrize("n, eta", [(2, 0.3), (5, 0.1), (3, 0.2)])
def test_char_root_at_full_harvest_lies_above_one(n, eta):
    # xi = 1 with N eta < 1: g(1) = N eta - 1 < 0 and g grows without bound
    z = char_root(n, 1.0, eta)
    assert z > 1.0
    assert abs(char_poly(z, n, 1.0, eta)) < 1e-12
    assert straddles_sign_change(lambda v: float(energy_chain._deflated(v, n, 1.0, eta)), z)


def test_char_root_at_full_harvest_with_one_unit_has_no_root():
    # N = 1, xi = 1: the deflated quotient is the constant -(1 - eta)
    with pytest.raises(OutOfRegime):
        char_root(1, 1.0, 0.5)


def test_char_root_monotone_in_n_eta_xi():
    for xi in XI_GRID:
        for eta in ETA_GRID:
            roots = [char_root(n, xi, eta) for n in (1, 2, 3, 5, 8)]
            assert all(a >= b - 1e-12 for a, b in zip(roots, roots[1:]))
    for n in (2, 3):
        for xi in XI_GRID:
            roots = [char_root(n, xi, eta) for eta in (0.2, 0.4, 0.6, 0.8, 0.95)]
            assert all(a >= b - 1e-12 for a, b in zip(roots, roots[1:]))
        for eta in ETA_GRID:
            roots = [char_root(n, xi, eta) for xi in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(a <= b + 1e-12 for a, b in zip(roots, roots[1:]))


def test_approx_root_exact_for_small_n():
    for xi in XI_GRID:
        for eta in ETA_GRID:
            assert char_root_approx(1, xi, eta) == pytest.approx(char_root(1, xi, eta), abs=1e-12)
            assert char_root_approx(2, xi, eta) == pytest.approx(char_root(2, xi, eta), abs=1e-12)


def test_approx_root_n3_value_and_gap():
    approx = char_root_approx(3, 0.3, 0.5)
    assert approx == pytest.approx(0.15 / 0.65, abs=1e-14)
    exact = char_root(3, 0.3, 0.5)
    assert approx != exact
    assert abs(approx - exact) < 0.05


# ---------------------------------------------------------------------------
# large buffer closed form (B >= 3N + 1)
# ---------------------------------------------------------------------------

def test_large_buffer_requires_regime():
    with pytest.raises(OutOfRegime):
        steady_closed_large_buffer(EnergyChainConfig(N=2, B=6, xi=0.5, eta=0.5))
    with pytest.raises(OutOfRegime):
        steady_closed_large_buffer(EnergyChainConfig(N=1, B=10, xi=0.4, eta=0.5))


def test_large_buffer_stores_root_below_one():
    ss = steady_closed_large_buffer(EnergyChainConfig(N=2, B=8, xi=0.25, eta=0.5))
    assert ss.char_root is not None and ss.char_root < 1.0
    assert ss.regime is Regime.CLOSED_LARGE_BUFFER


def test_large_buffer_mass_rises_when_energy_abundant():
    # N eta < xi: root above one, occupancy climbs toward the full levels
    ss = steady_closed_large_buffer(EnergyChainConfig(N=3, B=10, xi=0.9, eta=0.2))
    assert ss.char_root > 1.0
    band = ss.probs[3:7]
    assert np.all(np.diff(band) > 0.0)
    num = oracle(EnergyChainConfig(N=3, B=10, xi=0.9, eta=0.2))
    assert np.all(np.diff(num[3:7]) > 0.0)


def test_large_buffer_tightens_with_buffer_size():
    # the all-mode form is exact at every finite B, small or large (here z < 1)
    cfg_small = EnergyChainConfig(N=2, B=8, xi=0.5, eta=0.5)
    cfg_large = EnergyChainConfig(N=2, B=40, xi=0.5, eta=0.5)
    dev_small = np.max(np.abs(steady_closed_large_buffer(cfg_small).probs - oracle(cfg_small)))
    dev_large = np.max(np.abs(steady_closed_large_buffer(cfg_large).probs - oracle(cfg_large)))
    assert dev_small <= 1e-10
    assert dev_large <= 1e-10


def test_large_buffer_boundary_layer_is_real():
    # the boundary layer next to the full buffer, where a single-mode form
    # is off by ~2e-3, is carried by the other N modes and is reproduced
    cfg = EnergyChainConfig(N=2, B=7, xi=0.5, eta=0.2)
    dev = np.max(np.abs(steady_closed_large_buffer(cfg).probs - oracle(cfg)))
    assert dev <= 1e-10


@pytest.mark.parametrize(
    "n,b,xi,eta",
    [
        (2, 7, 0.2, 0.8),
        (3, 10, 0.8, 0.5),
        (5, 16, 0.5, 0.2),
        (8, 25, 0.95, 0.05),
        (8, 400, 0.2, 0.99),
        (3, 2000, 0.9, 0.2),  # z^(B-2N) ~ 1e287: needs the scaled modes
        (2, 20, 0.5, 0.25),  # balance line N eta == xi: z = 1 is a double root
        (3, 300, 0.6, 0.2 + 1e-9),  # z within 1e-9 of the double root
    ],
)
def test_large_buffer_matches_oracle(n, b, xi, eta):
    cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)
    ss = steady_closed_large_buffer(cfg)
    assert ss.char_root == char_root(n, xi, eta)
    assert np.max(np.abs(ss.probs - oracle(cfg))) <= 1e-10


# ---------------------------------------------------------------------------
# infinite buffer
# ---------------------------------------------------------------------------

def test_infinite_requires_recurrence():
    with pytest.raises(NotRecurrent):
        steady_infinite_buffer(EnergyChainConfig(N=2, B=10, xi=0.9, eta=0.2))


def test_infinite_matches_large_finite_buffer():
    cfg = EnergyChainConfig(N=2, B=200, xi=0.5, eta=0.5)
    fin = steady_closed_large_buffer(cfg).probs
    inf_ss = steady_infinite_buffer(EnergyChainConfig(N=2, B=7, xi=0.5, eta=0.5))
    m = min(len(fin), inf_ss.levels + 1, 40)
    assert np.max(np.abs(fin[:m] - inf_ss.probs[:m])) < 1e-12


def test_infinite_level_n_minus_1_value_and_mass():
    cfg = EnergyChainConfig(N=2, B=7, xi=0.5, eta=0.5)
    ss = steady_infinite_buffer(cfg)
    z = ss.char_root
    assert ss.probs[1] == pytest.approx(0.5 * 0.5 * (1 - z) / (2 * 0.5 * z), rel=1e-12)
    assert ss.probs.sum() + ss.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert ss.tail_mass > 0.0


def test_infinite_truncation_control():
    cfg = EnergyChainConfig(N=2, B=7, xi=0.5, eta=0.5)
    ss = steady_infinite_buffer(cfg, truncation=6)
    assert ss.levels == 6
    assert ss.probs.sum() + ss.tail_mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        steady_infinite_buffer(cfg, truncation=2)


def test_infinite_balance_limit_ratios():
    # just inside recurrence, the low-level ratios approach 1 + i/(1-xi)
    xi = 0.6 - 1e-7
    ss = steady_infinite_buffer(EnergyChainConfig(N=3, B=10, xi=xi, eta=0.2))
    assert ss.probs[1] / ss.probs[0] == pytest.approx(1.0 + 1.0 / (1.0 - xi), rel=1e-4)


def test_infinite_greedy_route():
    ss = steady_infinite_buffer(EnergyChainConfig(N=2, B=10, xi=0.5, eta=1.0))
    assert ss.regime is Regime.GREEDY_ETA1
    assert np.allclose(ss.probs[:3], [0.25, 0.5, 0.25])


def _solved_or_none(solve, P):
    try:
        return solve(P)
    except NonConvergence:
        return None


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_numeric_matches_dense_reference(n):
    raised = 0
    for xi in (0.2, 0.5, 0.8, 1.0):
        for eta in (0.2, 0.5, 0.8, 1.0):
            for b in sorted({n, 2 * n - 1, 2 * n, 3 * n + 1, 10 * n, 200 * n}):
                cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)
                P = build_transition_matrix(cfg)
                got = _solved_or_none(lambda M: solve_steady_numeric(M).probs, P)
                want = _solved_or_none(dense_reference, P)
                assert (got is None) == (want is None), cfg
                if got is None:
                    raised += 1
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12, cfg
    # only N = 1, xi = eta = 1 with B >= 2 has more than one closed class
    assert raised == (4 if n == 1 else 0)


def test_numeric_refuses_other_matrices():
    # a jump of two levels up breaks the Hessenberg shape of the balance system
    P = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    with pytest.raises(ValueError, match="skip-free upward"):
        solve_steady_numeric(P)
    with pytest.raises(ValueError, match="square"):
        solve_steady_numeric(np.full((2, 3), 1.0 / 3.0))
    # N = 1, xi = eta = 1: levels 1 and 2 are both absorbing
    P = build_transition_matrix(EnergyChainConfig(N=1, B=2, xi=1.0, eta=1.0))
    with pytest.raises(NonConvergence, match="not unique"):
        solve_steady_numeric(P)


# ---------------------------------------------------------------------------
# the cut recursion (steady_state) and sufficiency
# ---------------------------------------------------------------------------

def test_dispatcher_routes():
    # one route for every regime: greedy, single-unit, small, mid and large buffers
    for cfg in [EnergyChainConfig(3, 30, 0.3, 1.0), EnergyChainConfig(1, 5, 0.3, 0.6),
                EnergyChainConfig(1, 5, 0.3, 0.3), EnergyChainConfig(2, 3, 0.3, 0.6),
                EnergyChainConfig(2, 6, 0.3, 0.6), EnergyChainConfig(2, 40, 0.3, 0.6)]:
        assert steady_state(cfg).regime is Regime.CUT_RECURSION


@pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
def test_steady_state_matches_oracle(n):
    worst = 0.0
    for xi in (0.2, 0.5, 0.8, 1.0):
        for eta in (0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 1.0):
            if n == 1 and xi == eta == 1.0:
                continue  # no unique law; see test_steady_state_non_unique_point
            for b in sorted({n, n + 1, 2 * n, 2 * n + 1, 3 * n, 3 * n + 1, 10 * n, 50 * n}):
                cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)
                dev = np.max(np.abs(steady_state(cfg).probs - oracle(cfg)))
                assert dev <= 1e-10, f"{cfg}: dev={dev}"
                worst = max(worst, dev)
    assert worst > 0.0  # the two routes are computed independently


def test_steady_state_rescales_long_buffers():
    # s_c grows by ~1e100 every ~60 levels downward from s_B = 1 here, so the
    # recursion rescales dozens of times before normalizing
    cfg = EnergyChainConfig(N=2, B=3000, xi=0.2, eta=0.9)
    ss = steady_state(cfg)
    assert np.all(np.isfinite(ss.probs))
    assert np.max(np.abs(ss.probs - oracle(cfg))) <= 1e-10


def test_steady_state_non_unique_point():
    # N = 1, xi = eta = 1: every level >= 1 is absorbing
    cfg = EnergyChainConfig(N=1, B=5, xi=1.0, eta=1.0)
    assert np.array_equal(steady_state(cfg).probs, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NonConvergence, match="not unique"):
        oracle(cfg)


def test_prob_energy_sufficient_values():
    greedy = steady_eta_one(EnergyChainConfig(N=2, B=5, xi=0.5, eta=1.0))
    assert prob_energy_sufficient(greedy, 2) == pytest.approx(0.25, abs=1e-14)
    lemma2 = steady_closed_n1(EnergyChainConfig(N=1, B=2, xi=0.2, eta=0.5))
    assert prob_energy_sufficient(lemma2, 1) == pytest.approx(1 - 0.3 / 0.4875, abs=1e-9)
    starved = SteadyState(probs=np.array([1.0, 0.0, 0.0]), regime=Regime.NUMERIC_ORACLE)
    assert prob_energy_sufficient(starved, 2) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        EnergyChainConfig(N=0, B=1, xi=0.5, eta=0.5)
    with pytest.raises(ValueError):
        EnergyChainConfig(N=2, B=1, xi=0.5, eta=0.5)
    with pytest.raises(ValueError):
        EnergyChainConfig(N=1, B=1, xi=0.0, eta=0.5)
    with pytest.raises(ValueError):
        EnergyChainConfig(N=1, B=1, xi=0.5, eta=1.5)
