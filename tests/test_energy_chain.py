"""Energy buffer chain: transition structure, closed forms vs the oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import straddles_sign_change
from ehaoi import energy_chain
from ehaoi.energy_chain import (
    EnergyChainConfig,
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
from ehaoi.errors import NonConvergence, OutOfRegime

XI_GRID = (0.2, 0.5, 0.8)
ETA_GRID = (0.2, 0.5, 0.8)


def oracle(cfg: EnergyChainConfig) -> np.ndarray:
    return np.asarray(solve_steady_numeric(build_transition_matrix(cfg)).probs)


def dense_view(bands) -> np.ndarray:
    """The m x m matrix P that ``bands[d][i] = P[i, i + d - K]`` holds, K = len(bands) - 2."""
    bands = np.asarray(bands)
    w, m = bands.shape
    P = np.zeros((m, m))
    for d in range(w):
        shift = d - (w - 2)
        rows = np.arange(max(0, -shift), min(m, m - shift))
        P[rows, rows + shift] = bands[d, rows]
    return P


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
    P = dense_view(build_transition_matrix(cfg))
    # from an interior level, transmit with no arrival drops N units
    assert P[3, 1] == pytest.approx(cfg.eta * (1 - cfg.xi), abs=1e-15)


def test_transition_n1_b1_rows():
    P = dense_view(build_transition_matrix(EnergyChainConfig(N=1, B=1, xi=0.5, eta=0.5)))
    assert np.allclose(P[0], [0.5, 0.5])
    assert np.allclose(P[1], [0.25, 0.75])


@pytest.mark.parametrize("n,b", [(1, 1), (1, 5), (2, 2), (2, 7), (3, 10), (5, 16)])
@pytest.mark.parametrize("xi", XI_GRID)
@pytest.mark.parametrize("eta", (0.2, 0.8, 1.0))
def test_rows_sum_to_one(n, b, xi, eta):
    P = dense_view(build_transition_matrix(EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)))
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
        bands = build_transition_matrix(EnergyChainConfig(N=n, B=b, xi=xi, eta=eta))
        ss = solve_steady_numeric(bands)
        P = dense_view(bands)
        probs = np.asarray(ss.probs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(probs @ P - probs)) <= 1e-12


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
    # N eta > xi: root below one, the mirror of the abundant case below
    cfg = EnergyChainConfig(N=2, B=8, xi=0.25, eta=0.5)
    assert char_root(2, 0.25, 0.5) < 1.0
    assert np.max(np.abs(steady_closed_large_buffer(cfg).probs - oracle(cfg))) < 1e-12


def test_large_buffer_mass_rises_when_energy_abundant():
    # N eta < xi: root above one, occupancy climbs toward the full levels
    ss = steady_closed_large_buffer(EnergyChainConfig(N=3, B=10, xi=0.9, eta=0.2))
    assert char_root(3, 0.9, 0.2) > 1.0
    band = ss.probs[3:7]
    assert np.all(np.diff(band) > 0.0)
    num = oracle(EnergyChainConfig(N=3, B=10, xi=0.9, eta=0.2))
    assert np.all(np.diff(num[3:7]) > 0.0)


def test_large_buffer_tightens_with_buffer_size():
    # the cut-mode form is exact at every finite B, small or large (here z < 1)
    cfg_small = EnergyChainConfig(N=2, B=8, xi=0.5, eta=0.5)
    cfg_large = EnergyChainConfig(N=2, B=40, xi=0.5, eta=0.5)
    dev_small = np.max(np.abs(steady_closed_large_buffer(cfg_small).probs - oracle(cfg_small)))
    dev_large = np.max(np.abs(steady_closed_large_buffer(cfg_large).probs - oracle(cfg_large)))
    assert dev_small <= 1e-10
    assert dev_large <= 1e-10


def test_large_buffer_boundary_layer_is_real():
    # the boundary layer next to the full buffer, where a single-mode form
    # is off by ~2e-3, is carried by the other N-1 modes and is reproduced
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
        (3, 2000, 0.9, 0.2),  # z^(B-2N) ~ 1e287: the mode is (1/z)^(B-i)
        (2, 20, 0.5, 0.25),  # balance line N eta == xi: z = 1, a simple root of the quotient
        (3, 300, 0.6, 0.2 + 1e-9),  # z within 1e-9 of 1
    ],
)
def test_large_buffer_matches_oracle(n, b, xi, eta):
    cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)
    ss = steady_closed_large_buffer(cfg)
    assert np.max(np.abs(ss.probs - oracle(cfg))) <= 1e-10


# a rate within 300 decades of 0, or within 16 of 1
EXTREME_RATE = st.one_of(
    st.floats(-300.0, 0.0, exclude_max=True).map(lambda u: 10.0**u).filter(lambda r: r < 1.0),
    st.floats(1.0, 16.0).map(lambda u: 1.0 - 10.0**-u),
)


@given(data=st.data())
def test_large_buffer_refuses_only_where_char_root_does(data):
    n = data.draw(st.integers(2, 8), label="N")
    cfg = EnergyChainConfig(n, data.draw(st.integers(3 * n + 1, 20 * n), label="B"),
                            data.draw(EXTREME_RATE, label="xi"), data.draw(EXTREME_RATE, label="eta"))
    try:
        char_root(n, cfg.xi, cfg.eta)
    except OutOfRegime:
        with pytest.raises(OutOfRegime):
            steady_closed_large_buffer(cfg)
        return
    law = steady_closed_large_buffer(cfg).probs
    try:
        exact = steady_state(cfg).probs
    except OutOfRegime:  # the cut recursion outgrows its rescaling
        return
    assert np.max(np.abs(np.subtract(law, exact))) <= 1e-10


def test_large_buffer_matches_steady_state_at_tiny_rates():
    cfg = EnergyChainConfig(N=2, B=8, xi=1e-100, eta=1e-250)
    dev = np.max(np.abs(np.subtract(steady_closed_large_buffer(cfg).probs, steady_state(cfg).probs)))
    assert dev <= 1e-10


def test_large_buffer_levels_below_n_wait_for_arrivals():
    # each level below N waits about 1 / xi slots for an arrival, so they
    # hold all but ~1e-300 of the mass; steady_state refuses here
    probs = steady_closed_large_buffer(EnergyChainConfig(N=2, B=8, xi=1e-300, eta=0.5)).probs
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[1] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# infinite buffer
# ---------------------------------------------------------------------------

def test_infinite_requires_recurrence():
    with pytest.raises(OutOfRegime, match="energy never runs scarce"):
        steady_infinite_buffer(EnergyChainConfig(N=2, B=10, xi=0.9, eta=0.2))


def test_infinite_matches_large_finite_buffer():
    cfg = EnergyChainConfig(N=2, B=200, xi=0.5, eta=0.5)
    fin = np.asarray(steady_closed_large_buffer(cfg).probs)
    inf_ss = steady_infinite_buffer(EnergyChainConfig(N=2, B=7, xi=0.5, eta=0.5))
    m = min(len(fin), inf_ss.levels + 1, 40)
    assert np.max(np.abs(fin[:m] - inf_ss.probs[:m])) < 1e-12


def test_infinite_level_n_minus_1_value_and_mass():
    cfg = EnergyChainConfig(N=2, B=7, xi=0.5, eta=0.5)
    ss = steady_infinite_buffer(cfg)
    z = char_root(2, 0.5, 0.5)
    assert ss.probs[1] == pytest.approx(0.5 * 0.5 * (1 - z) / (2 * 0.5 * z), rel=1e-12)
    assert np.sum(ss.probs) + ss.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert ss.tail_mass > 0.0


def test_infinite_balance_limit_ratios():
    # just inside recurrence, the low-level ratios approach 1 + i/(1-xi)
    xi = 0.6 - 1e-7
    ss = steady_infinite_buffer(EnergyChainConfig(N=3, B=10, xi=xi, eta=0.2))
    assert ss.probs[1] / ss.probs[0] == pytest.approx(1.0 + 1.0 / (1.0 - xi), rel=1e-4)


def test_infinite_greedy_route():
    ss = steady_infinite_buffer(EnergyChainConfig(N=2, B=10, xi=0.5, eta=1.0))
    assert np.allclose(ss.probs[:3], [0.25, 0.5, 0.25])
    assert not any(ss.probs[3:]) and ss.tail_mass == 0.0


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
                bands = build_transition_matrix(cfg)
                got = _solved_or_none(lambda M: np.asarray(solve_steady_numeric(M).probs), bands)
                want = _solved_or_none(dense_reference, dense_view(bands))
                assert (got is None) == (want is None), cfg
                if got is None:
                    raised += 1
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12, cfg
    # only N = 1, xi = eta = 1 with B >= 2 has more than one closed class
    assert raised == (4 if n == 1 else 0)


def test_numeric_refuses_other_matrices():
    # the bands of a 3-level matrix: one (K = -1) is too few to hold the
    # diagonal and the step up, and five (K = 3) put the lowest band wholly
    # outside the matrix
    bands = build_transition_matrix(EnergyChainConfig(N=2, B=2, xi=0.5, eta=0.5))
    for wrong in (bands[:1], np.vstack([np.zeros(3), bands])):
        with pytest.raises(ValueError, match="bands must be"):
            solve_steady_numeric(wrong)
    with pytest.raises(ValueError, match="bands must be"):
        solve_steady_numeric(bands[0])
    # N = 1, xi = eta = 1: levels 1 and 2 are both absorbing
    bands = build_transition_matrix(EnergyChainConfig(N=1, B=2, xi=1.0, eta=1.0))
    with pytest.raises(NonConvergence, match="not unique"):
        solve_steady_numeric(bands)
    # a NaN entry spreads through the solution, and its residual is NaN
    bands = build_transition_matrix(EnergyChainConfig(N=2, B=6, xi=0.5, eta=0.5))
    bands[2][3] = math.nan
    with pytest.raises(NonConvergence, match="residual nan"):
        solve_steady_numeric(bands)


def test_numeric_takes_bands_as_lists_or_an_array():
    for cfg in (EnergyChainConfig(1, 40, 0.3, 0.6), EnergyChainConfig(3, 500, 0.69, 0.34),
                EnergyChainConfig(8, 300, 0.9, 0.2)):
        bands = build_transition_matrix(cfg)
        assert solve_steady_numeric(bands).probs == solve_steady_numeric(np.asarray(bands)).probs


def _random_banded_chain(rng, k: int, m: int) -> np.ndarray:
    """Bands of a random row-stochastic m x m matrix, one step up and k down, all inside P positive."""
    bands = rng.random((k + 2, m)) + 0.05
    for d in range(k + 2):
        shift = d - k
        bands[d, [i for i in range(m) if not 0 <= i + shift < m]] = 0.0
    return bands / bands.sum(axis=0)


@pytest.mark.parametrize("k", (1, 2, 3, 5, 8))
def test_numeric_matches_dense_least_squares_on_random_chains(k):
    rng = np.random.default_rng(k)
    for m in (k + 1, k + 2, 3 * k + 4, 40, 400):
        bands = _random_banded_chain(rng, k, m)
        P = dense_view(bands)
        # the stationary law solves [P^T - I; 1 ... 1] s = [0; 1] exactly
        A = np.vstack([P.T - np.eye(m), np.ones(m)])
        rhs = np.zeros(m + 1)
        rhs[-1] = 1.0
        want = np.linalg.lstsq(A, rhs, rcond=None)[0]
        got = np.asarray(solve_steady_numeric(bands.tolist()).probs)
        if m <= 40:
            assert np.max(np.abs(got - want)) <= 1e-12, (k, m)
        else:
            # at k = 1 this system's condition number reaches 1e8, so the dense
            # answer carries an error of 1e-11; compare the balance residuals
            assert np.max(np.abs(got @ P - got)) <= np.max(np.abs(want @ P - want)), (k, m)


def test_numeric_memory_is_linear_in_the_buffer():
    # a dense (B+1)^2 matrix or factor would take 50 MB apiece here
    cfg = EnergyChainConfig(3, 2500, 0.69, 0.34)
    tracemalloc.start()
    try:
        solve_steady_numeric(build_transition_matrix(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# the cut recursion (steady_state) and sufficiency
# ---------------------------------------------------------------------------

def test_dispatcher_routes():
    # one route for every regime: greedy, single-unit, small, mid and large buffers
    for cfg in [EnergyChainConfig(3, 30, 0.3, 1.0), EnergyChainConfig(1, 5, 0.3, 0.6),
                EnergyChainConfig(1, 5, 0.3, 0.3), EnergyChainConfig(2, 3, 0.3, 0.6),
                EnergyChainConfig(2, 6, 0.3, 0.6), EnergyChainConfig(2, 40, 0.3, 0.6)]:
        ss = steady_state(cfg)
        assert ss.levels == cfg.B and ss.tail_mass == 0.0


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


@pytest.mark.parametrize("xi", [5e-324, 1e-110])
def test_steady_state_out_of_float_range_is_out_of_regime(xi):
    # up(c) = xi (1 - eta) underflows to 0 at the first, and one step of the
    # recursion, about 1 / up(c), outgrows the 1e100 rescaling at the second
    with pytest.raises(OutOfRegime, match="underflows|overflows"):
        steady_state(EnergyChainConfig(N=2, B=30, xi=xi, eta=0.5))


@pytest.mark.parametrize("law, n, b, xi, eta", [
    (steady_closed_n1, 1, 6, 0.5, 1e-300),
    (steady_closed_small_buffer, 2, 4, 1e-300, 0.5),
    (steady_closed_large_buffer, 2, 7, 0.99999999, 1e-300),
    (steady_closed_large_buffer, 2, 8, 0.5, 1e-300),
], ids=["n1-power-overflows", "small-buffer-power-overflows", "large-buffer-root-at-inf",
        "large-buffer-root-bracket-overflows"])
def test_closed_form_out_of_float_range_is_out_of_regime(law, n, b, xi, eta):
    # a power overflows, or char_root's bracket starts at inf or overflows
    with pytest.raises(OutOfRegime, match="leaves the float range"):
        law(EnergyChainConfig(N=n, B=b, xi=xi, eta=eta))


@pytest.mark.parametrize("n, xi", [(2, 0.5), (2, 0.99999999), (1, 0.99999999)],
                         ids=["bracket-power-overflows", "bracket-starts-at-inf", "one-unit-bracket-at-inf"])
def test_char_root_out_of_float_range_is_out_of_regime(n, xi):
    # the bracket search doubles hi until hi ** n overflows, or its first hi,
    # 2 xi (1 - eta) / (eta (1 - xi)), is already inf and so is the root
    with pytest.raises(OutOfRegime, match=rf"^char_root\({n}, {xi!r}, 1e-300\) leaves the float range: "):
        char_root(n, xi, 1e-300)


def test_large_buffer_law_with_an_outer_mode_warns_nothing():
    # the root r ~ -10001 enters as (1/r)^(B - i), which underflows to the
    # right 0 far below level B; the suite turns a RuntimeWarning into an error
    cfg = EnergyChainConfig(N=2, B=2000, xi=0.5, eta=1e-8)
    dev = np.max(np.abs(np.subtract(steady_closed_large_buffer(cfg).probs, steady_state(cfg).probs)))
    assert dev <= 1e-10


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
    starved = SteadyState(probs=np.array([1.0, 0.0, 0.0]))
    assert prob_energy_sufficient(starved, 2) == 0.0


def test_steady_state_refuses_nan():
    # NaN compares False both ways, so each check must be written to fail on it
    with pytest.raises(ValueError, match="non-negative"):
        SteadyState(probs=np.array([math.nan, math.nan]))
    with pytest.raises(ValueError, match="mass"):
        SteadyState(probs=np.array([0.5, 0.5]), tail_mass=math.nan)
    ss = SteadyState(probs=np.array([0.25, 0.5]), tail_mass=0.25)
    assert prob_energy_sufficient(ss, 1) == 0.75


def test_config_validation():
    with pytest.raises(ValueError):
        EnergyChainConfig(N=0, B=1, xi=0.5, eta=0.5)
    with pytest.raises(ValueError):
        EnergyChainConfig(N=2, B=1, xi=0.5, eta=0.5)
    with pytest.raises(ValueError):
        EnergyChainConfig(N=1, B=1, xi=0.0, eta=0.5)
    with pytest.raises(ValueError):
        EnergyChainConfig(N=1, B=1, xi=0.5, eta=1.5)
    for n, b, field in ((2.5, 10, "N"), (2, 10.0, "B"), (True, 10, "N")):
        with pytest.raises(ValueError, match=f"integers: {field}"):
            EnergyChainConfig(n, b, 0.5, 0.5)
    assert EnergyChainConfig(np.int64(2), np.int64(10), 0.5, 0.5).B == 10
