"""Finite-blocklength rate and threshold checks."""

import math

import pytest

from ehaoi import fbl
from ehaoi.errors import OutOfRegime
from ehaoi.fbl import (
    CodingConfig,
    effective_threshold_approx,
    effective_threshold_exact,
    gaussian_q,
    max_coding_rate,
    q_inverse,
)


def test_q_inverse_symmetry_point():
    assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-14)


def test_q_inverse_tail_value():
    # standard normal upper tail: Q(4.753424308822899) = 1e-6
    assert q_inverse(1e-6) == pytest.approx(4.753424308822899, abs=1e-9)


@pytest.mark.parametrize("p", [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.99])
def test_q_inverse_round_trip(p):
    assert gaussian_q(q_inverse(p)) == pytest.approx(p, rel=1e-12)


def test_q_inverse_matches_scipy_isf():
    from scipy.stats import norm

    tail = [1e-8 * (0.5 / 1e-8) ** (i / 400) for i in range(400)]  # geometric over [1e-8, 0.5)
    upper = [0.5 + 0.49 * i / 49 for i in range(1, 50)]  # (0.5, 0.99]
    for p in tail + upper:
        assert q_inverse(p) == pytest.approx(norm.isf(p), rel=1e-14, abs=0.0)


def test_rate_zero_sinr_keeps_only_length_bonus():
    for c in (100, 500, 10_000):
        assert max_coding_rate(0.0, c, 1e-6) == pytest.approx(
            math.log2(c) / (2 * c), abs=1e-15
        )


def test_rate_median_eps_drops_dispersion():
    assert max_coding_rate(1.0, 100, 0.5) == pytest.approx(
        1.0 + math.log2(100) / 200.0, abs=1e-12
    )


def test_rate_frozen_point_exceeds_target():
    # independently computed from the rate expression with Q^-1(1e-6)
    rate = max_coding_rate(1.784, 100, 1e-6)
    assert rate == pytest.approx(0.870371262747, abs=1e-9)
    assert rate > 0.825


def _cfg(n=1, k=100, rt=0.825, eps=1e-6):
    return CodingConfig(k=k, N=n, target_rate=rt, eps=eps)


def test_threshold_exact_round_trip():
    cfg = _cfg()
    theta = effective_threshold_exact(cfg)
    assert max_coding_rate(theta, cfg.blocklength, cfg.eps) == pytest.approx(0.825, abs=1e-10)
    assert theta == pytest.approx(1.691609699068, abs=1e-9)


def test_threshold_approx_frozen_and_upper_bound():
    cfg = _cfg()
    approx = effective_threshold_approx(cfg)
    assert approx == pytest.approx(1.784763648570, abs=1e-9)
    assert approx >= effective_threshold_exact(cfg)


def test_threshold_median_eps_closed_form():
    cfg = _cfg(eps=0.5)
    expected = 2.0 ** (0.825 - math.log2(100) / 200.0) - 1.0
    assert effective_threshold_exact(cfg) == pytest.approx(expected, abs=1e-10)


def test_threshold_upper_bound_grid():
    for n in (1, 2, 5, 10):
        for eps in (1e-2, 1e-4, 1e-6):
            cfg = _cfg(n=n, eps=eps)
            approx = effective_threshold_approx(cfg)
            assert approx >= effective_threshold_exact(cfg)
            # the bisection's upper end: past approx the rate grows, and its dispersion factor is <= 1
            assert max_coding_rate(2 * approx, cfg.blocklength, cfg.eps) >= cfg.target_rate


def test_threshold_decreases_with_blocklength():
    exact = [effective_threshold_exact(_cfg(n=n)) for n in (1, 2, 5, 10, 100)]
    approx = [effective_threshold_approx(_cfg(n=n)) for n in (1, 2, 5, 10, 100)]
    assert all(a > b for a, b in zip(exact, exact[1:]))
    assert all(a > b for a, b in zip(approx, approx[1:]))


def test_threshold_relative_gap_shrinks():
    def rel_gap(n):
        cfg = _cfg(n=n)
        exact = effective_threshold_exact(cfg)
        return (effective_threshold_approx(cfg) - exact) / exact

    assert rel_gap(10) < rel_gap(1)


def test_threshold_shannon_limit():
    # at c_N = 1e9 the threshold sits ~2e-4 above 2^R_t - 1 for eps = 1e-6
    cfg = CodingConfig(k=100, N=10_000_000, target_rate=0.825, eps=1e-6)
    shannon = 2.0**0.825 - 1.0
    exact = effective_threshold_exact(cfg)
    approx = effective_threshold_approx(cfg)
    assert shannon < exact < shannon + 3e-4
    assert shannon < approx < shannon + 3e-4


def test_target_rate_too_low():
    with pytest.raises(OutOfRegime, match="threshold bracket invalid"):
        effective_threshold_exact(_cfg(rt=0.1, eps=0.5))


@pytest.mark.parametrize("threshold, rate", [(effective_threshold_exact, 520.0),
                                             (effective_threshold_approx, 1100.0)])
def test_threshold_out_of_float_range_is_out_of_regime(threshold, rate):
    # the rate at the exact threshold squares 1 + gamma ~ 2^520, past any
    # float; the approximation's 2^(R_t + ...) overflows from about 1024 on
    cfg = CodingConfig(k=100, N=1, target_rate=rate, eps=1e-6)
    with pytest.raises(OutOfRegime, match=rf"^{threshold.__name__}\(CodingConfig\(k=100, N=1, "
                                          rf"target_rate={rate!r}, eps=1e-06\)\) leaves the float range"):
        threshold(cfg)


def test_threshold_just_inside_the_float_range_is_finite():
    cfg = CodingConfig(k=100, N=1, target_rate=500.0, eps=1e-6)
    assert math.isfinite(effective_threshold_exact(cfg)) and effective_threshold_approx(cfg) < 1e308


def test_config_validation():
    with pytest.raises(ValueError):
        CodingConfig(k=10, N=1, target_rate=0.825, eps=1e-6)  # blocklength 10
    with pytest.raises(ValueError):
        CodingConfig(k=100, N=1, target_rate=0.825, eps=1e-7)
    with pytest.raises(ValueError):
        CodingConfig(k=100, N=1, target_rate=-1.0, eps=1e-6)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            CodingConfig(k=100, N=1, target_rate=rate, eps=1e-6)
    with pytest.raises(ValueError, match="integers: k"):
        CodingConfig(k=100.5, N=1, target_rate=0.825, eps=1e-6)
    with pytest.raises(ValueError, match="integers: N"):
        CodingConfig(k=100, N=True, target_rate=0.825, eps=1e-6)


@pytest.mark.parametrize("n", [1, 3, 10, 100, 1000])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_threshold_evaluates_the_rate_at_most_60_times(monkeypatch, n, eps):
    calls = []
    rate = fbl.max_coding_rate

    def counted(*args):
        calls.append(args)
        return rate(*args)

    monkeypatch.setattr(fbl, "max_coding_rate", counted)
    effective_threshold_exact(CodingConfig(100, n, 0.825, eps))
    assert len(calls) <= 60
