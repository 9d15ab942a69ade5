"""Shared helpers: the bisection behind every monotone root find, and the
fixed-order float sums."""

import math

import numpy as np
import pytest

from ehaoi.errors import bisect_increasing, fold_sum, pairwise_sum


def _recording(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


@pytest.mark.parametrize("a, lo, hi", [
    (0.3, 0.0, 1.0),
    (1.0 / 3.0, 0.0, 1.0),
    (0.999999, 0.0, 1.0),
    (2.5e-300, 0.0, 1.0),
    (1234.5678, 1.0, 4096.0),
    (-7.25, -100.0, 3.0),
])
def test_bisection_lands_next_to_the_sign_change(a, lo, hi):
    f, calls = _recording(lambda x: x - a)
    z = bisect_increasing(f, lo, hi)
    assert z in (math.nextafter(a, -math.inf), a, math.nextafter(a, math.inf))
    assert lo not in calls and hi not in calls


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1e-15, 1.0 - 1e-15), (0.1, 0.7), (1.0, 3.0)])
def test_bisection_of_a_negative_function_returns_hi(lo, hi):
    f, calls = _recording(lambda x: x - 10.0)
    assert bisect_increasing(f, lo, hi) == hi
    assert lo not in calls and hi not in calls


def test_bisection_needs_no_call_on_a_one_float_bracket():
    f, calls = _recording(lambda x: x)
    lo = 0.5
    hi = math.nextafter(lo, math.inf)
    assert bisect_increasing(f, lo, hi) in (lo, hi)
    assert calls == []


def test_pairwise_sum_is_numpys_sum_bit_for_bit():
    rng = np.random.default_rng(2024)
    # the block edges of numpy's scheme, then random lengths up to 9000
    lengths = [*range(20), 127, 128, 129, 255, 256, 257, 8191, 8192, 8193, 9000]
    lengths += rng.integers(0, 9001, size=150).tolist()
    for n in lengths:
        # mixed signs and magnitudes over sixteen decades, so the order of additions shows
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        for view in (a, a[3:], a[1:-2]):
            assert pairwise_sum(view.tolist()) == float(np.sum(view)), n
    assert math.copysign(1.0, pairwise_sum([-0.0])) == math.copysign(1.0, float(np.sum([-0.0])))


def test_fold_sum_adds_left_to_right():
    # a compensated sum (the builtin sum from Python 3.12 on, or fsum) returns 1.0
    assert fold_sum([1e100, 1.0, -1e100]) == 0.0
    total = 0.0
    for _ in range(10):
        total += 0.1
    assert fold_sum(iter([0.1] * 10)) == total != 1.0
    assert fold_sum([]) == 0.0
