"""Shared helpers: the count check and the bisection behind every monotone root find."""

import math

import numpy as np
import pytest

from ehaoi.errors import bisect_increasing, require_integer


def test_require_integer_accepts_python_and_numpy_integers_and_unset():
    require_integer("Owner", a=3, b=np.int64(-2), c=np.uint8(7), d=None)


@pytest.mark.parametrize("value", [True, np.bool_(False), 2.0, np.float64(3.0), 2.5, "3"])
def test_require_integer_refuses_other_values_by_name(value):
    with pytest.raises(ValueError, match=r"^Owner fields must be integers: b$"):
        require_integer("Owner", a=1, b=value)


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
