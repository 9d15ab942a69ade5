"""Shared helpers: the count check, the bisection behind every monotone root
find, and the float-range guard of the model formulas."""

import math

import numpy as np
import pytest

from ehaoi.errors import OutOfRegime, bisect_increasing, in_float_range, require_integer


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


@in_float_range
def _formula(x, scale=1.0):
    """A stand-in model formula: 1 / x, or x itself where x is not a float."""
    if isinstance(x, str):
        raise ValueError(f"x must be a number, got {x!r}")
    return scale / x if isinstance(x, float) else x


def test_guard_keeps_the_name_of_the_formula():
    assert _formula.__name__ == "_formula" and _formula.__doc__.startswith("A stand-in")


@pytest.mark.parametrize("x, scale, cause", [
    (0.0, 1.0, ZeroDivisionError),  # an ArithmeticError
    (5e-324, 1.0, FloatingPointError),  # 1 / 5e-324 is inf
    (1.0, math.inf, FloatingPointError),
    (1.0, math.nan, FloatingPointError),
], ids=["division-by-zero", "overflow-to-inf", "inf", "nan"])
def test_guard_turns_arithmetic_errors_and_non_finite_results_into_out_of_regime(x, scale, cause):
    with pytest.raises(OutOfRegime, match=rf"^_formula\({x!r}, scale={scale!r}\) leaves the float range: ") as info:
        _formula(x, scale=scale)
    assert type(info.value.__cause__) is cause


def test_guard_lets_a_value_error_through_unchanged():
    with pytest.raises(ValueError, match="^x must be a number, got 'a'$") as info:
        _formula("a")
    assert info.type is ValueError


@pytest.mark.parametrize("x", [2.0, np.float64(4.0), 7, None, (math.inf,), np.array([math.nan])],
                         ids=["float", "numpy-float", "int", "none", "tuple-of-inf", "array-of-nan"])
def test_guard_passes_finite_and_non_float_results_through(x):
    result = _formula(x)
    assert result is x if not isinstance(x, float) else result == 1.0 / x


def test_guard_shortens_long_arguments():
    @in_float_range
    def law(probs):
        return math.fsum(probs) / 0.0

    with pytest.raises(OutOfRegime) as info:
        law(tuple([1e-3] * 1000))
    message = str(info.value)
    assert message.startswith("law((0.001, 0.001, ") and ", ...)) leaves" in message
    assert len(message) < 200
