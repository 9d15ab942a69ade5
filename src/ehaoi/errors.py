"""Exception types, and the helpers that every layer shares.

Each type carries the CLI exit code and stderr label it maps to:
OutOfRegime (3), SaturatedAccess (3, which the optimizer catches),
NonConvergence (4) and BadConfig (2).  Library callers can catch
``EhAoiError`` for everything; a ValueError is a config field refused.
The helpers refuse config fields that are not finite or not integers,
bisect the monotone root finds of the energy chain, the coding threshold
and the optimizer's update rate, and guard each model formula's float range.
"""

import functools
import math
import reprlib
from collections.abc import Callable
from numbers import Integral


def require_finite(owner: str, **fields: float | None) -> None:
    """Reject NaN and infinite config fields; None marks an unset optional."""
    bad = [name for name, value in fields.items() if value is not None and not math.isfinite(value)]
    if bad:
        raise ValueError(f"{owner} fields must be finite: {', '.join(bad)}")


def require_integer(owner: str, **fields: int | None) -> None:
    """Reject count fields that are not an int or a numpy integer; a bool is refused too."""
    bad = [name for name, value in fields.items()
           if value is not None and (isinstance(value, bool) or not isinstance(value, Integral))]
    if bad:
        raise ValueError(f"{owner} fields must be integers: {', '.join(bad)}")


def bisect_increasing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Sign change of an increasing ``f``, given f(lo) < 0 <= f(hi), to one float.

    Halves the bracket until the midpoint rounds onto an endpoint and
    returns that midpoint, one of the two adjacent floats around the sign
    change, so no iteration cap or tolerance is needed.  ``f`` is never
    called at ``lo`` or ``hi``; if it is negative at every midpoint, the
    result is ``hi``.
    """
    top = hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return mid if hi < top else top


_ARGUMENT = reprlib.Repr()
_ARGUMENT.maxother = 160  # a config's fields fit; a stationary law is cut short


def in_float_range(formula: Callable) -> Callable:
    """``formula``, raising OutOfRegime where its arithmetic leaves the float range.

    The arguments are valid, so an ArithmeticError or a float result that
    is not finite means a rate too close to 0 or 1 for a float to hold the
    result; the message names the formula and its arguments.  A
    ValueError, the refusal of an argument, passes through.
    """

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            result = formula(*args, **kwargs)
            if isinstance(result, float) and not math.isfinite(result):
                raise FloatingPointError(f"the result is {result!r}")
        except ArithmeticError as exc:
            shown = ", ".join([*map(_ARGUMENT.repr, args),
                               *(f"{k}={_ARGUMENT.repr(v)}" for k, v in kwargs.items())])
            raise OutOfRegime(f"{formula.__name__}({shown}) leaves the float range: {exc}") from exc
        return result

    return checked


class EhAoiError(Exception):
    """Base class for all library-specific errors."""

    exit_code = 3
    label = "out-of-regime"


class NonConvergence(EhAoiError):
    """A solver ended above tolerance or found no unique solution."""

    exit_code = 4
    label = "non-convergence"


class OutOfRegime(EhAoiError):
    """A model was asked for outside its validity region, or a result overflows a float.

    For example: an infinite buffer that never runs scarce (N eta <= xi), a
    law with no mass where a packet can be sent, a target rate met below the
    threshold bracket.
    """


class SaturatedAccess(EhAoiError):
    """Per-slot activity reached 1 or the success moment overflows a float."""


class BadConfig(EhAoiError):
    """Experiment specification is malformed or inconsistent."""

    exit_code = 2
    label = "bad-config"
