"""Exception types, and the helpers that every layer shares.

Each type carries the CLI exit code and stderr label it maps to, so
raising the most specific type matters there; library callers can catch
``EhAoiError`` for everything.  The helpers check config fields, bisect
the monotone root finds of the energy chain, coding and optimizer, and sum
floats in a fixed order, so that no result depends on the Python version.
"""

import math
from collections.abc import Callable, Iterable, Sequence
from functools import reduce
from operator import add


def require_finite(owner: str, **fields: float | None) -> None:
    """Reject NaN and infinite config fields; None marks an unset optional."""
    bad = [name for name, value in fields.items() if value is not None and not math.isfinite(value)]
    if bad:
        raise ValueError(f"{owner} fields must be finite: {', '.join(bad)}")


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


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0.

    The builtin ``sum`` gives these bits up to Python 3.11; from 3.12 on it
    compensates float sums, so it is not used for results.
    """
    return reduce(add, values, 0.0)


def pairwise_sum(values: Sequence[float]) -> float:
    """The float64 sum numpy's ``sum`` gives on a contiguous array, bit for bit.

    numpy adds the result of its pairwise scheme to 0.0: fewer than 8 items
    are added in order; up to 128 go to eight interleaved accumulators,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), before
    the remainder is added in order; more are split at half the length
    rounded down to a multiple of 8.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(a: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        end = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo:lo + 8]
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


class EhAoiError(Exception):
    """Base class for all library-specific errors."""

    exit_code = 3
    label = "out-of-regime"


class NonConvergence(EhAoiError):
    """A solver ended above tolerance or found no unique solution."""

    exit_code = 4
    label = "non-convergence"


class OutOfRegime(EhAoiError):
    """A closed form was requested outside its validity region."""


class NotRecurrent(EhAoiError):
    """Infinite-buffer chain with N*eta <= xi has no scarcity steady state."""


class NeverSufficient(EhAoiError):
    """Steady state puts zero mass on buffer levels that allow a transmission."""


class SaturatedAccess(EhAoiError):
    """Per-slot activity reached 1 or the success moment overflows a float."""


class TargetRateTooLow(EhAoiError):
    """Target coding rate is below the rate floor of the monotone bracket."""


class IterationBudgetExceeded(EhAoiError):
    """Alternating optimization did not settle within the iteration cap."""

    exit_code = 4
    label = "non-convergence"


class BadConfig(EhAoiError):
    """Experiment specification is malformed or inconsistent."""

    exit_code = 2
    label = "bad-config"
