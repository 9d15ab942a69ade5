"""Exception types, and the helpers that every layer shares.

Each type carries the CLI exit code and stderr label it maps to, so
raising the most specific type matters there; library callers can catch
``EhAoiError`` for everything.  The helpers check config fields and
bisect the monotone root finds of the energy chain, coding and optimizer.
"""

import math
from collections.abc import Callable


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
