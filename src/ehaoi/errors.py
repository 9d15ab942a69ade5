"""Exception types shared across the library.

Each type carries the CLI exit code and stderr label it maps to, so
raising the most specific type matters there; library callers can catch
``EhAoiError`` for everything.
"""

import math


def require_finite(owner: str, **fields: float | None) -> None:
    """Reject NaN and infinite config fields; None marks an unset optional."""
    bad = [name for name, value in fields.items() if value is not None and not math.isfinite(value)]
    if bad:
        raise ValueError(f"{owner} fields must be finite: {', '.join(bad)}")


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
