"""Exception types shared across the library.

The CLI maps these onto exit codes, so raising the most specific type
matters there; library callers can catch ``EhAoiError`` for everything.
"""


class EhAoiError(Exception):
    """Base class for all library-specific errors."""


class NonConvergence(EhAoiError):
    """A solver ended above tolerance or found no unique solution."""


class OutOfRegime(EhAoiError):
    """A closed form was requested outside its validity region."""


class NotRecurrent(EhAoiError):
    """Infinite-buffer chain with N*eta <= xi has no scarcity steady state."""


class NeverSufficient(EhAoiError):
    """Steady state puts zero mass on buffer levels that allow a transmission."""


class SaturatedAccess(EhAoiError):
    """Per-slot activity probability reached 1; interference moment diverges."""


class TargetRateTooLow(EhAoiError):
    """Target coding rate is below the rate floor of the monotone bracket."""


class IterationBudgetExceeded(EhAoiError):
    """Alternating optimization did not settle within the iteration cap."""


class EmptyRealization(EhAoiError):
    """A Poisson draw produced zero links on the simulation window."""


class BadConfig(EhAoiError):
    """Experiment specification is malformed or inconsistent."""
