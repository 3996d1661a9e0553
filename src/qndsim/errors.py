"""Exception types raised by the simulator.

Everything derives from QndSimError so callers (notably the CLI) can tell
domain errors apart from bugs and usage mistakes.
"""


class QndSimError(ValueError):
    """Base class for domain errors: a precondition of an operation was violated."""


class InvalidParameterError(QndSimError):
    """A numeric parameter is out of its allowed range (nonpositive variance, width, count, ...)."""


class GridTooNarrowError(QndSimError):
    """A grid does not cover the support required by the requested operation."""


class GridMismatchError(QndSimError):
    """Two states that must share a grid live on different grids."""


class DegeneratePhaseError(QndSimError):
    """The interferometer phase is outside the usable open interval (0, pi/2)."""


class NullOutcomeError(QndSimError):
    """Conditioning was requested on an outcome whose density is numerically zero."""


class BracketError(QndSimError):
    """An optimizer bracket is invalid (lo >= hi or otherwise unusable)."""


class NoSignChangeError(QndSimError):
    """A root bracket does not actually bracket a sign change."""


class NonFiniteObjectiveError(QndSimError):
    """An objective returned NaN or infinity during optimization."""

