"""Exception hierarchy shared across the package.

Everything that maps onto a process exit code derives from
:class:`EvtLabError`, so the command-line layer can translate failures
without parsing messages.
"""

__all__ = [
    "EvtLabError",
    "DomainError",
    "ContractViolationError",
    "DegenerateTailError",
    "InconsistentTailError",
    "DegenerateNormalizationError",
    "UnsupportedBaseError",
    "SearchHorizonError",
]


class EvtLabError(Exception):
    """Base class for all package errors."""


class DomainError(EvtLabError, ValueError):
    """An argument violates a documented precondition."""


class ContractViolationError(EvtLabError):
    """A supplied callable broke its contract (monotonicity or range)."""


class DegenerateTailError(EvtLabError):
    """A tail increment vanished: the upper quantile is flat at this scale."""


class InconsistentTailError(EvtLabError):
    """Tail increments changed sign across scales."""


class DegenerateNormalizationError(EvtLabError):
    """Norming constants collapsed to a degenerate affine map (a_n = 0)."""


class UnsupportedBaseError(EvtLabError):
    """The operation requires a continuous base distribution."""


class SearchHorizonError(EvtLabError):
    """A bounded search ran out of horizon.

    Carries ``sufficient_horizon``, a bound that is guaranteed to contain a
    witness, so the caller can retry.
    """

    def __init__(self, message: str, sufficient_horizon: int | None = None):
        super().__init__(message)
        self.sufficient_horizon = sufficient_horizon
