"""Exception types shared across the package; ``refuse``, which turns a
parameter owner's rule violations into one ``ValueError``; and
``fail_if``, which turns a check's failures into one ``CheckFailed``."""


def refuse(problems) -> None:
    """Raise one ValueError listing the (field, message) pairs of
    ``problems``, if there are any."""
    if problems:
        raise ValueError("; ".join(f"{name}: {message}" for name, message in problems))


class SwarmPDEError(Exception):
    """Base class for all package errors."""


class NonFiniteEvaluation(SwarmPDEError):
    """A model function returned NaN/Inf on the sampling set."""


class DegenerateDiffusion(SwarmPDEError):
    """D vanishes at some r > 0, or is negative; this regime is not
    supported."""


class RatioUndefined(SwarmPDEError):
    """zeta2' vanishes at a sample point where E is nonzero."""


class HypothesisViolation(SwarmPDEError):
    """A discrete coefficient inequality fails on the built arrays."""


class NegativeInitialData(SwarmPDEError):
    """Initial data evaluated negative beyond roundoff."""


class GridMismatch(SwarmPDEError):
    """Fields passed to an operator do not live on the same grid."""


class NegativeField(SwarmPDEError):
    """A field constrained to be nonnegative carries negative values."""


class UnstableStep(SwarmPDEError):
    """A time step produced negative-beyond-tolerance or non-finite cells.

    Signals a violated step-size contract; the run is aborted."""


class StepBudgetExceeded(SwarmPDEError):
    """Reaching the horizon would take more steps than the solver's budget
    (``solver_core.MAX_STEPS``); refused before the steps are taken."""


class CheckFailed(SwarmPDEError):
    """A check failed: ``kind`` names it in failure.json and ``messages``
    say each thing that failed it."""

    def __init__(self, kind: str, messages):
        self.kind = kind
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def fail_if(kind: str, messages) -> None:
    """Raise CheckFailed(kind, messages) if there are any messages."""
    if messages:
        raise CheckFailed(kind, messages)


class ConfigInvalid(CheckFailed):
    """Configuration failed validation; carries all field-level messages."""

    def __init__(self, messages):
        super().__init__("config_invalid", messages)


class ConfigMismatch(SwarmPDEError):
    """Cross-validation preconditions on the model family are not met."""


class InadmissibleTestFunction(SwarmPDEError):
    """Test function violates the support or boundary requirements."""
