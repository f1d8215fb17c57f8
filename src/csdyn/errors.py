"""Exception types raised across the toolkit."""


class CsdynError(Exception):
    """Base class for all structured errors."""


class DimensionMismatchError(CsdynError):
    pass


class DegenerateFormError(CsdynError):
    pass


class OpenLoopError(CsdynError):
    pass


class UnknownModelError(CsdynError):
    pass


class ParamError(CsdynError):
    pass


class KindError(CsdynError):
    """A map operation was applied to a flow model or vice versa."""


class _RowFailure(CsdynError):
    """An integration failure; in a batch, row and model name the failing start."""

    def __init__(self, message, t=None, state=None, row=None, model=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.row = row
        self.model = model


class PoisonedStateError(_RowFailure):
    """NaN/inf produced by a field evaluation; carries the offending state."""


class BlowUpError(CsdynError):
    """An operation that needs a finite orbit hit a blow-up."""

    def __init__(self, message, t_escape=None):
        super().__init__(message)
        self.t_escape = t_escape


class ConvergenceError(_RowFailure):
    """An iteration (step-size control, Newton, implicit midpoint) did not converge."""


class SectionError(CsdynError):
    pass


class NonHyperbolicError(CsdynError):
    pass


class StructureError(CsdynError):
    """A model lacks the structure (H, lambda, eta, ...) an operation needs."""


class ConfigError(CsdynError):
    """Invalid run configuration; carries file/line context when known."""

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key
