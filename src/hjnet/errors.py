"""Exception types shared across the package.

Validation failures are distinct classes so callers (and the CLI exit-code
logic) can tell input problems apart from numerical misuse.
"""


class HJNetError(Exception):
    """Base class for all hjnet errors."""


class ValidationError(HJNetError):
    """Bad input data: network description, datum, limiter, scenario file."""


class LoopEdgeError(ValidationError):
    """An edge starts and ends at the same vertex; loops are unsupported."""


class DuplicateIdError(ValidationError):
    """A vertex, edge or arc identifier occurs twice."""


class DisconnectedNetworkError(ValidationError):
    """The undirected graph is not connected."""


class UnknownVertexError(ValidationError):
    """A vertex id does not exist in the network."""


class ScenarioParseError(ValidationError):
    """Scenario file could not be parsed; carries a line anchor."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonNegativeSlopeError(ValidationError):
    """The slope-cap transform needs a strictly negative slope."""


class CFLViolationError(HJNetError):
    """Time step too large for the scheme's dissipation coefficient."""


class CornerMismatchError(ValidationError):
    """Lateral datum at the initial time lies below the initial datum."""


class GridMismatchError(ValidationError):
    """Two fields that must share a grid do not."""


class EmptySublevelError(HJNetError):
    """Requested sublevel set {p : H(s,p) <= M for all s} is empty."""
