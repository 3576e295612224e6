"""Exception types shared across the package.

Two families matter to callers: ``ValidationError`` (bad inputs, caught
before any computation runs) and ``SimulationError`` (the numbers went
somewhere the model cannot follow, e.g. a resonant series cancellation).
The CLI maps the first family to exit code 1 and the second to exit code 2.
"""


class ValidationError(ValueError):
    """An input violates a documented constraint."""


class ScenarioParseError(ValidationError):
    """Scenario text could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        # ``args`` holds the one formatted string, which ``__init__`` cannot
        # take back; rebuild from both arguments so that a worker process's
        # parse error re-raises intact in the caller.
        return type(self), (self.line, self.message), self.__dict__


class AsymmetricMatrixError(ValidationError):
    """A matrix handed to the symmetric eigensolver is not symmetric."""


class DegeneratePointError(ValidationError):
    """Linearization requested at an operating point where its denominator vanishes."""


class EmptyTraceError(ValidationError):
    """A trace with no samples cannot be serialized."""


class SimulationError(RuntimeError):
    """A model computation failed at runtime."""


class SingularImpedanceError(SimulationError):
    """Series impedance magnitude collapsed below 1e-12 ohm (near-resonant cancellation)."""


class ZeroPowerError(SimulationError):
    """Power factor angle requested at (essentially) zero apparent power."""


class NoRootError(SimulationError):
    """The requested operating point does not exist (e.g. an unreachable power factor angle)."""
