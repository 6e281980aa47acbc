"""Exception types shared across the toolkit.

Validation problems (bad arguments, malformed configs) subclass ValueError;
failures of runtime state or iterative procedures subclass RuntimeError.
"""


class ParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class DataError(ValueError):
    """Input data is malformed: wrong shape, wrong dtype domain, missing fields."""


class DegenerateImageError(ValueError):
    """An image has no usable contrast (e.g. constant input to a histogram threshold)."""


class TrainingError(RuntimeError):
    """An iterative fit diverged or produced non-finite values."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class AttackError(RuntimeError):
    """A simulated copy attack could not be carried out on the given input."""

