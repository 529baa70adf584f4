"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input: bad lengths, unknown symbols, inconsistent shapes."""


class ConstraintError(ValueError):
    """Structurally valid input that violates a divisibility or occurrence rule.

    The message names the first stage at which the rule breaks.
    """


class ResourceError(RuntimeError):
    """A table or grid would exceed the configured size cap."""


class ToleranceError(RuntimeError):
    """A numeric routine could not reach the requested accuracy; `stage`
    names the stage that missed it, if one did."""

    def __init__(self, message, achieved=None, stage=None):
        super().__init__(message)
        self.achieved = achieved
        self.stage = stage


class CoherenceError(ValueError):
    """Stage offsets of a symbolic point do not nest consistently; `stage`
    names the stage whose offset breaks the nesting, if one does."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class OracleMismatch(AssertionError):
    """Two independent computations of the same object disagree.

    Carries the first differing index and both values so the caller can
    report a concrete witness.
    """

    def __init__(self, message, index=None, left=None, right=None):
        super().__init__(message)
        self.index = index
        self.left = left
        self.right = right
