"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A constraint on test parameters or inputs is violated."""


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed its configured work budget."""


class NumericalError(ArithmeticError):
    """A computed result failed its numerical checks."""
