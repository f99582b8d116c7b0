"""Exception types shared across the package, and the range check of counts."""

import operator


class IdsenseError(Exception):
    """Base class for all package errors."""


class InvalidParameter(IdsenseError, ValueError):
    """A parameter outside its domain, such as mu outside (0, 1) or an unknown mode."""


class DimensionMismatch(IdsenseError):
    pass


class RowNotNormalized(IdsenseError):
    def __init__(self, x: int, s: int, total: float):
        self.x, self.s, self.total = x, s, total
        super().__init__(f"kernel row [x={x}][s={s}] sums to {total!r}, expected 1")


class NegativeProbability(IdsenseError):
    pass


class NegativeDistortion(IdsenseError):
    pass


class IndexOutOfRange(IdsenseError):
    pass


class LengthMismatch(IdsenseError):
    pass


class NotADistribution(IdsenseError):
    pass


class ZeroCapacityChannel(IdsenseError):
    pass


class NoConvergence(IdsenseError):
    def __init__(self, max_iters: int, gap: float | None = None):
        self.max_iters, self.gap = max_iters, gap
        msg = f"no convergence after {max_iters} iterations"
        if gap is not None:
            msg += f" (remaining gap {gap:.3e})"
        super().__init__(msg)


class InfeasibleDistortion(IdsenseError):
    def __init__(self, budget: float, min_feasible: float):
        self.budget, self.min_feasible = budget, min_feasible
        super().__init__(f"no feasible input at distortion budget {budget!r}; "
                         f"smallest feasible budget is {min_feasible!r}")


class TooLargeToEnumerate(IdsenseError):
    pass


class TooManyMessages(IdsenseError):
    pass


class AlphabetTooLarge(IdsenseError):
    pass


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int in low..high (no upper end if `high` is None), the one
    range check of counts, indices and seeds; a value that is not an integer
    (2.5, nan, 4.0) or lies outside the range raises InvalidParameter."""
    try:
        number = operator.index(value)
        if low <= number and (high is None or number <= high):
            return number
    except TypeError:
        pass
    span = f">= {low}" if high is None else f"in {low}..{high}"
    raise InvalidParameter(f"{name} must be an integer {span}, got {value!r}")
