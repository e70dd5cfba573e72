"""Semantic exception hierarchy shared by all rcexp modules."""


class RcexpError(Exception):
    """Base error for this package."""


class NonStochastic(RcexpError, ValueError):
    """Probability entries do not sum to one within tolerance."""


class NegativeEntry(RcexpError, ValueError):
    """A probability entry is negative."""


class ZeroChannelEntry(RcexpError, ValueError):
    """A channel transition probability is zero (all entries must be positive)."""


class DimensionMismatch(RcexpError, ValueError):
    """Shapes of the supplied objects are inconsistent."""


class EmptySupport(RcexpError, ValueError):
    """A distribution has no positive entries where support is required."""


class CodebookTooLarge(RcexpError, ValueError):
    """Requested codebook size exceeds the configured cap."""


class InsufficientData(RcexpError, ValueError):
    """Not enough usable sample points for the requested estimate."""


class ModelSpecError(RcexpError, ValueError):
    """A JSON model spec failed to parse or validate."""


class NoConvergence(RcexpError, ArithmeticError):
    """A safeguarded solver gave up: its iteration cap or bracket limit was reached."""
