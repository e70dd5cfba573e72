"""Finite-alphabet probability objects and information measures.

All quantities are in nats.  Every object validates its invariants on
construction, renormalizes exactly, and freezes its storage, so instances
are safe to share across threads.

Conventions:
  * 0 * ln 0 = 0 throughout.
  * A likelihood ratio with zero reference mass under positive numerator
    mass yields ``math.inf`` (never NaN).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySupport,
    NegativeEntry,
    NonStochastic,
    ZeroChannelEntry,
)

SUM_TOL = 1e-12


def _as_float_array(values, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"expected a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatch("empty array")
    if not np.all(np.isfinite(arr)):
        raise NonStochastic("entries must be finite")
    return arr


def _check_simplex(arr: np.ndarray, what: str) -> np.ndarray:
    if np.any(arr < 0.0):
        raise NegativeEntry(f"{what} has a negative entry")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise NonStochastic(f"{what} sums to {total!r}, not 1")
    out = arr / total
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Distribution:
    """A probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.probs, ndim=1)
        object.__setattr__(self, "probs", _check_simplex(arr, "distribution"))

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)

    @staticmethod
    def uniform(k: int) -> "Distribution":
        return Distribution(np.full(k, 1.0 / k))

    @staticmethod
    def point_mass(k: int, index: int) -> "Distribution":
        probs = np.zeros(k)
        probs[index] = 1.0
        return Distribution(probs)


@dataclass(frozen=True)
class Channel:
    """A row-stochastic transition matrix with strictly positive entries.

    ``probs[x, y]`` is the probability of output ``y`` given input ``x``.
    Positivity is a standing assumption of every channel computation here
    (log-likelihood ratios must be finite).
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.probs, ndim=2)
        if np.any(arr <= 0.0):
            raise ZeroChannelEntry("channel entries must be strictly positive")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            raise NonStochastic("a channel row does not sum to 1")
        arr = arr / sums[:, None]
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def input_size(self) -> int:
        return self.probs.shape[0]

    @property
    def output_size(self) -> int:
        return self.probs.shape[1]

    def row(self, x: int) -> Distribution:
        return Distribution(self.probs[x])


@dataclass(frozen=True)
class JointDistribution:
    """A joint probability mass function over a product alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.probs, ndim=2)
        if np.any(arr < 0.0):
            raise NegativeEntry("joint distribution has a negative entry")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise NonStochastic(f"joint distribution sums to {total!r}, not 1")
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple:
        return self.probs.shape

    def flattened(self) -> Distribution:
        """The same mass function over the flattened pair alphabet (row-major)."""
        return Distribution(self.probs.reshape(-1))


def joint_from_input_and_channel(q: Distribution, p: Channel) -> JointDistribution:
    """The joint law of (input, output) when the input is drawn from ``q``."""
    if q.alphabet_size != p.input_size:
        raise DimensionMismatch("input distribution does not match channel input size")
    return JointDistribution(q.probs[:, None] * p.probs)


@dataclass(frozen=True)
class ConditionalKernel:
    """One probability row per conditioning index (a test channel / kernel)."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.rows, ndim=2)
        if np.any(arr < 0.0):
            raise NegativeEntry("kernel has a negative entry")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            raise NonStochastic("a kernel row does not sum to 1")
        arr = arr / sums[:, None]
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class DistortionModel:
    """A single-letter distortion matrix ``values[x, xhat]`` (nats).

    ``d_min`` and ``d_max`` are the matrix extrema, cached on construction.
    """

    values: np.ndarray
    d_min: float = field(init=False)
    d_max: float = field(init=False)

    def __post_init__(self):
        arr = _as_float_array(self.values, ndim=2)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "d_min", float(arr.min()))
        object.__setattr__(self, "d_max", float(arr.max()))

    @property
    def source_size(self) -> int:
        return self.values.shape[0]

    @property
    def reproduction_size(self) -> int:
        return self.values.shape[1]


def validate(model) -> None:
    """Re-run the constructor invariants of a probability object.

    Raises NonStochastic, NegativeEntry, ZeroChannelEntry or DimensionMismatch
    exactly as the constructor would; returns None when all invariants hold.
    """
    if isinstance(model, Distribution):
        Distribution(np.array(model.probs))
    elif isinstance(model, Channel):
        Channel(np.array(model.probs))
    elif isinstance(model, JointDistribution):
        JointDistribution(np.array(model.probs))
    elif isinstance(model, ConditionalKernel):
        ConditionalKernel(np.array(model.rows))
    elif isinstance(model, DistortionModel):
        DistortionModel(np.array(model.values))
    else:
        raise DimensionMismatch(f"cannot validate object of type {type(model)!r}")


def kl_divergence_raw(t: np.ndarray, p: np.ndarray) -> float:
    """D(t || p) for raw probability vectors of equal length; may be inf."""
    mask = t > 0.0
    if np.any(p[mask] == 0.0):
        return math.inf
    ts = t[mask]
    return float(np.dot(ts, np.log(ts / p[mask])))


def kl_divergence(t: Distribution, p: Distribution) -> float:
    """Relative entropy D(t || p) in nats; ``inf`` if t is not dominated by p."""
    if t.alphabet_size != p.alphabet_size:
        raise DimensionMismatch("alphabet sizes differ")
    return kl_divergence_raw(t.probs, p.probs)


def mutual_information(q: Distribution, p: Channel) -> float:
    """Input/output mutual information of channel ``p`` under input law ``q``."""
    if q.alphabet_size != p.input_size:
        raise DimensionMismatch("input distribution does not match channel")
    out = q.probs @ p.probs
    with np.errstate(divide="ignore"):
        ratio = np.log(p.probs) - np.log(out)[None, :]
    terms = q.probs[:, None] * p.probs * ratio
    return float(terms.sum())


def average_distortion(t: Distribution, w: ConditionalKernel, d: DistortionModel) -> float:
    """Expected distortion sum_x t(x) sum_xhat w(xhat|x) d(x, xhat)."""
    if w.input_size != t.alphabet_size or d.source_size != t.alphabet_size:
        raise DimensionMismatch("source alphabet sizes differ")
    if w.output_size != d.reproduction_size:
        raise DimensionMismatch("reproduction alphabet sizes differ")
    return float(np.einsum("x,xk,xk->", t.probs, w.rows, d.values))


def simplex_grid_arrays(dimension: int, denominator: int) -> np.ndarray:
    """All rational points of the (dimension-1)-simplex with the given denominator.

    Returns a read-only array of shape (C(m+k-1, k-1), k) in colexicographic
    order of the integer compositions (last coordinate varies slowest).  The
    last few grids are cached, so repeated oracle calls at one alphabet size
    and denominator share one array.
    """
    if dimension < 1 or denominator < 1:
        raise DimensionMismatch("dimension and denominator must be >= 1")
    return _simplex_grid(int(dimension), int(denominator))


@functools.lru_cache(maxsize=16)
def _simplex_grid(k: int, m: int) -> np.ndarray:
    grid = _compositions(k, m) / m
    grid.flags.writeable = False
    return grid


def _compositions(k: int, m: int) -> np.ndarray:
    """Every way to write m as k non-negative integers, one row each, in the
    order of ``simplex_grid_arrays``.  Not cached: callers such as the exact
    Monte-Carlo evaluators ask for large, one-off grids."""
    if k == 1:
        return np.full((1, 1), m, dtype=np.int64)
    rows = []

    # Build compositions so that the output sorts by the last coordinate first.
    def outer(position: int, remaining: int, coords: list) -> None:
        if position == 0:
            rows.append([remaining] + coords)
            return
        for c in range(remaining + 1):
            outer(position - 1, remaining - c, [c] + coords)

    outer(k - 1, m, [])
    return np.array(rows, dtype=np.int64)


def simplex_grid(dimension: int, denominator: int):
    """Stream of Distribution objects covering the rational simplex grid."""
    for row in simplex_grid_arrays(dimension, denominator):
        yield Distribution(row)


def support_or_raise(q: Distribution) -> np.ndarray:
    sup = q.support
    if sup.size == 0:
        raise EmptySupport("distribution has empty support")
    return sup
