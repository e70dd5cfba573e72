"""Rate functions and the boundary quantities that delimit finite exponents.

The central object is the codebook-constrained rate function

    rate(T, Q, D) = min { D(T.W || T x Q) : kernels W with mean distortion <= D },

evaluated through its dual form: the supremum over a nonnegative tilt ``s`` of

    -sum_x T(x) * ln sum_xhat Q(xhat) * exp(-s * (d(x, xhat) - D)).

The objective is concave in ``s`` (a minimum of affine functions), so a
doubling bracket plus golden section finds the supremum; divergence and
attainment-in-the-limit are decided analytically from the support geometry
before any search runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatch
from .optimize import concave_max_on_ray, golden_max
from .probability import (
    Channel,
    Distribution,
    DistortionModel,
    JointDistribution,
    support_or_raise,
)

S_CAP = 2.0 ** 16
# Tilt optimizers can sit at huge but finite values (their scale grows like
# one over the outer slope variable); the doubling bracket is allowed to run
# this far before the supremum is declared attained-in-the-limit.
S_CAP_HARD = 1e16
DIV_TOL = 1e-12
# How close to sigma = 1 the coupled solver is allowed to evaluate; closer
# amplifies cancellation error in G(sigma) / (1 - sigma).
SIGMA_MAX = 1.0 - 1e-7


@dataclass(frozen=True)
class RateResult:
    """Value of a rate function together with solver metadata.

    ``optimizer_s`` is the maximizing tilt (``math.inf`` when the supremum is
    attained only in the limit).  ``at_d_min`` marks queries sitting exactly on
    the minimal-distortion boundary, where the variational characterization is
    only guaranteed to be a bound.
    """

    value: float
    optimizer_s: float
    evaluations: int
    at_d_min: bool = False


def channel_distortion(p: Channel) -> DistortionModel:
    """The log-likelihood-ratio distortion induced by a channel.

    Rows are indexed by input/output pairs (input-major), columns by the
    competing input letter:  d((x, y), xhat) = ln p(y|x) - ln p(y|xhat).
    """
    lnp = np.log(p.probs)
    nx, ny = p.probs.shape
    rows = lnp.reshape(nx, ny, 1) - lnp.T.reshape(1, ny, nx)
    return DistortionModel(rows.reshape(nx * ny, nx))


def _lse_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp without scipy's dispatch overhead."""
    m = a.max(axis=1)
    return np.log(np.exp(a - m[:, None]).sum(axis=1)) + m


def _weights_of(t) -> np.ndarray:
    if isinstance(t, Distribution):
        return t.probs
    if isinstance(t, JointDistribution):
        return t.probs.reshape(-1)
    return np.asarray(t, dtype=float)


def _restrict(q: Distribution, d: DistortionModel):
    """Distortion columns and log-masses restricted to the codebook support."""
    sup = support_or_raise(q)
    return d.values[:, sup], np.log(q.probs[sup])


def _feasible_limit(weights: np.ndarray, dgap: np.ndarray, lnq: np.ndarray) -> float:
    """Upper bound on the dual objective: -sum_x w(x) ln Q({d(x,.) <= level}).

    Used when the bracket search gives up while still increasing; -inf when a
    weighted row has no feasible letter (no candidate then).
    """
    value = 0.0
    for x in np.flatnonzero(weights > 0.0):
        feas = dgap[x] <= 1e-12
        if not np.any(feas):
            return -math.inf
        value -= weights[x] * logsumexp(lnq[feas])
    return float(value)


def _tight_limit(weights: np.ndarray, dgap: np.ndarray, lnq: np.ndarray) -> float:
    """Exact infinite-tilt limit when the terminal slope vanishes.

    Each row concentrates on its own distortion minimizers, so the limit is
    -sum_x w(x) ln Q({xhat : d(x, xhat) = min d(x, .)}), regardless of how the
    per-row minima straddle the level.
    """
    value = 0.0
    for x in np.flatnonzero(weights > 0.0):
        tight = dgap[x] <= dgap[x].min() + 1e-12
        value -= weights[x] * logsumexp(lnq[tight])
    return float(value)


def _sup_dual(weights: np.ndarray, dgap: np.ndarray, lnq: np.ndarray,
              s_cap: float = S_CAP, rel_tol: float = 1e-10):
    """sup over s >= 0 of -sum_x w(x) lse_xhat(lnq - s * dgap[x, :]).

    Returns (value, s_star, evaluations).  ``dgap`` already has the
    distortion level subtracted.
    """
    active = weights > 0.0
    w = weights[active]
    gap = dgap[active]

    slope_inf = float(np.dot(w, gap.min(axis=1)))
    if slope_inf > DIV_TOL:
        return math.inf, math.inf, 0
    if slope_inf >= -DIV_TOL:
        # Terminal slope zero: the concave objective is nondecreasing, so the
        # supremum is the analytic limit at infinite tilt.
        limit = _tight_limit(weights, dgap, lnq)
        return max(limit, 0.0), math.inf, 0

    slope_zero = float(np.dot(w, np.exp(lnq) @ gap.T))
    if slope_zero <= 0.0:
        return 0.0, 0.0, 1

    def g(s: float) -> float:
        return float(-np.dot(w, _lse_rows(lnq[None, :] - s * gap)))

    # The terminal slope is strictly negative, so a finite maximizer exists;
    # escalate the bracket beyond the nominal cap if the objective is still
    # rising there (the maximizer can be astronomically large when the
    # terminal slope is tiny).
    res = concave_max_on_ray(g, max(s_cap, S_CAP_HARD), rel_tol=rel_tol)
    if res.at_upper:
        # Both limit formulas bound the supremum from above; the feasible-mass
        # one is tighter but degenerates when a row straddles the level.
        limit = _feasible_limit(weights, dgap, lnq)
        if not math.isfinite(limit):
            limit = _tight_limit(weights, dgap, lnq)
        return max(res.value, limit, 0.0), math.inf, res.evaluations
    return max(res.value, 0.0), res.x, res.evaluations


def rate_function(t, q: Distribution, d: DistortionModel, level: float,
                  s_cap: float = S_CAP) -> RateResult:
    """Constrained rate of source law ``t`` against codebook ``q`` at distortion ``level``.

    ``t`` may be a Distribution, a JointDistribution (flattened row-major to
    match a channel-induced distortion matrix), or a raw probability vector.
    Returns +inf exactly when no kernel supported on the codebook meets the
    distortion constraint, i.e. when sum_x t(x) min_xhat d(x, xhat) > level.
    """
    weights = _weights_of(t)
    if weights.shape[0] != d.source_size:
        raise DimensionMismatch("source law does not match distortion rows")
    if q.alphabet_size != d.reproduction_size:
        raise DimensionMismatch("codebook does not match distortion columns")
    dsub, lnq = _restrict(q, d)
    dmin_restricted = float(dsub[weights > 0.0].min()) if np.any(weights > 0.0) else 0.0
    value, s_star, evals = _sup_dual(weights, dsub - level, lnq, s_cap=s_cap)
    return RateResult(value, s_star, evals,
                      at_d_min=abs(level - dmin_restricted) <= 1e-12)


def rate_values_batch(t_batch: np.ndarray, q: Distribution, d: DistortionModel,
                      level: float, s_cap: float = S_CAP,
                      golden_iters: int = 60) -> np.ndarray:
    """Vectorized rate_function values for many source laws at once.

    Used by the brute-force oracles, where tens of thousands of grid laws
    share one (codebook, distortion, level) triple.  Each law runs its own
    bracketing and golden section, synchronized across the batch.
    """
    t_batch = np.asarray(t_batch, dtype=float)
    n = t_batch.shape[0]
    dsub, lnq = _restrict(q, d)
    gap = dsub - level

    dmin = gap.min(axis=1)
    slope_inf = t_batch @ dmin
    diverged = slope_inf > DIV_TOL

    qsub = np.exp(lnq)
    slope_zero = t_batch @ (gap @ qsub)

    def g_many(s_vec: np.ndarray) -> np.ndarray:
        m = lnq[None, None, :] - s_vec[:, None, None] * gap[None, :, :]
        return -np.einsum("nx,nx->n", t_batch, logsumexp(m, axis=2))

    hard_cap = max(s_cap, S_CAP_HARD)
    probes = [0.0, 1.0]
    while probes[-1] < hard_cap:
        probes.append(min(2.0 * probes[-1], hard_cap))
    probes = np.array(probes)
    vals = np.stack([g_many(np.full(n, s)) for s in probes])  # (P, n)

    best = vals.max(axis=0)
    # First probe index where the objective stops increasing.
    increases = np.diff(vals, axis=0) > 0.0
    still = np.all(increases, axis=0)
    first_drop = np.argmin(increases, axis=0)  # index into diffs
    lo_idx = np.maximum(first_drop - 1, 0)
    hi_idx = np.minimum(first_drop + 1, len(probes) - 1)
    a = probes[lo_idx]
    b = probes[hi_idx]
    a = np.where(still, probes[-1], a)
    b = np.where(still, probes[-1], b)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    for _ in range(golden_iters):
        h = b - a
        c = a + inv_phi2 * h
        dd = a + inv_phi * h
        yc = g_many(c)
        yd = g_many(dd)
        best = np.maximum(best, np.maximum(yc, yd))
        take_left = yc > yd
        b = np.where(take_left, dd, b)
        a = np.where(take_left, a, c)

    # Laws whose objective was still increasing at the cap attain the
    # supremum in the limit; use the feasible-mass formula there.
    if np.any(still):
        qsub_row = np.exp(lnq)[None, :]
        feas = gap <= 1e-12
        tight = gap <= gap.min(axis=1, keepdims=True) + 1e-12
        with np.errstate(divide="ignore"):
            ln_feas = np.log(np.where(feas, qsub_row, 0.0).sum(axis=1))
        ln_tight = np.log(np.where(tight, qsub_row, 0.0).sum(axis=1))
        # Prefer the feasible-mass limit; fall back to the exact tight-set
        # limit for laws weighting a row with no feasible letter.
        finite_ln = np.where(np.isfinite(ln_feas), ln_feas, 0.0)
        limit = -np.where(t_batch > 0.0, t_batch * finite_ln[None, :], 0.0).sum(axis=1)
        straddles = ((t_batch > 0.0) & ~np.isfinite(ln_feas)[None, :]).any(axis=1)
        limit_tight = -t_batch @ ln_tight
        limit = np.where(straddles, limit_tight, limit)
        best = np.where(still, np.maximum(best, limit), best)

    values = np.maximum(best, 0.0)
    values[slope_zero <= 0.0] = 0.0
    values[diverged] = math.inf
    return values


def coupled_rate_function(t: JointDistribution, q: Distribution,
                          d: DistortionModel, level: float) -> RateResult:
    """Rate under the coupled constraint distortion + divergence <= level.

    Dual form: sup over mu >= 0 of
        -(1+mu) * sum T(x,y) ln sum_xhat Q(xhat) exp(-mu/(1+mu) (d - level)),
    solved in the compactified variable sigma = mu / (1 + mu).  Infeasible
    (value +inf) exactly when the objective at sigma = 1 is positive.
    """
    weights = _weights_of(t)
    if weights.shape[0] != d.source_size:
        raise DimensionMismatch("joint law does not match distortion rows")
    dsub, lnq = _restrict(q, d)
    gap = dsub - level
    active = weights > 0.0
    w = weights[active]
    gap_a = gap[active]

    def big_g(sigma: float) -> float:
        return float(-np.dot(w, _lse_rows(lnq[None, :] - sigma * gap_a)))

    g_one = big_g(1.0)
    if g_one > DIV_TOL:
        return RateResult(math.inf, math.inf, 1)

    def phi(sigma: float) -> float:
        return big_g(sigma) / (1.0 - sigma)

    res = golden_max(phi, 0.0, SIGMA_MAX, rel_tol=1e-12, max_iter=240)
    value = max(res.value, 0.0)
    sigma = res.x
    mu = sigma / (1.0 - sigma)
    if value == 0.0:
        mu = 0.0
    return RateResult(value, mu, res.evaluations + 1)


def max_rate_over_sources(q: Distribution, d: DistortionModel, level: float) -> float:
    """max over source laws of the rate function; equals the best single letter.

    Finite exactly when every row of the distortion matrix has a codebook-
    supported letter within the distortion level.  Ties between letters do not
    affect the value.
    """
    dsub, lnq = _restrict(q, d)
    best = 0.0
    for x in range(dsub.shape[0]):
        w = np.array([1.0])
        value, _, _ = _sup_dual(w, (dsub[x] - level)[None, :], lnq)
        if value > best:
            best = value
        if math.isinf(best):
            return math.inf
    return best


def distortion_bounds(d: DistortionModel) -> tuple:
    """(smallest, largest) single-letter distortion."""
    return d.d_min, d.d_max


def min_distortion_for_codebook(q: Distribution, p: Channel) -> float:
    """Smallest log-likelihood-ratio distortion reachable inside the codebook support.

    Zero for every point-mass codebook; strictly negative whenever the support
    contains two inputs the channel can tell apart.
    """
    _, lnp = _input_logs(q, p)
    return float((lnp.min(axis=0) - lnp.max(axis=0)).min())


def _input_logs(q: Distribution, p: Channel):
    """Log codebook masses and log channel rows (|S|, Y) on the codebook support."""
    if q.alphabet_size != p.input_size:
        raise DimensionMismatch("codebook does not match channel input")
    sup = support_or_raise(q)
    return np.log(q.probs[sup]), np.log(p.probs[sup])


def _margin_gap(q: Distribution, p: Channel, level: float):
    """Pairwise log-likelihood gaps minus level, plus log codebook masses.

    Rows are the supported (x, y) pairs, columns the supported competitors:
    gap[(x,y), xhat] = ln p(y|x) - ln p(y|xhat) - level.
    """
    lnq, lnp = _input_logs(q, p)
    gap = lnp[:, :, None] - lnp.T[None, :, :] - level  # (S, Y, S)
    return gap.reshape(lnq.size * p.output_size, lnq.size), lnq


def finiteness_boundary(q: Distribution, p: Channel, level: float) -> float:
    """Rate below which the coupled-constraint exponent component is infinite.

    Computed as sup over s in [0, 1] of the worst-pair dual objective; the
    inner minimum of concave functions is concave, so golden section is exact.
    Equals max{0, -level} for point-mass codebooks.
    """
    gap, lnq = _margin_gap(q, p, level)

    def worst(s: float) -> float:
        return float(-_lse_rows(lnq[None, :] - s * gap).max())

    res = golden_max(worst, 0.0, 1.0, rel_tol=1e-12, max_iter=240)
    return max(res.value, worst(0.0), worst(1.0), 0.0)


def min_rate_boundary(q: Distribution, p: Channel, level: float,
                      tol: float = 1e-6) -> float:
    """Smallest rate R with  min over joint laws of coupled rate at level+R  <= R.

    The inner minimum over source laws of the coupled dual objective is linear
    in the law, so it collapses to a minimum over single pairs inside the
    codebook support; bisection over R then needs no simplex grid.  Bounded
    above by max{0, -level} for every codebook, with equality for point
    masses.
    """
    def min_coupled(delta: float) -> float:
        gap, lnq = _margin_gap(q, p, delta)

        def phi(sigma: float) -> float:
            return float(-_lse_rows(lnq[None, :] - sigma * gap).max()) / (1.0 - sigma)

        res = golden_max(phi, 0.0, SIGMA_MAX, rel_tol=1e-12, max_iter=240)
        return max(res.value, phi(0.0))

    def feasible(r: float) -> bool:
        return min_coupled(level + r) <= r + 1e-12

    if feasible(0.0):
        return 0.0
    hi = max(0.0, -level)
    while not feasible(hi):  # float safety margin on the analytic cap
        hi += max(tol, 1e-9)
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
