"""Rate functions and the boundary quantities that delimit finite exponents.

The central object is the codebook-constrained rate function

    rate(T, Q, D) = min { D(T.W || T x Q) : kernels W with mean distortion <= D },

evaluated through its dual form: the supremum over a nonnegative tilt ``s`` of

    -sum_x T(x) * ln sum_xhat Q(xhat) * exp(-s * (d(x, xhat) - D)).

The objective is concave in ``s`` (a minimum of affine functions), so a
doubling bracket plus golden section finds the supremum.  ``rate_function``
and ``rate_values_batch`` first settle every law the support geometry decides
(divergence, the limit at infinite tilt, a peak at zero tilt) by one settle
rule, ``_settle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .optimize import _INV_PHI, _INV_PHI2, _doubling_probes, concave_max_on_ray, golden_max
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
# The slack of every gap (distortion minus level) decision: a gap <= DIV_TOL
# meets the level, a letter within DIV_TOL of its row's minimum is tight, and
# a terminal slope (weighted row minimum) above DIV_TOL diverges.
DIV_TOL = 1e-12
# The slack of the boundary flags: the D_min line (``_on_d_min``) and the
# exponents' rate finiteness boundary.
FLAG_TOL = 1e-6
# How close to sigma = 1 the coupled solver is allowed to evaluate; closer
# amplifies cancellation error in G(sigma) / (1 - sigma).
SIGMA_MAX = 1.0 - 1e-7


@dataclass(frozen=True)
class RateResult:
    """Value of a rate function together with solver metadata.

    ``optimizer_s`` is the maximizing tilt (``math.inf`` when the supremum is
    attained only in the limit).  ``at_d_min`` marks queries on the minimal-
    distortion line (``_on_d_min``, as the exponents' ``at_D_min`` flag), where
    the variational characterization is only guaranteed to be a bound.
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
    """Log-sum-exp over the last axis, as log(sum(exp(a - max))) + max.

    Each row gets the same bits whatever the leading shape, so a batch of
    arrays reduces exactly like its members one at a time.  The solvers'
    objectives use this form; ``_lse`` is the other one.
    """
    m = a.max(axis=-1)
    return np.log(np.exp(a - m[..., None]).sum(axis=-1)) + m


def _lse(a) -> np.ndarray:
    """Log-sum-exp over the last axis with the bits of ``scipy.special.logsumexp``.

    The same float operations, in the same order, as the algorithm of scipy
    1.17 (checked against 1.17.1) for real input without weights: with the row
    maximum a_max and the count m of entries equal to it,

        log1p(sum of exp(a - a_max) over the other entries / m) + log(m) + a_max,

    where a zero sum is not divided, and log(sum(exp(a))) replaces the result
    where it is not finite (rows whose maximum is infinite or nan).  scipy
    computes that fallback for every row; here it runs only where needed, so
    the input is exponentiated once, and there is no array-API dispatch.
    Rows reduce independently, so a batch gets the bits of its members.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    count = is_max.sum(axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.exp(a - a_max)
        np.copyto(terms, 0.0, where=is_max)
        total = terms.sum(axis=-1, keepdims=True)
        total = np.where(total == 0.0, total, total / count)
        out = np.log1p(total) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=-1, keepdims=True)))
    return out[..., 0]


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


def _ln_brackets(gap: np.ndarray, lnq: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (tilts, rows) table of brackets ln sum_xhat q(xhat) e^{-s gap[x, xhat]}."""
    return _lse(lnq[None, None, :] - s[:, None, None] * gap[None, :, :])


def _ln_masses(gap: np.ndarray, lnq: np.ndarray):
    """ln codebook mass of each row's feasible letters (gap <= DIV_TOL; -inf if
    none) and of its tight letters (within DIV_TOL of the row's minimum)."""
    q_row = np.exp(lnq)[None, :]
    with np.errstate(divide="ignore"):
        ln_feas = np.log(np.where(gap <= DIV_TOL, q_row, 0.0).sum(axis=1))
    tight = gap <= gap.min(axis=1, keepdims=True) + DIV_TOL
    return ln_feas, np.log(np.where(tight, q_row, 0.0).sum(axis=1))


def _dual_limit(t_batch: np.ndarray, ln_feas: np.ndarray, ln_tight: np.ndarray) -> np.ndarray:
    """Each law's (row of ``t_batch``) dual at infinite tilt: the feasible-mass
    bound -sum t ln_feas, or for a law weighting a row with no feasible letter
    the tight-mass form -sum t ln_tight, exact at zero terminal slope, one law
    at a time: a row of a matrix product rounds unlike a batch of one."""
    weighted = t_batch > 0.0
    feasible = np.isfinite(ln_feas)
    limit = -np.where(weighted, t_batch * np.where(feasible, ln_feas, 0.0), 0.0).sum(axis=1)
    for i in np.flatnonzero((weighted & ~feasible).any(axis=1)):
        limit[i] = -(t_batch[i] @ ln_tight)
    return limit


def _settle(t_batch: np.ndarray, gap: np.ndarray, lnq: np.ndarray, rows=slice(None)):
    """(values, optimal tilts) of the laws (rows of ``t_batch``) that the
    support geometry decides, nan for the others.  In this order: a terminal
    slope sum_x t(x) min gap above DIV_TOL diverges (+inf); one within DIV_TOL
    of zero makes the supremum the limit at infinite tilt (floored at +0.0);
    a slope at zero tilt <= 0 puts the maximum, 0, at s = 0.  The slopes sum
    the rows ``rows`` only: zero-weight rows move their last bits."""
    t_rows, gap_rows = t_batch[:, rows], gap[rows]
    slope_inf = t_rows @ gap_rows.min(axis=1)
    slope_zero = t_rows @ (gap_rows @ np.exp(lnq))
    values = np.where(slope_zero <= 0.0, 0.0, math.nan)
    s_star = values.copy()
    flat = np.abs(slope_inf) <= DIV_TOL
    if flat.any():
        values[flat] = np.maximum(_dual_limit(t_batch[flat], *_ln_masses(gap, lnq)) + 0.0, 0.0)
        s_star[flat] = math.inf
    diverged = slope_inf > DIV_TOL
    values[diverged] = s_star[diverged] = math.inf
    return values, s_star


def _on_d_min(gap: np.ndarray) -> bool:
    """Whether the smallest gap (distortion minus level) of the weighted rows
    is within FLAG_TOL of zero: the query is on the minimal-distortion line."""
    return abs(float(gap.min(initial=math.inf))) <= FLAG_TOL


def _sup_dual(weights: np.ndarray, dgap: np.ndarray, lnq: np.ndarray):
    """sup over s >= 0 of -sum_x w(x) lse_xhat(lnq - s * dgap[x, :]) as
    (value, s_star, evaluations); ``dgap`` has the level subtracted."""
    active = weights > 0.0
    value, s_star = (float(v[0]) for v in _settle(weights[None, :], dgap, lnq, active))
    if not math.isnan(value):
        return value, s_star, int(s_star == 0.0)
    w, gap = weights[active], dgap[active]

    def g(s: float) -> float:
        return float(-np.dot(w, _lse_rows(lnq[None, :] - s * gap)))

    # The terminal slope is strictly negative, so a finite maximizer exists,
    # but it can be astronomically large when the terminal slope is tiny.
    res = concave_max_on_ray(g, S_CAP_HARD, rel_tol=1e-10)
    if res.at_upper:
        limit = float(_dual_limit(weights[None, :], *_ln_masses(dgap, lnq))[0]) + 0.0
        return max(res.value, limit, 0.0), math.inf, res.evaluations
    return max(res.value, 0.0), res.x, res.evaluations


def rate_function(t, q: Distribution, d: DistortionModel, level: float) -> RateResult:
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
    gap = dsub - level
    return RateResult(*_sup_dual(weights, gap, lnq), at_d_min=_on_d_min(gap[weights > 0.0]))


def rate_values_batch(t_batch: np.ndarray, q: Distribution, d: DistortionModel,
                      level: float) -> np.ndarray:
    """Vectorized rate_function values for many source laws at once.

    Used by the brute-force oracles, where tens of thousands of grid laws
    share one (codebook, distortion, level) triple.  The settle rule of
    ``rate_function``, ``_settle``, decides the laws it can (+inf, the limit
    at infinite tilt, or zero).  The doubling probes 0, 1, 2, 4, ... use the
    same tilts for every other law, so their per-row brackets
    ln sum_xhat q(xhat) e^{-s gap[x, xhat]} form one probes x rows table,
    computed once and weighted by each law.  A law still rising at the cap
    takes the larger of its best probe and the limit at infinite tilt; a
    synchronized 60-step golden section refines the others.  Each law's value
    has the bits of running it alone.
    """
    t_batch = np.asarray(t_batch, dtype=float)
    dsub, lnq = _restrict(q, d)
    gap = dsub - level
    values, _ = _settle(t_batch, gap, lnq)
    open_laws = np.flatnonzero(np.isnan(values))
    t_open = t_batch[open_laws]

    def weigh(t: np.ndarray, ln_brackets: np.ndarray) -> np.ndarray:
        return -np.einsum("nx,nx->n", t, ln_brackets)

    probes = np.array(_doubling_probes(S_CAP_HARD))
    # Each law weighs a contiguous copy of the shared row, so the einsum sums
    # it exactly as it sums rows of per-law brackets.
    vals = np.stack([weigh(t_open, np.broadcast_to(row, t_open.shape).copy())
                     for row in _ln_brackets(gap, lnq, probes)])  # (P, n)

    best = vals.max(axis=0)
    # First probe index where the objective stops increasing.
    increases = np.diff(vals, axis=0) > 0.0
    still = np.all(increases, axis=0)
    live = np.flatnonzero(~still)
    if live.size:
        first_drop = np.argmin(increases[:, live], axis=0)  # index into diffs
        t_live = t_open[live]
        a = probes[np.maximum(first_drop - 1, 0)]
        b = probes[first_drop + 1]
        top = best[live]
        for _ in range(60):
            h = b - a
            c = a + _INV_PHI2 * h
            dd = a + _INV_PHI * h
            yc = weigh(t_live, _ln_brackets(gap, lnq, c))
            yd = weigh(t_live, _ln_brackets(gap, lnq, dd))
            top = np.maximum(top, np.maximum(yc, yd))
            take_left = yc > yd
            b = np.where(take_left, dd, b)
            a = np.where(take_left, a, c)
        best[live] = top
    if still.any():
        best[still] = np.maximum(best[still], _dual_limit(t_open[still], *_ln_masses(gap, lnq)))
    values[open_laws] = np.maximum(best, 0.0)
    return values


def _sigma_max(big_g):
    """Golden section of G(sigma) / (1 - sigma) on [0, SIGMA_MAX]: a coupled
    dual sup over mu >= 0, in the compactified variable sigma = mu / (1 + mu)."""
    return golden_max(lambda sigma: big_g(sigma) / (1.0 - sigma), 0.0, SIGMA_MAX,
                      rel_tol=1e-12, max_iter=240)


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

    res = _sigma_max(big_g)
    value = max(res.value, 0.0)
    mu = 0.0 if value == 0.0 else res.x / (1.0 - res.x)
    return RateResult(value, mu, res.evaluations + 1)


def max_rate_over_sources(q: Distribution, d: DistortionModel, level: float) -> float:
    """max over source laws of the rate function; equals the best single letter.

    Finite exactly when every row of the distortion matrix has a codebook-
    supported letter within the distortion level.  Ties between letters do not
    affect the value.
    """
    dsub, lnq = _restrict(q, d)
    return _row_rate_max(dsub - level, lnq)


def _row_rate_max(gap: np.ndarray, lnq: np.ndarray) -> float:
    """Largest single-row dual, row by row through ``_sup_dual``."""
    best = 0.0
    for row in gap:
        best = max(best, _sup_dual(np.array([1.0]), row[None, :], lnq)[0])
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
    The objective is evaluated at many tilts per call (each gets the bits of
    its own evaluation), so the search takes the vectorized walk.  Equals
    max{0, -level} for point-mass codebooks.
    """
    gap, lnq = _margin_gap(q, p, level)

    def worst(s: np.ndarray) -> np.ndarray:
        return -_lse_rows(lnq - s[:, None, None] * gap).max(axis=-1)

    res = golden_max(worst, 0.0, 1.0, rel_tol=1e-12, max_iter=240, vectorized=True)
    y0, y1 = worst(np.array([0.0, 1.0])).tolist()
    return max(res.value, y0, y1, 0.0)


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

        def big_g(sigma: float) -> float:
            return float(-_lse_rows(lnq[None, :] - sigma * gap).max())

        return max(_sigma_max(big_g).value, big_g(0.0))

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
