"""Closed-form random-coding exponents for sources and channels.

Every exponent here is a nested optimization of one two-parameter objective:
an outer concave problem in a slope variable ``rho`` and an inner problem in
a tilt variable ``s``.  For success/error-type exponents the inner objective
is concave in ``s``; for failure/correct-envelope exponents the inner
landscape can have several local minima, so it is scanned on a dense
logarithmic grid before local refinement.  The part of that scan that does
not depend on ``rho`` is computed once per envelope call and shared by all
of its outer probes.

Channel exponents reduce to the source-side machinery through the
log-likelihood-ratio distortion; both sides share the same inner solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .optimize import (
    concave_max_on_ray,
    golden_max,
    maximize_over_simplex,
    newton_max,
    unimodal_max_01,
    unimodal_max_ray_reparam,
)
from .probability import Channel, Distribution, DistortionModel, mutual_information
from .rates import DIV_TOL, FLAG_TOL, S_CAP, S_CAP_HARD, finiteness_boundary
from .rates import _input_logs, _ln_brackets, _ln_masses, _lse, _lse_rows, _margin_gap
from .rates import _on_d_min, _restrict, _row_rate_max

RHO_CAP = 64.0
_TIE_TOL = 1e-12

KINDS = (
    "success",
    "failure-envelope",
    "gallager-error",
    "error-extended",
    "correct",
    "correct-extended-envelope",
    "forney-tradeoff",
    "e-bound",
)


@dataclass(frozen=True)
class ExponentResult:
    """An exponent value with its optimizers and boundary caveats.

    ``boundary_flags`` may contain:
      at_D_min        query sits on the minimal-distortion line,
      at_R_min        query sits on the finiteness boundary in rate,
      envelope_only   the value is a lower convex envelope, not the exponent,
      trivial_zero    the envelope formula degenerates to zero identically,
      rho_at_cap      the outer supremum was still increasing at the slope cap,
      beyond_r_max    the rate exceeds the largest finite-exponent rate.
    ``upper_value`` carries the epsilon-relaxed upper form at flagged points.
    """

    value: float
    optimizer_rho: float | None = None
    optimizer_s: float | None = None
    component_values: tuple | None = None
    boundary_flags: frozenset = frozenset()
    upper_value: float | None = None


# ---------------------------------------------------------------------------
# Inner problems.  Both take precomputed pieces:
#   lnw   log-weights of the active source rows (sums to one in probability),
#   gap   distortion minus level, rows matching lnw, columns on the codebook
#         support,
#   lnq   log codebook masses on the support.
# ---------------------------------------------------------------------------


def _e0_many(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray,
             rho: float, s: np.ndarray) -> np.ndarray:
    """-ln sum_x w(x) bracket_x(s)^rho at every tilt in ``s``, all in log space.

    Each entry has the bits of the same formula evaluated at its tilt alone:
    this is ``-_lse_rows(lnw + rho * _lse_rows(lnq - s[:, None, None] * gap))``
    with the same ufuncs in the same order, computed in place (the last
    argument of each ufunc is its output).
    """
    a = np.multiply(s[:, None, None], gap)
    np.subtract(lnq, a, a)
    m = np.maximum.reduce(a, -1)
    np.subtract(a, m[..., None], a)
    np.exp(a, a)
    t = np.add.reduce(a, -1)
    np.log(t, t)
    np.add(t, m, t)
    np.multiply(rho, t, t)
    np.add(lnw, t, t)
    m = np.maximum.reduce(t, -1)
    np.subtract(t, m[:, None], t)
    np.exp(t, t)
    v = np.add.reduce(t, -1)
    np.log(v, v)
    np.add(v, m, v)
    return np.negative(v, v)


def _mass_limit(lnw: np.ndarray, ln_feas: np.ndarray, rho: float, keep: np.ndarray) -> float:
    """Infinite-tilt limit  -ln sum_{x in keep} w(x) mass_x^rho, where ln mass_x
    is the feasible mass ``ln_feas`` of ``rates._ln_masses``."""
    return float(-_lse(lnw[keep] + rho * ln_feas[keep]))


def _sup_e0_ray(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray, rho: float, *,
                hint: float | None = None):
    """sup over s >= 0 of  -ln sum_x w(x) bracket_x(s)^rho  (concave in s).

    Returns (value, s_star); s_star is inf when the supremum is attained in
    the limit, and the value is +inf when every row diverges.  ``hint`` is a
    guess of s_star for the walk (``optimize.concave_max_on_ray``).
    """
    if rho <= 1e-14:
        return 0.0, 0.0
    dmin = gap.min(axis=1)
    m = float(dmin.min())
    if m > DIV_TOL:
        return math.inf, math.inf
    if m >= -DIV_TOL:
        # Nondecreasing in the tilt; supremum attained in the limit.
        return max(_mass_limit(lnw, _ln_masses(gap, lnq)[0], rho, dmin <= DIV_TOL), 0.0), math.inf
    slope0 = rho * float(np.dot(np.exp(lnw), gap @ np.exp(lnq)))
    if slope0 <= 0.0:
        return 0.0, 0.0

    # A finite maximizer exists, but its scale grows like 1/rho when some
    # rows lie strictly inside the distortion level and others outside, so
    # the bracket must be allowed to run very far before giving up.
    res = concave_max_on_ray(lambda s: _e0_many(lnw, gap, lnq, rho, s),
                             S_CAP_HARD, vectorized=True, hint=hint)
    if res.at_upper:
        limit = _mass_limit(lnw, _ln_masses(gap, lnq)[0], rho, dmin <= DIV_TOL)
        return max(res.value, limit, 0.0), math.inf
    return max(res.value, 0.0), res.x


def _tilt_scan(gap: np.ndarray, lnq: np.ndarray):
    """The rho-free half of the envelope's tilt scan.

    Returns the 512-point grid s in {0} U [1e-4, S_CAP] (log-spaced above
    zero), the (grid, rows) table of ln bracket_x(s) on it, and each row's
    ln feasible mass, which fixes the limit at infinite tilt.
    """
    grid = np.concatenate([[0.0], np.geomspace(1e-4, S_CAP, 511)])
    return grid, _ln_brackets(gap, lnq, grid), _ln_masses(gap, lnq)[0]


def _inf_e0_ray(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray, rho: float, scan, *,
                hint: float | None = None):
    """inf over s >= 0 of  -ln sum_x w(x) bracket_x(s)^(-rho).

    The landscape can have several local minima, so the whole ray is scanned
    on the log-spaced grid of ``scan`` (from ``_tilt_scan``; an envelope call
    computes it once for all its outer probes) and every interior dip is
    refined by golden section; ``hint``, a guess of the minimizer, goes to the
    walk of the dip whose bracket holds it.  Callers must ensure
    max_x min_xhat gap <= 0 (otherwise the infimum is -inf and the enveloping
    formula does not apply).
    """
    if rho <= 1e-14:
        return 0.0, 0.0
    grid, lnb, ln_feas = scan
    vals = -_lse(lnw[None, :] - rho * lnb)

    best_val = float(vals[0])
    best_s = 0.0
    # Refine each interior dip once; runs of near-equal grid values (plateaus)
    # collapse to a single bracket [grid[i - 1], grid[j + 1]].
    is_min = np.zeros(len(grid), dtype=bool)
    is_min[1:-1] = (vals[1:-1] <= vals[:-2] + _TIE_TOL) & (vals[1:-1] <= vals[2:] + _TIE_TOL)
    starts = np.flatnonzero(is_min[1:] & ~is_min[:-1]) + 1
    ends = np.flatnonzero(is_min[:-1] & ~is_min[1:])
    for i, j in zip(starts, ends):
        lo, hi = grid[i - 1], grid[j + 1]
        inside = hint is not None and lo <= hint <= hi
        res = golden_max(lambda s: -_e0_many(lnw, gap, lnq, -rho, s), lo, hi, rel_tol=1e-12,
                         vectorized=True, hint=hint if inside else None)
        if -res.value < best_val:
            best_val, best_s = -res.value, res.x

    dmin = gap.min(axis=1)
    if float(dmin.max()) >= -DIV_TOL:
        limit = _mass_limit(lnw, ln_feas, -rho, dmin >= -DIV_TOL)
        if limit < best_val:
            best_val, best_s = limit, math.inf
    return best_val, best_s


# ---------------------------------------------------------------------------
# Model preparation.
# ---------------------------------------------------------------------------


def _source_parts(source: Distribution, codebook: Distribution,
                  d: DistortionModel, level: float):
    if source.alphabet_size != d.source_size:
        raise DimensionMismatch("source does not match distortion rows")
    if codebook.alphabet_size != d.reproduction_size:
        raise DimensionMismatch("codebook does not match distortion columns")
    dsub, lnq = _restrict(codebook, d)
    active = source.probs > 0.0
    return np.log(source.probs[active]), dsub[active] - level, lnq


def _channel_parts(q: Distribution, p: Channel, level: float):
    """Flatten a channel model into source-side pieces.

    Rows are the supported (input, output) pairs weighted by q(x) p(y|x);
    columns are the supported competing inputs under the log-likelihood-ratio
    distortion shifted by ``level``.
    """
    lnq, lnp = _input_logs(q, p)
    gap, _ = _margin_gap(q, p, level)
    return (lnq[:, None] + lnp).reshape(-1), gap, lnq


def gallager_e0(s: float, rho: float, q: Distribution, p: Channel,
                level: float) -> float:
    """The two-parameter generating function of every channel exponent here.

    -ln sum_{x,y} q(x) p(y|x) [ sum_xhat q(xhat) (p(y|x)/(p(y|xhat)) e^{-level})^{-s} ]^rho
    """
    lnw, gap, lnq = _channel_parts(q, p, level)
    return float(-_lse(lnw + rho * _lse_rows(lnq[None, :] - s * gap)))


# ---------------------------------------------------------------------------
# The outer slope solve, shared by every exponent with a solved inner problem.
# ---------------------------------------------------------------------------


def _nonneg(value: float) -> float:
    """max(value, 0.0) with a positive zero; max(-0.0, 0.0) is -0.0."""
    return max(value, 0.0) + 0.0


def _slope_solve(inner, rate: float, rho_cap: float | None = None):
    """sup over rho of inner(rho)[0] - rho * rate, with inner(rho) = (value, s).

    The slope ranges over [0, 1], or over [0, rho_cap] when a cap is given.
    The value is clamped at zero, where the optimal slope is reported as zero,
    and the inner problem is solved once more at the optimal slope for its
    tilt.  Returns (value, rho_star, s_star, at_upper).
    """

    def outer(rho: float) -> float:
        return inner(rho)[0] - rho * rate

    if rho_cap is None:
        res = unimodal_max_01(outer)
    else:
        res = unimodal_max_ray_reparam(outer, rho_cap)
    value = _nonneg(res.value)
    rho_star = res.x if value > 0.0 else 0.0
    return value, rho_star, inner(rho_star)[1], res.at_upper


def _hinted(inner):
    """``inner(rho, hint)`` as a function of ``rho`` alone, as ``_slope_solve``
    takes it, where ``hint`` is the optimal tilt that the earlier solves
    predict: the secant in rho through the last two finite, positive optimal
    tilts, or the last one alone.  The hint only decides which points the
    tilt walk computes ahead of time, never the result (see ``optimize``)."""
    seen = []

    def solve(rho: float):
        hint = None
        if len(seen) == 2 and seen[0][0] != seen[1][0]:
            (r0, s0), (r1, s1) = seen
            hint = s1 + (s1 - s0) * (rho - r1) / (r1 - r0)
        elif seen:
            hint = seen[-1][1]
        value, s = inner(rho, hint)
        if 0.0 < s < math.inf:
            seen[:] = [*seen[-1:], (rho, s)]
        return value, s

    return solve


def _tilt_max_01(lnw, gap, lnq, rho: float, *, hint: float | None = None):
    """sup over s in [0, 1] of e0(s, rho): the bounded-tilt inner problem;
    ``hint`` is a guess of the maximizer for the walk."""
    if rho <= 1e-14:
        return 0.0, 0.0
    res = unimodal_max_01(lambda s: _e0_many(lnw, gap, lnq, rho, s), rel_tol=1e-10,
                          vectorized=True, hint=hint)
    return res.value, res.x


def _nested_max(lnw, gap, lnq, rate: float, rho_cap: float | None, s_hi: float):
    """sup over rho in [0, rho_cap] (in [0, 1] without a cap) and s in
    [0, s_hi] (``s_hi`` is 1 or inf) of e0(s, rho) - rho * rate, as
    ``_slope_solve`` returns it."""
    inner = _sup_e0_ray if s_hi == math.inf else _tilt_max_01
    return _slope_solve(_hinted(lambda rho, hint: inner(lnw, gap, lnq, rho, hint=hint)),
                        rate, rho_cap)


def _e0_derivs(lnw, gap, lnq, rho: float, s: float):
    """e0(s, rho) and its partial derivatives at one point, in one pass.

    With B_r(s) = sum_xhat q(xhat) e^{-s gap[r, xhat]}, mu_r and var_r the mean
    and variance of gap[r, .] under row r's tilted codebook law (proportional
    to q(xhat) e^{-s gap[r, xhat]}), and pi_r proportional to w_r B_r(s)^rho,
    returns ``(e0, d_s / rho, d_ss / rho, d_rho, d_rhorho, d_srho)``:

        d_s      = rho * sum pi mu
        d_ss     = -rho * sum pi var - rho**2 * Var_pi(mu)
        d_rho    = -sum pi ln B
        d_rhorho = -Var_pi(ln B)
        d_srho   = sum pi mu + rho * Cov_pi(ln B, mu)

    The tilt derivatives come divided by rho, so at rho = 0 they are those of
    d_rho e0(s, 0) = -sum w ln B(s), whose maximum over s is the slope of the
    exponent at rho = 0+.
    """
    a = lnq - s * gap
    m = a.max(axis=1)
    t = np.exp(a - m[:, None])
    z = t.sum(axis=1)
    t /= z[:, None]
    lnb = np.log(z) + m
    mu = (t * gap).sum(axis=1)
    dev = gap - mu[:, None]
    var = (t * dev * dev).sum(axis=1)
    u = lnw + rho * lnb
    um = u.max()
    pi = np.exp(u - um)
    zp = pi.sum()
    pi /= zp
    pmu = float(pi @ mu)
    plb = float(pi @ lnb)
    dl = lnb - plb
    dm = mu - pmu
    return (-math.log(zp) - um, pmu, -float(pi @ var) - rho * float(pi @ (dm * dm)),
            -plb, -float(pi @ (dl * dl)), pmu + rho * float(pi @ (dl * dm)))


def _newton_nested_max(lnw, gap, lnq, rate: float, rho_cap: float | None, s_hi: float):
    """``_nested_max`` by safeguarded Newton solves in both variables.

    Each slope probe solves the tilt from the previous probe's optimal tilt.
    By the envelope theorem the slope objective has derivative d_rho e0 - rate
    at the optimal tilt, and curvature d_rhorho - d_srho**2 / d_ss where that
    tilt is interior and d_ss < 0 (d_rhorho where it sits at a bound, where
    e0 is flat in s, and at rho = 0, its limit as rho -> 0+).  Raises
    NoConvergence when a safeguard of ``newton_max`` fires.
    """
    rho_hi = 1.0 if rho_cap is None else rho_cap
    s_warm = 1.0

    def slope(rho: float):
        nonlocal s_warm

        def tilt_derivs(s: float):
            d = _e0_derivs(lnw, gap, lnq, rho, s)
            return d[1], d[2], d

        s, (_, _, (e0, _, dss, drho, drr, dsr)) = newton_max(tilt_derivs, 0.0, s_hi, s_warm)
        s_warm = s
        if 0.0 < s < s_hi and rho * dss < 0.0:
            drr -= dsr * dsr / (rho * dss)
        return drho - rate, drr, e0 - rho * rate, s

    rho, (_, _, value, s) = newton_max(slope, 0.0, rho_hi, 1.0)
    value = _nonneg(value) if rho > 0.0 else 0.0
    return value, rho if value > 0.0 else 0.0, s, rho == rho_hi


# ---------------------------------------------------------------------------
# Success / error family (inner objective concave in s).
# ---------------------------------------------------------------------------


def _sup_exponent(lnw, gap, lnq, rate: float, solve=_nested_max) -> ExponentResult:
    """sup over rho in [0, 1] of (sup_s e0(s, rho)) - rho * rate, by ``solve``
    (``_nested_max`` or ``_newton_nested_max``).

    +inf when the level lies below every distortion on the codebook support.
    """
    flags = frozenset({"at_D_min"}) if _on_d_min(gap) else frozenset()
    if float(gap.min()) > DIV_TOL:
        return ExponentResult(math.inf, boundary_flags=flags)
    value, rho_star, s_star, _ = solve(lnw, gap, lnq, rate, None, math.inf)
    return ExponentResult(value, rho_star, s_star, boundary_flags=flags)


def success_exponent(source: Distribution, codebook: Distribution,
                     d: DistortionModel, level: float, rate: float) -> ExponentResult:
    """Exponential decay rate of the probability that random coding succeeds.

    Zero for rates above the source's rate function; +inf when the distortion
    level is unreachable inside the codebook support.
    """
    return _sup_exponent(*_source_parts(source, codebook, d, level), rate)


def margin_error_exponent(q: Distribution, p: Channel, rate: float,
                          level: float) -> ExponentResult:
    """Decoding error exponent of the log-likelihood margin decoder.

    ``level`` > 0 models an erasure-style stricter receiver, ``level`` < 0 a
    list decoder.  At ``level`` = 0 this is the classical random-coding error
    exponent.
    """
    return _sup_exponent(*_channel_parts(q, p, level), rate)


def _collapsed_e0(lnq: np.ndarray, lnp: np.ndarray, t: float) -> float:
    """Gallager's collapsed generating function  -ln sum_y (sum_x q(x) p(y|x)^(1/t))^t."""
    return float(-_lse_rows(t * _lse_rows((lnq[:, None] + lnp / t).T)))


def gallager_error_exponent(q: Distribution, p: Channel, rate: float) -> ExponentResult:
    """Classical random-coding error exponent in its collapsed one-parameter form."""
    lnq, lnp = _input_logs(q, p)
    value, rho_star, _, _ = _slope_solve(
        lambda rho: (_collapsed_e0(lnq, lnp, 1.0 + rho), None), rate)
    return ExponentResult(value, rho_star)


def correct_exponent(q: Distribution, p: Channel, rate: float) -> ExponentResult:
    """Exponent of the probability of *correct* decoding above capacity.

    Nondecreasing in the rate; zero at and below the mutual information; grows
    with unit slope beyond the tangency rate.  The slope variable is capped
    just below one, where the objective approaches its affine asymptote.
    """
    lnq, lnp = _input_logs(q, p)

    def outer(rho: float) -> float:
        return _collapsed_e0(lnq, lnp, 1.0 - rho) + rho * rate

    hi = 1.0 - 1e-9
    res = golden_max(outer, 0.0, hi, rel_tol=1e-13, max_iter=240)
    candidates = [(outer(0.0), 0.0), (res.value, res.x), (outer(hi), hi)]
    value, rho_star = max(candidates)
    value = _nonneg(value)
    return ExponentResult(value, rho_star if value > 0.0 else 0.0)


# ---------------------------------------------------------------------------
# Envelope family (inner objective multimodal in s, outer slope unbounded).
# ---------------------------------------------------------------------------

_TRIVIAL_ENVELOPE = ExponentResult(0.0, 0.0, 0.0,
                                   boundary_flags=frozenset({"envelope_only", "trivial_zero"}))


def _envelope_exponent(lnw, gap, lnq, rate: float, rho_cap: float) -> ExponentResult:
    """sup over rho in [0, rho_cap] of (inf_s e0(s, -rho)) + rho * rate."""
    flags = {"envelope_only"}
    scan = _tilt_scan(gap, lnq)
    value, rho_star, s_star, at_cap = _slope_solve(
        _hinted(lambda rho, hint: _inf_e0_ray(lnw, gap, lnq, rho, scan, hint=hint)),
        -rate, rho_cap)
    if at_cap:
        flags.add("rho_at_cap")
        if rate > _row_rate_max(gap, lnq) + 1e-9:
            flags.add("beyond_r_max")
    return ExponentResult(value, rho_star, s_star, boundary_flags=frozenset(flags))


def failure_envelope(source: Distribution, codebook: Distribution,
                     d: DistortionModel, level: float, rate: float,
                     rho_cap: float = RHO_CAP) -> ExponentResult:
    """Lower convex envelope of the encoding failure exponent.

    The true exponent may sit strictly above this curve between tangency
    rates, hence the permanent ``envelope_only`` flag.  When some source
    letter has no codebook letter within the distortion level the enveloping
    formula collapses to zero (``trivial_zero``).  Past the largest finite
    rate the envelope climbs with unbounded slope; the returned value is then
    limited by ``rho_cap`` and flagged.
    """
    lnw, gap, lnq = _source_parts(source, codebook, d, level)
    if float(gap.min(axis=1).max()) > DIV_TOL:
        return _TRIVIAL_ENVELOPE
    return _envelope_exponent(lnw, gap, lnq, rate, rho_cap)


def correct_envelope(q: Distribution, p: Channel, rate: float, level: float,
                     rho_cap: float = RHO_CAP) -> ExponentResult:
    """Lower convex envelope of the margin decoder's correct-decoding exponent.

    Defined for nonnegative ``level``; for negative levels the enveloping
    formula is identically zero and strictly below the true exponent.
    """
    if level < -1e-12:
        return _TRIVIAL_ENVELOPE
    return _envelope_exponent(*_channel_parts(q, p, level), rate, rho_cap)


def failure_inner_curve(source: Distribution, codebook: Distribution,
                        d: DistortionModel, level: float, rho: float,
                        s_values: np.ndarray) -> np.ndarray:
    """The inner tilt objective of the failure envelope along ``s_values``.

    This is the curve whose local minima select the envelope's tangency
    sources; scanning it exposes slope-discontinuity (two-mode) geometry.
    """
    lnw, gap, lnq = _source_parts(source, codebook, d, level)
    s_vec = np.asarray(s_values, dtype=float)
    return -_lse(lnw[None, :] - rho * _ln_brackets(gap, lnq, s_vec))


def failure_tangency_law(source: Distribution, codebook: Distribution,
                         d: DistortionModel, level: float, rho: float,
                         s: float) -> Distribution:
    """Source law whose failure-envelope line touches the true exponent curve.

    Proportional to source(x) * bracket_x(s)^(-rho); the rate of this law is
    the tangency rate of the slope-rho supporting line.
    """
    lnw, gap, lnq = _source_parts(source, codebook, d, level)
    ln_t = lnw - rho * _lse_rows(lnq[None, :] - s * gap)
    ln_t -= _lse(ln_t)
    probs = np.zeros(source.alphabet_size)
    probs[source.probs > 0.0] = np.exp(ln_t)
    return Distribution(probs / probs.sum())


def refine_inner_minima(source: Distribution, codebook: Distribution,
                        d: DistortionModel, level: float, rho: float,
                        s_grid: np.ndarray):
    """Locate and polish every interior local minimum of the inner objective.

    Returns a list of (s, value) pairs sorted by s, merging refined minima
    that collapse to the same point.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    vals = failure_inner_curve(source, codebook, d, level, rho, s_grid)

    def neg_curve(s: np.ndarray) -> np.ndarray:
        return -failure_inner_curve(source, codebook, d, level, rho, s)

    found = []
    dips = (vals[1:-1] <= vals[:-2] + _TIE_TOL) & (vals[1:-1] <= vals[2:] + _TIE_TOL)
    for i in np.flatnonzero(dips) + 1:
        res = golden_max(neg_curve, s_grid[i - 1], s_grid[i + 1],
                         rel_tol=1e-13, max_iter=240, vectorized=True)
        found.append((res.x, -res.value))
    found.sort()
    merged = []
    for s, v in found:
        if merged and abs(s - merged[-1][0]) <= 1e-6 * max(1.0, abs(s)):
            if v < merged[-1][1]:
                merged[-1] = (s, v)
        else:
            merged.append((s, v))
    return merged


# ---------------------------------------------------------------------------
# Forney's optimum-tradeoff decoder.
# ---------------------------------------------------------------------------


def _first_component(lnw, gap, lnq, rate: float, boundary: float, rho_cap: float,
                     solve=_nested_max):
    """The tradeoff exponent's bounded-tilt component (s in [0, 1], rho in
    [0, rho_cap]) as ``solve`` returns it; +inf, with infinite optimizers,
    below the rate finiteness ``boundary``."""
    if rate < boundary - 1e-9:
        return math.inf, math.inf, math.inf, False
    return solve(lnw, gap, lnq, rate, rho_cap, 1.0)


def _tradeoff_parts(lnw, gap, lnq, rate: float, boundary: float, rho_cap: float,
                    solve=_nested_max):
    """The two components of the tradeoff exponent and the smaller one.

    Returns ``(first, second, (value, rho, s))``: the bounded-tilt component
    as ``_first_component`` returns it, the margin error exponent's
    ExponentResult, and the value and optimizers of the smaller component
    (the first on a tie).  Both components are solved by ``solve``.
    """
    first = _first_component(lnw, gap, lnq, rate, boundary, rho_cap, solve)
    second = _sup_exponent(lnw, gap, lnq, rate, solve)
    if first[0] <= second.value:
        return first, second, first[:3]
    return first, second, (second.value, second.optimizer_rho, second.optimizer_s)


def forney_exponent(q: Distribution, p: Channel, rate: float, level: float,
                    rho_cap: float = RHO_CAP) -> ExponentResult:
    """Exact random-coding exponent of the optimum-tradeoff (sum-likelihood) decoder.

    The value is the minimum of two components: a bounded-tilt piece with
    unbounded slope and the margin error exponent.  Near the minimal
    distortion line or the rate finiteness boundary the formula is only
    guaranteed as a lower form; such points are flagged and the
    epsilon-relaxed upper form is attached.
    """
    lnw, gap, lnq = _channel_parts(q, p, level)
    boundary = finiteness_boundary(q, p, level)
    first, second, (value, rho_star, s_star) = _tradeoff_parts(lnw, gap, lnq, rate, boundary,
                                                               rho_cap)
    comp1, comp2 = first[0], second.value
    flags = {"rho_at_cap"} if first[3] else set()
    if abs(rate - boundary) <= FLAG_TOL:
        flags.add("at_R_min")
    flags |= second.boundary_flags

    upper = None
    if flags & {"at_D_min", "at_R_min"}:  # both components relaxed by eps = 1e-6
        upper = min(_first_component(lnw, gap, lnq, rate - 1e-6, boundary, rho_cap)[0],
                    margin_error_exponent(q, p, rate, level - 1e-6).value)

    return ExponentResult(value, rho_star, s_star,
                          component_values=(comp1, comp2),
                          boundary_flags=frozenset(flags),
                          upper_value=upper)


def forney_component_one(q: Distribution, p: Channel, rate: float, level: float,
                         rho_cap: float = RHO_CAP) -> float:
    """The bounded-tilt component of the tradeoff exponent, on its own."""
    return _first_component(*_channel_parts(q, p, level), rate,
                            finiteness_boundary(q, p, level), rho_cap)[0]


def forney_bound_exponent(q: Distribution, p: Channel, rate: float,
                          level: float) -> ExponentResult:
    """The classical threshold-decoder bound: both parameters confined to [0, 1].

    Never exceeds the tradeoff exponent; coincides with it (and with the
    margin error exponent) for nonnegative levels.
    """
    value, rho_star, s_star, _ = _nested_max(*_channel_parts(q, p, level), rate, None, 1.0)
    return ExponentResult(value, rho_star, s_star)


# ---------------------------------------------------------------------------
# Optimization over the codebook distribution.
# ---------------------------------------------------------------------------

_CHANNEL_KINDS = {
    "error-extended": lambda q, p, r, lvl: margin_error_exponent(q, p, r, lvl),
    "forney-tradeoff": lambda q, p, r, lvl: forney_exponent(q, p, r, lvl),
    "e-bound": lambda q, p, r, lvl: forney_bound_exponent(q, p, r, lvl),
}


def _screen_value(kind: str, q: Distribution, p: Channel, rate: float, level: float) -> float:
    """The value of the ``kind`` exponent at codebook ``q`` by the Newton
    solves of ``_newton_nested_max``: a cheap estimate for the search.

    The search solves exactly only the laws whose screened value is within
    ``optimize.SCREEN_MARGIN`` (relative to max(1, |value|)) of the best, so
    the screen must err by less than half of it; Newton's method converges
    to the optimizers in a few steps, and the value errs by rounding only.
    The infinite level cut, the tradeoff exponent's finiteness cut and its
    min-of-two rule are those of the exact solve.

    nan where the screen cannot vouch for its value (the search then always
    solves exactly): where a Newton safeguard fires, and where the margin
    family's slope objective jumps at rho = 0.  With s = t / rho, e0(s, rho)
    tends to -ln sum_r w_r e^{-t m_r} as rho -> 0+, where m_r is the smallest
    gap of row r.  When sum_r w_r m_r > 0 that limit is positive for some t,
    while the objective is 0 at rho = 0; the supremum may then be the limit
    as rho -> 0+, where the optimal tilt is unbounded.  This needs a negative
    level.
    """
    lnw, gap, lnq = _channel_parts(q, p, level)
    row_min = gap.min(axis=1)
    if kind != "e-bound" and row_min.min() <= DIV_TOL and float(np.exp(lnw) @ row_min) > 0.0:
        return math.nan
    try:
        if kind == "e-bound":
            return _newton_nested_max(lnw, gap, lnq, rate, None, 1.0)[0]
        if kind == "error-extended":
            return _sup_exponent(lnw, gap, lnq, rate, _newton_nested_max).value
        return _tradeoff_parts(lnw, gap, lnq, rate, finiteness_boundary(q, p, level), RHO_CAP,
                               _newton_nested_max)[2][0]
    except NoConvergence:
        return math.nan


def maximize_over_codebooks(p: Channel, rate: float, level: float, kind: str,
                            denominator: int = 16, refinement_rounds: int = 3):
    """Best codebook distribution for a channel exponent, by grid plus refinement.

    For negative levels and rates below -level the list-decoding exponent is
    unbounded and a point-mass codebook witnesses it, so the search
    short-circuits.  Scan order is deterministic.

    The search screens, then confirms: every law it visits first gets a
    cheap value from ``_screen_value`` (Newton solves driven by the closed
    form derivatives of e0), and only the laws whose screened value is close
    enough to the best to win get the exact solve (see
    ``maximize_over_simplex``).  The screen's error is far below the margin,
    and a law it cannot vouch for (nan) is always solved exactly, so the
    winner, every refinement step and the returned result are those of
    solving every law exactly.  Each distinct law is
    solved once: the exact result of every confirmed law is kept under the
    law's bytes, and the returned result is the one computed for the best
    law.
    """
    if kind not in _CHANNEL_KINDS:
        raise DimensionMismatch(f"kind must be one of {sorted(_CHANNEL_KINDS)}")
    evaluate = _CHANNEL_KINDS[kind]
    k = p.input_size

    if kind != "e-bound" and level < -1e-12 and rate < -level - 1e-12:
        witness = Distribution.point_mass(k, 0)
        return witness, evaluate(witness, p, rate, level)

    solved, screened = {}, {}

    def solve(vec: np.ndarray) -> tuple:
        key = vec.tobytes()
        if key not in solved:
            q = Distribution(vec)
            solved[key] = q, evaluate(q, p, rate, level)
        return solved[key]

    def screen(vec: np.ndarray) -> float:
        # A law solved exactly already screens at its exact value.
        key = vec.tobytes()
        if key in solved:
            return solved[key][1].value
        if key not in screened:
            screened[key] = _screen_value(kind, Distribution(vec), p, rate, level)
        return screened[key]

    best = maximize_over_simplex(lambda vec: solve(vec)[1].value, k, denominator,
                                 refinement_rounds, screen=screen)
    return solve(best.point)


def capacity(p: Channel, denominator: int = 16, refinement_rounds: int = 48):
    """Channel capacity in nats with the maximizing input distribution.

    Direct concave maximization of the mutual information over the input
    simplex; no alternating iteration is needed at these alphabet sizes.
    """
    def f(vec: np.ndarray) -> float:
        return mutual_information(Distribution(vec), p)

    best = maximize_over_simplex(f, p.input_size, denominator, refinement_rounds)
    return Distribution(best.point), best.value
