"""Closed-form random-coding exponents for sources and channels.

Every exponent here is a nested optimization of one two-parameter objective:
an outer concave problem in a slope variable ``rho`` and an inner problem in
a tilt variable ``s``.  For success/error-type exponents the inner objective
is concave in ``s``; for failure/correct-envelope exponents the inner
landscape can have several local minima, so it is scanned on a dense
logarithmic grid before local refinement.

Channel exponents reduce to the source-side machinery through the
log-likelihood-ratio distortion; both sides share the same inner solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatch
from .optimize import (
    concave_max_on_ray,
    golden_max,
    maximize_over_simplex,
    unimodal_max_01,
    unimodal_max_ray_reparam,
)
from .probability import Channel, Distribution, DistortionModel, mutual_information
from .rates import DIV_TOL, S_CAP, S_CAP_HARD, finiteness_boundary
from .rates import _input_logs, _lse_rows, _margin_gap, _restrict

RHO_CAP = 64.0
FLAG_TOL = 1e-6
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


def _lse_flat(a: np.ndarray) -> float:
    m = a.max()
    return float(np.log(np.exp(a - m).sum()) + m)


def _ln_bracket(lnq: np.ndarray, gap: np.ndarray, s: float) -> np.ndarray:
    """ln sum_xhat q(xhat) e^{-s gap[x, xhat]} for every row x."""
    return _lse_rows(lnq[None, :] - s * gap)


def _e0_eval(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray,
             rho: float, s: float) -> float:
    """-ln sum_x w(x) bracket_x(s)^rho, all in log space."""
    return -_lse_flat(lnw + rho * _lse_rows(lnq[None, :] - s * gap))


def _mass_limit(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray, rho: float,
                keep: np.ndarray) -> float:
    """Infinite-tilt limit  -ln sum_{x in keep} w(x) mass_x^rho, where mass_x is
    the codebook mass of the letters meeting the distortion level in row x."""
    feas = gap <= 1e-12
    with np.errstate(divide="ignore"):
        ln_mass = np.log(np.where(feas, np.exp(lnq)[None, :], 0.0).sum(axis=1))
    return float(-logsumexp(lnw[keep] + rho * ln_mass[keep]))


def _sup_e0_ray(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray, rho: float,
                s_cap: float = S_CAP):
    """sup over s >= 0 of  -ln sum_x w(x) bracket_x(s)^rho  (concave in s).

    Returns (value, s_star); s_star is inf when the supremum is attained in
    the limit, and the value is +inf when every row diverges.
    """
    if rho <= 1e-14:
        return 0.0, 0.0
    dmin = gap.min(axis=1)
    m = float(dmin.min())
    if m > DIV_TOL:
        return math.inf, math.inf
    if m >= -DIV_TOL:
        # Nondecreasing in the tilt; supremum attained in the limit.
        return max(_mass_limit(lnw, gap, lnq, rho, dmin <= 1e-12), 0.0), math.inf
    slope0 = rho * float(np.dot(np.exp(lnw), gap @ np.exp(lnq)))
    if slope0 <= 0.0:
        return 0.0, 0.0

    # A finite maximizer exists, but its scale grows like 1/rho when some
    # rows lie strictly inside the distortion level and others outside, so
    # the bracket must be allowed to run very far before giving up.
    res = concave_max_on_ray(lambda s: _e0_eval(lnw, gap, lnq, rho, s), max(s_cap, S_CAP_HARD))
    if res.at_upper:
        return max(res.value, _mass_limit(lnw, gap, lnq, rho, dmin <= 1e-12), 0.0), math.inf
    return max(res.value, 0.0), res.x


def _inf_e0_ray(lnw: np.ndarray, gap: np.ndarray, lnq: np.ndarray, rho: float,
                s_cap: float = S_CAP, n_grid: int = 512):
    """inf over s >= 0 of  -ln sum_x w(x) bracket_x(s)^(-rho).

    The landscape can have several local minima, so the whole ray is scanned
    on a log-spaced grid and every interior dip is refined by golden section.
    Callers must ensure max_x min_xhat gap <= 0 (otherwise the infimum is
    -inf and the enveloping formula does not apply).
    """
    if rho <= 1e-14:
        return 0.0, 0.0
    grid = np.concatenate([[0.0], np.geomspace(1e-4, s_cap, n_grid - 1)])
    lnb = logsumexp(lnq[None, None, :] - grid[:, None, None] * gap[None, :, :], axis=2)
    vals = -logsumexp(lnw[None, :] - rho * lnb, axis=1)

    best_val = float(vals[0])
    best_s = 0.0
    # Refine each interior dip once; runs of near-equal grid values (plateaus)
    # collapse to a single bracket.
    is_min = np.zeros(len(grid), dtype=bool)
    is_min[1:-1] = (vals[1:-1] <= vals[:-2] + _TIE_TOL) & (vals[1:-1] <= vals[2:] + _TIE_TOL)
    i = 1
    while i < len(grid) - 1:
        if not is_min[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(grid) - 1 and is_min[j + 1]:
            j += 1
        res = golden_max(lambda s: -_e0_eval(lnw, gap, lnq, -rho, s), grid[i - 1], grid[j + 1],
                         rel_tol=1e-12)
        if -res.value < best_val:
            best_val, best_s = -res.value, res.x
        i = j + 2

    dmin = gap.min(axis=1)
    if float(dmin.max()) >= -1e-12:
        limit = _mass_limit(lnw, gap, lnq, -rho, dmin >= -1e-12)
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
    return float(-logsumexp(lnw + rho * _ln_bracket(lnq, gap, s)))


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


def _tilt_max_01(lnw, gap, lnq, rho: float):
    """sup over s in [0, 1] of e0(s, rho): the bounded-tilt inner problem."""
    if rho <= 1e-14:
        return 0.0, 0.0
    res = unimodal_max_01(lambda s: _e0_eval(lnw, gap, lnq, rho, s), rel_tol=1e-10)
    return res.value, res.x


# ---------------------------------------------------------------------------
# Success / error family (inner objective concave in s).
# ---------------------------------------------------------------------------


def _sup_exponent(lnw, gap, lnq, rate: float) -> ExponentResult:
    """sup over rho in [0, 1] of (sup_s e0(s, rho)) - rho * rate.

    +inf when the level lies below every distortion on the codebook support.
    """
    m = float(gap.min())
    flags = frozenset({"at_D_min"}) if abs(m) <= FLAG_TOL else frozenset()
    if m > 1e-12:
        return ExponentResult(math.inf, boundary_flags=flags)
    value, rho_star, s_star, _ = _slope_solve(
        lambda rho: _sup_e0_ray(lnw, gap, lnq, rho), rate)
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


def gallager_error_exponent(q: Distribution, p: Channel, rate: float) -> ExponentResult:
    """Classical random-coding error exponent in its collapsed one-parameter form."""
    lnq, lnp = _input_logs(q, p)

    def e0(rho: float):
        inner = _lse_rows((lnq[:, None] + lnp / (1.0 + rho)).T)
        return -_lse_flat((1.0 + rho) * inner), None

    value, rho_star, _, _ = _slope_solve(e0, rate)
    return ExponentResult(value, rho_star)


def correct_exponent(q: Distribution, p: Channel, rate: float) -> ExponentResult:
    """Exponent of the probability of *correct* decoding above capacity.

    Nondecreasing in the rate; zero at and below the mutual information; grows
    with unit slope beyond the tangency rate.  The slope variable is capped
    just below one, where the objective approaches its affine asymptote.
    """
    lnq, lnp = _input_logs(q, p)

    def outer(rho: float) -> float:
        inner = _lse_rows((lnq[:, None] + lnp / (1.0 - rho)).T)
        return -_lse_flat((1.0 - rho) * inner) + rho * rate

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
    value, rho_star, s_star, at_cap = _slope_solve(
        lambda rho: _inf_e0_ray(lnw, gap, lnq, rho), -rate, rho_cap)
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
    if float(gap.min(axis=1).max()) > 1e-12:
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


def _row_rate_max(gap: np.ndarray, lnq: np.ndarray) -> float:
    """Largest per-row dual rate: the rate ceiling of the envelope formulas."""
    best = 0.0
    for x in range(gap.shape[0]):
        row = gap[x:x + 1]
        if float(row.min()) > DIV_TOL:
            return math.inf
        value, _ = _sup_e0_ray(np.array([0.0]), row, lnq, 1.0)
        best = max(best, value)
    return best


def failure_inner_curve(source: Distribution, codebook: Distribution,
                        d: DistortionModel, level: float, rho: float,
                        s_values: np.ndarray) -> np.ndarray:
    """The inner tilt objective of the failure envelope along ``s_values``.

    This is the curve whose local minima select the envelope's tangency
    sources; scanning it exposes slope-discontinuity (two-mode) geometry.
    """
    lnw, gap, lnq = _source_parts(source, codebook, d, level)
    s_vec = np.asarray(s_values, dtype=float)
    lnb = logsumexp(lnq[None, None, :] - s_vec[:, None, None] * gap[None, :, :], axis=2)
    return -logsumexp(lnw[None, :] - rho * lnb, axis=1)


def failure_tangency_law(source: Distribution, codebook: Distribution,
                         d: DistortionModel, level: float, rho: float,
                         s: float) -> Distribution:
    """Source law whose failure-envelope line touches the true exponent curve.

    Proportional to source(x) * bracket_x(s)^(-rho); the rate of this law is
    the tangency rate of the slope-rho supporting line.
    """
    lnw, gap, lnq = _source_parts(source, codebook, d, level)
    ln_t = lnw - rho * _ln_bracket(lnq, gap, s)
    ln_t -= logsumexp(ln_t)
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

    def f(s: float) -> float:
        return float(failure_inner_curve(source, codebook, d, level, rho,
                                         np.array([s]))[0])

    found = []
    for i in range(1, len(s_grid) - 1):
        if vals[i] <= vals[i - 1] + _TIE_TOL and vals[i] <= vals[i + 1] + _TIE_TOL:
            res = golden_max(lambda s: -f(s), s_grid[i - 1], s_grid[i + 1],
                             rel_tol=1e-13, max_iter=240)
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


def _component_one(lnw, gap, lnq, rate: float, rho_cap: float):
    """sup over rho in [0, rho_cap], s in [0, 1] of e0(s, rho) - rho * rate."""
    return _slope_solve(lambda rho: _tilt_max_01(lnw, gap, lnq, rho), rate, rho_cap)


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
    flags = set()

    boundary = finiteness_boundary(q, p, level)
    if rate < boundary - 1e-9:
        comp1 = math.inf
        rho1 = s1 = math.inf
    else:
        comp1, rho1, s1, at_cap = _component_one(lnw, gap, lnq, rate, rho_cap)
        if at_cap:
            flags.add("rho_at_cap")
    if abs(rate - boundary) <= FLAG_TOL:
        flags.add("at_R_min")

    second = _sup_exponent(lnw, gap, lnq, rate)
    flags |= second.boundary_flags
    comp2 = second.value

    if comp1 <= comp2:
        value, rho_star, s_star = comp1, rho1, s1
    else:
        value, rho_star, s_star = comp2, second.optimizer_rho, second.optimizer_s

    upper = None
    if flags & {"at_D_min", "at_R_min"}:
        eps = 1e-6
        relaxed1 = forney_component_one(q, p, rate - eps, level, rho_cap)
        relaxed2 = margin_error_exponent(q, p, rate, level - eps).value
        upper = min(relaxed1, relaxed2)

    return ExponentResult(value, rho_star, s_star,
                          component_values=(comp1, comp2),
                          boundary_flags=frozenset(flags),
                          upper_value=upper)


def forney_component_one(q: Distribution, p: Channel, rate: float, level: float,
                         rho_cap: float = RHO_CAP) -> float:
    """The bounded-tilt component of the tradeoff exponent, on its own."""
    if rate < finiteness_boundary(q, p, level) - 1e-9:
        return math.inf
    lnw, gap, lnq = _channel_parts(q, p, level)
    return _component_one(lnw, gap, lnq, rate, rho_cap)[0]


def forney_bound_exponent(q: Distribution, p: Channel, rate: float,
                          level: float) -> ExponentResult:
    """The classical threshold-decoder bound: both parameters confined to [0, 1].

    Never exceeds the tradeoff exponent; coincides with it (and with the
    margin error exponent) for nonnegative levels.
    """
    lnw, gap, lnq = _channel_parts(q, p, level)
    value, rho_star, s_star, _ = _slope_solve(
        lambda rho: _tilt_max_01(lnw, gap, lnq, rho), rate)
    return ExponentResult(value, rho_star, s_star)


# ---------------------------------------------------------------------------
# Optimization over the codebook distribution.
# ---------------------------------------------------------------------------

_CHANNEL_KINDS = {
    "error-extended": lambda q, p, r, lvl: margin_error_exponent(q, p, r, lvl),
    "forney-tradeoff": lambda q, p, r, lvl: forney_exponent(q, p, r, lvl),
    "e-bound": lambda q, p, r, lvl: forney_bound_exponent(q, p, r, lvl),
}


def maximize_over_codebooks(p: Channel, rate: float, level: float, kind: str,
                            denominator: int = 16, refinement_rounds: int = 3):
    """Best codebook distribution for a channel exponent, by grid plus refinement.

    For negative levels and rates below -level the list-decoding exponent is
    unbounded and a point-mass codebook witnesses it, so the search
    short-circuits.  Scan order is deterministic.
    """
    if kind not in _CHANNEL_KINDS:
        raise DimensionMismatch(f"kind must be one of {sorted(_CHANNEL_KINDS)}")
    evaluate = _CHANNEL_KINDS[kind]
    k = p.input_size

    if kind != "e-bound" and level < -1e-12 and rate < -level - 1e-12:
        witness = Distribution.point_mass(k, 0)
        return witness, evaluate(witness, p, rate, level)

    def f(vec: np.ndarray) -> float:
        return evaluate(Distribution(vec), p, rate, level).value

    best = maximize_over_simplex(f, k, denominator, refinement_rounds)
    q_best = Distribution(best.point)
    return q_best, evaluate(q_best, p, rate, level)


def capacity(p: Channel, denominator: int = 16, refinement_rounds: int = 48):
    """Channel capacity in nats with the maximizing input distribution.

    Direct concave maximization of the mutual information over the input
    simplex; no alternating iteration is needed at these alphabet sizes.
    """
    def f(vec: np.ndarray) -> float:
        return mutual_information(Distribution(vec), p)

    best = maximize_over_simplex(f, p.input_size, denominator, refinement_rounds)
    return Distribution(best.point), best.value
