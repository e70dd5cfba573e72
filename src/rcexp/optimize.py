"""One-dimensional unimodal maximization and simplex search helpers.

Every solver here assumes the objective is unimodal on its interval (all the
outer objectives in this package are concave, or become unimodal after a
monotone reparametrization).  Solvers count objective evaluations so callers
can report solver effort.

The one-dimensional solvers take a scalar objective or, with
``vectorized=True``, one that maps an array of points to an array of values.
Both take the same speculative walk.  Golden section makes one new
evaluation per step, and where it lands depends only on which way the
previous comparison went; the bracket width shrinks by 1/phi on every step
either way, so the number of steps is known in advance.  The walk evaluates
the 2**k - 1 points the next k steps can reach in one call, then follows the
path the comparisons actually take.  A vectorized objective walks
``SPEC_DEPTH`` steps per call; a scalar one walks one, which is plain golden
section.  The doubling probes of ``concave_max_on_ray`` go 2**k - 1 to a
call, and the endpoints of ``unimodal_max_01`` go with the first golden pair.
``evaluations`` counts the points the search consumed, not the points the
objective computed, so it does not depend on the depth.  Neither do ``x``
and ``value``, to the last bit, when the vectorized objective returns the
bits the scalar one would.

A vectorized walk may also take a ``hint``, a guess of the maximizer.  Its
first call then adds the path the hint predicts: the new point of every step,
each step taken to keep [a, d] exactly when hint < (c + d) / 2.  The walk
follows that path while the comparisons turn the way it predicted, and goes
on with the tree from the first one that does not.  Every point is computed
by the expression the tree uses for it, and the walk only reads values it
has computed, so the same prefetch principle holds: a hint changes what the
walk costs, never the path it takes.  A wrong, outside, nan or infinite hint
gives the unhinted ``x``, ``value`` and ``evaluations``.

``newton_max`` is the exception: it takes the first two derivatives of the
objective instead of its values, and counts nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .probability import simplex_grid_arrays

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# Golden-section steps per call of a vectorized objective; its doubling
# probes go 2**SPEC_DEPTH - 1 to a call.
SPEC_DEPTH = 4
# How far below the best a screened estimate must fall, relative to
# max(1, |best|), before maximize_over_simplex rules its point out without
# the exact objective; a screen must err by less than half of it.
SCREEN_MARGIN = 1e-8
# Most mass-exchange sweeps per refinement round of maximize_over_simplex.
SWEEPS_PER_ROUND = 40


@dataclass
class ScalarMax:
    x: float
    value: float
    evaluations: int
    at_upper: bool = False


def _batched(f, vectorized: bool):
    """``f`` as a map from a list of points to a list of values, and its walk depth."""
    if vectorized:
        return (lambda xs: f(np.array(xs)).tolist()), SPEC_DEPTH
    return (lambda xs: list(map(f, xs))), 1


def _golden(many, depth: int, lo: float, hi: float, rel_tol: float, max_iter: int,
            extra: tuple = (), hint: float | None = None):
    """Golden section of the list objective ``many`` on [lo, hi], ``depth``
    steps per call.  The points ``extra`` are evaluated with the first pair;
    returns the ScalarMax and their values.  With a ``hint`` and a depth
    above one, the first call also takes the path ``hint`` predicts (see
    ``_path``), and the walk follows it until a comparison turns the other
    way."""
    a, b = float(lo), float(hi)
    h = b - a
    tol = rel_tol * max(1.0, abs(a), abs(b))
    if h <= tol:
        x = 0.5 * (a + b)
        ys = many([x, *extra])
        return ScalarMax(x, ys[0], 1), ys[1:]
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    # The width shrinks by 1/phi per step whatever f does, so the number of
    # steps is known before any is taken.
    steps, width = 0, h
    while steps < max_iter and not width <= tol:
        width = _INV_PHI * width
        steps += 1
    xs = _path(a, c, d, h, steps, hint) if hint is not None and depth > 1 else []
    ys = many([c, d, *extra, *xs])
    yc, yd, extra_ys = ys[0], ys[1], ys[2:2 + len(extra)]
    left = yc > yd
    todo = steps
    # The path is the walk's own while every comparison turns the way the
    # hint predicted from the same bracket.
    for x, y in zip(xs, ys[2 + len(extra):]):
        if left != (hint < 0.5 * (c + d)):
            break
        h = _INV_PHI * h
        if left:
            c, d = x, c
            yc, yd = y, yc
        else:
            a, c, d = c, d, x
            yc, yd = yd, y
        left = yc > yd
        todo -= 1
    while todo:
        k = min(depth, todo)
        todo -= k
        # A step keeps [a, d] when f(c) > f(d): d becomes c and the new point
        # c is a + h / phi**2.  Otherwise it keeps [c, a + h]: c becomes d and
        # the new point d is c + h / phi.  Either way h shrinks by 1/phi, so
        # every bracket j steps ahead has the same width.
        widths = []
        for _ in range(k):
            h = _INV_PHI * h
            widths.append(h)
        # The new point of every bracket (a, c, d) the next k steps can reach,
        # level by level: node i is followed by node 2i + 1 when f(c) > f(d)
        # there, else by 2i + 2.
        if left:
            xs = [a + _INV_PHI2 * widths[0]]
            level = [(a, xs[0], c)]
        else:
            xs = [c + _INV_PHI * widths[0]]
            level = [(c, d, xs[0])]
        for w in widths[1:]:
            dc, dd = _INV_PHI2 * w, _INV_PHI * w
            below = []
            for na, nc, nd in level:
                new_c, new_d = na + dc, nc + dd
                below += ((na, new_c, nc), (nc, nd, new_d))
                xs += (new_c, new_d)
            level = below
        ys = many(xs)
        i = 0
        for _ in range(k):
            if left:
                c, d = xs[i], c
                yc, yd = ys[i], yc
            else:
                a, c, d = c, d, xs[i]
                yc, yd = yd, ys[i]
            left = yc > yd
            i = 2 * i + (1 if left else 2)
    if yc > yd:
        return ScalarMax(c, yc, 2 + steps), extra_ys
    return ScalarMax(d, yd, 2 + steps), extra_ys


def _path(a: float, c: float, d: float, h: float, n: int, hint: float) -> list:
    """The new points of the next ``n`` golden steps from the bracket
    (a, c, d) of width ``h`` when every step turns toward ``hint``: it keeps
    [a, d], as when f(c) > f(d), exactly when hint < (c + d) / 2.  Each point
    is computed by the expression the tree of ``_golden`` uses for it."""
    xs = []
    for _ in range(n):
        h = _INV_PHI * h
        if hint < 0.5 * (c + d):
            c, d = a + _INV_PHI2 * h, c
            xs.append(c)
        else:
            a, c, d = c, d, c + _INV_PHI * h
            xs.append(d)
    return xs


def golden_max(f, lo: float, hi: float, rel_tol: float = 1e-10,
               max_iter: int = 200, vectorized: bool = False, *,
               hint: float | None = None) -> ScalarMax:
    """Golden-section maximization of a unimodal ``f`` on [lo, hi]; ``hint``
    is a guess of the maximizer (see the module docstring)."""
    return _golden(*_batched(f, vectorized), lo, hi, rel_tol, max_iter, hint=hint)[0]


def _doubling_probes(cap: float) -> list:
    """The bracket probes 0, 1, 2, 4, ... of a search on [0, cap]; the last is ``cap``."""
    probes = [0.0, 1.0]
    while probes[-1] < cap:
        probes.append(min(2.0 * probes[-1], cap))
    return probes


def concave_max_on_ray(f, cap: float, rel_tol: float = 1e-10,
                       max_iter: int = 200, vectorized: bool = False, *,
                       hint: float | None = None) -> ScalarMax:
    """Maximize a concave ``f`` on [0, cap] by doubling bracket + golden section.

    Probes 0, 1, 2, 4, ... until the objective stops increasing, then refines
    inside the bracketing triple.  If the objective is still increasing at the
    cap, returns the cap point with ``at_upper`` set; the caller decides what
    the limit means.
    """
    many, depth = _batched(f, vectorized)
    probes = _doubling_probes(cap)
    chunk = 2 ** depth - 1
    values = (y for i in range(0, len(probes), chunk) for y in many(probes[i:i + chunk]))
    y0, y = next(values), next(values)
    if y <= y0:
        res = _golden(many, depth, 0.0, 1.0, rel_tol, max_iter, hint=hint)[0]
        res.evaluations += 2
        if res.value < y0:
            return ScalarMax(0.0, y0, res.evaluations)
        return res
    for j in range(2, len(probes)):
        ny = next(values)
        if ny <= y:
            # Concavity puts the maximum in [probes[j - 2], probes[j]]; the
            # bracket starts one probe further back.
            res = _golden(many, depth, probes[max(j - 3, 0)], probes[j], rel_tol, max_iter,
                          hint=hint)[0]
            res.evaluations += j + 1
            return res
        y = ny
    return ScalarMax(cap, y, len(probes), at_upper=True)


def unimodal_max_01(f, rel_tol: float = 1e-12, max_iter: int = 200,
                    vectorized: bool = False, *, hint: float | None = None) -> ScalarMax:
    """Golden-section maximization on the closed unit interval."""
    # The maximum may sit exactly at an endpoint; golden section never
    # evaluates them, so compare explicitly.
    res, (y0, y1) = _golden(*_batched(f, vectorized), 0.0, 1.0, rel_tol, max_iter,
                            extra=(0.0, 1.0), hint=hint)
    res.evaluations += 2
    return _best_of_ends(res, y0, 1.0, y1)


def unimodal_max_ray_reparam(f, cap: float, rel_tol: float = 1e-12,
                             max_iter: int = 240) -> ScalarMax:
    """Maximize a unimodal ``f`` on [0, cap] via the map u -> u/(1-u).

    The substitution compresses [0, inf) onto [0, 1), so very large optimizers
    (steep-slope regimes) are reachable without geometric probing.  ``cap`` is
    enforced by limiting u.  Unimodality is preserved because the map is
    monotone.
    """
    u_cap = cap / (1.0 + cap)

    def g(u: float) -> float:
        return f(u / (1.0 - u)) if u < 1.0 else f(cap)

    res = golden_max(g, 0.0, u_cap, rel_tol, max_iter)
    y0 = f(0.0)
    y_cap = f(cap)
    res.evaluations += 2
    return _best_of_ends(ScalarMax(res.x / (1.0 - res.x), res.value, res.evaluations),
                         y0, cap, y_cap)


def _best_of_ends(res: ScalarMax, y0: float, hi: float, y_hi: float) -> ScalarMax:
    """``res`` or the endpoint 0 or ``hi`` (flagged at_upper), whichever is larger; ties go to 0."""
    if y0 >= res.value and y0 >= y_hi:
        return ScalarMax(0.0, y0, res.evaluations)
    if y_hi >= res.value:
        return ScalarMax(hi, y_hi, res.evaluations, at_upper=True)
    return res


def newton_max(derivs, lo: float, hi: float, x0: float):
    """Maximize a unimodal f on [lo, hi] (``hi`` may be inf) by safeguarded
    Newton steps on f', starting from ``x0``.

    ``derivs(x)`` returns a tuple whose first two entries are f'(x) and
    f''(x).  Returns ``(x, derivs(x))`` at the maximizer: ``lo`` when
    f'(lo) <= 0, ``hi`` when f'(hi) >= 0, else the point whose Newton step is
    at most 1e-9 |x|.  The root of f' is kept in a bracket.  A Newton step
    is replaced when it leaves the bracket, when f'' is not negative, or when
    it turns back on a Newton step less than twice as long (where a kink in
    f' would make the steps cycle): by a move to the endpoint on its side if
    that has not been evaluated yet, else to the bracket's midpoint (twice
    its lower end while it is unbounded).  Raises NoConvergence when f' is
    nan, after 100 evaluations, or once the root is known to lie beyond 1e12.
    """
    a, b = lo, hi
    a_seen = b_seen = False
    x = min(max(x0, lo), hi)
    last = 0.0
    for _ in range(100):
        ev = derivs(x)
        g, c = ev[0], ev[1]
        if g > 0.0:
            if x >= hi:
                return x, ev
            a, a_seen = x, True
        elif g < 0.0:
            if x <= lo:
                return x, ev
            b, b_seen = x, True
        elif g == 0.0:
            return x, ev
        else:
            break
        if a >= 1e12:
            break
        step = -g / c if c < 0.0 else math.nan
        if abs(step) <= 1e-9 * abs(x):
            return x, ev
        if a < x + step < b and not (step * last < 0.0 and abs(step) > 0.5 * abs(last)):
            x, last = x + step, step
            continue
        if g > 0.0 and not b_seen:
            x = hi if hi < math.inf else min(2.0 * a if a > 0.0 else 1.0, 1e12)
        elif g < 0.0 and not a_seen:
            x = lo
        elif b - a <= 1e-9 * abs(x):
            return x, ev
        else:
            x = 0.5 * (a + b)
        last = 0.0
    raise NoConvergence(f"Newton solve on [{lo}, {hi}] stopped at {x}")


@dataclass
class SimplexMax:
    point: np.ndarray
    value: float
    evaluations: int


def maximize_over_simplex(f, dimension: int, denominator: int = 16,
                          refinement_rounds: int = 3, screen=None) -> SimplexMax:
    """Deterministic grid seeding plus coordinate-pair mass-exchange refinement.

    Scans the rational simplex grid, then repeatedly moves probability mass
    ``step`` from one coordinate to another whenever that improves ``f``,
    halving ``step`` each round of at most ``SWEEPS_PER_ROUND`` sweeps.  Scan
    order is fixed, so results do not depend on timing or hashing.

    ``screen``, when given, is a cheap estimate of ``f`` whose error is below
    ``SCREEN_MARGIN / 2`` relative to max(1, |f|).  Every grid point is then
    screened first, and ``f`` runs only on the points whose estimate is
    within ``SCREEN_MARGIN`` of the best estimate, in grid order; a
    refinement candidate whose estimate is that far below the current best
    is rejected without ``f``.  A point a screen cannot rule out (its
    estimate is inf or nan) always gets ``f``.  Under the error bound no
    point that could win is ruled out, so the result is the one the full
    scan of ``f`` returns.  ``evaluations`` counts the calls of ``f``.
    """
    grid = simplex_grid_arrays(dimension, denominator)
    contenders = grid
    if screen is not None:
        estimates = [screen(row) for row in grid]
        top = max((v for v in estimates if v == v), default=-math.inf)
        floor = top - SCREEN_MARGIN * max(1.0, abs(top))
        contenders = [row for row, v in zip(grid, estimates)
                      if not math.isfinite(v) or v >= floor]
    evals = 0
    best_val = -math.inf
    best = grid[0]
    for row in contenders:
        val = f(row)
        evals += 1
        if val > best_val:
            best_val = val
            best = row
    best, best_val, more = _exchange_refine(f, best, best_val, denominator,
                                            refinement_rounds, screen)
    return SimplexMax(best, best_val, evals + more)


def _exchange_refine(f, best, best_val: float, denominator: int, rounds: int, screen=None):
    """The mass-exchange rounds of maximize_over_simplex, from ``best`` with value
    ``best_val``; returns the best point, its value and the evaluation count.
    ``screen`` rules candidates out as there."""
    best = np.array(best)
    evals = 0
    step = 1.0 / denominator
    for _ in range(rounds):
        step *= 0.5
        for _ in range(SWEEPS_PER_ROUND):
            improved = False
            for i in range(best.size):
                for j in range(best.size):
                    # An accepted move lowers best[i], so its mass is checked
                    # before every move, not once per donor.
                    if i == j or best[i] < step:
                        continue
                    cand = best.copy()
                    cand[i] -= step
                    cand[j] += step
                    if screen is not None and _ruled_out(screen, cand, best_val):
                        continue
                    val = f(cand)
                    evals += 1
                    if val > best_val + 1e-15:
                        best_val = val
                        best = cand
                        improved = True
            if not improved:
                break
    return best, best_val, evals


def _ruled_out(screen, point, best_val: float) -> bool:
    """Whether ``point`` cannot beat ``best_val`` by the refinement's 1e-15:
    nothing beats an infinite best, and a point whose finite screen estimate
    is below the best by more than the margin is out."""
    if best_val == math.inf:
        return True
    estimate = screen(point)
    floor = best_val + 1e-15 - SCREEN_MARGIN * max(1.0, abs(best_val))
    return math.isfinite(estimate) and estimate < floor
