"""One-dimensional unimodal maximization and simplex search helpers.

Every solver here assumes the objective is unimodal on its interval (all the
outer objectives in this package are concave, or become unimodal after a
monotone reparametrization).  Solvers count objective evaluations so callers
can report solver effort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import simplex_grid_arrays

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class ScalarMax:
    x: float
    value: float
    evaluations: int
    at_upper: bool = False


def golden_max(f, lo: float, hi: float, rel_tol: float = 1e-10,
               max_iter: int = 200) -> ScalarMax:
    """Golden-section maximization of a unimodal ``f`` on [lo, hi]."""
    evals = 0
    a, b = float(lo), float(hi)
    h = b - a
    tol = rel_tol * max(1.0, abs(a), abs(b))
    if h <= tol:
        x = 0.5 * (a + b)
        return ScalarMax(x, f(x), 1)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    evals += 2
    for _ in range(max_iter):
        if h <= tol:
            break
        if yc > yd:
            b, d, yd = d, c, yc
            h = _INV_PHI * h
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = _INV_PHI * h
            d = a + _INV_PHI * h
            yd = f(d)
        evals += 1
    if yc > yd:
        return ScalarMax(c, yc, evals)
    return ScalarMax(d, yd, evals)


def concave_max_on_ray(f, cap: float, rel_tol: float = 1e-10,
                       max_iter: int = 200) -> ScalarMax:
    """Maximize a concave ``f`` on [0, cap] by doubling bracket + golden section.

    Probes 0, 1, 2, 4, ... until the objective stops increasing, then refines
    inside the bracketing triple.  If the objective is still increasing at the
    cap, returns the cap point with ``at_upper`` set; the caller decides what
    the limit means.
    """
    evals = 2
    prev_x, prev_y = 0.0, f(0.0)
    x, y = 1.0, f(1.0)
    if y <= prev_y:
        res = golden_max(f, 0.0, 1.0, rel_tol, max_iter)
        res.evaluations += evals
        if res.value < prev_y:
            return ScalarMax(0.0, prev_y, res.evaluations)
        return res
    lo = 0.0
    while x < cap:
        nxt = min(2.0 * x, cap)
        ny = f(nxt)
        evals += 1
        if ny <= y:
            res = golden_max(f, lo, nxt, rel_tol, max_iter)
            res.evaluations += evals
            return res
        lo, prev_x, prev_y = prev_x, x, y
        x, y = nxt, ny
    return ScalarMax(cap, y, evals, at_upper=True)


def unimodal_max_01(f, rel_tol: float = 1e-12, max_iter: int = 200) -> ScalarMax:
    """Golden-section maximization on the closed unit interval."""
    res = golden_max(f, 0.0, 1.0, rel_tol, max_iter)
    # The maximum may sit exactly at an endpoint; golden section never
    # evaluates them, so compare explicitly.
    y0, y1 = f(0.0), f(1.0)
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


@dataclass
class SimplexMax:
    point: np.ndarray
    value: float
    evaluations: int


def maximize_over_simplex(f, dimension: int, denominator: int = 16,
                          refinement_rounds: int = 3,
                          sweeps_per_round: int = 40) -> SimplexMax:
    """Deterministic grid seeding plus coordinate-pair mass-exchange refinement.

    Scans the rational simplex grid, then repeatedly moves probability mass
    ``step`` from one coordinate to another whenever that improves ``f``,
    halving ``step`` each round.  Scan order is fixed, so results do not
    depend on timing or hashing.
    """
    grid = simplex_grid_arrays(dimension, denominator)
    evals = 0
    best_val = -math.inf
    best = grid[0]
    for row in grid:
        val = f(row)
        evals += 1
        if val > best_val:
            best_val = val
            best = row
    best, best_val, more = _exchange_refine(f, best, best_val, denominator,
                                            refinement_rounds, sweeps_per_round)
    return SimplexMax(best, best_val, evals + more)


def _exchange_refine(f, best, best_val: float, denominator: int, rounds: int,
                     sweeps_per_round: int = 40):
    """The mass-exchange rounds of maximize_over_simplex, from ``best`` with value
    ``best_val``; returns the best point, its value and the evaluation count."""
    best = np.array(best)
    evals = 0
    step = 1.0 / denominator
    for _ in range(rounds):
        step *= 0.5
        for _ in range(sweeps_per_round):
            improved = False
            for i in range(best.size):
                if best[i] < step:
                    continue
                for j in range(best.size):
                    if i == j:
                        continue
                    cand = best.copy()
                    cand[i] -= step
                    cand[j] += step
                    val = f(cand)
                    evals += 1
                    if val > best_val + 1e-15:
                        best_val = val
                        best = cand
                        improved = True
            if not improved:
                break
    return best, best_val, evals
