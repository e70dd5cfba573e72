"""Brute-force evaluation of the variational exponent definitions.

Everything here minimizes over rational simplex grids and serves as the
independent check of the closed forms in `rates` and `exponents`.  Source
laws are gridded directly; test kernels are gridded row by row and combined
through a split-enumeration with a sorted budget query, which keeps the
kernel search exact while avoiding the full cartesian product.

Infinite values compare as larger than any finite value; a minimum over an
empty feasible set is +inf.  Enumeration order is colexicographic, so argmin
reports are stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RcexpError
from .optimize import _exchange_refine
from .probability import (
    Channel,
    Distribution,
    DistortionModel,
    joint_from_input_and_channel,
    simplex_grid_arrays,
    support_or_raise,
)
from .rates import _margin_gap, rate_function, rate_values_batch

CONSTRAINT_SLACK = 1e-9
# The constant of grid_tolerance's error budget.
GRID_TOL_FACTOR = 4.0
_MAX_HALF_ENUM = 8_000_000


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution for the brute-force searches.

    ``denominator`` m grids each simplex with points i/m; a k-simplex then
    holds C(m+k-1, k-1) points.  ``refinement_rounds`` adds local
    mass-exchange passes (step halving) around the best grid law for the
    source-law searches; kernel grids are always exhaustive.
    """

    denominator: int
    refinement_rounds: int = 0

    def __post_init__(self):
        if self.denominator < 1 or self.refinement_rounds < 0:
            raise DimensionMismatch("invalid grid spec")


def grid_tolerance(denominator: int, min_prob: float, d_span: float) -> float:
    """Documented error budget of a denominator-m grid comparison."""
    return GRID_TOL_FACTOR / denominator * max(abs(math.log(min_prob)), d_span)


def model_min_prob(*objects) -> float:
    """Smallest positive probability across the given distributions/channels."""
    smallest = 1.0
    for obj in objects:
        arr = obj.probs
        pos = arr[arr > 0.0]
        smallest = min(smallest, float(pos.min()))
    return smallest


def _kl_rows(t_batch: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """D(t || ref) for every row of a stacked batch; +inf where undominated."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t_batch > 0.0, t_batch * (np.log(t_batch) - np.log(ref)[None, :]), 0.0)
    out = terms.sum(axis=1)
    bad = np.any((t_batch > 0.0) & (ref[None, :] == 0.0), axis=1)
    out[bad] = math.inf
    return out


def _kernel_row_tables(q_sup: np.ndarray, d_row: np.ndarray, m: int):
    """(divergence, distortion) of every grid kernel row against the codebook."""
    cands = simplex_grid_arrays(q_sup.size, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(cands > 0.0, cands * (np.log(cands) - np.log(q_sup)[None, :]), 0.0).sum(axis=1)
    dist = cands @ d_row
    return kl, dist


def rate_function_brute(t, q: Distribution, d: DistortionModel, level: float,
                        grid: GridSpec) -> float:
    """Grid minimum of the kernel divergence subject to mean distortion <= level.

    Kernel rows are gridded independently; rows are folded into two halves
    whose (distortion, divergence) sums are enumerated, and the final
    minimum is a sorted prefix-minimum query over one half.
    """
    weights = t.probs if isinstance(t, Distribution) else np.asarray(t, float)
    if weights.shape[0] != d.source_size:
        raise DimensionMismatch("source law does not match distortion rows")
    sup = support_or_raise(q)
    q_sup = q.probs[sup]
    rows = np.flatnonzero(weights > 0.0)
    tables = []
    for x in rows:
        kl, dist = _kernel_row_tables(q_sup, d.values[x, sup], grid.denominator)
        tables.append((weights[x] * kl, weights[x] * dist))

    def enumerate_sums(parts):
        cost = np.zeros(1)
        dist = np.zeros(1)
        for kl_x, dist_x in parts:
            cost = (cost[:, None] + kl_x[None, :]).reshape(-1)
            dist = (dist[:, None] + dist_x[None, :]).reshape(-1)
            if cost.size > _MAX_HALF_ENUM:
                raise RcexpError("kernel grid too large; lower the denominator")
        return cost, dist

    half = len(tables) // 2
    cost_a, dist_a = enumerate_sums(tables[:half]) if half else (np.zeros(1), np.zeros(1))
    cost_b, dist_b = enumerate_sums(tables[half:])

    order = np.argsort(dist_a, kind="stable")
    dist_a = dist_a[order]
    cost_a = np.minimum.accumulate(cost_a[order])

    budget = level + CONSTRAINT_SLACK - dist_b
    idx = np.searchsorted(dist_a, budget, side="right") - 1
    ok = idx >= 0
    if not np.any(ok):
        return math.inf
    return float((cost_b[ok] + cost_a[idx[ok]]).min())


def _refine_source_law(objective, t0: np.ndarray, denominator: int, rounds: int) -> float:
    """Greedy mass-exchange refinement around a grid law; never worse than t0.

    Maximizes the negated objective; negation keeps every comparison exact.
    """
    _, value, _ = _exchange_refine(lambda t: -objective(t), t0, -objective(t0),
                                   denominator, rounds)
    return -value


def success_exponent_brute(source: Distribution, q: Distribution, d: DistortionModel,
                           level: float, rate: float, grid: GridSpec,
                           nested_kernel_grid: bool = False) -> float:
    """Grid minimum of  D(T || source) + |rate_of(T) - rate|^+  over source laws.

    The inner rate uses the exact dual solver by default; setting
    ``nested_kernel_grid`` swaps in the fully gridded kernel search (costly,
    kept for auditing the dual identity itself).
    """
    t_grid = simplex_grid_arrays(source.alphabet_size, grid.denominator)
    kl = _kl_rows(t_grid, source.probs)
    if nested_kernel_grid:
        rates = np.array([rate_function_brute(t, q, d, level, grid) for t in t_grid])
    else:
        rates = rate_values_batch(t_grid, q, d, level)
    vals = kl + np.maximum(rates - rate, 0.0)
    vals[np.isnan(vals)] = math.inf
    best = float(vals.min())
    if grid.refinement_rounds:
        t0 = t_grid[int(np.argmin(vals))]

        def objective(t):
            r = rate_function(np.asarray(t), q, d, level).value
            base = _kl_rows(t[None, :], source.probs)[0]
            return base + max(r - rate, 0.0)

        best = min(best, _refine_source_law(objective, t0, grid.denominator,
                                            grid.refinement_rounds))
    return best


def failure_exponent_brute(source: Distribution, q: Distribution, d: DistortionModel,
                           level: float, rate: float, grid: GridSpec) -> float:
    """Grid minimum of D(T || source) over laws whose rate meets or exceeds ``rate``."""
    t_grid = simplex_grid_arrays(source.alphabet_size, grid.denominator)
    kl = _kl_rows(t_grid, source.probs)
    rates = rate_values_batch(t_grid, q, d, level)
    ok = rates >= rate - CONSTRAINT_SLACK
    if not np.any(ok):
        return math.inf
    best = float(kl[ok].min())
    if grid.refinement_rounds:
        idx = np.flatnonzero(ok)[int(np.argmin(kl[ok]))]
        t0 = t_grid[idx]

        def objective(t):
            r = rate_function(np.asarray(t), q, d, level).value
            if r < rate - CONSTRAINT_SLACK:
                return math.inf
            return _kl_rows(np.asarray(t)[None, :], source.probs)[0]

        best = min(best, _refine_source_law(objective, t0, grid.denominator,
                                            grid.refinement_rounds))
    return best


def _channel_grid_parts(q: Distribution, p: Channel, grid: GridSpec):
    """Joint grid over the supported (input, output) cells, each law's divergence
    from the joint law, and the distortion and codebook on the support."""
    sup = support_or_raise(q)
    ref = joint_from_input_and_channel(q, p).probs[sup].reshape(-1)
    d_rows, _ = _margin_gap(q, p, 0.0)
    q_sup = Distribution(q.probs[sup])
    t_grid = simplex_grid_arrays(ref.size, grid.denominator)
    return t_grid, _kl_rows(t_grid, ref), DistortionModel(d_rows), q_sup


def channel_exponent_brute(q: Distribution, p: Channel, rate: float, level: float,
                           kind: str, grid: GridSpec) -> float:
    """Grid minimum for the channel error / correct-decoding definitions.

    ``error`` minimizes divergence-from-joint plus |rate_of(T) - rate|^+ at the
    given distortion level; ``correct`` minimizes divergence plus
    |rate - rate_of(T)|^+ with the level pinned to zero (the tie-breaking
    decoder it describes is only defined there).
    """
    if kind not in ("error", "correct"):
        raise DimensionMismatch("kind must be 'error' or 'correct'")
    t_grid, kl, d_rows, q_sup = _channel_grid_parts(q, p, grid)
    if kind == "error":
        rates = rate_values_batch(t_grid, q_sup, d_rows, level)
        vals = kl + np.maximum(rates - rate, 0.0)
    else:
        rates = rate_values_batch(t_grid, q_sup, d_rows, 0.0)
        vals = kl + np.maximum(rate - rates, 0.0)
    vals[np.isnan(vals)] = math.inf
    return float(vals.min())


def forney_components_brute(q: Distribution, p: Channel, rate: float, level: float,
                            grid: GridSpec):
    """Grid minima of the two constrained components of the tradeoff exponent.

    Enumerates joint source laws (sorted by divergence so the first feasible
    law settles the first component) and, per law, every combination of grid
    kernel rows.  Exponential in the number of (input, output) cells; intended
    for two-letter channels.
    """
    t_grid, kl, d_rows, q_sup = _channel_grid_parts(q, p, grid)
    order = np.argsort(kl, kind="stable")

    n_cells = t_grid.shape[1]
    kl_row, _ = _kernel_row_tables(q_sup.probs, d_rows.values[0], grid.denominator)
    n_cand = kl_row.size
    if n_cand ** n_cells > 4_000_000:
        raise RcexpError("kernel grid too large for the joint enumeration")

    dist_rows = [
        _kernel_row_tables(q_sup.probs, d_rows.values[c], grid.denominator)[1]
        for c in range(n_cells)
    ]

    def fold(t_law):
        div_tot = np.zeros(1)
        dist_tot = np.zeros(1)
        for c in range(n_cells):
            div_tot = (div_tot[..., None] + t_law[c] * kl_row[None, :]).reshape(-1)
            dist_tot = (dist_tot[..., None] + t_law[c] * dist_rows[c][None, :]).reshape(-1)
        return div_tot, dist_tot

    comp1 = math.inf
    comp2 = math.inf
    for idx in order:
        base = kl[idx]
        if not math.isfinite(base):
            break
        if base >= comp1 and base >= comp2:
            break
        div_tot, dist_tot = fold(t_grid[idx])
        if comp1 == math.inf:
            feas1 = (div_tot <= rate + CONSTRAINT_SLACK) & \
                    (div_tot + dist_tot <= level + rate + CONSTRAINT_SLACK)
            if np.any(feas1):
                comp1 = float(base)
        if base < comp2:
            feas2 = (dist_tot <= level + CONSTRAINT_SLACK) & \
                    (div_tot >= rate - CONSTRAINT_SLACK)
            if np.any(feas2):
                cand = base + float(div_tot[feas2].min()) - rate
                comp2 = min(comp2, cand)
    return comp1, comp2
