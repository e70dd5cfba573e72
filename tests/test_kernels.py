"""The scipy-free kernels against the code they replaced, bit for bit.

``rates._lse`` replaces ``scipy.special.logsumexp``; ``rate_values_batch``
shares its doubling probes across laws and refines only the live ones; the
envelope exponents compute their tilt scan once per call; and
``finiteness_boundary`` takes the vectorized golden walk.  Each is compared
here with ``==`` on the float bits against scipy or against a plain copy of
the earlier code.  The scalar and the batched rate dual share one
infinite-tilt limit, and ``_lse_rows`` took over from a 1-D log-sum-exp;
both merges are pinned here too.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import rcexp
from conftest import fig_path
from rcexp import exponents, rates
from rcexp.exponents import (
    _TIE_TOL,
    _e0_many,
    correct_envelope,
    failure_envelope,
    refine_inner_minima,
)
from rcexp.modelspec import load_model
from rcexp.optimize import ScalarMax, golden_max
from rcexp.probability import (
    Channel,
    Distribution,
    DistortionModel,
    simplex_grid_arrays,
)
from rcexp.rates import (
    DIV_TOL,
    S_CAP,
    S_CAP_HARD,
    _dual_limit,
    _ln_masses,
    _lse,
    _lse_rows,
    _margin_gap,
    _restrict,
    finiteness_boundary,
    max_rate_over_sources,
    rate_function,
    rate_values_batch,
)


def _same_bits(x, y) -> bool:
    """Equal shapes and equal float bits (signed zeros differ), nan where nan."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or not np.array_equal(np.isnan(x), np.isnan(y)):
        return False
    keep = ~np.isnan(x)
    return np.array_equal(x[keep].view(np.int64), y[keep].view(np.int64))


# ---------------------------------------------------------------------------
# _lse against scipy.special.logsumexp.
# ---------------------------------------------------------------------------

_SPECIALS = st.sampled_from((math.inf, -math.inf, math.nan))


@st.composite
def _lse_inputs(draw):
    """1-D to 3-D arrays over magnitudes up to 1e16, with ties at the row
    maximum, +-inf and nan entries and all -inf rows."""
    nd = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=nd, max_size=nd)))
    size = int(np.prod(shape))
    unit = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    if draw(st.booleans()):
        unit = np.floor(3.0 * unit)  # a coarse lattice: many ties, often at the max
    a = (unit * draw(st.sampled_from((1e-3, 1.0, 30.0, 800.0, 1e8, 1e16)))).reshape(shape)
    flat = a.reshape(-1)
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, size - 1))] = draw(_SPECIALS)
    rows = a.reshape(-1, shape[-1])
    if draw(st.booleans()):
        rows[draw(st.integers(0, rows.shape[0] - 1))] = -math.inf
    return a


@settings(max_examples=400, deadline=None, derandomize=True)
@given(a=_lse_inputs())
def test_lse_has_the_bits_of_scipy_logsumexp(a):
    assert _same_bits(_lse(a), logsumexp(a, axis=-1))


@pytest.mark.parametrize("row", [
    [-math.inf, -math.inf],
    [math.inf, 1.0],
    [math.inf, math.inf, -math.inf],
    [math.nan, 1.0],
    [math.inf, math.nan],
    [-math.inf, 0.0, 0.0],
    [1e16, 1e16, -1e16],
    [-1e16, -1e16 + 2.0],
    [7.0],
    [-745.0, -746.0, -1e3],
    [709.0, 709.5, 708.0],
])
def test_lse_edge_rows(row):
    a = np.array(row)
    assert _same_bits(_lse(a), logsumexp(a))
    batch = np.stack([a, a])
    assert _same_bits(_lse(batch), logsumexp(batch, axis=-1))


def _reference_lse_flat(a):
    """The earlier exponents._lse_flat, the 1-D form ``_lse_rows`` replaced."""
    m = a.max()
    return float(np.log(np.exp(a - m).sum()) + m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row=st.lists(st.one_of(st.floats(-800.0, 800.0), st.just(-math.inf)),
                    min_size=1, max_size=40))
def test_lse_rows_on_1d_input_has_the_bits_of_lse_flat(row):
    a = np.array(row)
    with np.errstate(invalid="ignore"):  # an all -inf row gives nan in both
        assert _same_bits(_lse_rows(a), _reference_lse_flat(a))


# ---------------------------------------------------------------------------
# One infinite-tilt limit for the scalar and the batched rate dual.
# ---------------------------------------------------------------------------

_Q2 = Distribution(np.array([0.3, 0.7]))
_HALVES = np.array([0.5, 0.5])


def _rising_brackets(gap, lnq, s):
    """Brackets whose dual objective rises at every probe, so that every law of
    rate_values_batch is still increasing at the cap and takes the limit."""
    return np.broadcast_to(-1e-300 * s[:, None], (s.size, gap.shape[0])).copy()


@pytest.mark.parametrize("gaps, straddles", [
    ([[0.0, 0.5], [0.0, 0.25]], False),  # zero terminal slope, every row feasible
    ([[-0.5, 0.5], [0.5, 1.0]], True),   # zero terminal slope, row 2 infeasible
    ([[-1.0, 0.5], [-0.25, 1.0]], False),
    ([[-1.0, 0.5], [0.25, 1.0]], True),
])
def test_scalar_and_batched_limits_are_bit_identical(monkeypatch, gaps, straddles):
    """rate_function's limit (its zero-terminal-slope branch, or the cap branch
    of a search still rising at the cap) has the bits of rate_values_batch's
    limit on the same law."""
    d = DistortionModel(np.array(gaps))
    dsub, lnq = _restrict(_Q2, d)
    zero_slope = float(_HALVES @ dsub.min(axis=1)) == 0.0
    with monkeypatch.context() as patch:
        patch.setattr(rates, "concave_max_on_ray",
                      lambda f, cap, **kw: ScalarMax(cap, -math.inf, 1, at_upper=True))
        scalar = rate_function(_HALVES, _Q2, d, 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(rates, "_ln_brackets", _rising_brackets)
        batched = rate_values_batch(_HALVES[None, :], _Q2, d, 0.0)
    assert scalar.optimizer_s == math.inf and (scalar.evaluations == 0) == zero_slope
    assert _same_bits(scalar.value, batched[0])
    ln_feas, ln_tight = _ln_masses(dsub, lnq)
    assert bool(np.isinf(ln_feas).any()) == straddles
    assert _same_bits(scalar.value, _dual_limit(_HALVES[None, :], ln_feas, ln_tight)[0])
    assert scalar.value > 0.0


@pytest.mark.parametrize("name", ["fig1.json", "fig2.json"])
def test_beyond_r_max_flags_exactly_the_rates_above_the_row_rate_ceiling(name):
    spec = load_model(fig_path(name))
    outcomes = set()
    for scale in spec.d_scale_values:
        level = spec.resolve_level(scale, scaled=True)
        r_max = max_rate_over_sources(spec.codebook, spec.distortion, level)
        if math.isinf(r_max):
            continue
        for rate, rho_cap in ((0.95 * r_max, 2.0), (r_max + 5e-10, 64.0),
                              (r_max + 1e-7, 64.0), (r_max + 0.5, 64.0)):
            flags = failure_envelope(spec.source, spec.codebook, spec.distortion, level,
                                     rate, rho_cap=rho_cap).boundary_flags
            if "rho_at_cap" in flags:
                beyond = rate > r_max + 1e-9
                assert ("beyond_r_max" in flags) == beyond, (level, rate)
                outcomes.add(beyond)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# rate_values_batch against the earlier per-law version.
# ---------------------------------------------------------------------------


def _reference_rate_values_batch(t_batch, q, d, level, s_cap=S_CAP, golden_iters=60):
    """The earlier rate_values_batch: every law probes and refines on its own.

    Also returns which laws were still rising at the cap.
    """
    t_batch = np.asarray(t_batch, dtype=float)
    n = t_batch.shape[0]
    dsub, lnq = _restrict(q, d)
    gap = dsub - level
    dmin = gap.min(axis=1)
    diverged = t_batch @ dmin > DIV_TOL
    qsub = np.exp(lnq)
    slope_zero = t_batch @ (gap @ qsub)

    def g_many(s_vec):
        m = lnq[None, None, :] - s_vec[:, None, None] * gap[None, :, :]
        return -np.einsum("nx,nx->n", t_batch, logsumexp(m, axis=2))

    hard_cap = max(s_cap, S_CAP_HARD)
    probes = [0.0, 1.0]
    while probes[-1] < hard_cap:
        probes.append(min(2.0 * probes[-1], hard_cap))
    probes = np.array(probes)
    vals = np.stack([g_many(np.full(n, s)) for s in probes])
    best = vals.max(axis=0)
    increases = np.diff(vals, axis=0) > 0.0
    still = np.all(increases, axis=0)
    first_drop = np.argmin(increases, axis=0)
    a = probes[np.maximum(first_drop - 1, 0)]
    b = probes[np.minimum(first_drop + 1, len(probes) - 1)]
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
    if np.any(still):
        qsub_row = np.exp(lnq)[None, :]
        feas = gap <= 1e-12
        tight = gap <= gap.min(axis=1, keepdims=True) + 1e-12
        with np.errstate(divide="ignore"):
            ln_feas = np.log(np.where(feas, qsub_row, 0.0).sum(axis=1))
        ln_tight = np.log(np.where(tight, qsub_row, 0.0).sum(axis=1))
        finite_ln = np.where(np.isfinite(ln_feas), ln_feas, 0.0)
        limit = -np.where(t_batch > 0.0, t_batch * finite_ln[None, :], 0.0).sum(axis=1)
        straddles = ((t_batch > 0.0) & ~np.isfinite(ln_feas)[None, :]).any(axis=1)
        limit = np.where(straddles, -t_batch @ ln_tight, limit)
        best = np.where(still, np.maximum(best, limit), best)
    values = np.maximum(best, 0.0)
    values[slope_zero <= 0.0] = 0.0
    values[diverged] = math.inf
    return values, still


def _law_kinds(t_batch, q, d, level, still):
    """Counts of diverged, zero-slope, still-at-cap and interior laws."""
    dsub, lnq = _restrict(q, d)
    gap = dsub - level
    diverged = t_batch @ gap.min(axis=1) > DIV_TOL
    flat = ~diverged & (t_batch @ (gap @ np.exp(lnq)) <= 0.0)
    capped = ~diverged & ~flat & still
    return int(diverged.sum()), int(flat.sum()), int(capped.sum()), \
        int((~diverged & ~flat & ~still).sum())


def _mixed_model():
    """Four distortion rows at level 0: one grows without bound but slower
    than DIV_TOL (still rising at the cap for the reference; its laws lie in
    the zero-slope band, which the settle rule decides), one diverges, one
    has a negative slope at zero tilt, one has an interior maximizer."""
    d = DistortionModel([[1e-13, 1.0], [0.5, 2.0], [-1.0, -0.5], [-1.0, 2.0]])
    return d, Distribution([0.4, 0.6])


def _check_against_reference(t_grid, q, d, level) -> np.ndarray:
    """rate_values_batch has the reference's bits on the laws outside the
    zero-slope band |sum_x t(x) min gap| <= DIV_TOL, and rate_function's
    inside it, where the settle rule decides the law and the reference keeps
    the noise of its probes.  Returns the band."""
    ref, _ = _reference_rate_values_batch(t_grid, q, d, level)
    got = rate_values_batch(t_grid, q, d, level)
    dsub, _ = _restrict(q, d)
    band = np.abs(t_grid @ (dsub - level).min(axis=1)) <= DIV_TOL
    assert _same_bits(got[~band], ref[~band])
    assert _same_bits(got[band], [rate_function(t, q, d, level).value for t in t_grid[band]])
    return band


def test_rate_values_batch_matches_per_law_version_on_every_kind_of_law():
    d, q = _mixed_model()
    t_grid = simplex_grid_arrays(4, 6)
    ref, still = _reference_rate_values_batch(t_grid, q, d, 0.0)
    kinds = _law_kinds(t_grid, q, d, 0.0, still)
    assert all(count > 0 for count in kinds), kinds
    assert _check_against_reference(t_grid, q, d, 0.0).any()


@pytest.mark.parametrize("level", [-0.3, 0.0, 0.1, 0.2, 0.35, 0.6])
def test_rate_values_batch_matches_per_law_version_on_fig1(fig1_model, level):
    _check_against_reference(simplex_grid_arrays(4, 12), fig1_model.codebook,
                             fig1_model.distortion, level)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(2, 4), cols=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       where=st.floats(0.0, 1.0))
def test_rate_values_batch_matches_per_law_version_on_random_models(rows, cols, seed, where):
    rng = np.random.default_rng(seed)
    d = DistortionModel(rng.uniform(-1.0, 1.0, (rows, cols)))
    q = Distribution(rng.dirichlet(np.ones(cols)))
    level = d.d_min + where * (d.d_max - d.d_min)
    _check_against_reference(simplex_grid_arrays(rows, 5), q, d, level)


# ---------------------------------------------------------------------------
# The envelope exponents against the earlier per-probe scan.
# ---------------------------------------------------------------------------


def _reference_mass_limit(lnw, gap, lnq, rho, keep):
    feas = gap <= 1e-12
    with np.errstate(divide="ignore"):
        ln_mass = np.log(np.where(feas, np.exp(lnq)[None, :], 0.0).sum(axis=1))
    return float(-logsumexp(lnw[keep] + rho * ln_mass[keep]))


def _reference_inf_e0_ray(lnw, gap, lnq, rho, s_cap=S_CAP, n_grid=512):
    """The earlier _inf_e0_ray: a fresh scan on every call, dips found by a loop."""
    if rho <= 1e-14:
        return 0.0, 0.0
    grid = np.concatenate([[0.0], np.geomspace(1e-4, s_cap, n_grid - 1)])
    lnb = logsumexp(lnq[None, None, :] - grid[:, None, None] * gap[None, :, :], axis=2)
    vals = -logsumexp(lnw[None, :] - rho * lnb, axis=1)
    best_val = float(vals[0])
    best_s = 0.0
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
        res = golden_max(lambda s: -_e0_many(lnw, gap, lnq, -rho, s), grid[i - 1], grid[j + 1],
                         rel_tol=1e-12, vectorized=True)
        if -res.value < best_val:
            best_val, best_s = -res.value, res.x
        i = j + 2
    dmin = gap.min(axis=1)
    if float(dmin.max()) >= -1e-12:
        limit = _reference_mass_limit(lnw, gap, lnq, -rho, dmin >= -1e-12)
        if limit < best_val:
            best_val, best_s = limit, math.inf
    return best_val, best_s


@st.composite
def _envelope_pieces(draw):
    """Source-side pieces meeting the envelope's precondition max_x min gap <= 0."""
    k, m = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = DistortionModel(rng.uniform(-1.0, 1.0, (k, m)))
    floor = float(d.values.min(axis=1).max())
    level = floor + draw(st.floats(0.0, 1.0)) * (d.d_max - floor)
    return exponents._source_parts(Distribution(rng.dirichlet(np.ones(k))),
                                   Distribution(rng.dirichlet(np.ones(m))), d, level)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pieces=_envelope_pieces(), rho=st.one_of(st.just(0.0), st.floats(1e-3, 64.0)))
def test_inf_e0_ray_on_shared_scan_matches_per_probe_scan(pieces, rho):
    lnw, gap, lnq = pieces
    new = exponents._inf_e0_ray(lnw, gap, lnq, rho, exponents._tilt_scan(gap, lnq))
    assert _same_bits(new, _reference_inf_e0_ray(lnw, gap, lnq, rho))


def _assert_same_result(new, ref):
    for field in ("value", "optimizer_rho", "optimizer_s", "upper_value"):
        a, b = getattr(new, field), getattr(ref, field)
        assert (a is None and b is None) or _same_bits(a, b), field
    assert new.component_values == ref.component_values
    assert new.boundary_flags == ref.boundary_flags


def _with_reference_scan(monkeypatch, call):
    """``call()`` with the earlier _inf_e0_ray in place of the current one."""
    with monkeypatch.context() as patch:
        patch.setattr(exponents, "_inf_e0_ray",
                      lambda lnw, gap, lnq, rho, scan, hint=None:
                      _reference_inf_e0_ray(lnw, gap, lnq, rho))
        return call()


_FAILURE_CASES = [
    ("fig1.json", 0.0, 0.3, None), ("fig1.json", 0.1, 0.05, None),
    ("fig1.json", 0.1, 0.45, None), ("fig1.json", 0.25, 0.2, None),
    ("fig1.json", 0.1, 1.5, None),  # past r_max: rho_at_cap, beyond_r_max
    ("fig1.json", 0.0, 0.9, 10.0),
    ("fig3.json", 0.0, 0.25, None), ("fig3.json", 0.0, 0.45, None),
    ("fig3.json", 0.05, 0.2, None), ("fig3.json", 0.1, 0.08, None),
    ("fig3.json", -0.05, 0.15, None),  # trivial_zero
]


@pytest.mark.parametrize("name, level, rate, rho_cap", _FAILURE_CASES)
def test_failure_envelope_matches_per_probe_scan(monkeypatch, name, level, rate, rho_cap):
    spec = load_model(fig_path(name))
    cap = {} if rho_cap is None else {"rho_cap": rho_cap}

    def call():
        return failure_envelope(spec.source, spec.codebook, spec.distortion, level, rate, **cap)

    _assert_same_result(call(), _with_reference_scan(monkeypatch, call))


@pytest.mark.parametrize("level, rate", [(0.0, 0.2), (0.0, 0.5), (0.05, 0.4), (0.1, 0.3),
                                         (0.0, 1.2)])
def test_correct_envelope_matches_per_probe_scan(monkeypatch, fig1_model, level, rate):
    def call():
        return correct_envelope(fig1_model.codebook, fig1_model.channel, rate, level)

    _assert_same_result(call(), _with_reference_scan(monkeypatch, call))


def _reference_inner_curve(lnw, gap, lnq, rho, s_vec):
    lnb = logsumexp(lnq[None, None, :] - s_vec[:, None, None] * gap[None, :, :], axis=2)
    return -logsumexp(lnw[None, :] - rho * lnb, axis=1)


def _reference_refine_inner_minima(source, codebook, d, level, rho, s_grid):
    """The earlier refine_inner_minima, over the scipy-evaluated inner curve."""
    lnw, gap, lnq = exponents._source_parts(source, codebook, d, level)
    s_grid = np.asarray(s_grid, dtype=float)
    vals = _reference_inner_curve(lnw, gap, lnq, rho, s_grid)
    found = []
    for i in range(1, len(s_grid) - 1):
        if vals[i] <= vals[i - 1] + _TIE_TOL and vals[i] <= vals[i + 1] + _TIE_TOL:
            res = golden_max(lambda s: -_reference_inner_curve(lnw, gap, lnq, rho, s),
                             s_grid[i - 1], s_grid[i + 1], rel_tol=1e-13, max_iter=240,
                             vectorized=True)
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


@pytest.mark.parametrize("level, rho", [(0.0, 0.65), (0.0, 0.3), (0.05, 2.0), (0.1, 5.0),
                                        (-0.05, 0.3)])
def test_refine_inner_minima_matches_earlier_version(fig3_model, level, rho):
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 ** 16, 2000)])
    args = (fig3_model.source, fig3_model.codebook, fig3_model.distortion, level, rho, grid)
    new, ref = refine_inner_minima(*args), _reference_refine_inner_minima(*args)
    assert len(new) == len(ref) > 0
    assert all(_same_bits(a, b) for a, b in zip(new, ref))


# ---------------------------------------------------------------------------
# finiteness_boundary: the vectorized walk against the scalar one.
# ---------------------------------------------------------------------------


def _scalar_finiteness_boundary(q, p, level):
    gap, lnq = _margin_gap(q, p, level)

    def worst(s):
        return float(-_lse_rows(lnq[None, :] - s * gap).max())

    res = golden_max(worst, 0.0, 1.0, rel_tol=1e-12, max_iter=240)
    return max(res.value, worst(0.0), worst(1.0), 0.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nx=st.integers(2, 3), ny=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       level=st.floats(-1.5, 1.5), point_mass=st.booleans())
def test_finiteness_boundary_vectorized_walk_equals_scalar_walk(nx, ny, seed, level,
                                                                point_mass):
    rng = np.random.default_rng(seed)
    p = Channel(rng.dirichlet(np.ones(ny), size=nx))
    q = Distribution.point_mass(nx, 0) if point_mass else Distribution(rng.dirichlet(np.ones(nx)))
    assert finiteness_boundary(q, p, level).hex() == _scalar_finiteness_boundary(q, p, level).hex()


# ---------------------------------------------------------------------------
# scipy stays off the import path.
# ---------------------------------------------------------------------------


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rcexp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, rcexp, rcexp.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
