import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcexp.errors import NoConvergence
from rcexp.exponents import _channel_parts, _e0_many, _source_parts
from rcexp.optimize import (
    SCREEN_MARGIN,
    SPEC_DEPTH,
    ScalarMax,
    concave_max_on_ray,
    golden_max,
    maximize_over_simplex,
    newton_max,
    unimodal_max_01,
)
from rcexp.probability import Channel, Distribution, DistortionModel

# ---------------------------------------------------------------------------
# The batched e0 kernel against the scalar one, bit for bit.
# ---------------------------------------------------------------------------


def _e0_eval(lnw, gap, lnq, rho, s):
    """The scalar e0 kernel: -ln sum_x w(x) bracket_x(s)^rho at one tilt."""
    a = lnq[None, :] - s * gap
    m = a.max(axis=1)
    t = lnw + rho * (np.log(np.exp(a - m[:, None]).sum(axis=1)) + m)
    mt = t.max()
    return -float(np.log(np.exp(t - mt).sum()) + mt)


_WEIGHT = st.floats(min_value=0.05, max_value=1.0)


def _law(draw, k):
    raw = np.array(draw(st.lists(_WEIGHT, min_size=k, max_size=k)))
    return raw / raw.sum()


@st.composite
def _channel_pieces(draw):
    """A full-support codebook and a 2x2 to 3x3 channel, at a drawn level."""
    nx, ny = draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3)))
    rows = np.array([_law(draw, ny) for _ in range(nx)])
    level = draw(st.floats(-1.0, 1.0))
    return _channel_parts(Distribution(_law(draw, nx)), Channel(rows), level)


@st.composite
def _source_pieces(draw):
    """A source, a full-support codebook and a distortion table like the figure models."""
    k, m = draw(st.sampled_from((2, 3, 4, 5))), draw(st.sampled_from((2, 3, 4, 5)))
    table = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * m, max_size=k * m)))
    d = DistortionModel(table.reshape(k, m))
    level = draw(st.floats(-0.5, 0.5))
    return _source_parts(Distribution(_law(draw, k)), Distribution(_law(draw, m)), d, level)


_TILT = st.one_of(st.just(0.0), st.floats(1e-4, 1e16))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(pieces=st.one_of(_channel_pieces(), _source_pieces()),
       rho=st.floats(-64.0, 1.0),
       tilts=st.lists(_TILT, min_size=1, max_size=2 ** SPEC_DEPTH - 1))
def test_batched_e0_equals_scalar_kernel(pieces, rho, tilts):
    lnw, gap, lnq = pieces
    batch = _e0_many(lnw, gap, lnq, rho, np.array(tilts)).tolist()
    assert batch == [_e0_eval(lnw, gap, lnq, rho, s) for s in tilts]


# ---------------------------------------------------------------------------
# The speculative solvers against plain sequential golden section.
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_ref(f, lo, hi, rel_tol=1e-10, max_iter=200):
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


def _ray_ref(f, cap, rel_tol=1e-10, max_iter=200):
    evals = 2
    prev_x, prev_y = 0.0, f(0.0)
    x, y = 1.0, f(1.0)
    if y <= prev_y:
        res = _golden_ref(f, 0.0, 1.0, rel_tol, max_iter)
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
            res = _golden_ref(f, lo, nxt, rel_tol, max_iter)
            res.evaluations += evals
            return res
        lo, prev_x, prev_y = prev_x, x, y
        x, y = nxt, ny
    return ScalarMax(cap, y, evals, at_upper=True)


def _unit_ref(f, rel_tol=1e-12, max_iter=200):
    res = _golden_ref(f, 0.0, 1.0, rel_tol, max_iter)
    y0, y1 = f(0.0), f(1.0)
    evals = res.evaluations + 2
    if y0 >= res.value and y0 >= y1:
        return ScalarMax(0.0, y0, evals)
    if y1 >= res.value:
        return ScalarMax(1.0, y1, evals, at_upper=True)
    return ScalarMax(res.x, res.value, evals)


def _fields(res):
    return (res.x, res.value, res.evaluations, res.at_upper)


def _vectorize(f):
    return lambda xs: np.array([f(float(x)) for x in xs])


# Unimodal, flat, stepped (ties yc == yd), infinite and multimodal objectives.
OBJECTIVES = {
    "parabola": lambda x: -(x - 0.3) ** 2,
    "far_peak": lambda x: -(math.log1p(abs(x)) - 9.0) ** 2,
    "decreasing": lambda x: -x,
    "increasing": lambda x: x / (1.0 + x),
    "constant": lambda x: 1.5,
    "coarse_steps": lambda x: -round(abs(x - 0.4), 2),
    "plateau": lambda x: min(x, 0.5) - max(x - 0.8, 0.0),
    "ends_tie": lambda x: x * (1.0 - x),
    "neg_inf_tail": lambda x: -math.inf if x > 0.55 else x,
    "pos_inf_spike": lambda x: math.inf if 0.2 < x < 0.21 else -abs(x - 0.7),
    "all_neg_inf": lambda x: -math.inf,
    "wiggly": lambda x: math.sin(17.0 * x) - 0.1 * x,
}
BRACKETS = [(0.0, 1.0), (0.2, 0.9), (-3.0, 5.0), (0.0, 1e16), (0.3, 0.3 + 1e-12)]
MAX_ITERS = [0, 1, 3, 4, 5, 7, 200]


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_golden_max_matches_sequential(name):
    f = OBJECTIVES[name]
    for lo, hi in BRACKETS:
        for max_iter in MAX_ITERS:
            want = _fields(_golden_ref(f, lo, hi, 1e-10, max_iter))
            assert _fields(golden_max(f, lo, hi, 1e-10, max_iter)) == want
            got = golden_max(_vectorize(f), lo, hi, 1e-10, max_iter, vectorized=True)
            assert _fields(got) == want, (name, lo, hi, max_iter)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_unimodal_max_01_matches_sequential(name):
    f = OBJECTIVES[name]
    # rel_tol 2 makes the bracket too narrow to search at entry.
    for rel_tol in (1e-12, 1e-6, 2.0):
        for max_iter in MAX_ITERS:
            want = _fields(_unit_ref(f, rel_tol, max_iter))
            assert _fields(unimodal_max_01(f, rel_tol, max_iter)) == want
            got = unimodal_max_01(_vectorize(f), rel_tol, max_iter, vectorized=True)
            assert _fields(got) == want, (name, rel_tol, max_iter)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_concave_max_on_ray_matches_sequential(name):
    f = OBJECTIVES[name]
    # Caps below one, between probes, on a probe and at the hard tilt cap.
    for cap in (0.5, 1.0, 6.0, 64.0, 3e5, 1e16):
        for max_iter in (0, 5, 200):
            want = _fields(_ray_ref(f, cap, 1e-10, max_iter))
            assert _fields(concave_max_on_ray(f, cap, 1e-10, max_iter)) == want
            got = concave_max_on_ray(_vectorize(f), cap, 1e-10, max_iter, vectorized=True)
            assert _fields(got) == want, (name, cap, max_iter)


def test_vectorized_walk_batches_the_steps():
    # 50 consumed points: 2 for the first pair, then 48 steps in 12 calls of
    # 2**SPEC_DEPTH - 1 points each.
    calls = []

    def f(xs):
        calls.append(len(xs))
        return -(xs - 0.3) ** 2

    res = golden_max(f, 0.0, 1.0, vectorized=True)
    assert res.evaluations == 50
    assert calls == [2] + [2 ** SPEC_DEPTH - 1] * 12


# ---------------------------------------------------------------------------
# The simplex search with a screen, against the search without one.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base", [0.0, 50.0])
@pytest.mark.parametrize("offset", [-1 / 3, 1 / 3])
def test_screen_keeps_refinement_steps_smaller_than_the_margin(base, offset):
    # A shallow bowl: every refinement step improves on the best by less
    # than a third of the margin, so a screen off by a third of the margin
    # hides each improvement unless the margin is applied, and scaled by
    # max(1, |best|).
    centre = np.array([0.37, 0.21, 0.42])

    def f(x):
        return base - 1e-9 * float(((x - centre) ** 2).sum())

    def screen(x):
        return f(x) + offset * SCREEN_MARGIN * max(1.0, abs(base))

    want = maximize_over_simplex(f, 3, 4, refinement_rounds=6)
    got = maximize_over_simplex(f, 3, 4, refinement_rounds=6, screen=screen)
    grid_best = maximize_over_simplex(f, 3, 4, refinement_rounds=0)
    assert want.point.tobytes() != grid_best.point.tobytes()
    assert got.point.tobytes() == want.point.tobytes()
    assert got.value.hex() == want.value.hex()


# ---------------------------------------------------------------------------
# The safeguarded Newton solver.
# ---------------------------------------------------------------------------

# (f' as a function of x, lo, hi, x0, the maximizer): an interior root, roots
# beyond either end, an unbounded interval, a zero-curvature objective, and
# f' = atan(5 - x), whose plain Newton iteration from 0 diverges.
_NEWTON_CASES = [
    (lambda x: 0.3 - x, 0.0, 1.0, 1.0, 0.3),
    (lambda x: 2.0 - x, 0.0, 1.0, 0.5, 1.0),
    (lambda x: -1.0 - x, 0.0, 1.0, 0.5, 0.0),
    (lambda x: 1e5 - x, 0.0, math.inf, 1.0, 1e5),
    (lambda x: 0.5, 0.0, 64.0, 1.0, 64.0),
    (lambda x: math.atan(5.0 - x), 0.0, 100.0, 0.0, 5.0),
]


@pytest.mark.parametrize("case", range(len(_NEWTON_CASES)))
def test_newton_max_finds_the_root_or_the_end(case):
    fp, lo, hi, x0, want = _NEWTON_CASES[case]
    h = 1e-6

    def derivs(x):
        return fp(x), (fp(x + h) - fp(x - h)) / (2 * h)

    x, ev = newton_max(derivs, lo, hi, x0)
    assert x == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert ev == derivs(x)


@pytest.mark.parametrize("fp", [lambda x: 1.0, lambda x: math.nan])
def test_newton_max_raises_when_a_safeguard_fires(fp):
    # A slope that stays positive on an unbounded interval, and a nan slope.
    with pytest.raises(NoConvergence):
        newton_max(lambda x: (fp(x), 0.0), 0.0, math.inf, 1.0)


def test_newton_max_breaks_alternating_steps():
    # With f' = -sign(u) |u|**0.6, u = x - 0.7, every Newton step overshoots
    # the root by two thirds of the distance to it, so plain Newton steps
    # alternate sides and shrink only linearly (51 evaluations to converge);
    # a step that turns back on one less than twice as long is replaced by
    # bisection.
    count = 0

    def derivs(x):
        nonlocal count
        count += 1
        u = x - 0.7
        return -math.copysign(abs(u) ** 0.6, u), -0.6 * abs(u) ** -0.4 if u else -math.inf

    x, _ = newton_max(derivs, 0.0, 1.0, 0.9)
    assert x == pytest.approx(0.7, rel=1e-9)
    assert count <= 30


def test_newton_max_stops_at_a_warm_start_on_the_root():
    # At the rounded root of f' = 0.2 - x**3, f' is -2.8e-17 and the Newton
    # step is below an ulp of x: the solve must stop there, not bisect.
    count = 0

    def derivs(x):
        nonlocal count
        count += 1
        return 0.2 - x ** 3, -3.0 * x * x

    root = 0.2 ** (1 / 3)
    assert newton_max(derivs, 0.0, 1.0, root)[0] == root
    assert count == 1
