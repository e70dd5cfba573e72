import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import binary_entropy_nats, random_channel, random_distribution, random_distortion
from rcexp import exponents, optimize
from rcexp.probability import (
    Channel,
    Distribution,
    DistortionModel,
    joint_from_input_and_channel,
    mutual_information,
    simplex_grid_arrays,
)
from rcexp.rates import channel_distortion, min_distortion_for_codebook, rate_function
from rcexp.exponents import (
    capacity,
    correct_envelope,
    correct_exponent,
    failure_envelope,
    failure_inner_curve,
    forney_bound_exponent,
    forney_exponent,
    gallager_e0,
    gallager_error_exponent,
    margin_error_exponent,
    maximize_over_codebooks,
    success_exponent,
)


def test_e0_examples(rng):
    p = random_channel(rng, 3, 3)
    q = random_distribution(rng, 3)
    for s in (0.3, 1.2):
        assert gallager_e0(s, 0.0, q, p, 0.15) == pytest.approx(0.0, abs=1e-12)
    for rho in (0.4, 1.0):
        assert gallager_e0(0.0, rho, q, p, -0.2) == pytest.approx(0.0, abs=1e-12)
    degenerate = Distribution([0.0, 1.0, 0.0])
    for s, rho, level in [(0.5, 0.7, 0.3), (1.5, 0.2, -0.4)]:
        assert gallager_e0(s, rho, degenerate, p, level) == pytest.approx(
            -rho * s * level, abs=1e-12
        )


def test_success_zero_above_rate(fig1_model):
    P, Q, d = fig1_model.source, fig1_model.codebook, fig1_model.distortion
    for level in (0.0, 0.1):
        threshold = rate_function(P, Q, d, level).value
        assert success_exponent(P, Q, d, level, threshold + 1e-3).value == 0.0
        assert success_exponent(P, Q, d, level, threshold - 0.05).value > 0.0


def test_success_zero_at_max_distortion(fig1_model):
    P, Q, d = fig1_model.source, fig1_model.codebook, fig1_model.distortion
    for rate in (0.0, 0.4):
        assert success_exponent(P, Q, d, d.d_max + 0.01, rate).value == 0.0


def test_success_convex_nonincreasing_in_rate(rng):
    for _ in range(15):
        P = random_distribution(rng, 3)
        Q = random_distribution(rng, 2)
        d = random_distortion(rng, 3, 2)
        level = float(rng.uniform(d.d_min + 0.05, d.d_max))
        rates = sorted(rng.uniform(0.0, 0.8, size=3))
        vals = [success_exponent(P, Q, d, level, r).value for r in rates]
        assert vals[0] >= vals[1] - 1e-9 and vals[1] >= vals[2] - 1e-9
        lam = (rates[2] - rates[1]) / (rates[2] - rates[0])
        assert vals[1] <= lam * vals[0] + (1 - lam) * vals[2] + 1e-9


def test_success_dichotomy_fig1_family(fig1_model):
    # the large-rate limit is finite-positive exactly between the distortion
    # floor and the mean per-letter floor
    P, Q, d = fig1_model.source, fig1_model.codebook, fig1_model.distortion
    dmin_per_letter = d.values.min(axis=1)
    d_star = float(np.dot(P.probs, dmin_per_letter))
    big = 50.0
    inside = success_exponent(P, Q, d, 0.5 * (d.d_min + d_star), big).value
    assert 0.0 < inside < math.inf
    above = success_exponent(P, Q, d, d_star + 0.05, big).value
    assert above == pytest.approx(0.0, abs=1e-9)
    below = success_exponent(P, Q, d, d.d_min - 0.05, big).value
    assert math.isinf(below)


def test_outer_slope_objective_concavity_gallager(rng):
    # closed-form check: golden-section value matches a dense slope grid
    for _ in range(100):
        p = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        q = random_distribution(rng, p.input_size)
        rate = float(rng.uniform(0.0, 0.3))
        best = gallager_error_exponent(q, p, rate).value
        lnq = np.log(q.probs)
        lnp = np.log(p.probs)
        rhos = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        inner = [
            -np.log(np.exp((1 + r) * np.logaddexp.reduce(lnq[:, None] + lnp / (1 + r), axis=0)).sum())
            - r * rate
            for r in rhos
        ]
        assert best >= max(inner) - 1e-6
        assert best <= max(max(inner), 0.0) + 1e-6


def test_outer_slope_objective_concavity_success(rng):
    for _ in range(10):
        P = random_distribution(rng, 3)
        Q = random_distribution(rng, 2)
        d = random_distortion(rng, 3, 2)
        level = float(rng.uniform(d.d_min + 0.1, d.d_max))
        rate = float(rng.uniform(0.0, 0.4))
        best = success_exponent(P, Q, d, level, rate).value
        from rcexp.exponents import _source_parts, _sup_e0_ray

        lnw, gap, lnq = _source_parts(P, Q, d, level)
        rhos = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        dense = max(_sup_e0_ray(lnw, gap, lnq, float(r))[0] - r * rate for r in rhos)
        assert best == pytest.approx(max(dense, 0.0), abs=1e-6)


def test_gallager_examples(rng):
    p = random_channel(rng, 3, 3)
    q = random_distribution(rng, 3)
    cap = mutual_information(q, p)
    assert gallager_error_exponent(q, p, cap + 0.01).value == 0.0
    assert gallager_error_exponent(q, p, cap * 0.5).value > 0.0
    # zero-rate value sits at the slope endpoint
    eps = 0.22
    bsc = Channel([[1 - eps, eps], [eps, 1 - eps]])
    u = Distribution([0.5, 0.5])
    inner = (u.probs[:, None] * np.sqrt(bsc.probs)).sum(axis=0)
    expect = -math.log(float((inner ** 2).sum()))
    assert gallager_error_exponent(u, bsc, 0.0).value == pytest.approx(expect, abs=1e-9)


def test_margin_error_monotone_in_level(rng):
    p = random_channel(rng, 3, 3)
    q = random_distribution(rng, 3)
    rate = 0.02
    base = margin_error_exponent(q, p, rate, 0.0).value
    stricter = margin_error_exponent(q, p, rate, 0.25).value
    assert base > 0.0
    assert stricter < base


def test_margin_error_degenerate_list_decoder(rng):
    p = random_channel(rng, 3, 3)
    degenerate = Distribution([1.0, 0.0, 0.0])
    for rate in (0.05, 0.15):
        assert math.isinf(margin_error_exponent(degenerate, p, rate, -0.2).value)


def test_correct_exponent_monotone_and_zero_region(rng):
    p = random_channel(rng, 3, 3)
    q = random_distribution(rng, 3)
    cap = mutual_information(q, p)
    assert correct_exponent(q, p, 0.5 * cap).value == 0.0
    vals = [correct_exponent(q, p, cap + r).value for r in (0.1, 0.3, 0.6)]
    assert vals[0] < vals[1] < vals[2]
    # unit slope far above the tangency rate
    a = correct_exponent(q, p, cap + 3.0).value
    b = correct_exponent(q, p, cap + 3.0 + 1e-3).value
    assert (b - a) / 1e-3 == pytest.approx(1.0, abs=1e-6)


def test_failure_envelope_zero_region(fig2_model):
    P, Q, d = fig2_model.source, fig2_model.codebook, fig2_model.distortion
    threshold = rate_function(P, Q, d, 0.0).value
    res = failure_envelope(P, Q, d, 0.0, threshold - 0.02)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert "envelope_only" in res.boundary_flags


def test_failure_envelope_trivial_branch():
    P = Distribution([0.5, 0.5])
    Q = Distribution([0.5, 0.5])
    d = DistortionModel([[0.0, 1.0], [0.4, 0.3]])
    res = failure_envelope(P, Q, d, 0.1, 0.5)  # second letter unreachable at 0.1
    assert res.value == 0.0
    assert "trivial_zero" in res.boundary_flags


def test_correct_envelope_negative_level_is_zero(rng):
    p = random_channel(rng, 2, 2)
    q = random_distribution(rng, 2)
    res = correct_envelope(q, p, 0.4, -0.05)
    assert res.value == 0.0 and "trivial_zero" in res.boundary_flags


def test_correct_envelope_zero_region(rng):
    p = random_channel(rng, 2, 3)
    q = random_distribution(rng, 2)
    cap = mutual_information(q, p)
    assert correct_envelope(q, p, 0.5 * cap, 0.0).value == pytest.approx(0.0, abs=1e-10)
    assert correct_envelope(q, p, cap + 0.2, 0.0).value > 0.0


def test_forney_component_structure(rng):
    p = random_channel(rng, 3, 3)
    degenerate = Distribution([0.0, 0.0, 1.0])
    res = forney_exponent(degenerate, p, 0.1, -0.3)
    assert res.component_values == (math.inf, math.inf) and math.isinf(res.value)
    # A tie reports the first component's optimizers, infinite below the
    # rate finiteness boundary.
    assert res.optimizer_rho == res.optimizer_s == math.inf
    res = forney_exponent(degenerate, p, 0.4, -0.3)
    assert res.component_values[0] == 0.0 and math.isinf(res.component_values[1])
    assert res.value == 0.0
    res = forney_exponent(degenerate, p, 0.4, 0.2)
    assert res.component_values == (0.0, 0.0)
    assert res.value == min(res.component_values)


def test_ordering_chain(rng):
    for _ in range(8):
        p = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        q = random_distribution(rng, p.input_size)
        for rate, level in [(0.05, 0.1), (0.2, -0.15), (0.02, -0.02)]:
            ee = margin_error_exponent(q, p, rate, level).value
            fy = forney_exponent(q, p, rate, level).value
            eb = forney_bound_exponent(q, p, rate, level).value
            assert ee >= fy - 1e-9
            assert fy >= eb - 1e-9


def test_duality_success_vs_margin_error(rng):
    for _ in range(5):
        p = random_channel(rng, 2, 3)
        q = random_distribution(rng, 2)
        joint = joint_from_input_and_channel(q, p).flattened()
        d = channel_distortion(p)
        for rate, level in [(0.05, 0.0), (0.1, 0.12), (0.02, -0.03)]:
            a = success_exponent(joint, q, d, level, rate).value
            b = margin_error_exponent(q, p, rate, level).value
            if math.isinf(a) or math.isinf(b):
                assert math.isinf(a) and math.isinf(b)
            else:
                assert a == pytest.approx(b, abs=1e-9)


_WEIGHT = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def _channel_models(draw):
    """A full-support codebook on two inputs and a 2x2 or 2x3 channel."""
    ny = draw(st.sampled_from((2, 3)))
    rows = np.array(draw(st.lists(_WEIGHT, min_size=2 * ny, max_size=2 * ny))).reshape(2, ny)
    q = np.array(draw(st.lists(_WEIGHT, min_size=2, max_size=2)))
    return Distribution(q / q.sum()), Channel(rows / rows.sum(axis=1, keepdims=True))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(model=_channel_models(), eps=st.floats(0.0, 1e-6), rate=st.floats(0.0, 0.3))
def test_duality_values_and_flags_near_d_min(model, eps, rate):
    # The two readings of one exponent must agree in value and in flags,
    # also within the at_D_min tolerance of the minimal distortion.
    q, p = model
    level = min_distortion_for_codebook(q, p) + eps
    joint = joint_from_input_and_channel(q, p).flattened()
    a = success_exponent(joint, q, channel_distortion(p), level, rate)
    b = margin_error_exponent(q, p, rate, level)
    assert a.value == pytest.approx(b.value, abs=1e-9)
    assert a.boundary_flags == b.boundary_flags


def test_duality_failure_vs_correct_envelope(rng):
    for _ in range(5):
        p = random_channel(rng, 2, 2)
        q = random_distribution(rng, 2)
        joint = joint_from_input_and_channel(q, p).flattened()
        d = channel_distortion(p)
        for rate, level in [(0.1, 0.0), (0.3, 0.08)]:
            a = failure_envelope(joint, q, d, level, rate).value
            b = correct_envelope(q, p, rate, level).value
            assert a == pytest.approx(b, abs=1e-9)


def test_failure_inner_curve_matches_direct(fig3_model):
    P, Q, d = fig3_model.source, fig3_model.codebook, fig3_model.distortion
    s_vals = np.array([0.0, 0.5, 2.0, 10.0])
    curve = failure_inner_curve(P, Q, d, 0.0, 0.65, s_vals)
    for s, v in zip(s_vals, curve):
        inner = (Q.probs[None, :] * np.exp(-s * d.values)).sum(axis=1)
        direct = -math.log(float((P.probs * inner ** (-0.65)).sum()))
        assert v == pytest.approx(direct, abs=1e-12)


def test_figure_models_read_as_their_dual_channel(fig1_model, fig2_model):
    # the shipped four-letter source model is exactly the joint law of the
    # bundled binary symmetric channel under the uniform codebook, so source
    # and channel readings of each exponent must coincide
    for model, rate, scale in [(fig1_model, 0.1, 0.11), (fig1_model, 0.3, -0.22)]:
        level = model.resolve_level(scale, scaled=True)
        a = success_exponent(model.source, model.codebook, model.distortion, level, rate).value
        b = margin_error_exponent(model.codebook, model.channel, rate, level).value
        assert a == pytest.approx(b, abs=1e-12)
    for scale in (0.0, 0.05):
        level = fig2_model.resolve_level(scale, scaled=True)
        a = failure_envelope(fig2_model.source, fig2_model.codebook,
                             fig2_model.distortion, level, 0.3).value
        b = correct_envelope(fig2_model.codebook, fig2_model.channel, 0.3, level).value
        assert a == pytest.approx(b, abs=1e-12)


def test_maximize_over_codebooks_shortcircuit(rng):
    p = random_channel(rng, 3, 3)
    q, res = maximize_over_codebooks(p, 0.1, -0.3, "forney-tradeoff")
    assert math.isinf(res.value)
    assert np.max(q.probs) == 1.0  # point-mass witness


def test_maximize_over_codebooks_symmetric(rng):
    eps = 0.22
    bsc = Channel([[1 - eps, eps], [eps, 1 - eps]])
    q, res = maximize_over_codebooks(bsc, 0.05, 0.0, "e-bound", denominator=8,
                                     refinement_rounds=2)
    assert np.allclose(q.probs, 0.5, atol=1 / 16)
    uniform_val = forney_bound_exponent(Distribution([0.5, 0.5]), bsc, 0.05, 0.0).value
    assert res.value >= uniform_val - 1e-9


def test_maximize_matches_between_kinds_for_nonnegative_level(rng):
    p = random_channel(rng, 2, 2)
    qa, ra = maximize_over_codebooks(p, 0.03, 0.1, "error-extended", denominator=8,
                                     refinement_rounds=1)
    qb, rb = maximize_over_codebooks(p, 0.03, 0.1, "e-bound", denominator=8,
                                     refinement_rounds=1)
    assert ra.value == pytest.approx(rb.value, abs=1e-7)


def _maximize_ref(p, rate, level, kind, denominator, refinement_rounds):
    """The reference codebook search: grid scan, mass-exchange rounds, then a
    fresh solve of the winner, with every law it visits solved anew."""
    evaluate = exponents._CHANNEL_KINDS[kind]
    k = p.input_size
    if kind != "e-bound" and level < -1e-12 and rate < -level - 1e-12:
        witness = Distribution.point_mass(k, 0)
        return witness, evaluate(witness, p, rate, level)

    def f(vec):
        return evaluate(Distribution(vec), p, rate, level).value

    best_val, best = -math.inf, None
    for row in simplex_grid_arrays(k, denominator):
        val = f(row)
        if val > best_val:
            best_val, best = val, row
    best = np.array(best)
    step = 1.0 / denominator
    for _ in range(refinement_rounds):
        step *= 0.5
        for _ in range(40):
            improved = False
            for i in range(k):
                if best[i] < step:
                    continue
                for j in range(k):
                    if i == j:
                        continue
                    cand = best.copy()
                    cand[i] -= step
                    cand[j] += step
                    val = f(cand)
                    if val > best_val + 1e-15:
                        best_val, best, improved = val, cand, True
            if not improved:
                break
    q_best = Distribution(best)
    return q_best, evaluate(q_best, p, rate, level)


def _bits(value):
    """A float, tuple of floats or None, with floats as float.hex."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return float.hex(float(value))


def _result_bits(res):
    return (_bits(res.value), _bits(res.optimizer_rho), _bits(res.optimizer_s),
            _bits(res.component_values), sorted(res.boundary_flags), _bits(res.upper_value))


def _search_bits(q, res):
    return (q.probs.tobytes(), *_result_bits(res))


def _hint_cases():
    """Each kind of nested solve, at two points with interior optima."""
    rng = np.random.default_rng(2)
    q, p = random_distribution(rng, 3), random_channel(rng, 3, 3)
    source, codebook = random_distribution(rng, 3), random_distribution(rng, 3)
    d = random_distortion(rng, 3, 3)
    return {
        "success": lambda r, lv: success_exponent(source, codebook, d, lv, r),
        "failure-envelope": lambda r, lv: failure_envelope(source, codebook, d, lv + 0.3, r),
        "margin": lambda r, lv: margin_error_exponent(q, p, r, lv),
        "correct-envelope": lambda r, lv: correct_envelope(q, p, r, lv + 0.3),
        "forney": lambda r, lv: forney_exponent(q, p, r, lv),
        "forney-bound": lambda r, lv: forney_bound_exponent(q, p, r, lv),
    }


@pytest.mark.parametrize("kind", sorted(_hint_cases()))
def test_tilt_hints_keep_every_bit(monkeypatch, kind):
    # The optimal tilts of earlier slopes only choose which points the inner
    # walks compute ahead of time: every exponent has the bits it has without
    # them, at fewer kernel calls.
    call = _hint_cases()[kind]
    kernel = exponents._e0_many
    count = [0]

    def counted(*args):
        count[0] += 1
        return kernel(*args)

    monkeypatch.setattr(exponents, "_e0_many", counted)
    for rate, level in [(0.02, -0.1), (0.1, 0.0)]:
        count[0] = 0
        got = _result_bits(call(rate, level))
        hinted = count[0]
        with monkeypatch.context() as patch:
            patch.setattr(exponents, "_hinted", lambda inner: lambda rho: inner(rho, None))
            count[0] = 0
            assert got == _result_bits(call(rate, level)), (rate, level)
        assert 0 < hinted < count[0], (rate, level)


# Two channels with three outputs, capacities 0.325 and 0.251 nats, and a
# binary symmetric channel, on which mirror codebook laws have the same
# exponent (to the last bit in the search on it below).
_SEARCH_CHANNELS = {
    2: Channel([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]]),
    3: Channel([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.25, 0.15, 0.6]]),
    "bsc": Channel([[0.9, 0.1], [0.1, 0.9]]),
}
# (kind, inputs, rate, level, grid, refinement rounds): every kind on two and
# three inputs, every grid from 2 to 8 (on two inputs) and 0 to 2 rounds.
# Most optima are interior; one search is zero everywhere (rate above
# capacity), one is infinite on part of the simplex (list decoding), the
# next two take the short-circuit (list decoding below -level), and on the
# next the two best grid laws are mirrors whose values tie to the last bit.
# The last two reach the screen's edge cases: a winner whose screen is nan
# (the margin component jumps at rho = 0), and refinement steps that improve
# on the best by less than the screening margin (12 rounds).
_SEARCHES = [
    ("error-extended", 2, 0.05, 0.0, 2, 0),
    ("e-bound", 2, 0.1, 0.1, 3, 1),
    ("forney-tradeoff", 2, 0.15, -0.1, 4, 2),
    ("error-extended", 2, 0.4, 0.05, 5, 2),
    ("e-bound", 2, 0.02, -0.2, 6, 0),
    ("forney-tradeoff", 2, 0.1, 0.0, 7, 0),
    ("error-extended", 2, 0.2, 0.05, 8, 2),
    ("e-bound", 3, 0.05, 0.0, 2, 2),
    ("forney-tradeoff", 3, 0.1, -0.05, 3, 1),
    ("error-extended", 3, 0.15, 0.1, 4, 1),
    ("error-extended", 3, 0.05, -0.02, 5, 0),
    ("error-extended", 2, 0.1, -0.3, 4, 2),
    ("forney-tradeoff", 3, 0.05, -0.2, 5, 1),
    ("error-extended", "bsc", 0.05, 0.0, 3, 0),
    ("forney-tradeoff", 2, 0.3, -0.2, 4, 0),
    ("error-extended", 3, 0.1, 0.0, 2, 12),
]


@pytest.mark.parametrize("kind, inputs, rate, level, grid, rounds", _SEARCHES)
def test_maximize_over_codebooks_matches_sequential(kind, inputs, rate, level, grid, rounds):
    p = _SEARCH_CHANNELS[inputs]
    got = maximize_over_codebooks(p, rate, level, kind, grid, rounds)
    want = _maximize_ref(p, rate, level, kind, grid, rounds)
    assert _search_bits(*got) == _search_bits(*want)


@pytest.mark.parametrize("kind, inputs, grid, rounds", [
    ("error-extended", 2, 4, 2), ("e-bound", 3, 2, 1), ("forney-tradeoff", 2, 4, 1),
])
def test_maximize_over_codebooks_solves_each_law_once(monkeypatch, kind, inputs, grid,
                                                      rounds):
    p = _SEARCH_CHANNELS[inputs]
    evaluate = exponents._CHANNEL_KINDS[kind]
    laws = []

    def counted(q, *args):
        laws.append(q.probs.tobytes())
        return evaluate(q, *args)

    monkeypatch.setitem(exponents._CHANNEL_KINDS, kind, counted)
    q, _ = maximize_over_codebooks(p, 0.05, 0.0, kind, grid, rounds)
    assert len(laws) == len(set(laws))
    assert q.probs.tobytes() in laws
    solved = len(laws)
    laws.clear()
    _maximize_ref(p, 0.05, 0.0, kind, grid, rounds)
    # The reference search solves every law it visits, the best law twice and
    # revisited laws again; the screened search solves only the contenders.
    assert solved < len(set(laws)) < len(laws)


def test_maximize_over_codebooks_confirms_both_tied_laws(monkeypatch):
    p = _SEARCH_CHANNELS["bsc"]
    evaluate = exponents._CHANNEL_KINDS["error-extended"]
    values = {}

    def counted(q, *args):
        res = evaluate(q, *args)
        values[q.probs.tobytes()] = res.value
        return res

    monkeypatch.setitem(exponents._CHANNEL_KINDS, "error-extended", counted)
    q, res = maximize_over_codebooks(p, 0.05, 0.0, "error-extended", 3, 0)
    first, mirror = (row.tobytes() for row in simplex_grid_arrays(2, 3)[1:3])
    assert values[first] == values[mirror] == res.value
    assert q.probs.tobytes() == first


@settings(max_examples=40, deadline=None, derandomize=True)
@given(inputs=st.integers(2, 3), outputs=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(sorted(exponents._CHANNEL_KINDS)), denominator=st.integers(2, 6),
       law=st.integers(0, 27), level=st.floats(-0.3, 0.3), rate=st.floats(0.0, 0.8))
# Two laws where the margin family's objective jumps at rho = 0, where a
# screen would be off by 1.0e-7 and 6.0e-7, and a tradeoff law whose value is
# its first component, where a slope walk run to the screen's tolerance in
# u = rho / (1 + rho) would be off by 1.2e-9.
@example(inputs=2, outputs=3, seed=2493279424, kind="error-extended", denominator=4, law=1,
         level=-0.1269716422370628, rate=0.7290946546148671)
@example(inputs=2, outputs=3, seed=2567978960, kind="error-extended", denominator=6, law=1,
         level=-0.20031992199616178, rate=0.7462487286056039)
@example(inputs=3, outputs=2, seed=1524516134, kind="forney-tradeoff", denominator=6, law=7,
         level=-0.20574856641767697, rate=0.14089935500354553)
# The Newton solve's edge regimes: a vertex law at level 0, where every gap
# is 0 and the exact tilt solve takes its infinite-tilt (mass) limit; a
# vertex law at a negative level, where e0 is linear in s and the bounded
# tilt goes to the end its slope picks (rho* = s* = 1); a law with rho* = 1
# and an interior tilt; and a law whose value is 0 (rho* = 0).
@example(inputs=3, outputs=2, seed=7, kind="error-extended", denominator=4, law=0, level=0.0,
         rate=0.0)
@example(inputs=2, outputs=3, seed=11, kind="e-bound", denominator=3, law=0, level=-0.2,
         rate=0.1)
@example(inputs=3, outputs=3, seed=19, kind="error-extended", denominator=5, law=7, level=0.0,
         rate=0.0)
@example(inputs=2, outputs=2, seed=23, kind="e-bound", denominator=4, law=1, level=0.05,
         rate=0.6)
def test_screen_value_is_far_inside_the_margin(inputs, outputs, seed, kind, denominator, law,
                                               level, rate):
    # Every law of the grids the search scans, vertices and edges (codebook
    # letters of zero mass) included, on channels with entries down to 1e-3.
    rng = np.random.default_rng(seed)
    raw = rng.random((inputs, outputs)) + 1e-3
    p = Channel(raw / raw.sum(axis=1, keepdims=True))
    grid = simplex_grid_arrays(inputs, denominator)
    q = Distribution(grid[law % len(grid)])
    exact = exponents._CHANNEL_KINDS[kind](q, p, rate, level).value
    screen = exponents._screen_value(kind, q, p, rate, level)
    if math.isnan(screen):  # not vouched for: the search always confirms it
        assert level < 0.0
        return
    assert math.isinf(screen) == math.isinf(exact)
    if math.isfinite(exact):
        assert abs(screen - exact) <= optimize.SCREEN_MARGIN / 100 * max(1.0, abs(exact))


# Two 3-input channels on which the capacity search's mass exchange once
# stepped below zero: it checked a donor's mass once, before several accepted
# moves from it, and then evaluated a law with a negative entry.
_EXCHANGE_CHANNELS = [
    [[0.5983731900906744, 0.13311032054575977, 0.268516489363566],
     [0.3250706577517471, 0.6252734823430399, 0.049655859905213],
     [0.19294132305824702, 0.10526938629021812, 0.701789290651535]],
    [[0.7359196283905801, 0.24325593966770895, 0.02082443194171078],
     [0.2959593540963838, 0.5083632383387554, 0.19567740756486085],
     [0.20910892209409762, 0.03636050139248752, 0.7545305765134148]],
]


@pytest.mark.parametrize("rows", _EXCHANGE_CHANNELS)
def test_capacity_search_stays_on_the_simplex(rows):
    p = Channel(rows)
    q, value = capacity(p)
    assert (q.probs >= 0.0).all()
    assert value == pytest.approx(mutual_information(q, p), abs=1e-9)


def test_capacity_closed_forms(rng):
    eps = 0.22
    bsc = Channel([[1 - eps, eps], [eps, 1 - eps]])
    q, value = capacity(bsc)
    assert value == pytest.approx(math.log(2) - binary_entropy_nats(eps), abs=1e-9)
    assert np.allclose(q.probs, 0.5, atol=1e-5)
    flat = Channel([[0.3, 0.7], [0.3, 0.7]])
    assert capacity(flat)[1] == pytest.approx(0.0, abs=1e-12)
    k = 3
    eps2 = 1e-6
    near_identity = np.full((k, k), eps2)
    np.fill_diagonal(near_identity, 1.0 - (k - 1) * eps2)
    chan = Channel(near_identity)
    expect = mutual_information(Distribution.uniform(k), chan)
    _, val = capacity(chan)
    assert val == pytest.approx(expect, abs=1e-9)
    assert abs(val - math.log(k)) < 1e-4
