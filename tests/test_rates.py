import math

import numpy as np
import pytest

from rcexp.exponents import success_exponent
from rcexp.probability import (
    Channel,
    Distribution,
    DistortionModel,
    joint_from_input_and_channel,
    mutual_information,
    simplex_grid_arrays,
)
from rcexp.rates import (
    _restrict,
    _settle,
    channel_distortion,
    coupled_rate_function,
    distortion_bounds,
    finiteness_boundary,
    max_rate_over_sources,
    min_distortion_for_codebook,
    min_rate_boundary,
    rate_function,
    rate_values_batch,
)
from conftest import random_channel, random_distribution, random_distortion


def dual_objective(t, q, d, level, s):
    inner = (q.probs[None, :] * np.exp(-s * (d.values - level))).sum(axis=1)
    return float(-np.dot(t.probs, np.log(inner)))


def test_rate_examples():
    q = Distribution([0.5, 0.5])
    one = Distribution([1.0])
    assert rate_function(one, q, DistortionModel([[0.0, 1.0]]), 0.0).value == pytest.approx(
        math.log(2), abs=1e-10
    )
    assert math.isinf(rate_function(one, q, DistortionModel([[0.5, 1.0]]), 0.0).value)
    # mean distortion under the product law already feasible: value 0, s* = 0
    res = rate_function(one, q, DistortionModel([[0.0, 1.0]]), 0.6)
    assert res.value == 0.0 and res.optimizer_s == 0.0


def test_rate_dual_is_unimodal(rng):
    # concavity in the tilt: no dense-grid point beats the single interior peak
    for _ in range(100):
        k, kk = rng.integers(2, 4, size=2)
        t = random_distribution(rng, k)
        q = random_distribution(rng, kk)
        d = random_distortion(rng, k, kk)
        level = float(rng.uniform(d.d_min, d.d_max))
        grid = np.linspace(0.0, 30.0, 400)
        vals = np.array([dual_objective(t, q, d, level, s) for s in grid])
        peak = int(np.argmax(vals))
        assert np.all(np.diff(vals[: peak + 1]) >= -1e-9)
        assert np.all(np.diff(vals[peak:]) <= 1e-9)


def test_rate_convex_in_law_and_level(rng):
    for _ in range(40):
        q = random_distribution(rng, 3)
        d = random_distortion(rng, 3, 3)
        t1, t2 = random_distribution(rng, 3), random_distribution(rng, 3)
        lvl1, lvl2 = rng.uniform(d.d_min, d.d_max, size=2)
        r1 = rate_function(t1, q, d, lvl1).value
        r2 = rate_function(t2, q, d, lvl2).value
        if math.isinf(r1) or math.isinf(r2):
            continue
        for lam in (0.25, 0.5, 0.75):
            mix = Distribution(lam * t1.probs + (1 - lam) * t2.probs)
            rmix = rate_function(mix, q, d, lam * lvl1 + (1 - lam) * lvl2).value
            if math.isfinite(rmix):
                assert rmix <= lam * r1 + (1 - lam) * r2 + 1e-9


def test_rate_nonincreasing_in_level(rng):
    for _ in range(20):
        t = random_distribution(rng, 3)
        q = random_distribution(rng, 3)
        d = random_distortion(rng, 3, 3)
        levels = np.sort(rng.uniform(d.d_min, d.d_max, size=4))
        vals = [rate_function(t, q, d, float(lv)).value for lv in levels]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]) if math.isfinite(b)) or not finite


def test_rate_batch_matches_scalar(rng):
    q = random_distribution(rng, 3)
    d = random_distortion(rng, 4, 3)
    level = 0.1
    batch = rng.dirichlet(np.ones(4), size=50)
    vals = rate_values_batch(batch, q, d, level)
    for t_row, v in zip(batch[:10], vals[:10]):
        exact = rate_function(t_row, q, d, level).value
        if math.isinf(exact):
            assert math.isinf(v)
        else:
            assert v == pytest.approx(exact, abs=1e-7)


# ---------------------------------------------------------------------------
# One settle rule: the batch and the scalar dual decide the same laws alike.
# ---------------------------------------------------------------------------


def _hex(values) -> list:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("gaps, codebook, law, value", [
    ([[-2e-12, 0.5], [2e-12, 0.5]], [0.5, 0.5], [0.25, 0.75], math.log(2.0)),
    ([[-1.0, 1e-16, -1.0 + 1e-16], [1.0, 1.0, 1.5]], [0.307, 0.259, 0.434], [0.5, 0.5],
     -0.5 * math.log(0.741 * 0.566)),  # row 2 infeasible: the tight masses
])
def test_batch_takes_the_limit_at_zero_terminal_slope(gaps, codebook, law, value):
    """Terminal slopes within DIV_TOL of zero, far from the level: the batch
    once kept the noise of its probes here (10000.69 and 2.0)."""
    q, d = Distribution(codebook), DistortionModel(gaps)
    exact = rate_function(np.array(law), q, d, 0.0)
    assert exact.optimizer_s == math.inf and exact.evaluations == 0
    assert exact.value == pytest.approx(value, rel=1e-3)
    assert _hex(rate_values_batch(np.array([law]), q, d, 0.0)) == _hex([exact.value])


@pytest.mark.parametrize("name, m, level", [
    ("fig1", 16, -1.265666373331276),  # one ulp below fig1's D_min
    ("fig3", 24, -0.2594),
    ("fig3", 24, -0.2179),
])
def test_batch_has_rate_function_bits_on_every_settled_law(name, m, level, request):
    """Every grid law the settle rule decides gets rate_function's bits from
    the batch.  The laws it leaves to the searches agree to 1e-12: the scalar
    walk and the batch's synchronized golden section evaluate other tilts."""
    spec = request.getfixturevalue(f"{name}_model")
    q, d = spec.codebook, spec.distortion
    t_grid = simplex_grid_arrays(spec.source.alphabet_size, m)
    batch = rate_values_batch(t_grid, q, d, level)
    dsub, lnq = _restrict(q, d)
    settled = ~np.isnan(_settle(t_grid, dsub - level, lnq)[0])
    band = settled & np.isfinite(batch) & (batch > 0.0)
    assert band.sum() == (17 if name == "fig1" else 1)
    assert settled.all() if name == "fig1" else not settled.all()
    exact = [rate_function(t, q, d, level).value for t in t_grid[settled]]
    assert _hex(batch[settled]) == _hex(exact)
    for i in np.flatnonzero(~settled)[::25]:
        assert batch[i] == pytest.approx(rate_function(t_grid[i], q, d, level).value,
                                         rel=1e-12, abs=1e-12)


def _at_d_min_cases(fig_models, rng):
    """(source, codebook, distortion, level) at and around each model's
    minimal distortion on the codebook support and the source's rows."""
    models = [(spec.source, spec.codebook, spec.distortion) for spec in fig_models]
    for k in (2, 3, 4):
        models.append((random_distribution(rng, k), random_distribution(rng, k),
                       random_distortion(rng, k, k)))
    models.append((Distribution([0.5, 0.0, 0.5]), Distribution([0.6, 0.4, 0.0]),
                   DistortionModel([[0.3, 0.1, -2.0], [-1.0, 0.5, 0.2], [0.4, 0.2, -3.0]])))
    for t, q, d in models:
        d_min = float(d.values[np.ix_(t.probs > 0.0, q.probs > 0.0)].min())
        for shift in (-2e-6, -5e-7, -1e-13, 0.0, 1e-13, 5e-7, 2e-6, 0.1):
            yield t, q, d, d_min + shift


def test_at_d_min_is_the_at_D_min_flag(fig1_model, fig2_model, fig3_model, rng):
    """RateResult.at_d_min and the exponents' at_D_min flag read the same
    smallest gap with the same tolerance."""
    seen = set()
    for t, q, d, level in _at_d_min_cases((fig1_model, fig2_model, fig3_model), rng):
        flag = "at_D_min" in success_exponent(t, q, d, level, 0.1).boundary_flags
        assert rate_function(t, q, d, level).at_d_min == flag, level
        seen.add(flag)
    assert seen == {False, True}


def test_channel_distortion_structure():
    eps = 0.22
    bsc = Channel([[1 - eps, eps], [eps, 1 - eps]])
    d = channel_distortion(bsc)
    unit = math.log((1 - eps) / eps)
    entries = sorted(set(np.round(d.values.reshape(-1), 12)))
    assert entries == sorted({-round(unit, 12), 0.0, round(unit, 12)})
    # identical rows give the all-zero matrix
    flat = channel_distortion(Channel([[0.4, 0.6], [0.4, 0.6]]))
    assert np.all(flat.values == 0.0)


def test_channel_distortion_minimax_identities(rng):
    for _ in range(20):
        p = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        d = channel_distortion(p)
        rows = d.values
        assert rows.min(axis=1).max() == 0.0  # max over pairs of min over letters
        assert rows.max(axis=1).min() == 0.0  # min over pairs of max over letters


def test_rate_at_zero_level_is_mutual_information(rng):
    for _ in range(10):
        p = random_channel(rng, 3, 3)
        q = random_distribution(rng, 3)
        joint = joint_from_input_and_channel(q, p)
        res = rate_function(joint, q, channel_distortion(p), 0.0)
        assert res.value == pytest.approx(mutual_information(q, p), abs=1e-9)
        assert res.optimizer_s == pytest.approx(1.0, abs=1e-4)


def test_max_rate_over_sources():
    q = Distribution([0.5, 0.5])
    d = DistortionModel([[0.0, 1.0], [0.5, 0.2]])
    assert max_rate_over_sources(q, d, 1.0) == 0.0  # level above every entry
    assert math.isinf(max_rate_over_sources(q, d, 0.1))  # second row unreachable
    assert max_rate_over_sources(q, d, 0.3) > 0.0


def test_distortion_bounds_and_codebook_floor(fig1_model):
    d = fig1_model.distortion
    unit = fig1_model.distortion_unit
    assert distortion_bounds(d) == (pytest.approx(-unit), pytest.approx(unit))
    bsc = fig1_model.channel
    q = fig1_model.codebook
    assert min_distortion_for_codebook(q, bsc) == pytest.approx(-math.log(0.78 / 0.22))
    degenerate = Distribution([1.0, 0.0])
    assert min_distortion_for_codebook(degenerate, bsc) == 0.0


def test_coupled_rate_function(rng):
    p = random_channel(rng, 3, 3)
    q = random_distribution(rng, 3)
    joint = joint_from_input_and_channel(q, p)
    d = channel_distortion(p)
    # nonnegative always; zero when the coupled constraint is slack
    assert coupled_rate_function(joint, q, d, 5.0).value == 0.0
    res = coupled_rate_function(joint, q, d, -0.05)
    assert res.value >= 0.0
    # infeasible when the level sits below the coupled minimum
    tiny = coupled_rate_function(joint, q, d, -50.0)
    assert math.isinf(tiny.value)


def test_min_rate_boundary_examples(rng):
    p = random_channel(rng, 3, 3)
    degenerate = Distribution([0.0, 1.0, 0.0])
    for level in (-0.5, -0.1, 0.0, 0.2):
        assert min_rate_boundary(degenerate, p, level) == pytest.approx(
            max(0.0, -level), abs=2e-6
        )
    full = random_distribution(rng, 3)
    for level in (0.0, 0.3):
        assert min_rate_boundary(full, p, level) == 0.0
    val = min_rate_boundary(full, p, -0.1)
    assert 0.0 <= val <= 0.1 + 1e-9


def test_min_rate_boundary_matches_finiteness_boundary(rng):
    for _ in range(10):
        p = random_channel(rng, 3, 2)
        q = random_distribution(rng, 3)
        level = float(rng.uniform(-0.4, 0.1))
        a = min_rate_boundary(q, p, level, tol=1e-8)
        b = finiteness_boundary(q, p, level)
        assert a == pytest.approx(max(b, 0.0), abs=1e-6)
