import math

import numpy as np
import pytest

from rcexp.errors import (
    DimensionMismatch,
    NegativeEntry,
    NonStochastic,
    ZeroChannelEntry,
)
from rcexp.probability import (
    Channel,
    ConditionalKernel,
    Distribution,
    DistortionModel,
    JointDistribution,
    average_distortion,
    joint_from_input_and_channel,
    kl_divergence,
    mutual_information,
    simplex_grid,
    simplex_grid_arrays,
    validate,
)
from conftest import binary_entropy_nats, random_channel, random_distribution


def test_validate_examples():
    validate(Distribution([0.5, 0.5]))
    with pytest.raises(NonStochastic):
        Distribution([0.5, 0.6])
    with pytest.raises(ZeroChannelEntry):
        Channel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(NegativeEntry):
        Distribution([1.2, -0.2])


def test_distribution_normalizes_and_freezes():
    d = Distribution([0.5 + 1e-13, 0.5])
    assert abs(d.probs.sum() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_kl_examples():
    p = Distribution([0.3, 0.7])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(Distribution([1.0, 0.0]), Distribution([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-15
    )
    assert math.isinf(kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0])))
    with pytest.raises(DimensionMismatch):
        kl_divergence(p, Distribution([1.0]))


def test_kl_nonnegative_zero_iff_equal(rng):
    for _ in range(50):
        k = int(rng.integers(2, 6))
        t = random_distribution(rng, k)
        p = random_distribution(rng, k)
        val = kl_divergence(t, p)
        assert val >= -1e-12
        if np.allclose(t.probs, p.probs, atol=1e-14):
            assert val <= 1e-12
        else:
            assert val > 1e-12 or np.max(np.abs(t.probs - p.probs)) < 1e-6


def test_mutual_information_examples(rng):
    # independent output: all rows identical
    p = Channel([[0.3, 0.7], [0.3, 0.7]])
    assert mutual_information(Distribution([0.5, 0.5]), p) == pytest.approx(0.0, abs=1e-15)
    # binary symmetric channel closed form
    eps = 0.22
    bsc = Channel([[1 - eps, eps], [eps, 1 - eps]])
    expect = math.log(2) - binary_entropy_nats(eps)
    assert mutual_information(Distribution([0.5, 0.5]), bsc) == pytest.approx(expect, abs=1e-12)
    # single input letter
    assert mutual_information(Distribution([1.0, 0.0]), bsc) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_is_kl_of_joint(rng):
    for _ in range(20):
        nx, ny = rng.integers(2, 5, size=2)
        p = random_channel(rng, nx, ny)
        q = random_distribution(rng, nx)
        joint = joint_from_input_and_channel(q, p)
        out = Distribution(q.probs @ p.probs)
        product = JointDistribution(np.outer(q.probs, out.probs))
        independent = kl_divergence(joint.flattened(), product.flattened())
        assert mutual_information(q, p) == pytest.approx(independent, abs=1e-12)


def test_average_distortion_examples():
    t = Distribution([1.0, 0.0])
    w = ConditionalKernel([[1.0, 0.0], [0.5, 0.5]])
    d = DistortionModel([[0.3, 1.0], [0.0, 0.0]])
    assert average_distortion(t, w, d) == pytest.approx(0.3, abs=1e-15)
    const = DistortionModel(np.full((2, 2), 0.7))
    any_w = ConditionalKernel([[0.2, 0.8], [0.9, 0.1]])
    assert average_distortion(Distribution([0.4, 0.6]), any_w, const) == pytest.approx(0.7)


def test_average_distortion_linear_in_kernel(rng):
    for _ in range(10):
        t = random_distribution(rng, 3)
        d = DistortionModel(rng.uniform(-1, 1, (3, 4)))
        w1 = rng.random((3, 4)) + 0.01
        w1 /= w1.sum(axis=1, keepdims=True)
        w2 = rng.random((3, 4)) + 0.01
        w2 /= w2.sum(axis=1, keepdims=True)
        lam = float(rng.random())
        mix = ConditionalKernel(lam * w1 + (1 - lam) * w2)
        blend = lam * average_distortion(t, ConditionalKernel(w1), d) + (
            1 - lam
        ) * average_distortion(t, ConditionalKernel(w2), d)
        assert average_distortion(t, mix, d) == pytest.approx(blend, abs=1e-12)


@pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 5) for m in range(1, 13)])
def test_simplex_grid_count(k, m):
    pts = simplex_grid_arrays(k, m)
    assert pts.shape == (math.comb(m + k - 1, k - 1), k)
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert len(np.unique(pts, axis=0)) == pts.shape[0]


def test_simplex_grid_arrays_are_cached_and_read_only():
    first = simplex_grid_arrays(3, 7)
    again = simplex_grid_arrays(3, 7)
    assert np.array_equal(first, again)
    for grid in (first, again, simplex_grid_arrays(1, 4)):
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5


def test_simplex_grid_examples():
    pts = {tuple(p.probs) for p in simplex_grid(2, 4)}
    assert pts == {(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)}
    assert [tuple(p.probs) for p in simplex_grid(1, 7)] == [(1.0,)]
    assert len(list(simplex_grid(3, 2))) == 6


def test_distortion_model_bounds():
    d = DistortionModel([[0.0, 2.0], [-1.0, 0.5]])
    assert d.d_min == -1.0 and d.d_max == 2.0
