import math

import numpy as np
import pytest

from conftest import random_distribution
from rcexp.errors import CodebookTooLarge, InsufficientData
from rcexp.probability import Channel, Distribution, DistortionModel
from rcexp.montecarlo import (
    BlockLengthCount,
    SimConfig,
    SimResult,
    codebook_size,
    enumerate_channel_margin,
    enumerate_forney_error,
    enumerate_source_success,
    estimate_exponent,
    simulate_channel_margin,
    simulate_forney,
    simulate_source,
    wilson_interval,
)

HAMMING = DistortionModel([[0.0, 1.0], [1.0, 0.0]])


def _cfg(experiment, **kw):
    base = dict(block_lengths=(5,), rate=math.log(3) / 5, distortion_level=0.3,
                trials_per_n=50_000, master_seed=7, experiment=experiment)
    base.update(kw)
    return SimConfig(**base)


def test_codebook_sizes():
    assert codebook_size(10, math.log(4) / 10, "source-encode") == 4
    assert codebook_size(10, math.log(4) / 10, "channel-margin") == 5
    with pytest.raises(CodebookTooLarge):
        codebook_size(100, 1.0, "source-encode")
    with pytest.raises(CodebookTooLarge):
        codebook_size(30, 0.6, "source-encode", cap=2 ** 20)


def test_source_degenerate_levels():
    P = Distribution([0.6, 0.4])
    Q = Distribution([0.5, 0.5])
    cfg = _cfg("source-encode", trials_per_n=2_000, distortion_level=1.5)
    res = simulate_source(cfg, P, Q, HAMMING)
    assert res.per_n[0].count == res.per_n[0].trials  # every pair feasible
    cfg = _cfg("source-encode", trials_per_n=2_000, distortion_level=-0.5)
    res = simulate_source(cfg, P, Q, HAMMING)
    assert res.per_n[0].count == 0


def test_source_matches_enumeration():
    P = Distribution([0.6, 0.4])
    Q = Distribution([0.45, 0.55])
    n, level = 5, 0.3
    m = codebook_size(n, _cfg("source-encode").rate, "source-encode")
    exact = enumerate_source_success(P, Q, HAMMING, n, m, level)
    res = simulate_source(_cfg("source-encode", trials_per_n=100_000), P, Q, HAMMING)
    row = res.per_n[0]
    se = (row.ci_high - row.ci_low) / (2 * 1.96)
    assert abs(row.p_hat - exact) <= 5 * se


def test_three_letter_enumeration_agreement():
    P = Distribution([0.5, 0.3, 0.2])
    Q = Distribution([0.4, 0.35, 0.25])
    d = DistortionModel([[0.0, 1.0, 0.7], [1.0, 0.0, 0.4], [0.6, 0.8, 0.0]])
    n, level = 4, 0.4
    rate = math.log(3) / n
    m = codebook_size(n, rate, "source-encode")
    assert m == 3
    exact = enumerate_source_success(P, Q, d, n, m, level)
    cfg = SimConfig((n,), rate, level, 100_000, 11, "source-encode")
    row = simulate_source(cfg, P, Q, d).per_n[0]
    se = (row.ci_high - row.ci_low) / (2 * 1.96)
    assert abs(row.p_hat - exact) <= 5 * se


def test_margin_matches_enumeration_and_orderings():
    p = Channel([[0.7, 0.3], [0.2, 0.8]])
    q = Distribution([0.5, 0.5])
    n, level = 5, 0.12
    cfg = _cfg("channel-margin", rate=math.log(2) / n, distortion_level=level,
               trials_per_n=100_000)
    m = codebook_size(n, cfg.rate, "channel-margin")
    assert m == 3  # two competitors: the exact tradeoff enumeration applies
    tie, strict = enumerate_channel_margin(q, p, n, m, level)
    res = simulate_channel_margin(cfg, q, p)
    row = res.per_n[0]
    se = (row.ci_high - row.ci_low) / (2 * 1.96)
    assert abs(row.p_hat - tie) <= 5 * se
    assert row.count >= row.count_no_tie

    fres = simulate_forney(_cfg("forney", rate=math.log(2) / n, distortion_level=level,
                                trials_per_n=100_000), q, p)
    frow = fres.per_n[0]
    exact_f = enumerate_forney_error(q, p, n, m, level)
    fse = (frow.ci_high - frow.ci_low) / (2 * 1.96)
    assert abs(frow.p_hat - exact_f) <= 5 * fse
    # summed-likelihood decoder errors at least as often as the margin decoder
    assert frow.count >= row.count


def test_margin_tie_handling_identical_rows():
    # two indistinguishable inputs in the codebook support, zero margin:
    # a competitor tying the transmitted word is an error only with ties
    p = Channel([[0.6, 0.4], [0.6, 0.4]])
    q = Distribution([0.5, 0.5])
    cfg = _cfg("channel-margin", distortion_level=0.0, trials_per_n=5_000,
               block_lengths=(4,))
    res = simulate_channel_margin(cfg, q, p)
    row = res.per_n[0]
    assert row.count == row.trials  # some competitor always ties
    assert row.count_no_tie < row.count


def test_forney_single_competitor_equals_margin_strict():
    p = Channel([[0.7, 0.3], [0.2, 0.8]])
    q = Distribution([0.5, 0.5])
    kw = dict(block_lengths=(6,), rate=1e-9, distortion_level=0.07,
              trials_per_n=40_000, master_seed=3)
    assert codebook_size(6, 1e-9, "channel-margin") == 2
    marg = simulate_channel_margin(SimConfig(experiment="channel-margin", **kw), q, p)
    forn = simulate_forney(SimConfig(experiment="forney", **kw), q, p)
    assert forn.per_n[0].count == marg.per_n[0].count_no_tie


def test_reproducibility_across_threads(rng):
    P = random_distribution(rng, 2)
    Q = random_distribution(rng, 2)
    cfg = _cfg("source-encode", trials_per_n=30_000, block_lengths=(8, 16))
    counts = []
    for threads in (1, 2, 5):
        res = simulate_source(cfg, P, Q, HAMMING, threads=threads)
        counts.append([row.count for row in res.per_n])
    assert counts[0] == counts[1] == counts[2]


def test_success_failure_complement():
    P = Distribution([0.7, 0.3])
    Q = Distribution([0.5, 0.5])
    cfg = _cfg("source-encode", trials_per_n=20_000)
    res = simulate_source(cfg, P, Q, HAMMING)
    comp = res.complement()
    for a, b in zip(res.per_n, comp.per_n):
        assert a.count + b.count == a.trials
        assert a.p_hat + b.p_hat == pytest.approx(1.0, abs=1e-15)


def test_monotone_in_level_with_shared_seed():
    P = Distribution([0.7, 0.3])
    Q = Distribution([0.5, 0.5])
    counts = []
    for level in (0.1, 0.3, 0.5):
        cfg = _cfg("source-encode", distortion_level=level, trials_per_n=20_000)
        counts.append(simulate_source(cfg, P, Q, HAMMING).per_n[0].count)
    assert counts[0] <= counts[1] <= counts[2]


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi <= 1.0 and lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    # The endpoints are exact: 0 at count 0 and 1 at count = trials.
    for n in range(1, 5001):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0


def _result_from_probs(ns, probs, trials=10 ** 6):
    rows = []
    for n, p in zip(ns, probs):
        count = int(round(p * trials))
        lo, hi = wilson_interval(count, trials)
        rows.append(BlockLengthCount(n, trials, count, count / trials, lo, hi))
    return SimResult(tuple(rows), event="test")


def test_estimate_exponent_perfect_exponential():
    c = 0.04
    ns = [40, 80, 120, 160]
    res = _result_from_probs(ns, [math.exp(-c * n) for n in ns], trials=10 ** 9)
    slope, err = estimate_exponent(res)
    assert slope == pytest.approx(c, rel=1e-3)


def test_estimate_exponent_constant_and_insufficient():
    ns = [10, 20, 30, 40]
    res = _result_from_probs(ns, [0.3, 0.3, 0.3, 0.3])
    slope, _ = estimate_exponent(res)
    assert slope == pytest.approx(0.0, abs=1e-6)
    thin = _result_from_probs([10, 20], [0.5, 0.4])
    with pytest.raises(InsufficientData):
        estimate_exponent(thin)
    zeros = _result_from_probs([10, 20, 30, 40], [0.5, 0.4, 0.0, 0.0])
    with pytest.raises(InsufficientData):
        estimate_exponent(zeros)
