"""Monte-Carlo simulation of the random-coding experiments.

The simulator draws the actual random objects of each experiment — a source
word, a codebook of independent codewords, a channel output — but only
through their sufficient statistics.  Distortions and log-likelihoods are
sums over positions of per-letter contributions, so given the letter counts
of the conditioning word, the per-codeword totals are sums of multinomial
draws.  Sampling those multinomials directly reproduces the exact joint law
of the per-codeword scores at a fraction of the cost of materializing
length-n words.

Reproducibility contract: every block of trials draws from a Philox stream
keyed by (master_seed, block length, block index).  Block boundaries are a
deterministic function of the configuration, so counts are bit-identical
regardless of thread count or scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import CodebookTooLarge, DimensionMismatch, InsufficientData
from .probability import Channel, Distribution, DistortionModel

EXPERIMENTS = ("source-encode", "channel-margin", "forney")
_EVENT_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation sweep over block lengths."""

    block_lengths: tuple
    rate: float
    distortion_level: float
    trials_per_n: int
    master_seed: int
    experiment: str
    codebook_cap: int = 2 ** 20
    block_trials: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "block_lengths", tuple(int(n) for n in self.block_lengths))
        if self.experiment not in EXPERIMENTS:
            raise DimensionMismatch(f"experiment must be one of {EXPERIMENTS}")
        if self.trials_per_n < 1 or any(n < 1 for n in self.block_lengths):
            raise DimensionMismatch("trials and block lengths must be positive")


def codebook_size(n: int, rate: float, experiment: str, cap: int = 2 ** 20) -> int:
    """round(e^{nR}) codewords for source encoding, one more for channel decoding."""
    if n * rate > math.log(cap) + 2.0:
        raise CodebookTooLarge(
            f"e^(n R) = e^{n * rate:.1f} exceeds the cap {cap}; lower the rate or the block length"
        )
    m = int(round(math.exp(n * rate)))
    if experiment != "source-encode":
        m += 1
    m = max(m, 1 if experiment == "source-encode" else 2)
    if m > cap:
        raise CodebookTooLarge(
            f"codebook size {m} exceeds the cap {cap}; lower the rate or the block length"
        )
    return m


@dataclass(frozen=True)
class BlockLengthCount:
    """Event counts at one block length with a Wilson 95% interval."""

    n: int
    trials: int
    count: int
    p_hat: float
    ci_low: float
    ci_high: float
    count_no_tie: int | None = None


@dataclass(frozen=True)
class SimResult:
    per_n: tuple
    event: str
    exponent_estimate: float | None = None
    slope_stderr: float | None = None

    def complement(self) -> "SimResult":
        """The same runs counted for the complementary event (same draws)."""
        flipped = tuple(_count_row(row.n, row.trials, row.trials - row.count)
                        for row in self.per_n)
        return _with_estimate(SimResult(flipped, event="not-" + self.event))


def _count_row(n: int, trials: int, count: int, *count_no_tie) -> BlockLengthCount:
    return BlockLengthCount(n, trials, count, count / trials,
                            *wilson_interval(count, trials), *count_no_tie)


def wilson_interval(count: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = count / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # The endpoints are exactly 0 at count 0 and exactly 1 at count = trials,
    # where center -/+ margin would round off them.
    lo = 0.0 if count == 0 else max(center - margin, 0.0)
    hi = 1.0 if count == trials else min(center + margin, 1.0)
    return lo, hi


def estimate_exponent(result: SimResult, z: float = 1.96) -> tuple:
    """Weighted least-squares slope of -ln(p_hat) against the block length.

    Weights come from the Wilson interval propagated through the logarithm.
    Points with zero counts carry no information and are dropped; fewer than
    three usable points raise InsufficientData.
    """
    xs, ys, sigmas = [], [], []
    for row in result.per_n:
        if row.count == 0:
            continue
        lo, hi = wilson_interval(row.count, row.trials, z)
        if lo <= 0.0:
            continue
        xs.append(row.n)
        ys.append(-math.log(row.count / row.trials))
        sigmas.append(max((math.log(hi) - math.log(lo)) / (2 * z), 1e-12))
    if len(xs) < 3:
        raise InsufficientData(f"only {len(xs)} usable block lengths")
    x = np.array(xs, dtype=float)
    y = np.array(ys)
    w = 1.0 / np.square(sigmas)
    xbar = np.dot(w, x) / w.sum()
    ybar = np.dot(w, y) / w.sum()
    sxx = np.dot(w, (x - xbar) ** 2)
    slope = float(np.dot(w, (x - xbar) * (y - ybar)) / sxx)
    stderr = float(math.sqrt(1.0 / sxx))
    return slope, stderr


def _rng_for(master_seed: int, n: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(n), int(block)))
    return np.random.Generator(np.random.Philox(ss))


def _block_sizes(cfg: SimConfig, per_trial_cells: int) -> int:
    """Trials per block: fixed by the config and the experiment size only."""
    budget = max(1, 4_000_000 // max(per_trial_cells, 1))
    return max(1, min(cfg.block_trials, budget))


def _simulate(cfg: SimConfig, letters: int, worker, event: str, threads: int) -> SimResult:
    """Event counts at every block length, one Wilson row each.

    ``worker(rng, trials, n, words, shift, tol)`` returns the block's event
    count, plus the strict count for the margin decoder.  ``words`` are the
    scored codewords: all M for encoding, the M - 1 competitors for decoding.
    """
    rows = []
    for n in cfg.block_lengths:
        m_words = codebook_size(n, cfg.rate, cfg.experiment, cfg.codebook_cap)
        words = m_words if cfg.experiment == "source-encode" else m_words - 1
        block = _block_sizes(cfg, words * letters)
        shift = n * cfg.distortion_level
        tol = _EVENT_TOL * (1.0 + abs(shift))

        def job(b: int):
            trials = min(block, cfg.trials_per_n - b * block)
            return worker(_rng_for(cfg.master_seed, n, b), trials, n, words, shift, tol)

        blocks = range((cfg.trials_per_n + block - 1) // block)
        if threads <= 1:
            results = [job(b) for b in blocks]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(job, blocks))
        rows.append(_count_row(n, cfg.trials_per_n, *(sum(col) for col in zip(*results))))
    return _with_estimate(SimResult(tuple(rows), event=event))


def simulate_source(cfg: SimConfig, source: Distribution, codebook: Distribution,
                    d: DistortionModel, threads: int = 1) -> SimResult:
    """Count encoding successes: some codeword within total distortion n * level.

    Per trial the source word is drawn through its letter counts and each of
    the M codewords through per-source-letter multinomial reproduction counts,
    which carry exactly the per-codeword distortion law.
    """
    if source.alphabet_size != d.source_size or codebook.alphabet_size != d.reproduction_size:
        raise DimensionMismatch("model shapes are inconsistent")

    def worker(rng, trials, n, words, threshold, tol):
        counts = rng.multinomial(n, source.probs, size=trials)
        dist = np.zeros((trials, words))
        for a in range(source.alphabet_size):
            draws = rng.multinomial(counts[:, a][:, None], codebook.probs,
                                    size=(trials, words))
            dist += draws @ d.values[a]
        return (int((dist.min(axis=1) <= threshold + tol).sum()),)

    return _simulate(cfg, d.reproduction_size, worker, "encoding-success", threads)


def _channel_scores(rng: np.random.Generator, trials: int, n: int, competitors: int,
                    q: Distribution, p: Channel):
    """Transmitted log-likelihood and all competitor log-likelihoods.

    The transmitted pair is drawn through its joint (input, output) counts;
    each competitor through per-output-letter input counts, giving the exact
    law of its log-likelihood given the received word.
    """
    lnp = np.log(p.probs)
    joint = (q.probs[:, None] * p.probs).reshape(-1)
    counts = rng.multinomial(n, joint, size=trials)
    l_sent = counts @ lnp.reshape(-1)
    y_counts = counts.reshape(trials, q.alphabet_size, p.output_size).sum(axis=1)
    l_comp = np.zeros((trials, competitors))
    for y in range(p.output_size):
        draws = rng.multinomial(y_counts[:, y][:, None], q.probs,
                                size=(trials, competitors))
        l_comp += draws @ lnp[:, y]
    return l_sent, l_comp


def simulate_channel_margin(cfg: SimConfig, q: Distribution, p: Channel,
                            threads: int = 1) -> SimResult:
    """Count margin-decoder errors: some competitor within n * level in log-likelihood.

    ``count`` uses the tie-inclusive event (a competitor exactly on the margin
    is an error); ``count_no_tie`` uses the strict variant.  The distinction
    only matters for correct-decoding statistics.
    """
    if q.alphabet_size != p.input_size:
        raise DimensionMismatch("codebook does not match channel input")

    def worker(rng, trials, n, words, shift, tol):
        l_sent, l_comp = _channel_scores(rng, trials, n, words, q, p)
        gap = l_sent - l_comp.max(axis=1)
        return int((gap <= shift + tol).sum()), int((gap < shift - tol).sum())

    return _simulate(cfg, q.alphabet_size, worker, "margin-error", threads)


def simulate_forney(cfg: SimConfig, q: Distribution, p: Channel,
                    threads: int = 1) -> SimResult:
    """Count optimum-tradeoff decoder errors: summed competitor likelihood wins.

    The competitor sum is evaluated in log space; the error event compares the
    transmitted log-likelihood against it with threshold n * level (strict
    inequality).
    """
    if q.alphabet_size != p.input_size:
        raise DimensionMismatch("codebook does not match channel input")

    def worker(rng, trials, n, words, shift, tol):
        l_sent, l_comp = _channel_scores(rng, trials, n, words, q, p)
        gap = l_sent - logsumexp(l_comp, axis=1)
        return (int((gap < shift - tol).sum()),)

    return _simulate(cfg, q.alphabet_size, worker, "forney-error", threads)


def _with_estimate(result: SimResult) -> SimResult:
    try:
        slope, err = estimate_exponent(result)
    except InsufficientData:
        return result
    return SimResult(result.per_n, result.event, slope, err)


# ---------------------------------------------------------------------------
# Exact small-n enumeration used to validate the samplers.
# ---------------------------------------------------------------------------


def _all_sequences(k: int, n: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(k)] * n), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _seq_log_probs(seqs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return np.log(probs)[seqs].sum(axis=1)


def enumerate_source_success(source: Distribution, codebook: Distribution,
                             d: DistortionModel, n: int, m_words: int,
                             level: float) -> float:
    """Exact encoding success probability by full enumeration.

    Codewords are independent, so the success probability given the source
    word is 1 - (1 - p1)^M with p1 the single-codeword hit probability;
    both factors are enumerated exactly.
    """
    xs = _all_sequences(source.alphabet_size, n)
    hats = _all_sequences(codebook.alphabet_size, n)
    px = np.exp(_seq_log_probs(xs, source.probs))
    phat = np.exp(_seq_log_probs(hats, codebook.probs))
    threshold = n * level + _EVENT_TOL * (1.0 + abs(n * level))
    total = 0.0
    for x_seq, weight in zip(xs, px):
        dist = d.values[x_seq][np.arange(n)[None, :], hats].sum(axis=1)
        p1 = float(phat[dist <= threshold].sum())
        total += weight * (1.0 - (1.0 - p1) ** m_words)
    return total


def _channel_enumeration(q: Distribution, p: Channel, n: int):
    """Every input and output word, the input word probabilities and the
    log-likelihood of every input word for every output word."""
    xs = _all_sequences(q.alphabet_size, n)
    ys = _all_sequences(p.output_size, n)
    qx = np.exp(_seq_log_probs(xs, q.probs))
    lnp = np.log(p.probs)
    ll = np.array([[lnp[x_seq, y_seq].sum() for y_seq in ys] for x_seq in xs])
    return xs, ys, qx, ll


def enumerate_channel_margin(q: Distribution, p: Channel, n: int, m_words: int,
                             level: float) -> tuple:
    """Exact (tie-inclusive, strict) margin error probabilities by enumeration."""
    xs, ys, qx, ll = _channel_enumeration(q, p, n)
    shift = n * level
    tol = _EVENT_TOL * (1.0 + abs(shift))
    p_tie = 0.0
    p_strict = 0.0
    n_comp = m_words - 1
    for yi in range(ys.shape[0]):
        col = ll[:, yi]
        order = np.argsort(col, kind="stable")
        sorted_ll = col[order]
        suffix = np.concatenate([np.cumsum(qx[order][::-1])[::-1], [0.0]])
        for xi in range(xs.shape[0]):
            w = qx[xi] * math.exp(col[xi])  # q(x) p(y|x)
            t = col[xi] - shift
            idx_tie = np.searchsorted(sorted_ll, t - tol, side="left")
            idx_strict = np.searchsorted(sorted_ll, t + tol, side="right")
            pi_tie = suffix[idx_tie]
            pi_strict = suffix[idx_strict]
            p_tie += w * (1.0 - (1.0 - pi_tie) ** n_comp)
            p_strict += w * (1.0 - (1.0 - pi_strict) ** n_comp)
    return p_tie, p_strict


def enumerate_forney_error(q: Distribution, p: Channel, n: int, m_words: int,
                           level: float) -> float:
    """Exact tradeoff-decoder error probability for at most two competitors."""
    n_comp = m_words - 1
    if n_comp > 2:
        raise DimensionMismatch("exact enumeration supports at most 2 competitors")
    xs, ys, qx, ll = _channel_enumeration(q, p, n)
    shift = n * level
    tol = _EVENT_TOL * (1.0 + abs(shift))
    total = 0.0
    for yi in range(ys.shape[0]):
        col = ll[:, yi]
        if n_comp == 1:
            sums = col[:, None]
            weights = qx[:, None]
        else:
            sums = np.logaddexp(col[:, None], col[None, :])
            weights = qx[:, None] * qx[None, :]
        flat = sums.reshape(-1)
        wflat = weights.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_sums = flat[order]
        suffix = np.concatenate([np.cumsum(wflat[order][::-1])[::-1], [0.0]])
        for xi in range(xs.shape[0]):
            w = qx[xi] * math.exp(col[xi])
            t = col[xi] - shift
            idx = np.searchsorted(sorted_sums, t + tol, side="right")
            total += w * suffix[idx]
    return total
