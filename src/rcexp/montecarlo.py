"""Monte-Carlo simulation of the random-coding experiments.

The simulator draws the random objects of each experiment (a source word, a
codebook of independent codewords, a channel output) only through their
sufficient statistics.  Distortions and log-likelihoods are sums over
positions of per-letter scores, so given the letter counts (the type) of the
conditioning word (the source word, or the received word), every codeword's
score has one small law, and the codewords' scores are independent draws from
it.  Two samplers use this, and both have the experiment's exact law:

* The codeword sampler draws each codeword's letter counts against each
  conditioning letter (|X| multinomials per codeword) and sums their scores.
  It is the reference, and the path for tables whose score laws are large.
* The histogram sampler builds the per-type score law once (sorted values
  and probabilities; a convolution of per-letter multinomial laws, see
  Csiszar and Koerner, ch. 2) and draws only what the event needs.  Source
  encoding succeeds iff some codeword hits, which given the type has
  probability 1 - p_miss^M, so one uniform U per trial decides it: success
  iff U >= p_miss^M.  The channel experiments draw how many of the M - 1
  competitors land on each score value, one Multinomial(M - 1, law) per
  trial; the margin decoder reads the highest occupied score, the
  summed-likelihood decoder the log-sum-exp of value + log count.  Both
  channel experiments consume the random stream identically, so on one seed
  their counts compare trial by trial.

Selection rule (``_choose_sampler``): the choice depends only on the model,
n and M.  Per trial the codeword sampler draws (scored codewords) x
(conditioning letters) multinomials over the codebook letters, so
M x |X| x |codebook| categories in all.  The histogram sampler runs when an
upper bound S on the law's support over all types is at most ``_LAW_CAP``
and its per-trial draw has no more categories: one uniform for source
encoding, S for the channel experiments.  S counts the multisets of per-class
excess values, so the histogram sampler covers tables whose per-class excess
laws have few values: with one class of two values (Hamming distortion with
a uniform codebook, the fig1 source and channel tables) S = n + 1.  Tables
with many values per class, such as the 5x5 fig3 model, keep the codeword
sampler.

Reproducibility contract: every block of trials draws from a Philox stream
keyed by (master_seed, block length, block index).  Block boundaries are a
deterministic function of the configuration, and the sampler is a function
of the model, n and M, so counts are bit-identical regardless of thread count
or scheduling.

The exact evaluators sum the same per-type laws over all types, in time
polynomial in n.  The k^n enumerators at the end of the module share no code
with them, and are the small-n reference for the evaluators and samplers.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import CodebookTooLarge, DimensionMismatch, InsufficientData
from .probability import Channel, Distribution, DistortionModel, _compositions
from .rates import _lse

EXPERIMENTS = ("source-encode", "channel-margin", "forney")
_EVENT_TOL = 1e-9
# Score values closer than this, relative to the law's largest value, are one
# value: sums equal in exact arithmetic that differ by float rounding.  It is
# far below _EVENT_TOL, so merging moves no score across an event threshold.
_MERGE_TOL = 1e-13
# Largest support bound for which the histogram sampler builds score laws: a
# convolution of two halves of this size takes about 250k cells.
_LAW_CAP = 1024


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


# ---------------------------------------------------------------------------
# Per-type score laws.
# ---------------------------------------------------------------------------


def _merged(values: np.ndarray, probs: np.ndarray) -> tuple:
    """Sorted distinct values with their summed probabilities.

    Values within _MERGE_TOL of their predecessor are one value, kept at the
    smallest of the run.
    """
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    tol = _MERGE_TOL * (1.0 + np.abs(values).max())
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > tol)))
    return values[starts], np.add.reduceat(probs, starts)


def _convolve(a: tuple, b: tuple) -> tuple:
    """The law of the sum of independent draws from laws ``a`` and ``b``."""
    return _merged((a[0][:, None] + b[0][None, :]).reshape(-1),
                   (a[1][:, None] * b[1][None, :]).reshape(-1))


def _same_law(a: tuple, b: tuple) -> bool:
    """Whether two laws agree to the merge tolerance."""
    if a[0].size != b[0].size:
        return False
    tol = _MERGE_TOL * (1.0 + max(a[0][-1], b[0][-1]))
    return bool(np.all(np.abs(a[0] - b[0]) <= tol)
                and np.all(np.abs(a[1] - b[1]) <= _MERGE_TOL * b[1]))


class _ScoreLaws:
    """The law of one codeword's score given the conditioning word's type.

    ``rows[a, b]`` is the score of codeword letter b against conditioning
    letter a: a distortion against a source letter, or a log-likelihood given
    a received letter.  Codeword letters are drawn from ``probs``.  Each row
    splits into its smallest value (the offset) and the law of the excess over
    it; rows whose excess laws agree form one class.  Given the type ``c``,
    the score is ``c @ offsets`` plus a draw from the convolution over classes
    of the per-class count-fold powers, so the law depends only on the class
    counts (the key).  Laws are built on first use and kept for the lifetime
    of the object: one simulation call or one exact evaluation.
    """

    def __init__(self, rows: np.ndarray, probs: np.ndarray):
        keep = probs > 0.0
        rows, probs = np.asarray(rows, dtype=float)[:, keep], probs[keep]
        self.offsets = rows.min(axis=1)
        classes, laws = [], []
        for row, offset in zip(rows, self.offsets):
            law = _merged(row - offset, probs)
            k = next((k for k, other in enumerate(laws) if _same_law(law, other)), len(laws))
            if k == len(laws):
                laws.append(law)
            classes.append(k)
        self._class_of = np.eye(len(laws), dtype=np.int64)[classes]
        self._letter_laws = laws
        self._powers: dict = {}
        self._laws: dict = {}
        self._lock = threading.Lock()

    def support_bound(self, n: int) -> int:
        """An upper bound, over every type of length n, on the law's support size.

        A class with r letter values adds at most C(c + r - 1, r - 1) sums of
        c <= n letters.  The bound only steers the choice of sampler: the laws
        are exact either way.
        """
        return math.prod(math.comb(n + v.size - 1, v.size - 1) for v, _ in self._letter_laws)

    def _power(self, k: int, count: int) -> tuple:
        """The ``count``-fold convolution of class ``k``'s letter law.

        Each power is split the same way on every call, so its bits do not
        depend on which powers the cache already holds.
        """
        law = self._powers.get((k, count))
        if law is None:
            if count == 1:
                law = self._letter_laws[k]
            else:
                law = _convolve(self._power(k, count // 2), self._power(k, count - count // 2))
            self._powers[(k, count)] = law
        return law

    def law(self, key: tuple) -> tuple:
        """(sorted values, probabilities) of the excess score for class counts ``key``."""
        with self._lock:
            law = self._laws.get(key)
            if law is None:
                law = (np.zeros(1), np.ones(1))
                for k, count in enumerate(key):
                    if count:
                        law = _convolve(law, self._power(k, count))
                law = (law[0], law[1] / law[1].sum())
                self._laws[key] = law
            return law

    def lookup(self, counts: np.ndarray) -> tuple:
        """Per row of type ``counts``: its offset, and its index into the laws of
        the distinct keys (the third item)."""
        keys = counts @ self._class_of
        # Rows grouped one column at a time, by 1-D unique, which is an order
        # of magnitude faster than unique over rows; the ids stay below the
        # row count, so they never overflow.
        index = np.zeros(len(keys), dtype=np.int64)
        for column in keys.T:
            _, index = np.unique(index * (int(column.max()) + 1) + column, return_inverse=True)
        distinct = np.empty((int(index.max()) + 1, keys.shape[1]), dtype=np.int64)
        distinct[index] = keys
        laws = [self.law(tuple(int(c) for c in key)) for key in distinct]
        return counts @ self.offsets, index, laws


def _tail_mass(laws: list, index: np.ndarray, limits: np.ndarray, side: str,
               upper: bool = False) -> np.ndarray:
    """Per row, the mass of law ``index[row]`` below ``limits[row]``, or with
    ``upper`` at and above it.  ``side`` is searchsorted's: "right" moves a value
    equal to the limit below it."""
    mass = np.empty(limits.shape)
    for i, (values, probs) in enumerate(laws):
        rows = index == i
        if upper:
            sums = np.concatenate((np.cumsum(probs[::-1])[::-1], [0.0]))
        else:
            sums = np.concatenate(([0.0], np.cumsum(probs)))
        mass[rows] = sums[np.searchsorted(values, limits[rows], side=side)]
    return np.minimum(mass, 1.0)


def _any_of(words: int, p: np.ndarray) -> np.ndarray:
    """1 - (1 - p)^words, accurate for small p."""
    with np.errstate(divide="ignore"):
        return -np.expm1(words * np.log1p(-p))


# ---------------------------------------------------------------------------
# Simulation.
# ---------------------------------------------------------------------------


def _choose_sampler(laws: _ScoreLaws, n: int, cells: int, experiment: str) -> str:
    """The selection rule of the module docstring: "histogram" or "codeword".

    ``cells`` is the codeword sampler's categories per conditioning letter:
    scored codewords times codebook letters.
    """
    support = laws.support_bound(n)
    draw = 1 if experiment == "source-encode" else support
    fits = support <= _LAW_CAP and draw <= cells * laws.offsets.size
    return "histogram" if fits else "codeword"


def _simulate(cfg: SimConfig, letters: int, laws: _ScoreLaws, workers: dict,
              event: str, threads: int) -> SimResult:
    """Event counts at every block length, one Wilson row each.

    ``workers[sampler](rng, trials, n, words, shift, tol)`` returns the
    block's event count, plus the strict count for the margin decoder.
    ``words`` are the scored codewords: all M for encoding, the M - 1
    competitors for decoding.  With more than one thread, one pool serves
    every block length.
    """
    rows = []
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()
    with pool:
        for n in cfg.block_lengths:
            m_words = codebook_size(n, cfg.rate, cfg.experiment, cfg.codebook_cap)
            words = m_words if cfg.experiment == "source-encode" else m_words - 1
            cells = words * letters
            block = _block_sizes(cfg, cells)
            shift = n * cfg.distortion_level
            tol = _EVENT_TOL * (1.0 + abs(shift))
            worker = workers[_choose_sampler(laws, n, cells, cfg.experiment)]

            def job(b: int):
                trials = min(block, cfg.trials_per_n - b * block)
                return worker(_rng_for(cfg.master_seed, n, b), trials, n, words, shift, tol)

            blocks = range((cfg.trials_per_n + block - 1) // block)
            if threads <= 1:
                results = [job(b) for b in blocks]
            else:
                results = list(pool.map(job, blocks))
            rows.append(_count_row(n, cfg.trials_per_n, *(sum(col) for col in zip(*results))))
    return _with_estimate(SimResult(tuple(rows), event=event))


def simulate_source(cfg: SimConfig, source: Distribution, codebook: Distribution,
                    d: DistortionModel, threads: int = 1) -> SimResult:
    """Count encoding successes: some codeword within total distortion n * level.

    Per trial the source word is drawn through its letter counts.  The
    codeword sampler then draws each of the M codewords through
    per-source-letter multinomial reproduction counts; the histogram sampler
    draws one uniform against the probability that all M codewords miss.
    """
    if source.alphabet_size != d.source_size or codebook.alphabet_size != d.reproduction_size:
        raise DimensionMismatch("model shapes are inconsistent")
    laws = _ScoreLaws(d.values, codebook.probs)

    def codeword(rng, trials, n, words, threshold, tol):
        counts = rng.multinomial(n, source.probs, size=trials)
        dist = np.zeros((trials, words))
        for a in range(source.alphabet_size):
            draws = rng.multinomial(counts[:, a][:, None], codebook.probs,
                                    size=(trials, words))
            dist += draws @ d.values[a]
        return (int((dist.min(axis=1) <= threshold + tol).sum()),)

    def histogram(rng, trials, n, words, threshold, tol):
        counts = rng.multinomial(n, source.probs, size=trials)
        offsets, index, type_laws = laws.lookup(counts)
        p_hit = _tail_mass(type_laws, index, threshold + tol - offsets, "right")
        all_miss = 1.0 - _any_of(words, p_hit)
        return (int((rng.random(trials) >= all_miss).sum()),)

    return _simulate(cfg, d.reproduction_size, laws,
                     {"codeword": codeword, "histogram": histogram},
                     "encoding-success", threads)


def _transmitted(rng: np.random.Generator, trials: int, n: int, q: Distribution,
                 p: Channel) -> tuple:
    """The transmitted log-likelihood and the received word's letter counts.

    The transmitted pair is drawn through its joint (input, output) counts.
    """
    counts = rng.multinomial(n, (q.probs[:, None] * p.probs).reshape(-1), size=trials)
    l_sent = counts @ np.log(p.probs).reshape(-1)
    return l_sent, counts.reshape(trials, q.alphabet_size, p.output_size).sum(axis=1)


def _channel_scores(rng: np.random.Generator, trials: int, n: int, competitors: int,
                    q: Distribution, p: Channel):
    """Transmitted log-likelihood and all competitor log-likelihoods.

    Each competitor is drawn through per-output-letter input counts, giving
    the exact law of its log-likelihood given the received word.
    """
    l_sent, y_counts = _transmitted(rng, trials, n, q, p)
    lnp = np.log(p.probs)
    l_comp = np.zeros((trials, competitors))
    for y in range(p.output_size):
        draws = rng.multinomial(y_counts[:, y][:, None], q.probs,
                                size=(trials, competitors))
        l_comp += draws @ lnp[:, y]
    return l_sent, l_comp


def _channel_histograms(rng: np.random.Generator, trials: int, n: int, competitors: int,
                        q: Distribution, p: Channel, laws: _ScoreLaws):
    """Transmitted log-likelihood, and the competitors as counts per score value.

    Returns ``l_sent``, ``scores`` and ``counts``: row t of ``counts`` is
    one Multinomial(competitors, law) draw over the score values in row t of
    ``scores``.  Rows are left-padded with score -inf and probability 0, so
    the last category of each draw, which takes the rounding remainder, is a
    real one.
    """
    l_sent, y_counts = _transmitted(rng, trials, n, q, p)
    offsets, index, type_laws = laws.lookup(y_counts)
    width = max(values.size for values, _ in type_laws)
    values = np.full((len(type_laws), width), -np.inf)
    probs = np.zeros((len(type_laws), width))
    for i, (v, pr) in enumerate(type_laws):
        values[i, width - v.size:] = v
        probs[i, width - pr.size:] = pr
    counts = rng.multinomial(competitors, probs[index])
    return l_sent, offsets[:, None] + values[index], counts


def _channel_laws(q: Distribution, p: Channel) -> _ScoreLaws:
    """A competitor's log-likelihood law given the received word's type."""
    if q.alphabet_size != p.input_size:
        raise DimensionMismatch("codebook does not match channel input")
    return _ScoreLaws(np.log(p.probs).T, q.probs)


def _margin_counts(gap: np.ndarray, shift: float, tol: float) -> tuple:
    return int((gap <= shift + tol).sum()), int((gap < shift - tol).sum())


def simulate_channel_margin(cfg: SimConfig, q: Distribution, p: Channel,
                            threads: int = 1) -> SimResult:
    """Count margin-decoder errors: some competitor within n * level in log-likelihood.

    ``count`` uses the tie-inclusive event (a competitor exactly on the margin
    is an error); ``count_no_tie`` uses the strict variant.  The distinction
    only matters for correct-decoding statistics.
    """
    laws = _channel_laws(q, p)

    def codeword(rng, trials, n, words, shift, tol):
        l_sent, l_comp = _channel_scores(rng, trials, n, words, q, p)
        return _margin_counts(l_sent - l_comp.max(axis=1), shift, tol)

    def histogram(rng, trials, n, words, shift, tol):
        l_sent, scores, counts = _channel_histograms(rng, trials, n, words, q, p, laws)
        top = np.where(counts > 0, scores, -np.inf).max(axis=1)
        return _margin_counts(l_sent - top, shift, tol)

    return _simulate(cfg, q.alphabet_size, laws, {"codeword": codeword, "histogram": histogram},
                     "margin-error", threads)


def simulate_forney(cfg: SimConfig, q: Distribution, p: Channel,
                    threads: int = 1) -> SimResult:
    """Count optimum-tradeoff decoder errors: summed competitor likelihood wins.

    The competitor sum is evaluated in log space; the error event compares the
    transmitted log-likelihood against it with threshold n * level (strict
    inequality).
    """
    laws = _channel_laws(q, p)

    def codeword(rng, trials, n, words, shift, tol):
        l_sent, l_comp = _channel_scores(rng, trials, n, words, q, p)
        return (int((l_sent - _lse(l_comp) < shift - tol).sum()),)

    def histogram(rng, trials, n, words, shift, tol):
        l_sent, scores, counts = _channel_histograms(rng, trials, n, words, q, p, laws)
        with np.errstate(divide="ignore"):
            summed = _lse(scores + np.log(counts))
        return (int((l_sent - summed < shift - tol).sum()),)

    return _simulate(cfg, q.alphabet_size, laws, {"codeword": codeword, "histogram": histogram},
                     "forney-error", threads)


def _with_estimate(result: SimResult) -> SimResult:
    try:
        slope, err = estimate_exponent(result)
    except InsufficientData:
        return result
    return SimResult(result.per_n, result.event, slope, err)


# ---------------------------------------------------------------------------
# Exact evaluation over types, on the samplers' per-type laws.
# ---------------------------------------------------------------------------


def _types(n: int, probs: np.ndarray) -> tuple:
    """Every type of length n over ``probs``'s alphabet, as letter-count rows,
    and the probability of drawing a word of each."""
    types = _compositions(probs.size, n)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        letters = np.where(types > 0, types * np.log(probs), 0.0)
    return types, np.exp(log_fact[n] - log_fact[types].sum(axis=1) + letters.sum(axis=1))


def exact_source_success(source: Distribution, codebook: Distribution, d: DistortionModel,
                         n: int, m_words: int, level: float) -> float:
    """Exact encoding success probability, summed over source types.

    Given the source type, each codeword hits (total distortion at most
    n * level, to the event tolerance) with the probability p1 its score law
    gives, so the success probability is the type average of 1 - (1 - p1)^M.
    """
    if source.alphabet_size != d.source_size or codebook.alphabet_size != d.reproduction_size:
        raise DimensionMismatch("model shapes are inconsistent")
    types, weights = _types(n, source.probs)
    offsets, index, laws = _ScoreLaws(d.values, codebook.probs).lookup(types)
    threshold = n * level + _EVENT_TOL * (1.0 + abs(n * level))
    p_hit = _tail_mass(laws, index, threshold - offsets, "right")
    return float(np.dot(weights, _any_of(m_words, p_hit)))


def exact_channel_margin(q: Distribution, p: Channel, n: int, m_words: int,
                         level: float) -> tuple:
    """Exact (tie-inclusive, strict) margin error probabilities, summed over
    joint types of the transmitted pair.

    Given the joint type, the transmitted log-likelihood is fixed and each of
    the M - 1 competitors reaches it, less n * level, with the probability
    its score law gives for the received word's type.
    """
    laws = _channel_laws(q, p)
    lnp = np.log(p.probs)
    types, weights = _types(n, (q.probs[:, None] * p.probs).reshape(-1))
    l_sent = types @ lnp.reshape(-1)
    offsets, index, type_laws = laws.lookup(
        types.reshape(-1, q.alphabet_size, p.output_size).sum(axis=1))
    shift = n * level
    tol = _EVENT_TOL * (1.0 + abs(shift))
    errors = []
    for limit, side in ((l_sent - shift - tol, "left"), (l_sent - shift + tol, "right")):
        beaten = _tail_mass(type_laws, index, limit - offsets, side, upper=True)
        errors.append(float(np.dot(weights, _any_of(m_words - 1, beaten))))
    return tuple(errors)


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
