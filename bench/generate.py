"""Seeded input generator: model JSON files and CLI argv lists per workload.

``generate(workload, seed, workdir)`` writes every model the workload reads
into ``workdir`` and returns the plan: the warm-up calls, the rounds of timed
calls, and why the workload exists.  The same seed gives byte-identical files
and the same plan.  The program only ever sees these generated files.

Each call is a dict with the ``argv`` for ``rcexp.cli.main``, the number of
``items`` it completes, and the ``check`` its output must pass (see
``checks.py``).  Rounds draw fresh rates, levels and simulation seeds from the
seed, so no two timed calls repeat while the models stay fixed.
"""

from __future__ import annotations

import json
import math
import os
from math import comb

import numpy as np

WORKLOADS = ("sweep", "search", "audit", "simulate")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "sweep": "closed-form stack (exponents, optimize, rates) over few models and "
             "many points, all eight kinds; per-model preparation can be amortized",
    "search": "codebook maximization: every objective evaluation runs on a fresh "
              "codebook law, so per-model preparation is paid on each call",
    "audit": "brute-force oracles: rates.rate_values_batch over rational simplex "
             "grids does almost all the work; the closed forms run once per query",
    "simulate": "Monte-Carlo experiments: multinomial draws, the two-thread pool and "
                "the 4M-cell block buffers; montecarlo does all the work",
}

# Rounds written per plan; a run that exhausts them starts again at round 0.
ROUNDS = 64

_UNIT = math.log(0.78 / 0.22)
# The shipped figure models (figures/fig*.json), restated so the benchmark's
# inputs do not change when the repository's fixtures do.
FIG1 = {
    "p": 0.22,
    "source": [0.39, 0.11, 0.11, 0.39],
    "codebook": [0.5, 0.5],
    "distortion_units": [[0, 1], [0, -1], [-1, 0], [1, 0]],
    "channel": [[0.78, 0.22], [0.22, 0.78]],
    "d_scale_values": [0.11, 0.0, -0.22, -0.374],
}
FIG2 = dict(FIG1, d_scale_values=[0.0, 0.05, 0.1, 0.15])
FIG3 = {
    "normalize": True,
    "source": [0.2923, 0.0142, 0.2673, 0.3210, 0.1051],
    "codebook": [0.2573, 0.0908, 0.2437, 0.0294, 0.3787],
    "distortion": [
        [-0.0799, 0.1580, 0.0425, 0.0673, -0.3449],
        [0.0815, 0.2024, -0.1511, 0.1030, 0.4020],
        [0.0147, -0.0079, 0.7994, 0.6861, 0.1450],
        [0.8545, 0.9160, 0.9066, 0.5624, -0.0015],
        [-0.2179, -0.4107, -0.0435, -0.2367, -0.2594],
    ],
}
# Criterion 9's binary source-coding model.
MC9 = {"source": [0.85, 0.15], "codebook": [0.5, 0.5],
       "distortion": [[0.0, 1.0], [1.0, 0.0]]}


def _rcexp():
    """The library pieces the generator uses to place rates in their regions."""
    from rcexp import probability, rates

    return probability, rates


def _simplex(rng, k, floor=0.05) -> list:
    raw = rng.random(k) + floor
    return [float(v) for v in raw / raw.sum()]


def _channel(rng, k, ny, floor=0.05, diagonal=0.0) -> list:
    raw = rng.random((k, ny)) + floor
    if diagonal:
        raw[np.arange(k), np.arange(k) % ny] += diagonal
    return [[float(v) for v in row] for row in raw / raw.sum(axis=1, keepdims=True)]


def _joint_dual(q: list, p: list) -> dict:
    """Source-side reading of a channel model (criterion 8's substitution)."""
    probability, rates = _rcexp()
    ch = probability.Channel(p)
    joint = (np.asarray(q)[:, None] * ch.probs).reshape(-1)
    d = rates.channel_distortion(ch).values
    return {"source": [float(v) for v in joint / joint.sum()], "codebook": q,
            "distortion": [[float(v) for v in row] for row in d]}


def _write(workdir: str, name: str, model: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def _num(x: float) -> str:
    return repr(float(x))


def _compute(path, kind, rate, level, check, group=None, role=None) -> dict:
    call = {"argv": ["compute", path, "--kind", kind, "--R", _num(rate), "--D", _num(level)],
            "items": 1, "check": dict(check)}
    if group is not None:
        call["group"], call["role"] = group, role
    return call


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class _SeedChannel:
    """A seed-drawn 3x3 channel, its joint source, and its rate anchors."""

    def __init__(self, rng, workdir, index):
        probability, rates = _rcexp()
        q3, p3 = _simplex(rng, 3), _channel(rng, 3, 3)
        self.path = _write(workdir, f"seed3_{index}", {"codebook": q3, "channel": p3})
        self.dual = _write(workdir, f"dual_{index}", _joint_dual(q3, p3))
        self.q, ch = probability.Distribution(q3), probability.Channel(p3)
        self.capacity = probability.mutual_information(self.q, ch)
        self.joint = probability.joint_from_input_and_channel(self.q, ch).flattened()
        self.llr = rates.channel_distortion(ch)
        self.fb_level = float(rng.uniform(-0.3, -0.1))
        self.fb_rate = rates.finiteness_boundary(self.q, ch, self.fb_level)

    def zero_rate(self, level):
        """Rate past which the level-D error exponent is zero (its joint law's rate)."""
        value = _rcexp()[1].rate_function(self.joint, self.q, self.llr, level).value
        return value if math.isfinite(value) else 0.5

    def rate_ceiling(self, level):
        return _rcexp()[1].max_rate_over_sources(self.q, self.llr, level)


# Seed-drawn models per plan; round r uses model r mod MODELS, so one run
# averages over as many draws as it runs rounds, up to MODELS.
MODELS = 8
# The search workload visits several models of a family in each round, so it
# draws more of them.
SEARCH_MODELS = 16


def _sweep(rng, workdir):
    probability, rates = _rcexp()
    paths = {
        "fig1": _write(workdir, "fig1", FIG1),
        "fig2": _write(workdir, "fig2", FIG2),
        "fig3": _write(workdir, "fig3", FIG3),
    }
    seeded = [_SeedChannel(rng, workdir, i) for i in range(MODELS)]
    f1 = probability.Distribution(FIG1["source"])
    fq = probability.Distribution(FIG1["codebook"])
    fd = probability.DistortionModel(np.asarray(FIG1["distortion_units"], float) * _UNIT)
    bsc = probability.Channel(FIG1["channel"])
    cap_fig = probability.mutual_information(fq, bsc)
    fig1_levels = [s * _UNIT for s in FIG1["d_scale_values"] if s >= 0.0]
    fig2_levels = [s * _UNIT for s in FIG2["d_scale_values"]]
    src_rate = {lv: rates.rate_function(f1, fq, fd, lv).value for lv in fig1_levels + fig2_levels}
    src_rmax = {lv: rates.max_rate_over_sources(fq, fd, lv) for lv in fig1_levels + fig2_levels}
    cee_level = 0.1
    cee_rmax = rates.max_rate_over_sources(fq, rates.channel_distortion(bsc), cee_level)
    f3 = probability.Distribution(np.asarray(FIG3["source"]) / sum(FIG3["source"]))
    f3q = probability.Distribution(np.asarray(FIG3["codebook"]) / sum(FIG3["codebook"]))
    f3_rate = rates.rate_function(f3, f3q, probability.DistortionModel(FIG3["distortion"]),
                                  0.0).value

    finite = {"type": "finite_nonneg"}
    capped = {"type": "finite_nonneg", "flag": "rho_at_cap"}

    def round_calls(r, rr):
        u = rr.uniform
        sc = seeded[r % MODELS]
        calls = []
        # Criterion-6 chains, one per level sign, plus Gallager's collapsed form.
        neg, pos = u(-0.3, -0.05), u(0.02, 0.15)
        for tag, path, rate, level in (
            ("zero", paths["fig1"], u(0.01, 0.12), 0.0),
            ("neg", sc.path, u(0.2, 0.8) * sc.zero_rate(neg), neg),
            ("pos", sc.path, u(0.2, 0.8) * sc.zero_rate(pos), pos),
        ):
            g = f"chain-{r}-{tag}"
            for kind, role in (("error-extended", "ee"), ("forney-tradeoff", "fy"),
                               ("e-bound", "eb")):
                calls.append(_compute(path, kind, rate, level, finite, g, role))
            if tag == "zero":
                calls.append(_compute(path, "gallager-error", rate, 0.0, finite, g, "ga"))
            if tag == "pos":
                # Criterion-8 duality: success on the joint source equals the
                # margin error exponent of the channel it came from.
                calls.append(_compute(sc.dual, "success", rate, level, finite, g, "dual"))
        # Envelope duality, between the true rate and the rate ceiling.
        g = f"envelope-{r}"
        level = u(0.0, 0.15)
        lo, hi = sc.zero_rate(level), sc.rate_ceiling(level)
        rate = lo + u(0.2, 0.8) * (hi - lo)
        calls.append(_compute(sc.dual, "failure-envelope", rate, level, finite, g, "fe"))
        calls.append(_compute(sc.path, "correct-extended-envelope", rate, level,
                              finite, g, "cee"))
        # Source kinds on the figure models: interior, zero region, past r_max.
        lv = fig1_levels[int(rr.integers(len(fig1_levels)))]
        calls.append(_compute(paths["fig1"], "success", u(0.2, 0.8) * src_rate[lv], lv, finite))
        calls.append(_compute(paths["fig1"], "success", u(1.1, 1.6) * src_rate[lv], lv, finite))
        lo, hi = src_rate[lv], src_rmax[lv]
        calls.append(_compute(paths["fig1"], "failure-envelope", lo + u(0.2, 0.8) * (hi - lo),
                              lv, finite))
        calls.append(_compute(paths["fig1"], "failure-envelope", u(1.05, 1.3) * hi, lv, capped))
        lv2 = fig2_levels[r % len(fig2_levels)]
        lo, hi = src_rate[lv2], src_rmax[lv2]
        calls.append(_compute(paths["fig2"], "failure-envelope", lo + u(0.1, 0.9) * (hi - lo),
                              lv2, finite))
        calls.append(_compute(paths["fig3"], "success", u(0.2, 0.8) * f3_rate, 0.0, finite))
        calls.append(_compute(paths["fig3"], "failure-envelope", u(0.5, 2.0) * f3_rate, 0.0,
                              finite))
        # Cheap one-parameter forms on both sides of their zero crossings.
        calls.append(_compute(paths["fig1"], "correct", u(1.2, 2.5) * cap_fig, 0.0, finite))
        calls.append(_compute(paths["fig1"], "correct", u(0.2, 0.9) * cap_fig, 0.0, finite))
        calls.append(_compute(paths["fig1"], "gallager-error", u(1.05, 1.5) * cap_fig, 0.0,
                              finite))
        calls.append(_compute(sc.path, "correct", u(1.2, 2.5) * sc.capacity, 0.0, finite))
        calls.append(_compute(sc.path, "gallager-error", u(0.1, 0.9) * sc.capacity, 0.0, finite))
        calls.append(_compute(sc.path, "gallager-error", u(1.05, 1.5) * sc.capacity, 0.0,
                              finite))
        # The finiteness boundary of the tradeoff exponent, and the envelope
        # slope cap past r_max.
        calls.append(_compute(sc.path, "forney-tradeoff", sc.fb_rate, sc.fb_level, finite))
        calls.append(_compute(paths["fig1"], "correct-extended-envelope",
                              u(1.05, 1.3) * cee_rmax, cee_level, capped))
        return calls

    warmup = [
        _compute(paths["fig1"], kind, 0.05, level, finite)
        for kind, level in (("success", 0.0), ("failure-envelope", 0.0),
                            ("gallager-error", 0.0), ("error-extended", 0.0),
                            ("correct", 0.0), ("correct-extended-envelope", 0.1),
                            ("forney-tradeoff", -0.1), ("e-bound", -0.1))
    ]
    return warmup, round_calls


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search(rng, workdir):
    probability, _ = _rcexp()
    paths, caps = {}, {}
    for i in range(SEARCH_MODELS):
        for name, k in (("a2", 2), ("b2", 2), ("c3", 3)):
            p = _channel(rng, k, k, diagonal=1.5)
            key = f"{name}_{i}"
            paths[key] = _write(workdir, key, {"channel": p})
            uniform = probability.Distribution(np.full(k, 1.0 / k))
            caps[key] = probability.mutual_information(uniform, probability.Channel(p))

    def maxq(key, kind, rate, level, grid, refine):
        # Grids are multiples of the alphabet size, so the uniform law is a
        # grid point and the search can never end below it.
        return {"argv": ["maximize-q", paths[key], "--kind", kind, "--R", _num(rate),
                         "--D", _num(level), "--grid", str(grid), "--refine", str(refine)],
                "items": 1,
                "check": {"type": "not_below_uniform", "kind": kind, "rate": rate,
                          "level": level, "model": paths[key]}}

    def capacity(key):
        return {"argv": ["capacity", paths[key]], "items": 1,
                "check": {"type": "capacity_mi", "model": paths[key]}}

    def round_calls(r, rr):
        u = rr.uniform
        # The cost of a search depends on its channel by up to a third, so
        # each call of a round takes the next model of its family: a run of
        # three rounds already visits most of the seed's models, and its
        # figures do not hang on the few that it happens to draw.
        used = {"a2": 0, "b2": 0, "c3": 0}

        def model(name, per_round):
            key = f"{name}_{(per_round * r + used[name]) % SEARCH_MODELS}"
            used[name] += 1
            return key

        calls = []
        # Refinement sweeps run until no move improves, so their count depends
        # on the channel; most calls scan the grid only, which fixes the number
        # of evaluations.  The grids are small so that a run holds enough
        # calls for a steady median.
        for kind, grid in (("error-extended", 4), ("e-bound", 4), ("forney-tradeoff", 2)):
            a2 = model("a2", 4)
            calls.append(maxq(a2, kind, u(0.15, 0.5) * caps[a2], u(0.0, 0.1), grid, 0))
        for kind in ("error-extended", "e-bound"):
            b2 = model("b2", 4)
            calls.append(maxq(b2, kind, u(0.15, 0.5) * caps[b2], u(0.0, 0.1), 4, 0))
        b2 = model("b2", 4)
        calls.append(maxq(b2, "error-extended", u(0.15, 0.5) * caps[b2], u(-0.05, 0.1), 4, 1))
        # List decoding below -D: the search short-circuits to a point mass.
        level = u(-0.4, -0.2)
        calls.append(maxq(model("b2", 4), "error-extended", u(0.2, 0.8) * -level, level, 4, 2))
        # One 3-input search a round, its kind alternating: at grid 3 it
        # scans 10 laws, the most of any call.
        c3 = model("c3", 2)
        calls.append(maxq(c3, ("error-extended", "e-bound")[r % 2],
                          u(0.15, 0.5) * caps[c3], u(0.0, 0.1), 3, 0))
        calls.append(capacity(model("a2", 4)))
        calls.append(capacity(model("c3", 2)))
        return calls

    warmup = [
        maxq("a2_0", "error-extended", 0.2 * caps["a2_0"], 0.0, 2, 0),
        maxq("a2_0", "e-bound", 0.2 * caps["a2_0"], 0.0, 2, 0),
        maxq("a2_0", "forney-tradeoff", 0.2 * caps["a2_0"], 0.0, 2, 0),
        capacity("a2_0"),
    ]
    return warmup, round_calls


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _audit(rng, workdir):
    probability, rates = _rcexp()
    paths = {"fig1": _write(workdir, "fig1", FIG1)}
    src_models = []
    for i in range(MODELS):
        # Criterion-2 style: random law, codebook and distortion table.
        while True:
            model = {"source": _simplex(rng, 3), "codebook": _simplex(rng, 2),
                     "distortion": [[float(v) for v in row]
                                    for row in rng.uniform(-1.0, 1.0, (3, 2))]}
            d = probability.DistortionModel(model["distortion"])
            floor = float(d.values.min(axis=1).max())
            level = float(rng.uniform(floor, d.d_max))
            src = probability.Distribution(model["source"])
            cb = probability.Distribution(model["codebook"])
            base = rates.rate_function(src, cb, d, level).value
            rmax = rates.max_rate_over_sources(cb, d, level)
            if math.isfinite(rmax) and rmax - base >= 0.05:
                break
        src_models.append((_write(workdir, f"src{i}", model), level, base, rmax))
        paths[f"ch{i}"] = _write(workdir, f"ch{i}", {"codebook": _simplex(rng, 2),
                                                      "channel": _channel(rng, 2, 2)})
    fig_levels = [s * _UNIT for s in FIG1["d_scale_values"] if s >= 0.0]
    fig_rates = {lv: rates.rate_function(probability.Distribution(FIG1["source"]),
                                         probability.Distribution(FIG1["codebook"]),
                                         probability.DistortionModel(
                                             np.asarray(FIG1["distortion_units"]) * _UNIT),
                                         lv).value for lv in fig_levels}

    def audit(path, kind, rate, level, grid, cells):
        return {"argv": ["oracle-audit", path, "--kind", kind, "--R", _num(rate),
                         "--D", _num(level), "--grid", str(grid)],
                "items": comb(grid + cells - 1, cells - 1),
                "check": {"type": "one_sided" if kind == "failure-envelope"
                          else "within_tolerance"}}

    def round_calls(r, rr):
        # Every round has the same kinds at the same grid denominators (16 to
        # 32); only the models, rates and levels change.  The costs fall in
        # clusters, and the percentiles must not sit on an edge between two
        # whatever the number of rounds: the four fig1 audits at grid 24 are
        # the costliest, so from 3 rounds on the tail falls among them, and
        # the four grid-16 audits cost about the same, so the median falls
        # among them.
        u = rr.uniform
        calls = []
        lv = fig_levels[r % len(fig_levels)]
        calls.append(audit(paths["fig1"], "success", u(0.2, 0.9) * fig_rates[lv], lv, 24, 4))
        calls.append(audit(paths["fig1"], "failure-envelope", u(1.1, 2.0) * fig_rates[lv], lv,
                           24, 4))
        calls.append(audit(paths["fig1"], "error-extended", u(0.005, 0.15), u(0.0, 0.3), 24, 4))
        calls.append(audit(paths["fig1"], "gallager-error", u(0.005, 0.15), u(0.0, 0.3), 24, 4))
        calls.append(audit(paths["fig1"], "correct", u(0.2, 0.5), 0.0, 16, 4))
        for kind, grid in (("success", 32), ("failure-envelope", 24)):
            path, level, base, rmax = src_models[(2 * r + len(calls)) % MODELS]
            calls.append(audit(path, kind, base + u(0.15, 0.7) * (rmax - base), level, grid, 3))
        for kind in ("error-extended", "gallager-error", "correct"):
            path = paths[f"ch{(r + len(calls)) % MODELS}"]
            level = 0.0 if kind == "correct" else u(0.0, 0.3)
            calls.append(audit(path, kind, u(0.005, 0.4), level, 16, 4))
        return calls

    warmup = [audit(paths["fig1"], kind, 0.1, 0.0, 4, 4)
              for kind in ("success", "failure-envelope", "error-extended",
                           "gallager-error", "correct")]
    return warmup, round_calls


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate(rng, workdir, threads):
    from rcexp import montecarlo

    paths = {"mc9": _write(workdir, "mc9", MC9), "fig1": _write(workdir, "fig1", FIG1)}

    def sim(name, experiment, lengths, rate, level, trials, seed, exact=None, threads=threads):
        items = sum(trials * montecarlo.codebook_size(n, rate, experiment) for n in lengths)
        check = {"type": "sim_rows", "experiment": experiment, "model": paths[name],
                 "rate": rate, "level": level}
        if exact:
            check["exact_n"] = exact
        return {"argv": ["simulate", paths[name], "--experiment", experiment,
                         "--n", ",".join(str(n) for n in lengths), "--rate", _num(rate),
                         "--D", _num(level), "--trials", str(trials), "--seed", str(seed),
                         "--threads", str(threads)],
                "items": items, "check": check}

    def round_calls(r, rr):
        seeds = [int(v) for v in rr.integers(0, 2 ** 31, size=9)]
        return [
            # Criterion 9's model; n = 5 with M = 3 is checked by enumeration.
            sim("mc9", "source-encode", (5,), math.log(3) / 5, 0.3, 20000, seeds[0], exact=5),
            # Two equal blocks per length: the probe of the two-thread speed-up.
            dict(sim("mc9", "source-encode", (40, 80, 120), 0.03, 0.3, 8192, seeds[1]),
                 speedup_probe=True),
            sim("fig1", "source-encode", (8, 16, 24), 0.1, 0.0, 3000, seeds[2]),
            sim("fig1", "channel-margin", (4,), math.log(2) / 4, 0.0, 20000, seeds[3], exact=4),
            sim("fig1", "channel-margin", (20, 40, 60), 0.05, 0.0, 6000, seeds[4]),
            sim("fig1", "forney", (20, 40, 60), 0.05, -0.05, 6000, seeds[5]),
            sim("fig1", "forney", (4,), math.log(2) / 4, 0.0, 20000, seeds[6], exact=4),
            # M = 404 codewords: one full 4M-cell block each, a quarter of the
            # calls, so the tail percentile always falls among them.  They run
            # on the calling thread: a block on a pool thread lands in one of
            # several allocator arenas, and which ones keep their pages would
            # make the peak resident size vary from run to run.
            sim("fig1", "channel-margin", (40,), 0.15, 0.0, 4096, seeds[7], threads=1),
            sim("fig1", "forney", (40,), 0.15, 0.0, 4096, seeds[8], threads=1),
        ]

    warmup = [
        sim("mc9", "source-encode", (5,), math.log(3) / 5, 0.3, 100, 1),
        sim("fig1", "channel-margin", (4,), math.log(2) / 4, 0.0, 100, 1),
        sim("fig1", "forney", (4,), math.log(2) / 4, 0.0, 100, 1),
    ]
    return warmup, round_calls


def generate(workload: str, seed: int, workdir: str, threads: int = 1,
             rounds: int = ROUNDS) -> dict:
    """Write the workload's models into ``workdir`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    if workload == "sweep":
        warmup, round_calls = _sweep(rng, workdir)
    elif workload == "search":
        warmup, round_calls = _search(rng, workdir)
    elif workload == "audit":
        warmup, round_calls = _audit(rng, workdir)
    else:
        warmup, round_calls = _simulate(rng, workdir, threads)
    plan = {
        "workload": workload, "seed": seed, "why": WHY[workload],
        "warmup": warmup,
        "rounds": [round_calls(r, np.random.default_rng([seed, index, r]))
                   for r in range(rounds)],
    }
    plan["models"] = sorted({c["argv"][1] for calls in [warmup] + plan["rounds"]
                             for c in calls})
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)
        handle.write("\n")
    return plan
