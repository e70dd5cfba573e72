"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each criterion pins its tolerance here; nothing is deferred to calibration.
The Monte-Carlo criteria (9 and 10) share one set of CSV runs through a
session fixture so the determinism check reuses the heavy simulation.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_channel, random_distribution, random_distortion
from rcexp.probability import (
    Distribution,
    DistortionModel,
    joint_from_input_and_channel,
    mutual_information,
)
from rcexp.rates import (
    channel_distortion,
    finiteness_boundary,
    max_rate_over_sources,
    min_rate_boundary,
    rate_function,
)
from rcexp.exponents import (
    correct_envelope,
    correct_exponent,
    failure_envelope,
    failure_tangency_law,
    forney_bound_exponent,
    forney_exponent,
    margin_error_exponent,
    refine_inner_minima,
    success_exponent,
)
from rcexp.optimize import maximize_over_simplex
from rcexp.oracle import (
    GridSpec,
    channel_exponent_brute,
    failure_exponent_brute,
    grid_tolerance,
    model_min_prob,
    rate_function_brute,
    success_exponent_brute,
)
from rcexp.montecarlo import (
    SimConfig,
    codebook_size,
    enumerate_source_success,
    exact_source_success,
    simulate_source,
)

def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {num}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_rate_equals_mutual_information():
    rng = np.random.default_rng(101)
    worst_value = 0.0
    worst_s = 0.0
    for _ in range(25):
        nx, ny = rng.integers(2, 6, size=2)
        p = random_channel(rng, int(nx), int(ny))
        q = random_distribution(rng, int(nx))
        joint = joint_from_input_and_channel(q, p)
        res = rate_function(joint, q, channel_distortion(p), 0.0)
        worst_value = max(worst_value, abs(res.value - mutual_information(q, p)))
        worst_s = max(worst_s, abs(res.optimizer_s - 1.0))
    ok = worst_value <= 1e-9 and worst_s <= 1e-4
    _report(1, ok, f"25 channels: max |rate - MI| = {worst_value:.2e} (tol 1e-9), "
                   f"max |s* - 1| = {worst_s:.2e} (tol 1e-4)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    infinite_pairs = 0
    for _ in range(20):
        t = random_distribution(rng, 3)
        q = random_distribution(rng, 3)
        d = random_distortion(rng, 3, 3)
        level = float(rng.uniform(d.d_min, d.d_max))
        exact = rate_function(t, q, d, level).value
        brute = rate_function_brute(t, q, d, level, GridSpec(60))
        if math.isinf(exact) or math.isinf(brute):
            assert math.isinf(exact) and math.isinf(brute)
            infinite_pairs += 1
            continue
        tol60 = grid_tolerance(60, model_min_prob(t, q), d.d_max - d.d_min)
        worst = max(worst, abs(brute - exact) / tol60)

    worst2 = 0.0
    checked = 0
    while checked < 10:
        P = random_distribution(rng, 2)
        Q = random_distribution(rng, 2)
        d = random_distortion(rng, 2, 2)
        floor = float(d.values.min(axis=1).max())
        level = float(rng.uniform(floor, d.d_max))
        base_rate = rate_function(P, Q, d, level).value
        rmax = max_rate_over_sources(Q, d, level)
        if not math.isfinite(rmax) or rmax - base_rate < 0.05:
            continue  # degenerate corner: the grid budget does not apply
        checked += 1
        grid = GridSpec(40)
        tol40 = grid_tolerance(40, model_min_prob(P, Q), d.d_max - d.d_min)
        rate = float(base_rate + rng.uniform(0.15, 0.7) * (rmax - base_rate))

        es = success_exponent(P, Q, d, level, rate).value
        worst2 = max(worst2, abs(success_exponent_brute(P, Q, d, level, rate, grid) - es) / tol40)
        # The failure formula is a lower convex envelope, exact at tangency
        # rates (where its supporting line touches the true exponent); compare
        # there, and require one-sided domination everywhere else.
        ef_any = failure_envelope(P, Q, d, level, rate, rho_cap=1e6).value
        assert failure_exponent_brute(P, Q, d, level, rate, grid) >= ef_any - tol40
        s_grid = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 ** 16, 800)])
        rho_probe = 1.0
        minima = refine_inner_minima(P, Q, d, level, rho_probe, s_grid)
        s_star = min(minima, key=lambda sv: sv[1])[0] if minima else 0.0
        t_tan = failure_tangency_law(P, Q, d, level, rho_probe, s_star)
        r_tan = rate_function(t_tan, Q, d, level).value
        if math.isfinite(r_tan) and r_tan > 1e-6:
            ef = failure_envelope(P, Q, d, level, r_tan, rho_cap=1e6).value
            efb = failure_exponent_brute(P, Q, d, level, r_tan, grid)
            worst2 = max(worst2, abs(efb - ef) / tol40)

        p = random_channel(rng, 2, 2)
        qc = random_distribution(rng, 2)
        rch = float(rng.uniform(0.005, 0.4))
        dch = float(rng.uniform(0.0, 0.3))
        tolc = grid_tolerance(40, model_min_prob(qc, p), 2 * float(np.abs(np.log(p.probs)).max()))
        ee = margin_error_exponent(qc, p, rch, dch).value
        worst2 = max(worst2, abs(channel_exponent_brute(qc, p, rch, dch, "error", grid) - ee) / tolc)
        ec = correct_exponent(qc, p, rch).value
        worst2 = max(worst2, abs(channel_exponent_brute(qc, p, rch, 0.0, "correct", grid) - ec) / tolc)

    ok = worst <= 1.0 and worst2 <= 1.0
    _report(2, ok, f"rate oracle m=60: worst gap/tol = {worst:.3f} "
                   f"({infinite_pairs} infinite pairs agreed); "
                   f"success/failure/error/correct m=40: worst gap/tol = {worst2:.3f}")


def test_criterion_3_figure1(fig1_model):
    P, Q, d = fig1_model.source, fig1_model.codebook, fig1_model.distortion
    p = fig1_model.p
    unit = fig1_model.distortion_unit
    d_star = -p * unit
    d_min = d.d_min
    big_rate = 30.0

    # Below d_star the exponent plateaus; approaching the distortion floor the
    # plateau is ln(1/p) (and exactly that on the floor, flagged).
    low = d_min + 1e-9
    assert low < d_star
    plateau = success_exponent(P, Q, d, low, big_rate).value
    gap_plateau = abs(plateau - math.log(1 / p))
    on_floor = success_exponent(P, Q, d, d_min, big_rate)
    gap_floor = abs(on_floor.value - math.log(1 / p))

    # At and above d_star the exponent reaches zero at a finite rate.
    reaches_zero = True
    for level in (0.5 * p * unit, 0.0, d_star):
        finite_rate = rate_function(P, Q, d, level).value
        reaches_zero &= math.isfinite(finite_rate)
        reaches_zero &= success_exponent(P, Q, d, level, finite_rate + 0.01).value == 0.0

    infinite_below = math.isinf(success_exponent(P, Q, d, d_min - 0.01, 1.0).value)

    ok = (gap_plateau <= 1e-3 and gap_floor <= 1e-3
          and "at_D_min" in on_floor.boundary_flags
          and reaches_zero and infinite_below)
    _report(3, ok, f"plateau at D->floor: |E_s - ln(1/p)| = {gap_plateau:.2e} (tol 1e-3); "
                   f"zero at finite R for D >= D*: {reaches_zero}; "
                   f"+inf below the floor: {infinite_below}")


def test_criterion_4_figure2(fig2_model):
    P, Q, d = fig2_model.source, fig2_model.codebook, fig2_model.distortion
    p = fig2_model.p
    target = math.log(1.0 / (1.0 - p))
    worst = 0.0
    for scale in fig2_model.d_scale_values:
        level = fig2_model.resolve_level(scale, scaled=True)
        rmax = max_rate_over_sources(Q, d, level)
        env = failure_envelope(P, Q, d, level, rmax, rho_cap=1e8)
        worst = max(worst, abs(env.value - target))
    ok = worst <= 2e-3
    _report(4, ok, f"failure envelope at the rate ceiling: worst |value - ln(1/(1-p))| "
                   f"= {worst:.2e} (tol 2e-3) over levels {list(fig2_model.d_scale_values)}")


def test_criterion_5_figure3(fig3_model):
    P, Q, d = fig3_model.source, fig3_model.codebook, fig3_model.distortion
    s_grid = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 ** 16, 2000)])

    # (a) two-mode structure of the inner objective at the published slope.
    at_published = refine_inner_minima(P, Q, d, 0.0, 0.65, s_grid)
    two_modes = len(at_published) == 2

    # The caption's tables are rounded to four decimals, so the exact tie of
    # the two mode values sits within rounding distance of 0.65; locate it.
    def gap_at(rho):
        mins = refine_inner_minima(P, Q, d, 0.0, rho, s_grid)
        assert len(mins) == 2
        return mins[0][1] - mins[1][1], mins

    lo, hi = 0.60, 0.70
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        g, _ = gap_at(mid)
        if g < 0:
            lo = mid
        else:
            hi = mid
    rho_tie = 0.5 * (lo + hi)
    _, tie_minima = gap_at(rho_tie)
    (s1, v1), (s2, v2) = tie_minima
    tie_ok = abs(v1 - v2) <= 1e-6 and abs(rho_tie - 0.65) <= 5e-3

    # (b) the true exponent runs strictly above the envelope between the
    # tangency rates of the two modes.
    t1 = failure_tangency_law(P, Q, d, 0.0, rho_tie, s1)
    t2 = failure_tangency_law(P, Q, d, 0.0, rho_tie, s2)
    r1 = rate_function(t1, Q, d, 0.0).value
    r2 = rate_function(t2, Q, d, 0.0).value
    mid_rate = 0.5 * (r1 + r2)
    env = failure_envelope(P, Q, d, 0.0, mid_rate, rho_cap=1e6).value
    brute = failure_exponent_brute(P, Q, d, 0.0, mid_rate, GridSpec(30))
    gap = brute - env
    ok = two_modes and tie_ok and gap > 1e-3
    _report(5, ok, f"two inner modes at rho=0.65: {two_modes}; mode values tie to "
                   f"{abs(v1 - v2):.1e} at rho={rho_tie:.4f} (|rho-0.65| = "
                   f"{abs(rho_tie - 0.65):.1e}); exponent exceeds envelope by "
                   f"{gap:.4f} at R={mid_rate:.3f} between tangency rates "
                   f"({r1:.3f}, {r2:.3f})")


def test_criterion_6_exponent_chain():
    rng = np.random.default_rng(606)
    worst_eq = 0.0
    worst_order = 0.0
    for i in range(20):
        size = 2 if i < 10 else 3
        p = random_channel(rng, size, size)
        q = random_distribution(rng, size)
        grid = [(0.05, 0.0), (0.12, 0.15), (0.02, 0.4), (0.1, -0.12), (0.25, -0.3)]
        for rate, level in grid:
            ee = margin_error_exponent(q, p, rate, level).value
            fy = forney_exponent(q, p, rate, level).value
            eb = forney_bound_exponent(q, p, rate, level).value
            if level >= 0.0:
                worst_eq = max(worst_eq, abs(ee - fy), abs(fy - eb))
            else:
                worst_order = max(worst_order, fy - ee, eb - fy)
    ok = worst_eq <= 1e-8 and worst_order <= 1e-12
    _report(6, ok, f"20 channels x 5 points: max equality gap (D >= 0) = {worst_eq:.2e} "
                   f"(tol 1e-8); max ordering violation (D < 0) = {worst_order:.2e} "
                   f"(tol 1e-12)")


def test_criterion_7_min_rate_boundary_maximization():
    rng = np.random.default_rng(707)
    p = random_channel(rng, 3, 3)
    worst = 0.0
    for level in (-0.5, -0.1, 0.0, 0.2):
        res = maximize_over_simplex(
            lambda vec: finiteness_boundary(Distribution(vec), p, level),
            dimension=3, denominator=16, refinement_rounds=3,
        )
        target = max(0.0, -level)
        worst = max(worst, abs(res.value - target))
        # the bisection characterization agrees at the maximizer
        direct = min_rate_boundary(Distribution(res.point), p, level)
        worst = max(worst, abs(direct - max(res.value, 0.0)))
    ok = worst <= 1e-3
    _report(7, ok, f"max over codebooks of the finiteness boundary: worst "
                   f"|value - max(0, -D)| = {worst:.2e} (tol 1e-3) "
                   f"for D in (-0.5, -0.1, 0, 0.2)")


def test_criterion_8_duality():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p = random_channel(rng, nx, ny)
        q = random_distribution(rng, nx)
        joint = joint_from_input_and_channel(q, p).flattened()
        d = channel_distortion(p)
        for rate, level in [(0.05, 0.0), (0.1, 0.15)]:
            a = success_exponent(joint, q, d, level, rate).value
            b = margin_error_exponent(q, p, rate, level).value
            worst = max(worst, abs(a - b))
            c = failure_envelope(joint, q, d, level, rate).value
            e = correct_envelope(q, p, rate, level).value
            worst = max(worst, abs(c - e))
    ok = worst <= 1e-9
    _report(8, ok, f"10 channels: worst |success - margin-error| and "
                   f"|failure-envelope - correct-envelope| under the channel "
                   f"substitution = {worst:.2e} (tol 1e-9)")


MC_SOURCE = Distribution([0.85, 0.15])
MC_CODEBOOK = Distribution([0.5, 0.5])
MC_DISTORTION = DistortionModel([[0.0, 1.0], [1.0, 0.0]])
MC_RATE = 0.03
MC_LEVEL = 0.3
MC_SEED = 20260808
MC_LENGTHS = "40,80,120,160"


@pytest.fixture(scope="session")
def montecarlo_runs(tmp_path_factory):
    """Criterion 9's simulation, run via the CLI for 1 and 4 threads."""
    tmp = tmp_path_factory.mktemp("mc")
    spec = tmp / "model.json"
    spec.write_text(json.dumps({
        "source": [0.85, 0.15],
        "codebook": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
    }))
    outputs = {}
    for threads in (1, 4):
        out = tmp / f"run_t{threads}.csv"
        cmd = [
            sys.executable, "-m", "rcexp.cli", "simulate", str(spec),
            "--experiment", "source-encode", "--n", MC_LENGTHS,
            "--rate", str(MC_RATE), "--D", str(MC_LEVEL),
            "--trials", "1e6", "--seed", str(MC_SEED),
            "--threads", str(threads), "--compare", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = out
    return outputs


def test_criterion_9_montecarlo_vs_analytic(montecarlo_runs):
    engine = success_exponent(MC_SOURCE, MC_CODEBOOK, MC_DISTORTION,
                              MC_LEVEL, MC_RATE).value
    assert 0.05 <= engine <= 0.12
    summary = json.loads(
        (str(montecarlo_runs[1]) + ".summary.json")
        and open(str(montecarlo_runs[1]) + ".summary.json").read()
    )
    slope = summary["slope"]
    rel = abs(slope - engine) / engine

    # exact-enumeration agreement at short block length
    n_small = 5
    m_small = codebook_size(n_small, math.log(3) / n_small, "source-encode")
    exact = enumerate_source_success(MC_SOURCE, MC_CODEBOOK, MC_DISTORTION,
                                     n_small, m_small, MC_LEVEL)
    cfg = SimConfig((n_small,), math.log(3) / n_small, MC_LEVEL, 200_000,
                    MC_SEED, "source-encode")
    row = simulate_source(cfg, MC_SOURCE, MC_CODEBOOK, MC_DISTORTION).per_n[0]
    se = (row.ci_high - row.ci_low) / (2 * 1.96)
    enum_dev = abs(row.p_hat - exact) / se

    ok = rel <= 0.15 and enum_dev <= 5.0
    _report(9, ok, f"engine E_s = {engine:.4f} in [0.05, 0.12]; regression slope "
                   f"= {slope:.4f} (relative gap {rel:.1%}, tol 15%); "
                   f"exact-enumeration deviation = {enum_dev:.2f} Wilson SEs (tol 5)")


def test_criterion_9_rows_match_exact_type_sums(montecarlo_runs):
    """Each block length of criterion 9's run lies within 5 Wilson SEs of the
    exact success probability, a sum over source types."""
    lines = open(montecarlo_runs[1]).read().splitlines()
    assert lines[0] == "n,trials,count,p_hat,ci_low,ci_high"
    devs = {}
    for line in lines[1:]:
        n, _, _, p_hat, lo, hi = line.split(",")
        n = int(n)
        exact = exact_source_success(MC_SOURCE, MC_CODEBOOK, MC_DISTORTION, n,
                                     codebook_size(n, MC_RATE, "source-encode"), MC_LEVEL)
        devs[n] = abs(float(p_hat) - exact) / ((float(hi) - float(lo)) / (2 * 1.96))
    assert sorted(devs) == [40, 80, 120, 160]
    assert max(devs.values()) <= 5.0, devs


def test_criterion_10_determinism(montecarlo_runs):
    b1 = open(montecarlo_runs[1], "rb").read()
    b4 = open(montecarlo_runs[4], "rb").read()
    ok = b1 == b4 and len(b1) > 0
    _report(10, ok, f"criterion 9 rerun with 1 vs 4 threads: CSV byte-identical = {b1 == b4} "
                    f"({len(b1)} bytes)")
