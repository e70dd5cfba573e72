"""rcexp benchmark: one workload, in-process through ``rcexp.cli.main``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in its own process.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A call's cost is its CPU time (all threads of
the process) divided by the CPU time of a fixed reference loop run just
before and just after it, so it is counted in "ref", one pass of that loop.
On a shared virtual machine the same work takes up to 1.5x more CPU time
while the host is busy; the reference loop slows with it and the ratio moves
far less.  CPU and wall-time figures are printed beside them.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list every metric with its unit, the tail percentile with its
sample count, and the failure fraction.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 3
TAIL_BEYOND = 10
# The traced run covers a fixed set of rounds, so its counts repeat exactly
# for a seed; --seconds does not apply to it.
TRACE_ROUNDS = 4

UNITS = {"setup_s": "s", "items_per_kref": "items/kref", "call_p50_ref": "ref",
         "call_tail_ref": "ref", "peak_rss_mb": "MB"}
END_TO_END = tuple(UNITS)

# The reference loop: interpreted arithmetic and small numpy array passes,
# the mix the solvers run.  One pass takes about 1 to 1.5 ms of CPU time on
# a 2 GHz Xeon, depending on how busy the host is.
REF_ARRAY = np.random.default_rng(0).random(4096)
REF_PASSES = 40

# Solver counts of four fig1 queries, recorded when the benchmark was added:
# (kind, R, D) -> {"<role>.<solver>": (calls, evaluations)}, plus the total.
BASELINE = {
    ("success", 0.1, 0.0): {"outer.unimodal_max_01": (1, 62),
                            "inner.concave_max_on_ray": (62, 3286)},
    ("gallager-error", 0.05, 0.0): {"outer.unimodal_max_01": (1, 62)},
    ("failure-envelope", 0.3, 0.0): {"inner.golden_max": (122, 7020)},
    ("forney-tradeoff", 0.05, -0.1): {"total": (None, 6694)},
}


def _import_rcexp():
    """Import rcexp from this checkout's sources, never from an installation."""
    if not os.path.isfile(os.path.join(SRC, "rcexp", "__init__.py")):
        sys.exit(f"error: no rcexp sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import rcexp
    from rcexp import cli

    if not os.path.abspath(rcexp.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported rcexp from {rcexp.__file__}, not {SRC}")
    return cli


def call_main(cli, argv) -> dict:
    """Run one CLI call with its output captured; returns the record."""
    out, err = io.StringIO(), io.StringIO()
    record = {"error": None}
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["rc"] = cli.main(argv)
    except SystemExit as exc:
        record["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a failed call is counted, not fatal to the run
        record["rc"] = None
        record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    record["ms"] = (time.perf_counter() - start) * 1e3
    record["cpu_ms"] = (time.process_time() - cpu) * 1e3
    record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
    return record


def reference_ms() -> float:
    """CPU time of this thread for one pass of the reference loop, in ms."""
    start = time.thread_time()
    for _ in range(REF_PASSES):
        np.log(REF_ARRAY + 1.0).sum()
        sum(i * i for i in range(200))
    return (time.thread_time() - start) * 1e3


def warm_up(cli, plan) -> None:
    from rcexp.modelspec import load_model

    for path in plan["models"]:
        load_model(path)
    for call in plan["warmup"]:
        record = call_main(cli, call["argv"])
        if record["error"] or record["rc"] not in (0, 1):
            sys.exit(f"error: warm-up call {call['argv']} failed: "
                     f"{record['error'] or record['stderr']}")


def probe_setup(plan_path: str) -> None:
    """Child mode: import, load the models, warm up, then report readiness
    with the CPU time this process has used since it started."""
    cli = _import_rcexp()
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    warm_up(cli, plan)
    sys.stdout.write(f"ready {time.process_time()!r}\n")
    sys.stdout.flush()


def measure_setup(plan_path: str) -> tuple:
    """Interpreter start to ready, in fresh processes, SETUP_PROBES times.

    Returns the CPU times and the wall times, in seconds.
    """
    cpu_times, times = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                 "--probe-setup", plan_path],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
        finally:
            code = proc.wait(timeout=120)
        word, _, cpu = line.partition(" ")
        if word != "ready" or code != 0:
            sys.exit(f"error: set-up probe exited with {code}")
        cpu_times.append(float(cpu))
        times.append(elapsed)
    return cpu_times, times


def run_rounds(cli, plan, seconds: float, rounds: int | None = None):
    """Closed loop over whole rounds until ``seconds`` pass, or exactly ``rounds``.

    The reference loop runs before each call and once after the last; each
    record gets ``ref``, the call's CPU time over the mean of the reference
    times on either side of it.  Returns the calls, their records, the wall
    time, the CPU time of the calls and the number of rounds.
    """
    calls, records = [], []
    # Enough whole rounds for the tail percentile to exist.
    min_rounds = -(-2 * TAIL_BEYOND // len(plan["rounds"][0]))
    refs = []
    start = time.perf_counter()
    r = 0
    while True:
        if rounds is None:
            if r >= min_rounds and time.perf_counter() - start >= seconds:
                break
        elif r >= rounds:
            break
        for call in plan["rounds"][r % len(plan["rounds"])]:
            calls.append(call)
            refs.append(reference_ms())
            records.append(call_main(cli, call["argv"]))
        r += 1
    refs.append(reference_ms())
    for i, record in enumerate(records):
        record["ref_ms"] = (refs[i] + refs[i + 1]) / 2
        record["ref"] = record["cpu_ms"] / record["ref_ms"]
    cpu = sum(record["cpu_ms"] for record in records) / 1e3
    return calls, records, time.perf_counter() - start, cpu, r


def judge(checker, calls, records) -> dict:
    """Index -> failure reason for every failed call."""
    from checks import check_groups

    failed = {}
    for i, (call, record) in enumerate(zip(calls, records)):
        reason = checker.check_call(call, record)
        if reason:
            failed[i] = reason
    for i, reason in check_groups(calls, records).items():
        failed.setdefault(i, reason)
    return failed


def thread_check(cli, calls, records):
    """Rerun the first single-length simulation on one thread: counts must match."""
    for i, call in enumerate(calls):
        argv = call["argv"]
        if argv[0] == "simulate" and "," not in argv[argv.index("--n") + 1]:
            if argv[argv.index("--threads") + 1] == "1":
                return None
            one = list(argv)
            one[one.index("--threads") + 1] = "1"
            again = call_main(cli, one)
            if again["stdout"] != records[i]["stdout"]:
                return i, "counts differ between 1 and 2 threads"
            return None
    return None


def tail(latencies: list):
    """(value, percentile, samples): the highest percentile with 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return None, None, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def threads_for_simulation() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def baseline_crosscheck(cli, workdir) -> tuple:
    """Trace the four recorded fig1 queries; returns (matches, lines)."""
    from layers import entry_solver_counts
    from spans import Tracer

    from generate import FIG1, _write

    path = _write(workdir, "baseline_fig1", FIG1)
    matches, lines = 0, []
    for (kind, rate, level), expected in BASELINE.items():
        tracer = Tracer()
        with tracer:
            call_main(cli, ["compute", path, "--kind", kind, "--R", repr(rate),
                            "--D", repr(level)])
        entry = next(s for s in tracer.spans if s.layer == "exponents")
        counts = entry_solver_counts(tracer.spans, entry.id)
        got = {}
        for key in expected:
            if key == "total":
                got[key] = (None, sum(v[1] for v in counts.values()))
            else:
                got[key] = counts.get(key, (0, 0))
        ok = got == expected
        matches += ok
        lines.append(f"baseline {kind} R={rate} D={level}: "
                     f"{'match' if ok else 'MISMATCH'} {got} (recorded {expected})")
    return matches, lines


def emit(correct, attempted, failed, metrics, lines) -> None:
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="PLAN", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0

    os.chdir(ROOT)
    cli = _import_rcexp()
    sys.path.insert(0, HERE)
    from checks import Checker
    from generate import WORKLOADS, generate

    if args.workload == "all":
        # One process per workload, one after the other.
        for workload in WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS} or all")
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    threads = threads_for_simulation()
    plan = generate(args.workload, args.seed, os.path.relpath(workdir, ROOT), threads)
    plan_path = os.path.join(workdir, "plan.json")
    lines = [f"workload {args.workload} (seed {args.seed}): {plan['why']}"]

    if args.trace:
        return traced(cli, plan, args, workdir, lines)

    setup, setup_wall = measure_setup(plan_path)
    warm_up(cli, plan)
    calls, records, wall, cpu, rounds = run_rounds(cli, plan, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = judge(Checker(), calls, records)
    if args.workload == "simulate":
        extra = thread_check(cli, calls, records)
        if extra:
            failed.setdefault(*extra)

    items = sum(c["items"] for c in calls)
    tail_ref, tail_pct, n = tail([r["ref"] for r in records])
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_kref": 1e3 * items / sum(r["ref"] for r in records),
        "call_p50_ref": statistics.median(r["ref"] for r in records),
        "call_tail_ref": tail_ref,
        "peak_rss_mb": peak_rss_mb,
    }
    cpu_ms, latencies = [r["cpu_ms"] for r in records], [r["ms"] for r in records]
    other = {
        "ref_ms": (statistics.median(r["ref_ms"] for r in records), "ms", "CPU time"),
        "items_per_cpu_s": (items / cpu, "items/s", "CPU time"),
        "call_cpu_p50_ms": (statistics.median(cpu_ms), "ms", "CPU time"),
        "call_cpu_tail_ms": (tail(cpu_ms)[0], "ms", "CPU time"),
        "setup_wall_s": (statistics.median(setup_wall), "s", "wall time"),
        "items_per_s": (items / wall, "items/s", "wall time"),
        "call_p50_ms": (statistics.median(latencies), "ms", "wall time"),
        "call_tail_ms": (tail(latencies)[0], "ms", "wall time"),
    }
    lines.append(f"{n} calls in {rounds} rounds, {wall:.2f} s wall, {cpu:.2f} s CPU; "
                 f"{items} items")
    for name in END_TO_END:
        note = ""
        if name == "call_tail_ref":
            note = f"  (p{tail_pct:.1f} of {n} calls)"
        if name == "setup_s":
            note = f"  (CPU time, median of {len(setup)} fresh processes)"
        lines.append(f"  {name:<16} {metrics[name]:>12.6g} {UNITS[name]}{note}")
    lines.append(f"  {'fail_frac':<16} {len(failed) / len(calls):>12.6g} ratio"
                 f"  ({len(failed)} of {len(calls)} calls)")
    for name, (value, unit, clock) in other.items():
        lines.append(f"  {name:<16} {value:>12.6g} {unit}  ({clock}; not gated)")
    for i, reason in sorted(failed.items())[:10]:
        lines.append(f"  FAILED {' '.join(calls[i]['argv'])}: {reason}")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    emit(not failed, len(calls), len(failed), metrics, lines)
    return 0


def traced(cli, plan, args, workdir, lines) -> int:
    """Untraced then traced passes over the same fixed rounds, and per-layer metrics."""
    from checks import Checker
    from layers import SIMULATORS, layer_metrics, per_layer_names
    from spans import Tracer, wrapped_bindings

    warm_up(cli, plan)
    calls, records, _, plain_cpu, _ = run_rounds(cli, plan, 0.0, rounds=TRACE_ROUNDS)
    tracer = Tracer()
    tracer.install()
    try:
        t_calls, t_records, _, traced_cpu, _ = run_rounds(cli, plan, 0.0,
                                                          rounds=TRACE_ROUNDS)
    finally:
        tracer.remove()
    if wrapped_bindings():
        sys.exit(f"error: wrappers left installed: {wrapped_bindings()}")
    tracer.dump(os.path.join(workdir, "spans.jsonl"))

    metrics = layer_metrics(tracer.spans)
    metrics["trace_overhead_frac"] = (sum(r["ref"] for r in t_records)
                                      / sum(r["ref"] for r in records) - 1.0)
    sims = [s for s in tracer.spans if s.name.split(".", 1)[1] in SIMULATORS]
    trials = sum(s.attrs.get("trials", 0) for s in sims)
    if trials:
        metrics["montecarlo.event_ratio"] = sum(s.attrs.get("events", 0) for s in sims) / trials
        metrics["montecarlo.codeword_scores"] = sum(
            c["items"] for c in t_calls if c["argv"][0] == "simulate")
        metrics["montecarlo.speedup_2t"] = speedup_2t(cli, t_calls)

    matches, base_lines = baseline_crosscheck(cli, workdir)
    metrics["baseline.matches"] = matches
    lines += base_lines
    all_calls = calls + t_calls
    checker = Checker()
    failed = judge(checker, calls, records)
    failed.update({len(calls) + i: reason
                   for i, reason in judge(checker, t_calls, t_records).items()})
    lines.append(f"{len(calls)} calls untraced in {plain_cpu:.2f} s CPU, traced in "
                 f"{traced_cpu:.2f} s; {len(tracer.spans)} spans")
    for name in per_layer_names():
        lines.append(f"  {name:<44} {metrics[name]:>14.6g} {layer_unit(name)}")
    for i, reason in sorted(failed.items())[:10]:
        lines.append(f"  FAILED {' '.join(all_calls[i]['argv'])}: {reason}")
    out = {name: {"value": metrics[name], "unit": layer_unit(name)}
           for name in per_layer_names()}
    emit(not failed, len(all_calls), len(failed), out, lines)
    return 0


def speedup_2t(cli, calls) -> float:
    """Wall time of the speed-up probe simulation on one thread over that on two."""
    argv = list(next(c for c in calls if c.get("speedup_probe"))["argv"])
    times = {}
    for threads in (1, threads_for_simulation()):
        argv[argv.index("--threads") + 1] = str(threads)
        times[threads] = min(call_main(cli, argv)["ms"] for _ in range(3))
    return times[1] / times[threads_for_simulation()]


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("_frac", "_ratio", "speedup_2t")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
