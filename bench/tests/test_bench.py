"""Tests of the benchmark itself: generator, tracer and output checks.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
from generate import WHY, WORKLOADS, generate  # noqa: E402
from layers import classify_solvers, layer_metrics, per_layer_names  # noqa: E402
from spans import Tracer, children_of, self_ms, wrapped_bindings  # noqa: E402

from rcexp import cli, exponents, optimize, rates  # noqa: E402


def _files(workdir):
    return {name: open(os.path.join(workdir, name), "rb").read()
            for name in sorted(os.listdir(workdir))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = generate(workload, 7, str(tmp_path / "a"), rounds=3)
    files = _files(tmp_path / "a")
    again = generate(workload, 7, str(tmp_path / "a"), rounds=3)
    assert again == first
    assert _files(tmp_path / "a") == files
    other = generate(workload, 8, str(tmp_path / "b"), rounds=3)
    assert [c["argv"][2:] for c in other["rounds"][0]] != \
        [c["argv"][2:] for c in first["rounds"][0]]
    assert first["why"]


def _traced_calls(tmp_path):
    plan = generate("sweep", 3, str(tmp_path), rounds=1)
    search = generate("search", 3, str(tmp_path / "s"), rounds=1)
    tracer = Tracer()
    with tracer:
        for call in plan["rounds"][0][:6] + search["warmup"]:
            record = run.call_main(cli, call["argv"])
            assert record["rc"] == 0, record
    return tracer


def test_child_self_times_fit_in_parent_span(tmp_path):
    tracer = _traced_calls(tmp_path)
    spans = tracer.spans
    assert spans
    selfs = self_ms(spans)
    kids = children_of(spans)
    for span in spans:
        assert 0.0 <= selfs[span.id] <= span.ms + 1e-9
        below = sum(selfs[c.id] for c in kids.get(span.id, ()))
        assert below <= span.ms + 1e-6
        for child in kids.get(span.id, ()):
            assert span.start <= child.start <= child.end <= span.end
    roles = classify_solvers(spans)
    assert {"outer", "inner", "simplex"} <= set(roles.values())
    metrics = layer_metrics(spans)
    assert set(per_layer_names()) == set(metrics)


def test_wrappers_are_removed_after_tracing(tmp_path):
    originals = (optimize.golden_max, exponents.golden_max, rates.concave_max_on_ray,
                 cli.success_exponent, cli.channel_capacity, cli.load_model)
    tracer = Tracer()
    with tracer:
        assert exponents.golden_max is not originals[1]
        assert rates.concave_max_on_ray is not originals[2]
        assert cli.channel_capacity is not originals[4]
        assert wrapped_bindings()
    assert wrapped_bindings() == []
    assert (optimize.golden_max, exponents.golden_max, rates.concave_max_on_ray,
            cli.success_exponent, cli.channel_capacity, cli.load_model) == originals
    tracer.remove()  # a second removal is harmless
    assert wrapped_bindings() == []


def test_baseline_counts_reproduce(tmp_path):
    matches, lines = run.baseline_crosscheck(cli, str(tmp_path))
    assert matches == len(run.BASELINE), lines


# ---------------------------------------------------------------------------
# Every output check passes a real output and rejects a perturbed one.
# ---------------------------------------------------------------------------


def _run(call):
    record = run.call_main(cli, call["argv"])
    assert record["error"] is None
    return record


def _perturb(record, **changes):
    payload = json.loads(record["stdout"])
    payload.update(changes)
    out = dict(record)
    out["stdout"] = json.dumps(payload)
    return out


def _find(plan, pred):
    return next(c for c in plan["rounds"][0] if pred(c))


def test_single_call_checks_reject_perturbed_values(tmp_path):
    checker = checks.Checker()
    sweep = generate("sweep", 5, str(tmp_path / "sw"), rounds=1)
    capped = _find(sweep, lambda c: "flag" in c["check"])
    rec = _run(capped)
    assert checker.check_call(capped, rec) is None
    assert checker.check_call(capped, _perturb(rec, value=-1e-3))
    assert checker.check_call(capped, _perturb(rec, value="inf"))
    assert checker.check_call(capped, _perturb(rec, flags=["envelope_only"]))
    bad_exit = dict(rec, rc=2)
    assert checker.check_call(capped, bad_exit)

    audit = generate("audit", 5, str(tmp_path / "au"), rounds=1)
    within = _find(audit, lambda c: c["check"]["type"] == "within_tolerance")
    rec = _run(within)
    assert checker.check_call(within, rec) is None
    assert checker.check_call(within, _perturb(rec, within_tolerance=False))
    one_sided = _find(audit, lambda c: c["check"]["type"] == "one_sided")
    rec = _run(one_sided)
    assert checker.check_call(one_sided, rec) is None
    payload = json.loads(rec["stdout"])
    lowered = payload["engine"] - 2 * payload["tolerance"] - 1e-3
    assert checker.check_call(one_sided, _perturb(rec, oracle=lowered))

    search = generate("search", 5, str(tmp_path / "se"), rounds=1)
    small = copy.deepcopy(_find(search, lambda c: c["argv"][0] == "maximize-q"
                                and c["argv"][c["argv"].index("--kind") + 1] == "e-bound"))
    small["argv"][small["argv"].index("--refine") + 1] = "0"
    rec = _run(small)
    assert checker.check_call(small, rec) is None
    reference = checker._uniform_value(small["check"])
    assert checker.check_call(small, _perturb(rec, value=reference - 1e-6))
    cap = _find(search, lambda c: c["argv"][0] == "capacity")
    rec = _run(cap)
    assert checker.check_call(cap, rec) is None
    payload = json.loads(rec["stdout"])
    assert checker.check_call(cap, _perturb(rec, capacity_nats=payload["capacity_nats"] + 1e-6))


def test_simulation_check_rejects_perturbed_counts(tmp_path):
    checker = checks.Checker()
    plan = generate("simulate", 5, str(tmp_path), threads=1, rounds=1)
    exact = _find(plan, lambda c: "exact_n" in c["check"])
    rec = _run(exact)
    assert checker.check_call(exact, rec) is None
    header, row = rec["stdout"].strip().splitlines()
    n, trials, count, p_hat, lo, hi = row.split(",")
    shifted = int(count) + int(0.05 * int(trials))
    moved = ",".join([n, trials, str(shifted), repr(shifted / int(trials)), lo, hi])
    assert checker.check_call(exact, dict(rec, stdout=f"{header}\n{moved}\n"))
    torn = ",".join([n, trials, count, repr(float(p_hat) + 0.01), lo, hi])
    assert checker.check_call(exact, dict(rec, stdout=f"{header}\n{torn}\n"))


def test_group_checks_reject_perturbed_values():
    assert checks.group_reason({"ee": (0.1, 0.05), "fy": (0.1, 0.05), "eb": (0.1, 0.05)}) is None
    assert checks.group_reason({"ee": (0.1, 0.05), "fy": (0.1 + 1e-7, 0.05),
                                "eb": (0.1, 0.05)})
    assert checks.group_reason({"ee": (0.1, -0.1), "fy": (0.09, -0.1), "eb": (0.08, -0.1)}) is None
    assert checks.group_reason({"ee": (0.1, -0.1), "fy": (0.11, -0.1), "eb": (0.08, -0.1)})
    assert checks.group_reason({"ee": (0.1, -0.1), "fy": (0.09, -0.1), "eb": (0.095, -0.1)})
    chain = {"ee": (0.2, 0.0), "fy": (0.2, 0.0), "eb": (0.2, 0.0)}
    assert checks.group_reason(dict(chain, ga=(0.2, 0.0))) is None
    assert checks.group_reason(dict(chain, ga=(0.2 + 1e-7, 0.0)))
    assert checks.group_reason(dict(chain, dual=(0.2 + 1e-12, 0.0))) is None
    assert checks.group_reason(dict(chain, dual=(0.2 + 1e-8, 0.0)))
    assert checks.group_reason({"fe": (0.3, 0.1), "cee": (0.3, 0.1)}) is None
    assert checks.group_reason({"fe": (0.3, 0.1), "cee": (0.3 + 1e-8, 0.1)})


def test_real_chain_group_passes_and_perturbed_fails(tmp_path):
    plan = generate("sweep", 5, str(tmp_path), rounds=1)
    calls = [c for c in plan["rounds"][0] if c.get("group", "").endswith("-zero")]
    records = [_run(c) for c in calls]
    assert checks.check_groups(calls, records) == {}
    i = next(k for k, c in enumerate(calls) if c["role"] == "fy")
    value = json.loads(records[i]["stdout"])["value"]
    bad = list(records)
    bad[i] = _perturb(records[i], value=value + 1e-6)
    assert len(checks.check_groups(calls, bad)) == len(calls)
    # A run that cycles its rounds meets the group twice; each is judged alone.
    failed = checks.check_groups(calls + calls, records + bad)
    assert sorted(failed) == list(range(len(calls), 2 * len(calls)))


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19)))[0] is None
    value, pct, n = run.tail([float(v) for v in range(100)])
    assert (value, n) == (89.0, 100) and math.isclose(pct, 90.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w: WHY[w] for w in WORKLOADS}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
