"""Output checks that decide whether a timed call failed.

A call fails if it raised, exited with an unexpected code, or its output
fails its check.  ``check_call`` judges one call on its own;
``check_groups`` judges calls that must agree with each other (the
criterion-6 exponent chain, Gallager's collapsed form, criterion-8 duality).
Reference values that need the library (the uniform codebook law, exact
small-n probabilities) are computed here, outside any timed region.
"""

from __future__ import annotations

import json
import math

CHAIN_EQ_TOL = 1e-8      # criterion 6: equalities at D >= 0
CHAIN_ORDER_TOL = 1e-12  # criterion 6: ordering at D < 0
DUAL_TOL = 1e-9          # criterion 8
GALLAGER_TOL = 1e-8      # gallager-error = error-extended at D = 0
CAPACITY_TOL = 1e-9
SEARCH_TOL = 1e-12
SIM_SE = 5.0             # Wilson standard errors allowed against enumeration


def _num(v):
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def payload_of(record) -> dict:
    return json.loads(record["stdout"])


def _finite_nonneg(value) -> bool:
    return math.isfinite(value) and value >= 0.0


class Checker:
    """Holds library references computed on demand, shared across calls."""

    def __init__(self):
        self._cache = {}

    def _model(self, path):
        from rcexp.modelspec import load_model

        key = ("model", path)
        if key not in self._cache:
            self._cache[key] = load_model(path)
        return self._cache[key]

    def _uniform_value(self, check) -> float:
        import numpy as np

        from rcexp import exponents
        from rcexp.probability import Distribution

        key = ("uniform", check["model"], check["kind"], check["rate"], check["level"])
        if key not in self._cache:
            p = self._model(check["model"]).channel
            q = Distribution(np.full(p.input_size, 1.0 / p.input_size))
            fn = {"error-extended": exponents.margin_error_exponent,
                  "forney-tradeoff": exponents.forney_exponent,
                  "e-bound": exponents.forney_bound_exponent}[check["kind"]]
            self._cache[key] = fn(q, p, check["rate"], check["level"]).value
        return self._cache[key]

    def _exact(self, check, n) -> float:
        from rcexp import montecarlo

        key = ("exact", check["model"], check["experiment"], check["rate"], check["level"], n)
        if key not in self._cache:
            spec = self._model(check["model"])
            m = montecarlo.codebook_size(n, check["rate"], check["experiment"])
            if check["experiment"] == "source-encode":
                value = montecarlo.enumerate_source_success(
                    spec.source, spec.codebook, spec.distortion, n, m, check["level"])
            elif check["experiment"] == "channel-margin":
                value = montecarlo.enumerate_channel_margin(
                    spec.codebook, spec.channel, n, m, check["level"])[0]
            else:
                value = montecarlo.enumerate_forney_error(
                    spec.codebook, spec.channel, n, m, check["level"])
            self._cache[key] = value
        return self._cache[key]

    def check_call(self, call, record) -> str | None:
        """None if the call passed, else the reason it failed."""
        if record.get("error"):
            return f"raised {record['error']}"
        check = call["check"]
        kind = check["type"]
        allowed = (0, 1) if kind == "one_sided" else (0,)
        if record["rc"] not in allowed:
            return f"exit code {record['rc']}: {record['stderr'].strip()[-200:]}"
        try:
            if kind == "sim_rows":
                return self._check_sim(check, record["stdout"])
            payload = payload_of(record)
        except (ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if kind == "finite_nonneg":
            value = _num(payload["value"])
            if not _finite_nonneg(value):
                return f"value {payload['value']!r} is not finite and non-negative"
            if "flag" in check and check["flag"] not in payload["flags"]:
                return f"flag {check['flag']} missing from {payload['flags']}"
            return None
        if kind == "within_tolerance":
            if payload["within_tolerance"] is not True:
                return f"gap {payload['gap']} exceeds tolerance {payload['tolerance']}"
            return None
        if kind == "one_sided":
            oracle, engine = _num(payload["oracle"]), _num(payload["engine"])
            if not oracle >= engine - payload["tolerance"]:
                return f"oracle {oracle} below engine {engine} - tol {payload['tolerance']}"
            return None
        if kind == "not_below_uniform":
            value = _num(payload["value"])
            reference = self._uniform_value(check)
            if not value >= reference - SEARCH_TOL:
                return f"optimum {value} below the uniform law's {reference}"
            return None
        if kind == "capacity_mi":
            from rcexp.probability import Distribution, mutual_information

            channel = self._model(check["model"]).channel
            mi = mutual_information(Distribution(payload["input_distribution"]), channel)
            if not abs(payload["capacity_nats"] - mi) <= CAPACITY_TOL:
                return f"capacity {payload['capacity_nats']} != MI at its input {mi}"
            return None
        return f"unknown check {kind!r}"

    def _check_sim(self, check, text) -> str | None:
        lines = text.strip().splitlines()
        if not lines or lines[0] != "n,trials,count,p_hat,ci_low,ci_high":
            return "missing CSV header"
        for line in lines[1:]:
            n, trials, count, p_hat, lo, hi = line.split(",")
            n, trials, count = int(n), int(trials), int(count)
            p_hat, lo, hi = float(p_hat), float(lo), float(hi)
            # Wilson bounds are computed in floating point: at a count of zero
            # the lower bound can read 5e-20 instead of 0.
            if not (0 <= count <= trials and p_hat == count / trials
                    and lo - 1e-12 <= p_hat <= hi + 1e-12):
                return f"inconsistent row {line!r}"
            if check.get("exact_n") == n:
                exact = self._exact(check, n)
                se = (hi - lo) / (2 * 1.96)
                if not abs(p_hat - exact) <= SIM_SE * se:
                    return (f"n={n}: p_hat {p_hat} is {abs(p_hat - exact) / se:.1f} "
                            f"Wilson SEs from the exact {exact}")
        return None


def check_groups(calls, records) -> dict:
    """Index -> reason for every call whose group relation fails."""
    instances: dict = {}
    for i, call in enumerate(calls):
        if "group" in call:
            # A run that cycles through its rounds meets each group again.
            seen = instances.setdefault(call["group"], [{}])
            if call["role"] in seen[-1]:
                seen.append({})
            seen[-1][call["role"]] = i
    failed = {}
    for name, members in ((n, m) for n, ms in instances.items() for m in ms):
        values = {}
        for role, i in members.items():
            rec = records[i]
            if rec.get("error") or rec["rc"] != 0:
                break
            payload = payload_of(rec)
            values[role] = (_num(payload["value"]), payload["D"])
        else:
            reason = group_reason(values)
            if reason:
                for i in members.values():
                    failed[i] = f"{name}: {reason}"
    return failed


def group_reason(values: dict) -> str | None:
    """Why a group's values disagree, or None; ``values`` maps role -> (value, D)."""
    if "fe" in values:
        fe, cee = values["fe"][0], values["cee"][0]
        if not abs(fe - cee) <= DUAL_TOL:
            return f"failure-envelope {fe} != correct-extended-envelope {cee} (duality)"
        return None
    ee, level = values["ee"]
    fy, eb = values["fy"][0], values["eb"][0]
    if level >= 0.0:
        if not (abs(ee - fy) <= CHAIN_EQ_TOL and abs(fy - eb) <= CHAIN_EQ_TOL):
            return f"chain at D={level}: error-extended {ee}, forney {fy}, e-bound {eb}"
    elif not (fy - ee <= CHAIN_ORDER_TOL and eb - fy <= CHAIN_ORDER_TOL):
        return f"ordering at D={level}: error-extended {ee}, forney {fy}, e-bound {eb}"
    if "ga" in values and not abs(values["ga"][0] - ee) <= GALLAGER_TOL:
        return f"gallager-error {values['ga'][0]} != error-extended {ee} at D=0"
    if "dual" in values and not abs(values["dual"][0] - ee) <= DUAL_TOL:
        return f"success on the joint source {values['dual'][0]} != error-extended {ee}"
    return None
