"""Command-line front end.

Subcommands: compute, curve, simulate, maximize-q, capacity, oracle-audit.
Data goes to standard output (or ``--out``); diagnostics go to standard
error.  Exit codes: 0 success, 2 model-spec parse/validation failure,
3 dimension mismatch, 4 unwritable output, 5 codebook too large.

Infinite values serialize as the literal ``inf`` in CSV cells and as the
string ``"inf"`` in JSON (model specs themselves reject non-finite literals).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import CodebookTooLarge, DimensionMismatch, ModelSpecError, RcexpError
from .exponents import (
    _CHANNEL_KINDS,
    ExponentResult,
    correct_envelope,
    correct_exponent,
    failure_envelope,
    forney_bound_exponent,
    forney_exponent,
    gallager_error_exponent,
    margin_error_exponent,
    maximize_over_codebooks,
    refine_inner_minima,
    success_exponent,
)
from .exponents import capacity as channel_capacity
from .modelspec import ModelSpec, dump_model, load_model
from .montecarlo import (
    SimConfig,
    simulate_channel_margin,
    simulate_forney,
    simulate_source,
)
from .oracle import (
    GridSpec,
    channel_exponent_brute,
    failure_exponent_brute,
    grid_tolerance,
    model_min_prob,
    success_exponent_brute,
)

EXIT_SPEC = 2
EXIT_DIMENSION = 3
EXIT_OUTPUT = 4
EXIT_CODEBOOK = 5

_SOURCE = ("source", "codebook", "distortion")
_CHANNEL = ("codebook", "channel")

# kind -> (model-spec fields, evaluator(models, R, D, rho_cap keywords),
# brute-force oracle(models, R, D, grid) or None), in exponents.KINDS order.
# The callables name their library functions, so a wrapper patched onto the
# module (the benchmark's tracer) sees each call.  The gallager-error oracle
# runs at D = 0, the only level of its exponent.
_KINDS = {
    "success": (_SOURCE, lambda m, r, d, cap: success_exponent(*m, d, r),
                lambda m, r, d, grid: success_exponent_brute(*m, d, r, grid)),
    "failure-envelope": (_SOURCE, lambda m, r, d, cap: failure_envelope(*m, d, r, **cap),
                         lambda m, r, d, grid: failure_exponent_brute(*m, d, r, grid)),
    "gallager-error": (_CHANNEL, lambda m, r, d, cap: gallager_error_exponent(*m, r),
                       lambda m, r, d, grid: channel_exponent_brute(*m, r, 0.0, "error", grid)),
    "error-extended": (_CHANNEL, lambda m, r, d, cap: margin_error_exponent(*m, r, d),
                       lambda m, r, d, grid: channel_exponent_brute(*m, r, d, "error", grid)),
    "correct": (_CHANNEL, lambda m, r, d, cap: correct_exponent(*m, r),
                lambda m, r, d, grid: channel_exponent_brute(*m, r, 0.0, "correct", grid)),
    "correct-extended-envelope": (
        _CHANNEL, lambda m, r, d, cap: correct_envelope(*m, r, d, **cap), None),
    "forney-tradeoff": (_CHANNEL, lambda m, r, d, cap: forney_exponent(*m, r, d, **cap), None),
    "e-bound": (_CHANNEL, lambda m, r, d, cap: forney_bound_exponent(*m, r, d), None),
}

# experiment -> (model-spec fields, simulator(models, config, threads), the
# kind whose exponent --compare reports)
_EXPERIMENTS = {
    "source-encode": (_SOURCE, lambda m, cfg, t: simulate_source(cfg, *m, threads=t),
                      "success"),
    "channel-margin": (_CHANNEL, lambda m, cfg, t: simulate_channel_margin(cfg, *m, threads=t),
                       "error-extended"),
    "forney": (_CHANNEL, lambda m, cfg, t: simulate_forney(cfg, *m, threads=t),
               "forney-tradeoff"),
}


def _fmt(value: float):
    if value is None:
        return None
    if math.isinf(value):
        return "inf"
    return value


def _csv_cell(value: float) -> str:
    return "inf" if math.isinf(value) else repr(float(value))


def _need(spec: ModelSpec, field: str):
    obj = getattr(spec, field)
    if obj is None:
        raise ModelSpecError(f"model spec is missing the {field!r} field")
    return obj


def _models(spec: ModelSpec, fields: tuple) -> list:
    return [_need(spec, field) for field in fields]


def _evaluate(spec: ModelSpec, kind: str, rate: float, level: float,
              rho_cap: float | None) -> ExponentResult:
    fields, evaluate, _ = _KINDS[kind]
    cap_kw = {} if rho_cap is None else {"rho_cap": rho_cap}
    return evaluate(_models(spec, fields), rate, level, cap_kw)


def _oracle_value(spec: ModelSpec, kind: str, rate: float, level: float, m: int,
                  engine: float) -> tuple:
    """The brute-force value at grid denominator m, and its gap to ``engine`` (0 if both inf)."""
    grid = GridSpec(m)
    fields, _, oracle = _KINDS[kind]
    models = _models(spec, fields)
    if oracle is None:
        raise DimensionMismatch(f"no brute-force oracle for kind {kind!r}")
    brute = oracle(models, rate, level, grid)
    return brute, 0.0 if math.isinf(brute) and math.isinf(engine) else abs(brute - engine)


def _result_payload(res: ExponentResult) -> dict:
    payload = {
        "value": _fmt(res.value),
        "rho_star": _fmt(res.optimizer_rho),
        "s_star": _fmt(res.optimizer_s),
        "flags": sorted(res.boundary_flags),
    }
    if res.component_values is not None:
        payload["components"] = [_fmt(v) for v in res.component_values]
    if res.upper_value is not None:
        payload["upper_value"] = _fmt(res.upper_value)
    return payload


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _OutputError(str(exc)) from exc


class _OutputError(RcexpError):
    pass


def _parse_levels(args, spec: ModelSpec):
    if args.levels_from_spec:
        if spec.d_scale_values is None:
            raise ModelSpecError("model spec carries no d_scale_values")
        return [spec.resolve_level(v, scaled=True) for v in spec.d_scale_values]
    values = [float(v) for v in args.level.split(",")]
    return [spec.resolve_level(v, scaled=args.scaled) for v in values]


def _parse_rates(text: str):
    if ":" in text:
        start, stop, count = text.split(":")
        rates = np.linspace(float(start), float(stop), int(count))
    else:
        rates = np.array([float(v) for v in text.split(",")])
    if rates.size > 1 and np.any(np.diff(rates) <= 0.0):
        raise ModelSpecError("rate grid must be strictly increasing")
    return rates


def cmd_compute(args) -> int:
    spec = load_model(args.model)
    if args.dump_spec:
        _emit(json.dumps(dump_model(spec), indent=2) + "\n", args.out)
        return 0
    level = spec.resolve_level(args.level_value, args.scaled)
    res = _evaluate(spec, args.kind, args.rate, level, args.rho_cap)
    payload = {"kind": args.kind, "R": args.rate, "D": level}
    payload.update(_result_payload(res))
    if args.oracle:
        brute, gap = _oracle_value(spec, args.kind, args.rate, level, args.oracle, res.value)
        payload["oracle_value"] = _fmt(brute)
        payload["oracle_gap"] = _fmt(gap)
    if args.inner_scan_rho is not None:
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 ** 16, 2000)])
        minima = refine_inner_minima(*_models(spec, _SOURCE), level, args.inner_scan_rho, grid)
        payload["inner_scan"] = {
            "rho": args.inner_scan_rho,
            "local_minima": [{"s": s, "value": v} for s, v in minima],
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_curve(args) -> int:
    spec = load_model(args.model)
    rates = _parse_rates(args.rates)
    levels = _parse_levels(args, spec)
    lines = ["kind,R,D,value,rho_star,s_star,flags"]
    for level in levels:
        for rate in rates:
            res = _evaluate(spec, args.kind, float(rate), level, args.rho_cap)
            flags = "+".join(sorted(res.boundary_flags))
            lines.append(",".join([
                args.kind,
                repr(float(rate)),
                repr(float(level)),
                _csv_cell(res.value),
                _csv_cell(res.optimizer_rho if res.optimizer_rho is not None else 0.0),
                _csv_cell(res.optimizer_s if res.optimizer_s is not None else 0.0),
                flags,
            ]))
    _emit("\n".join(lines) + "\n", args.out)
    if args.out is not None:
        meta = {
            "model": args.model,
            "kind": args.kind,
            "rates": [float(r) for r in rates],
            "levels": [float(v) for v in levels],
            "rho_cap": args.rho_cap,
            "tool_version": __version__,
        }
        _emit(json.dumps(meta, indent=2) + "\n", args.out + ".meta.json")
    return 0


def _simulation_csv(result) -> str:
    lines = ["n,trials,count,p_hat,ci_low,ci_high"]
    for row in result.per_n:
        lines.append(",".join([
            str(row.n), str(row.trials), str(row.count),
            repr(row.p_hat), repr(row.ci_low), repr(row.ci_high),
        ]))
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    spec = load_model(args.model)
    level = spec.resolve_level(args.level_value, args.scaled)
    cfg = SimConfig(
        block_lengths=tuple(int(v) for v in args.n.split(",")),
        rate=args.rate,
        distortion_level=level,
        trials_per_n=int(float(args.trials)),
        master_seed=args.seed,
        experiment=args.experiment,
        codebook_cap=args.codebook_cap,
    )
    fields, simulate, compare_kind = _EXPERIMENTS[args.experiment]
    result = simulate(_models(spec, fields), cfg, args.threads)
    summary = {
        "experiment": args.experiment,
        "event": result.event,
        "rate": args.rate,
        "D": level,
        "seed": args.seed,
        "slope": _fmt(result.exponent_estimate),
        "slope_stderr": _fmt(result.slope_stderr),
    }
    if args.compare:
        engine = _evaluate(spec, compare_kind, args.rate, level, None).value
        summary["engine_exponent"] = _fmt(engine)
        if result.exponent_estimate is not None and engine not in (0.0, math.inf):
            summary["relative_gap"] = abs(result.exponent_estimate - engine) / engine
    csv_text = _simulation_csv(result)
    if args.out is None:
        sys.stdout.write(csv_text)
        sys.stderr.write(json.dumps(summary, indent=2) + "\n")
    else:
        _emit(csv_text, args.out)
        _emit(json.dumps(summary, indent=2) + "\n", args.out + ".summary.json")
    return 0


def cmd_maximize_q(args) -> int:
    spec = load_model(args.model)
    level = spec.resolve_level(args.level_value, args.scaled)
    q_best, res = maximize_over_codebooks(_need(spec, "channel"), args.rate, level,
                                          args.kind, denominator=args.grid,
                                          refinement_rounds=args.refine)
    payload = {
        "kind": args.kind, "R": args.rate, "D": level,
        "codebook": [float(v) for v in q_best.probs],
    }
    payload.update(_result_payload(res))
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_capacity(args) -> int:
    spec = load_model(args.model)
    q_best, value = channel_capacity(_need(spec, "channel"))
    payload = {
        "capacity_nats": value,
        "input_distribution": [float(v) for v in q_best.probs],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_oracle_audit(args) -> int:
    spec = load_model(args.model)
    level = spec.resolve_level(args.level_value, args.scaled)
    res = _evaluate(spec, args.kind, args.rate, level, None)
    brute, gap = _oracle_value(spec, args.kind, args.rate, level, args.grid, res.value)
    objects = [o for o in (spec.source, spec.codebook, spec.channel) if o is not None]
    span = spec.distortion.d_max - spec.distortion.d_min if spec.distortion is not None else 1.0
    tol = grid_tolerance(args.grid, model_min_prob(*objects), span)
    payload = {
        "kind": args.kind, "R": args.rate, "D": level, "grid": args.grid,
        "engine": _fmt(res.value), "oracle": _fmt(brute),
        "gap": _fmt(gap), "tolerance": tol,
        "within_tolerance": bool(gap <= tol),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if gap <= tol else 1


def _add_level_args(sub, default=0.0):
    sub.add_argument("--D", dest="level_value", type=float, default=default,
                     help="distortion level (nats, or units with --scaled)")
    sub.add_argument("--scaled", action="store_true",
                     help="interpret --D as a multiple of ln((1-p)/p)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcexp",
        description="Random-coding exponents for finite-alphabet sources and channels.",
    )
    parser.add_argument("--version", action="version", version=f"rcexp {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("compute", help="evaluate one exponent")
    sp.add_argument("model")
    sp.add_argument("--kind", choices=tuple(_KINDS), default="success")
    sp.add_argument("--R", dest="rate", type=float, default=0.0)
    _add_level_args(sp)
    sp.add_argument("--rho-cap", dest="rho_cap", type=float, default=None)
    sp.add_argument("--oracle", type=int, default=None, metavar="M",
                    help="add the brute-force value at grid denominator M")
    sp.add_argument("--inner-scan-rho", type=float, default=None,
                    help="scan the failure inner objective at this slope")
    sp.add_argument("--dump-spec", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_compute)

    sp = subs.add_parser("curve", help="sweep rates and levels to CSV")
    sp.add_argument("model")
    sp.add_argument("--kind", choices=tuple(_KINDS), required=True)
    sp.add_argument("--rates", required=True, help="comma list or start:stop:count")
    sp.add_argument("--D", dest="level", default="0.0",
                    help="comma list of distortion levels")
    sp.add_argument("--scaled", action="store_true")
    sp.add_argument("--levels-from-spec", action="store_true",
                    help="use the d_scale_values stored in the model spec")
    sp.add_argument("--rho-cap", dest="rho_cap", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_curve)

    sp = subs.add_parser("simulate", help="Monte-Carlo random-coding experiment")
    sp.add_argument("model")
    sp.add_argument("--experiment", choices=tuple(_EXPERIMENTS), required=True)
    sp.add_argument("--n", required=True, help="comma list of block lengths")
    sp.add_argument("--rate", type=float, required=True)
    _add_level_args(sp)
    sp.add_argument("--trials", default="10000")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--codebook-cap", type=int, default=2 ** 20)
    sp.add_argument("--compare", action="store_true",
                    help="append the engine exponent and relative gap")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("maximize-q", help="optimize the codebook distribution")
    sp.add_argument("model")
    sp.add_argument("--kind", choices=tuple(_CHANNEL_KINDS), default="error-extended")
    sp.add_argument("--R", dest="rate", type=float, default=0.0)
    _add_level_args(sp)
    sp.add_argument("--grid", type=int, default=16)
    sp.add_argument("--refine", type=int, default=3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_maximize_q)

    sp = subs.add_parser("capacity", help="channel capacity in nats")
    sp.add_argument("model")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_capacity)

    sp = subs.add_parser("oracle-audit", help="engine vs brute force at one point")
    sp.add_argument("model")
    sp.add_argument("--kind", choices=tuple(k for k, (_, _, oracle) in _KINDS.items()
                                            if oracle is not None), required=True)
    sp.add_argument("--R", dest="rate", type=float, default=0.0)
    _add_level_args(sp)
    sp.add_argument("--grid", type=int, default=24)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_oracle_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"error: cannot read model spec: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except _OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except CodebookTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODEBOOK
    except RcexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
