"""Per-layer metrics derived from the spans of a traced run.

Solver spans (layer ``optimize``) are classified against the exponent entry
that caused them:

* ``simplex``: ``maximize_over_simplex``, the codebook search.
* ``outer``: a solver span directly under an ``exponents`` entry (no solver
  span in between) whose objective itself ran solvers: the slope solve.  When
  no direct solver child of the entry ran nested solvers, the inner problem
  is closed-form (``gallager_error_exponent``, ``correct_exponent``) and the
  direct children are the slope solves.
* ``inner``: every other solver span under an ``exponents`` entry: the tilt
  solves inside the slope objective and the re-solve at the optimal slope.

Solver spans whose nearest non-solver ancestor is a ``rates`` function count
towards that function's ``evals`` instead.
"""

from __future__ import annotations

from spans import children_of, self_ms

EXPONENT_ENTRIES = (
    "success_exponent", "failure_envelope", "gallager_error_exponent",
    "margin_error_exponent", "correct_exponent", "correct_envelope",
    "forney_exponent", "forney_bound_exponent", "maximize_over_codebooks",
    "capacity",
)
RATE_FUNCTIONS = ("rate_function", "finiteness_boundary", "max_rate_over_sources")
ORACLE_FUNCTIONS = ("success_exponent_brute", "failure_exponent_brute",
                    "channel_exponent_brute")
SIMULATORS = ("simulate_source", "simulate_channel_margin", "simulate_forney")
SOLVER = "optimize"
SIMPLEX = "optimize.maximize_over_simplex"


def per_layer_names() -> list:
    """Every per-layer metric name, in report order."""
    names = []
    names += [f"optimize.inner.{k}" for k in ("calls", "evals", "escalations", "self_ms")]
    names += [f"optimize.outer.{k}" for k in ("calls", "evals", "at_cap", "self_ms")]
    names += [f"optimize.simplex.{k}" for k in ("calls", "evals", "self_ms")]
    for entry in EXPONENT_ENTRIES:
        names += [f"exponents.{entry}.calls", f"exponents.{entry}.self_ms"]
    names += ["rates.rate_values_batch.calls", "rates.rate_values_batch.laws",
              "rates.rate_values_batch.ms"]
    for fn in RATE_FUNCTIONS:
        names += [f"rates.{fn}.{k}" for k in ("calls", "evals", "ms")]
    for fn in ORACLE_FUNCTIONS:
        names += [f"oracle.{fn}.calls", f"oracle.{fn}.self_ms"]
    names += ["oracle.grid_laws", "probability.simplex_grid_arrays.ms",
              "probability.mutual_information.calls"]
    for fn in SIMULATORS:
        names += [f"montecarlo.{fn}.calls", f"montecarlo.{fn}.ms"]
    names += ["montecarlo.codeword_scores", "montecarlo.event_ratio",
              "montecarlo.speedup_2t", "modelspec.load_model.ms",
              "cli.main.calls", "cli.main.self_ms", "trace_overhead_frac",
              "baseline.matches"]
    return names


def classify_solvers(spans: list) -> dict:
    """Span id -> 'outer', 'inner', 'simplex', 'rates' or 'other' for every solver span."""
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)

    def has_solver_below(span) -> bool:
        todo = list(kids.get(span.id, ()))
        while todo:
            s = todo.pop()
            if s.layer == SOLVER:
                return True
            todo.extend(kids.get(s.id, ()))
        return False

    out = {}
    for span in spans:
        if span.layer != SOLVER:
            continue
        if span.name == SIMPLEX:
            out[span.id] = "simplex"
            continue
        # Walk up to the nearest non-solver ancestor.
        parent = by_id.get(span.parent)
        direct = True
        while parent is not None and parent.layer == SOLVER and parent.name != SIMPLEX:
            direct = False
            parent = by_id.get(parent.parent)
        if parent is None or parent.layer != "exponents":
            out[span.id] = "rates" if parent is not None and parent.layer == "rates" else "other"
            continue
        if not direct:
            out[span.id] = "inner"
            continue
        siblings = [s for s in kids.get(parent.id, ()) if s.layer == SOLVER
                    and s.name != SIMPLEX]
        nested = {s.id for s in siblings if has_solver_below(s)}
        if nested:
            out[span.id] = "outer" if span.id in nested else "inner"
        else:
            out[span.id] = "outer"
    return out


def _subtree_evals(span, kids) -> int:
    """Solver evaluations under a span, counting only the topmost solver spans."""
    total = 0
    todo = list(kids.get(span.id, ()))
    while todo:
        s = todo.pop()
        if s.layer == SOLVER:
            total += s.attrs.get("evaluations", 0)
        else:
            todo.extend(kids.get(s.id, ()))
    return total


def layer_metrics(spans: list) -> dict:
    """Every per-layer metric except the ones measured outside the spans."""
    metrics = {name: 0.0 for name in per_layer_names()}
    selfs = self_ms(spans)
    kids = children_of(spans)
    roles = classify_solvers(spans)
    by_id = {s.id: s for s in spans}

    for span in spans:
        role = roles.get(span.id)
        fn = span.name.split(".", 1)[1]
        if role in ("outer", "inner", "simplex"):
            metrics[f"optimize.{role}.calls"] += 1
            metrics[f"optimize.{role}.evals"] += span.attrs.get("evaluations", 0)
            metrics[f"optimize.{role}.self_ms"] += selfs[span.id]
            if role == "inner" and span.attrs.get("at_upper"):
                metrics["optimize.inner.escalations"] += 1
        elif span.layer == "exponents" and fn in EXPONENT_ENTRIES:
            metrics[f"exponents.{fn}.calls"] += 1
            metrics[f"exponents.{fn}.self_ms"] += selfs[span.id]
            if "rho_at_cap" in span.attrs.get("flags", ()):
                metrics["optimize.outer.at_cap"] += 1
        elif span.name == "rates.rate_values_batch":
            metrics["rates.rate_values_batch.calls"] += 1
            metrics["rates.rate_values_batch.laws"] += span.attrs.get("laws", 0)
            metrics["rates.rate_values_batch.ms"] += span.ms
        elif span.layer == "rates" and fn in RATE_FUNCTIONS:
            metrics[f"rates.{fn}.calls"] += 1
            metrics[f"rates.{fn}.evals"] += _subtree_evals(span, kids)
            metrics[f"rates.{fn}.ms"] += span.ms
        elif span.layer == "oracle" and fn in ORACLE_FUNCTIONS:
            metrics[f"oracle.{fn}.calls"] += 1
            metrics[f"oracle.{fn}.self_ms"] += selfs[span.id]
        elif span.name == "probability.simplex_grid_arrays":
            metrics["probability.simplex_grid_arrays.ms"] += span.ms
            parent = by_id.get(span.parent)
            if parent is not None and parent.layer == "oracle":
                metrics["oracle.grid_laws"] += span.attrs.get("rows", 0)
        elif span.name == "probability.mutual_information":
            metrics["probability.mutual_information.calls"] += 1
        elif span.layer == "montecarlo" and fn in SIMULATORS:
            metrics[f"montecarlo.{fn}.calls"] += 1
            metrics[f"montecarlo.{fn}.ms"] += span.ms
        elif span.name == "modelspec.load_model":
            metrics["modelspec.load_model.ms"] += span.ms
        elif span.name == "cli.main":
            metrics["cli.main.calls"] += 1
            metrics["cli.main.self_ms"] += selfs[span.id]
    return metrics


def entry_solver_counts(spans: list, entry_id: int) -> dict:
    """Solver calls and evaluations under one entry span, by role and function."""
    kids = children_of(spans)
    roles = classify_solvers(spans)
    counts: dict = {}
    todo = list(kids.get(entry_id, ()))
    while todo:
        s = todo.pop()
        if s.layer == SOLVER:
            key = f"{roles[s.id]}.{s.name.split('.', 1)[1]}"
            calls, evals = counts.get(key, (0, 0))
            counts[key] = (calls + 1, evals + s.attrs.get("evaluations", 0))
        todo.extend(kids.get(s.id, ()))
    return counts
