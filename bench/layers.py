"""Per-layer metrics computed from one traced round's spans.

A metric whose span the workload is known to record but which recorded
none (a later change renamed the function, or moved the work into child
processes) is unmeasured and comes out as None, never as zero. A metric of a
layer the workload does not call is 0.
"""

from __future__ import annotations

from tracer import self_times

ROUTES = ("p1q1", "p2q2", "p2q1", "p1.5q1.5", "p0.5q0.5", "p1q0.5", "p0.5q1")
CALLERS = ("experiments", "learning")


def _metric_table():
    """(metric name, unit, source span, how to reduce the spans)."""
    table = [
        ("cli.run.self_s", "s", "cli.run", "self"),
        ("experiments.gap_sweep.self_s", "s", "experiments.gap_sweep", "self"),
        ("experiments.sample.s", "s", "experiments.sample", "time"),
        ("experiments.sample.columns", "count", "experiments.sample", "columns"),
        ("experiments.export.s", "s", "experiments.export", "time"),
        ("bounds.full_report.s", "s", "bounds.full_report", "time"),
        ("bounds.full_report.calls", "count", "bounds.full_report", "calls"),
        ("learning.learn.s", "s", "learning.learn", "time"),
        ("learning.rounds", "count", "learning.learn", "rounds"),
        ("learning.dict_update.s", "s", "learning.dict_update", "time"),
        ("learning.dict_update.calls", "count", "learning.dict_update", "calls"),
        ("learning.coding.s", "s", "solve.learning", "time"),
        ("learning.coding.iterations", "count", "solve.learning", "iterations"),
    ]
    for c in CALLERS:
        table += [
            (f"sparse_coding.solve.s.{c}", "s", f"solve.{c}", "time"),
            (f"sparse_coding.solve.calls.{c}", "count", f"solve.{c}", "calls"),
            (f"sparse_coding.columns.{c}", "count", f"solve.{c}", "columns"),
            (f"sparse_coding.iterations.{c}", "count", f"solve.{c}", "iterations"),
            (f"sparse_coding.unconverged.{c}", "count", f"solve.{c}", "unconverged"),
        ]
    for r in ROUTES:
        table += [
            (f"sparse_coding.batch_ms_per_col.{r}", "ms/col", "sparse_coding.batch_objective", ("ms_per_col", r)),
            (f"sparse_coding.iterations.{r}", "count", "solve.sparse_coding", ("iterations", r)),
            (f"sparse_coding.unconverged.{r}", "count", "solve.sparse_coding", ("unconverged", r)),
        ]
    table += [
        ("sparse_coding.sparse_code.s", "s", "sparse_coding.sparse_code", "time"),
        ("sparse_coding.sparse_code.calls", "count", "sparse_coding.sparse_code", "calls"),
        ("sparse_coding.sparse_code.unconverged", "count", "sparse_coding.sparse_code", "unconverged"),
    ]
    return table


METRICS = _metric_table()
# metrics the benchmark itself adds to the span-derived ones
EXTRA = (
    ("experiments.rows_unconverged", "count"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
)
UNITS = {name: unit for name, unit, *_ in METRICS} | dict(EXTRA)


def layer_metrics(spans: list[dict], uses, broken=()) -> dict:
    """One round's per-layer values; `uses` names the spans the workload records,
    `broken` the spans whose counts could not be read."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[dict, float]]] = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s, st))
    parent_name = {s["id"]: s["name"] for s in spans}
    out = {}
    for name, _unit, source, how in METRICS:
        recs = by_name.get(source, [])
        if source not in uses:
            out[name] = 0
            continue
        if isinstance(how, tuple):
            kind, route = how
            if kind == "ms_per_col":
                recs = [(s, st) for s, st in recs if s["counts"].get("route") == route]
            else:  # columns coded inside a batch_objective call
                recs = [(s, st) for s, st in recs if s["counts"].get("route") == route
                        and parent_name.get(s["parent"]) == "sparse_coding.batch_objective"]
        else:
            kind = how
        if not recs or source in broken:
            out[name] = None
            continue
        if kind == "self":
            out[name] = sum(st for _s, st in recs)
        elif kind == "time":
            out[name] = sum(s["t1"] - s["t0"] for s, _st in recs)
        elif kind == "calls":
            out[name] = len(recs)
        elif kind == "ms_per_col":
            cols = sum(s["counts"]["columns"] for s, _st in recs)
            out[name] = 1000.0 * sum(s["t1"] - s["t0"] for s, _st in recs) / cols
        else:
            out[name] = sum(s["counts"][kind] for s, _st in recs)
    return out
