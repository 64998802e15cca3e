"""lpdict benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload code-routes --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; lpdict is imported from its `src/`.
Set-up (a fresh-interpreter import of lpdict, input generation, warm-up) is
repeated SETUP_REPEATS times and its median reported. Then whole rounds of
the workload's fixed operations run until the rounds have taken `--seconds`
in total. With `--trace 0` the last stdout line carries the end-to-end
metrics; with `--trace 1` untraced and traced rounds alternate and it carries
the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import refs
from layers import ROUTES, UNITS, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_LADDER = (99.0, 95.0, 90.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Wall time of `import lpdict` in a fresh interpreter, start-up included."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lpdict"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def tail_percentile(calls_per_round: int) -> float:
    """Highest ladder percentile with at least ten calls of one round beyond
    it; with fewer than forty calls a round, the median alone."""
    if calls_per_round >= 40:
        for pct in TAIL_LADDER:
            if calls_per_round * (1.0 - pct / 100.0) >= 10.0:
                return pct
    return 50.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lpdict", "__init__.py")):
        print(f"error: no lpdict sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lpdict
    import lpdict.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(lpdict.__file__))) != SRC:
        print(f"error: imported lpdict from {lpdict.__file__}, not {SRC}", file=sys.stderr)
        return 2
    problems = []
    print(json.dumps({"machine": machine_facts()}), file=sys.stderr)

    # a terminated run still removes its work directory (SystemExit runs the finally below)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            imp = import_seconds()
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload]()
            wl.setup(args.seed, workdir, lpdict)
            setups.append(imp + time.perf_counter() - t0)

        tracer = Tracer() if args.trace else None
        outs, walls, traced_walls, layer_rounds = [], [], [], []
        first = None
        spent = 0.0
        while spent < args.seconds or (tracer is not None and not layer_rounds):
            # traced runs alternate untraced and traced rounds of the same inputs
            traced = tracer is not None and len(outs) % 2 == 1
            if traced:
                tracer.clear()
                missing = tracer.install()
            try:
                out = wl.run_round()
            finally:
                if traced:
                    tracer.uninstall()
            spent += out.wall
            (traced_walls if traced else walls).append(out.wall)
            if traced:
                broken = {e.split(":")[0] for e in tracer.count_errors} | set(missing)
                for e in tracer.count_errors:
                    print(f"trace: could not read counts: {e}", file=sys.stderr)
                layer_rounds.append(layer_metrics(tracer.spans, wl.uses, broken))
            problems += wl.check_round(out)
            if first is None:
                first = out
            outs.append(out)
        # read before the reference checks, which load scipy into this process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems += wl.check_deep(first)
        problems += [f"reference self-test: {b}" for b in refs.selftest()]
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    if args.trace:
        metrics = per_layer(layer_rounds, walls, traced_walls, outs)
        if "solve.sparse_coding" in wl.uses:
            # on code-routes every failure is an unconverged batch column or call
            counted = [metrics[f"sparse_coding.unconverged.{r}"][0] for r in ROUTES]
            counted.append(metrics["sparse_coding.sparse_code.unconverged"][0])
            if None in counted or sum(counted) != first.failed:
                problems.append(f"failed {first.failed} per round != traced unconverged counts {counted}")
    else:
        calls = [c for o in outs for c in o.call_s]
        pct = tail_percentile(len(first.call_s))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "call_p50_ms": (1000.0 * float(np.percentile(calls, 50.0)), "ms"),
            "call_tail_ms": (1000.0 * float(np.percentile(calls, pct)), "ms"),
            "mean_objective": (float(np.mean(first.objectives)), "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"call_tail_ms is p{pct:g} of {len(calls)} calls", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if value is not None and not np.isfinite(value):
            problems.append(f"{name} is {value}")
            metrics[name] = (None, unit)
    for p in problems[:40]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(layer_rounds, walls, traced_walls, outs) -> dict:
    """Medians over the traced rounds, plus the benchmark's own per-layer figures."""
    metrics = {}
    for name in layer_rounds[0]:
        vals = [r[name] for r in layer_rounds]
        if any(v is None for v in vals):
            print(f"trace: {name} unmeasured: no span, or its counts could not be read", file=sys.stderr)
            metrics[name] = (None, UNITS[name])
        else:  # counts repeat from round to round; median_low keeps them whole
            median = statistics.median_low if UNITS[name] == "count" else statistics.median
            metrics[name] = (median(vals), UNITS[name])
    unconv = [o.detail.get("rows_unconverged", 0) for o in outs]
    metrics["experiments.rows_unconverged"] = (statistics.median_low(unconv), "count")
    metrics["trace.overhead_s"] = (statistics.median([t - u for u, t in zip(walls, traced_walls)]), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(walls), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
