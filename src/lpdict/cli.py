"""Command-line front end: bound calculation, sample-size inversion, coding,
learning, experiments, and a fixed-seed self-check suite.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
infeasible parameters), 2 runtime or I/O error. Signals and dictionaries
travel as CSV matrices (rows = dimensions, columns = atoms/samples) printed
with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import bounds, experiments, learning, sparse_coding
from .core import (
    Dictionary,
    Penalty,
    SignalSet,
    l1_bound_from_penalty,
    l1_factor,
    lp_norm,
    penalty_eval,
)

__all__ = ["run", "main", "build_parser"]


class _CliValidation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we classify as validation
        raise _CliValidation(message)


def _write_matrix(path: str, M: np.ndarray) -> None:
    np.savetxt(path, M, fmt="%.17g", delimiter=",")

def _read_matrix(path: str, flag: str) -> np.ndarray:
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise OSError(f"{flag}: cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise _CliValidation(f"{flag}: malformed matrix in {path!r}: {exc}") from exc
    return M


def _read_json(path: str, flag: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(f"{flag}: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliValidation(f"{flag}: malformed JSON in {path!r}: {exc}") from exc


@contextmanager
def _flags(*names: str):
    """Blame a rejection by the core types inside the block on the flags that
    fed it: ``<flags>: <core message>``, exit 1. The core raises ValueError
    for a bad value, TypeError or KeyError for a bad or missing config key."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliValidation(f"{', '.join(names)}: {exc}") from exc


def _penalty_from(args) -> Penalty:
    with _flags("--p", "--q", "--lambda"):
        return Penalty(p=args.p, q=args.q, lam=args.lam)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lpdict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_penalty_flags(p):
        p.add_argument("--p", type=float, required=True, help="lp exponent (> 0)")
        p.add_argument("--q", type=float, required=True, help="outer power (> 0)")
        p.add_argument("--lambda", dest="lam", type=float, required=True, help="penalty weight (> 0)")

    b = sub.add_parser("bound", help="print a BoundReport as JSON")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    add_penalty_flags(b)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--confidence", type=float, required=True, help="exponent x in coverage 1 - 2e^-x")
    b.add_argument("--L", type=float, default=None, help="Lipschitz constant (default: derived)")
    b.add_argument("--signals", default=None, help="optional CSV signal matrix for empirical constants")

    s = sub.add_parser("samplesize", help="invert the bound: smallest n with eta <= target")
    s.add_argument("--target-eta", dest="target_eta", type=float, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    add_penalty_flags(s)
    s.add_argument("--confidence", type=float, required=True)
    s.add_argument("--L", type=float, default=None)

    c = sub.add_parser("code", help="sparse-code one signal; prints a CodingResult as JSON")
    c.add_argument("--signal", required=True, help="CSV column vector")
    c.add_argument("--dict", dest="dict_path", required=True, help="CSV dictionary matrix")
    add_penalty_flags(c)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-iters", dest="max_iters", type=int, default=5000)
    c.add_argument("--restarts", type=int, default=5)

    l = sub.add_parser("learn", help="fit a dictionary; writes dictionary CSV + trace CSV")
    l.add_argument("--data", required=True, help="CSV signal matrix (columns = samples)")
    l.add_argument("--d", type=int, required=True)
    add_penalty_flags(l)
    l.add_argument("--config", default=None, help="optional JSON LearnConfig overrides")
    l.add_argument("--out-dict", dest="out_dict", default="dictionary.csv")
    l.add_argument("--out-trace", dest="out_trace", default="trace.csv")
    l.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("experiment", help="run a gap sweep from a JSON config")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True, help="output directory")

    sub.add_parser("check", help="run the fixed-seed oracle and inequality self-checks")
    return parser


def _cmd_bound(args) -> int:
    pen = _penalty_from(args)
    X = None
    if args.signals:
        with _flags("--signals"):
            X = SignalSet(_read_matrix(args.signals, "--signals"))
    with _flags("--m", "--d", "--n", "--confidence", "--L"):
        inputs = bounds.BoundInputs(m=args.m, d=args.d, pen=pen, n=args.n, confidence_x=args.confidence, L=args.L)
        report = bounds.full_report(inputs, X)
    if args.n < 3:
        print("warning: the bound's derivation needs log(n) >= 1, i.e. n >= 3", file=sys.stderr)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_samplesize(args) -> int:
    pen = _penalty_from(args)
    with _flags("--target-eta", "--m", "--d", "--L", "--confidence"):
        L = args.L if args.L is not None else bounds._derived_L(pen, args.d)
        n = bounds.required_samples(args.target_eta, args.m, args.d, L, args.confidence)
    beta = bounds.compute_beta(args.m, args.d, L)
    out = {
        "n": n,
        "eta_at_n": bounds.compute_eta(n, beta, args.confidence),
        "eta_at_n_minus_1": bounds.compute_eta(n - 1, beta, args.confidence) if n - 1 >= 2 else None,
        "beta": beta,
        "L": L,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_code(args) -> int:
    pen = _penalty_from(args)
    x = _read_matrix(args.signal, "--signal").ravel()
    with _flags("--dict"):
        D = Dictionary(_read_matrix(args.dict_path, "--dict"))
    with _flags("--max-iters", "--restarts", "--seed"):
        cfg = sparse_coding.SolverConfig(max_iters=args.max_iters, restarts=args.restarts, seed=args.seed)
    with _flags("--signal"):
        result = sparse_coding.sparse_code(x, D, pen, cfg)
    out = {
        "coeffs": [float(v) for v in result.coeffs],
        "objective": result.objective,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_learn(args) -> int:
    pen = _penalty_from(args)
    with _flags("--data"):
        X = SignalSet(_read_matrix(args.data, "--data"))
    overrides = _read_json(args.config, "--config") if args.config else {}
    with _flags("--config"):
        overrides = dict(overrides)  # a JSON scalar has no keys
        coding = sparse_coding.SolverConfig(**overrides.pop("coding", {}))
    with _flags("--config", "--seed"):
        cfg = learning.LearnConfig(seed=args.seed, coding=coding, **overrides)
    with _flags("--d"):
        trace = learning.learn(X, X.m, args.d, pen, cfg)
    _write_matrix(args.out_dict, trace.final_dict.atoms)
    with open(args.out_trace, "w", encoding="utf-8") as fh:
        fh.write("round,objective\n")
        for i, v in enumerate(trace.objectives):
            fh.write(f"{i},{v:.17g}\n")
    print(f"wrote {args.out_dict} ({X.m}x{args.d}) and {args.out_trace} ({len(trace.objectives)} rounds)")
    return 0


def _cmd_experiment(args) -> int:
    raw = _read_json(args.config, "--config")
    with _flags("--config"):
        cfg = experiments.ExperimentConfig.from_dict(raw)
    os.makedirs(args.out, exist_ok=True)
    curve = experiments.gap_sweep(cfg)
    out_csv = os.path.join(args.out, "gap_curve.csv")
    experiments.export(curve, out_csv)
    print(f"wrote {out_csv} and sidecar; fitted slope {curve.slope:.4f} vs sqrt(log n / n)")
    return 0


def _cmd_check(_args) -> int:
    rng = np.random.default_rng(20240817)
    checks: list[tuple[str, bool, str]] = []

    worst = 0.0
    for _ in range(800):
        v = rng.standard_normal(rng.integers(1, 9))
        for p in (0.3, 0.5, 1.0, 1.5, 2.0, 4.0):
            lhs = float(np.sum(np.abs(v)))
            rhs = l1_factor(p, v.size) * lp_norm(v, p)
            worst = max(worst, lhs - rhs * (1.0 + 1e-12))
    checks.append(("l1-vs-lp inequality", worst <= 1e-9, f"max violation {worst:.2e}"))

    worst = 0.0
    for _ in range(400):
        v = rng.standard_normal(rng.integers(1, 7))
        pen = Penalty(p=float(rng.uniform(0.3, 3.0)), q=float(rng.uniform(0.3, 3.0)), lam=float(rng.uniform(0.5, 3.0)))
        t = penalty_eval(v, pen)
        worst = max(worst, float(np.sum(np.abs(v))) - l1_bound_from_penalty(t, pen, v.size) * (1.0 + 1e-10))
    checks.append(("penalty-to-l1 bound", worst <= 1e-9, f"max violation {worst:.2e}"))

    worst = 0.0
    count = 0
    for pq in ((1.0, 1.0), (2.0, 2.0), (0.5, 0.5)):
        for _ in range(8):
            m = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            D = experiments.random_dictionary(m, d, int(rng.integers(0, 2**32)))
            x = rng.standard_normal(m)
            x *= rng.uniform(0.2, 1.0) / max(np.linalg.norm(x), 1e-12)
            pen = Penalty(p=pq[0], q=pq[1], lam=float(rng.uniform(0.5, 2.0)))
            got = sparse_coding.sparse_code(x, D, pen).objective
            oracle = sparse_coding.brute_force_code(x, D, pen, grid_points=801)
            tol = max(1e-3, 2.0 * sparse_coding.grid_resolution_error(x, D, pen, grid_points=801))
            worst = max(worst, abs(got - oracle.objective) - tol)
            count += 1
    checks.append(("oracle equivalence", worst <= 0.0, f"{count} instances, max excess {worst:.2e}"))

    worst = 0.0
    for _ in range(400):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        D = experiments.random_dictionary(m, d, int(rng.integers(0, 2**32)))
        x = rng.standard_normal(m)
        x *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(x), 1e-12)
        pen = Penalty(
            p=float(rng.choice([0.5, 1.0, 1.5, 2.0])),
            q=float(rng.choice([0.5, 1.0, 2.0])),
            lam=float(rng.uniform(0.5, 4.0)),
        )
        res = sparse_coding.sparse_code(x, D, pen, sparse_coding.SolverConfig(max_iters=300, restarts=2))
        cap = 0.5 * float(x @ x)
        worst = max(worst, res.objective - cap - 1e-9, -res.objective)
    checks.append(("objective range", worst <= 0.0, f"max violation {worst:.2e}"))

    worst = 0.0
    for _ in range(60):
        m = int(rng.integers(1, 40))
        d = int(rng.integers(1, 40))
        L = float(rng.uniform(0.05, 20.0))
        x = float(rng.uniform(0.0, 5.0))
        n = int(rng.integers(3, 10**7))
        try:
            eps, tau, _gamma = bounds.proof_constants(n, m, d, L, x)
        except ValueError:
            continue
        # exponents combined so the order-one product cannot overflow
        lhs = 2.0 * np.exp(m * d * np.log(3.0 / eps) - n * tau * tau)
        worst = max(worst, abs(lhs / (2.0 * np.exp(-x)) - 1.0))
    checks.append(("net/tail identity", worst <= 1e-10, f"max relative defect {worst:.2e}"))

    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 30))
        X = rng.standard_normal((m, n))
        X /= np.maximum(np.linalg.norm(X, axis=0), 1.0)
        pen = Penalty(p=float(rng.uniform(0.3, 3.0)), q=float(rng.uniform(0.3, 3.0)), lam=float(rng.uniform(0.5, 3.0)))
        d = int(rng.integers(1, 20))
        worst = max(worst, bounds.empirical_L(X, pen, d) - bounds.worst_case_L(pen, d) * (1 + 1e-12))
    checks.append(("empirical L below worst case", worst <= 1e-9, f"max excess {worst:.2e}"))

    width = max(len(name) for name, _ok, _ in checks) + 2
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{name:<{width}} {'PASS' if ok else 'FAIL'}   {detail}")
    return 0 if all_ok else 2


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "bound": _cmd_bound,
            "samplesize": _cmd_samplesize,
            "code": _cmd_code,
            "learn": _cmd_learn,
            "experiment": _cmd_experiment,
            "check": _cmd_check,
        }[args.command]
        return handler(args)
    except _CliValidation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
