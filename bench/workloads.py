"""The benchmark's workloads: two gap sweeps through `lpdict.cli.run` and a
per-route coding workload through `batch_objective` and `sparse_code`.

A workload makes its inputs from the benchmark seed in `setup`, runs one
round of fixed operations in `run_round` (the only timed call), and checks a
round's outputs in `check_round` (every round, cheap) and `check_deep`
(once per run, against the reference solvers in `refs.py`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import refs
from tracer import FlagTap, route_name

# Inputs that do not depend on the seed use this in place of it (see Sweep, CodeRoutes).
FIXED_PANEL_SEED = 20140320


@dataclass
class RoundOut:
    wall: float  # seconds spent in the timed part of the round
    attempted: int
    failed: int
    objectives: np.ndarray
    call_s: list[float] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# gap sweeps


def _trial_key(args, kwargs):
    """(n, trial) of an `experiments._run_trial(cfg, n, trial, eta)` call."""
    try:
        return int(args[1]), int(args[2])
    except (IndexError, TypeError, ValueError):
        return None


class Sweep:
    """One `lpdict experiment` invocation per round, on the same config every round.

    One operation is one (n, trial) row. It fails when the row is missing or
    not finite, when the sidecar flags it not converged, or when any column
    of its training or holdout solve did not converge. The program records
    no holdout flag, so the flags are read through a FlagTap on
    `lpdict.experiments._solve_columns`, keyed by the `_run_trial` call each
    solve runs in.

    The config's `dist.seed` is the fixed panel seed, not the benchmark
    seed: whether a budget-capped column falls in a row depends on the
    draw, and a failure that comes and goes with the seed would make the
    failed share differ between runs.
    """

    uses = ("cli.run", "experiments.gap_sweep", "experiments.sample", "experiments.export",
            "bounds.full_report", "solve.experiments")

    def __init__(self, name: str, config: dict, warmup: dict):
        self.name = name
        self._template = config
        self._warmup = warmup
        self.first_csv = None
        self.tap = None

    def setup(self, seed: int, workdir: str, lpdict) -> None:
        self.cli = lpdict.cli
        self.dir = os.path.join(workdir, self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.config = self._seeded(self._template, FIXED_PANEL_SEED)
        self.cfg_path = self._write("config.json", self.config)
        self.plan = [(n, t) for n in self.config["n_grid"] for t in range(self.config["trials"])]
        self.tap = FlagTap("lpdict.experiments", ("_run_trial", _trial_key))
        warm_path = self._write("warmup.json", self._seeded(self._warmup, FIXED_PANEL_SEED))
        rc = self._invoke(warm_path, os.path.join(self.dir, "warmup"))
        if rc != 0:
            raise RuntimeError(f"warm-up experiment exited with {rc}")

    @staticmethod
    def _seeded(template: dict, dist_seed: int) -> dict:
        cfg = json.loads(json.dumps(template))
        cfg["dist"]["seed"] = dist_seed
        return cfg

    def _write(self, fname: str, obj: dict) -> str:
        path = os.path.join(self.dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _invoke(self, cfg_path: str, out_dir: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):  # keep the result line last on stdout
            return self.cli.run(["experiment", "--config", cfg_path, "--out", out_dir])

    def run_round(self) -> RoundOut:
        out_dir = os.path.join(self.dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)  # a failed invocation leaves nothing to misread
        plan = self.plan
        self.tap.flags.clear()
        t0 = time.perf_counter()
        rc = self._invoke(self.cfg_path, out_dir)
        wall = time.perf_counter() - t0
        if rc != 0:
            return RoundOut(wall, len(plan), len(plan), np.empty(0), [wall], {"rc": rc})
        with open(os.path.join(out_dir, "gap_curve.csv"), encoding="utf-8") as fh:
            csv_text = fh.read()
        with open(os.path.join(out_dir, "gap_curve.json"), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        rows = [ln.split(",") for ln in csv_text.strip().splitlines()[1:]]
        table = np.array([[float(v) for v in r] for r in rows]) if rows else np.empty((0, 6))
        got = {(int(r[0]), int(r[1])): r for r in table}
        flagged = {(int(r[0]), int(r[1])) for r, c in zip(table, sidecar["rows_extra"]["converged"]) if not c}
        columns, unconverged = {}, {}
        for key, conv in self.tap.flags:
            columns[key] = columns.get(key, 0) + conv.size
            unconverged[key] = unconverged.get(key, 0) + int(conv.size - np.count_nonzero(conv))
        failed = sum(1 for key in plan if key not in got or not np.all(np.isfinite(got[key]))
                     or key in flagged or unconverged.get(key, 0) > 0)
        return RoundOut(
            wall=wall,
            attempted=len(plan),
            failed=failed,
            objectives=table[:, 3],
            call_s=[wall],
            detail={"rc": rc, "csv": csv_text, "table": table, "sidecar": sidecar, "columns": columns,
                    "rows_unconverged": len(flagged)},
        )

    def check_round(self, out: RoundOut) -> list[str]:
        bad = []
        det = out.detail
        if det["rc"] != 0:
            return [f"lpdict experiment exited with {det['rc']}"]
        if self.first_csv is None:
            self.first_csv = det["csv"]
        elif det["csv"] != self.first_csv:
            bad.append("gap_curve.csv differs from the first round's")
        table, sidecar = det["table"], det["sidecar"]
        keys = [(int(r[0]), int(r[1])) for r in table]
        if sorted(keys) != sorted(self.plan) or len(set(keys)) != len(keys):
            bad.append(f"rows {keys} do not match the plan {self.plan}")
        if not np.all(np.isfinite(table)):
            bad.append("non-finite value in gap_curve.csv")
        if len(sidecar["rows_extra"]["converged"]) != len(table):
            bad.append("sidecar converged does not hold one flag per row")
        cfg = self.config
        if not self.tap.ok:
            bad.append("lpdict.experiments._solve_columns or _run_trial is missing; failures are not counted")
        for n, t in self.plan:
            seen, want = det["columns"].get((n, t), 0), n + cfg["holdout_n"]
            if seen != want:
                bad.append(f"row ({n}, {t}): convergence flags of {seen} columns read, not {want} (train + holdout)")
        pen, dist = cfg["pen"], cfg["dist"]
        se = np.array(sidecar["rows_extra"]["holdout_std_error"], dtype=float)
        if se.shape != (len(table),) or not np.all(np.isfinite(se)):
            bad.append("sidecar holdout_std_error does not hold one finite value per row")
            se = np.full(len(table), np.inf)
        for i, (n, _t, tr, ho, gap, eta) in enumerate(table):
            want = refs.eta_closed_form(dist["m"], cfg["d"], pen["lambda"], pen["p"], pen["q"], int(n),
                                        cfg["confidence_x"])
            if abs(eta - want) > 1e-12 * want:
                bad.append(f"row {i}: eta {eta!r} != closed form {want!r}")
            if abs(gap - abs(tr - ho)) > 4 * np.finfo(float).eps * max(abs(tr), abs(ho)):
                bad.append(f"row {i}: gap {gap!r} != |train_F - holdout_F|")
            for label, v in (("train_F", tr), ("holdout_F", ho)):
                if not 0.0 <= v <= 0.5:  # every signal lies in the unit ball: 0.5 max ||x||^2 <= 0.5
                    bad.append(f"row {i}: {label} {v!r} outside [0, 0.5]")
            if gap - 3.0 * se[i] > eta:
                bad.append(f"row {i}: gap - 3 se = {gap - 3.0 * se[i]!r} exceeds eta {eta!r} (criterion 7)")
        s1, s2 = refs.refit_slopes(table[:, 0], table[:, 4])
        fit = sidecar["fit"]
        for label, mine in (("slope", s1), ("slope_inv_sqrt_n", s2)):
            if not abs(fit[label] - mine) <= 1e-9 * max(1.0, abs(mine)):
                bad.append(f"sidecar {label} {fit[label]!r} != refit {mine!r}")
        bad += _echo_mismatches(cfg, sidecar["config"], "config")
        return bad

    def check_deep(self, out: RoundOut) -> list[str]:
        return []

    def close(self) -> None:
        if self.tap is not None:
            self.tap.close()


def _echo_mismatches(given, echo, where: str) -> list[str]:
    """Every key of the input config must come back with the same value."""
    if isinstance(given, dict):
        if not isinstance(echo, dict):
            return [f"{where}: echo is not an object"]
        bad = []
        for k, v in given.items():
            if k not in echo:
                bad.append(f"{where}.{k} missing from the config echo")
            else:
                bad += _echo_mismatches(v, echo[k], f"{where}.{k}")
        return bad
    if isinstance(given, list):
        if not isinstance(echo, list) or len(echo) != len(given):
            return [f"{where}: echo {echo!r} != {given!r}"]
        return [b for i, (g, e) in enumerate(zip(given, echo)) for b in _echo_mismatches(g, e, f"{where}[{i}]")]
    if isinstance(given, (int, float)) and not isinstance(given, bool):
        ok = isinstance(echo, (int, float)) and float(echo) == float(given)
    else:
        ok = echo == given
    return [] if ok else [f"{where}: echo {echo!r} != {given!r}"]


# README config scaled down: same m, d, penalty and dictionaries, fewer and
# smaller (n, trial) jobs. The holdout keeps 10x the largest n.
SWEEP_SPHERE = {
    "dist": {"kind": "uniform-sphere", "m": 8},
    "pen": {"p": 1, "q": 1, "lambda": 10},
    "d": 12,
    "n_grid": [32, 64, 128, 256],
    "trials": 2,
    "holdout_n": 10000,
    "dict_source": "random",
    "confidence_x": 1.0,
}

# The planted dictionary is part of the distribution, like m and k, and does
# not follow the seed: its conditioning sets the iteration tail of every solve
# in a round, and drawn per seed it moved wall_s by a quarter on its own.
SWEEP_PLANTED_LEARNED = {
    "dist": {"kind": "planted-sparse", "m": 8, "dict_d": 12, "sparsity_k": 2, "true_dict_seed": FIXED_PANEL_SEED},
    "pen": {"p": 1, "q": 1, "lambda": 10},
    "d": 12,
    "n_grid": [64, 128, 256],
    "trials": 2,
    "holdout_n": 5000,
    "dict_source": "learned",
    "learn": {"outer_iters": 5},
    "confidence_x": 1.0,
}


def _warmup_of(cfg: dict) -> dict:
    small = json.loads(json.dumps(cfg))
    small.update(n_grid=[16, 32], trials=1, holdout_n=400)
    if "learn" in small:
        small["learn"] = {"outer_iters": 2}
    return small


def sweep_sphere() -> Sweep:
    return Sweep("sweep-sphere", SWEEP_SPHERE, _warmup_of(SWEEP_SPHERE))


def sweep_planted_learned() -> Sweep:
    sw = Sweep("sweep-planted-learned", SWEEP_PLANTED_LEARNED, _warmup_of(SWEEP_PLANTED_LEARNED))
    sw.uses = Sweep.uses + ("learning.learn", "learning.dict_update", "solve.learning")
    return sw


# ---------------------------------------------------------------------------
# per-route coding


# (p, q, dictionaries, columns per dictionary); lam = 10, m = 8, d = 12 as in
# the sweeps. Each dictionary is one batch_objective call.
BATCH_ROUTES = (
    (1.0, 1.0, 4, 50),
    (2.0, 2.0, 4, 50),
    (2.0, 1.0, 4, 50),
    (1.5, 1.5, 4, 8),
    (0.5, 0.5, 4, 8),
    (1.0, 0.5, 2, 3),
    (0.5, 1.0, 2, 15),
)
CALL_P = (0.5, 1.0, 1.5, 2.0)
CALL_Q = (0.5, 1.0, 2.0)


def calls_per_pair(p: float, q: float) -> int:
    """Convex pairs take about a millisecond a call, nonconvex ones tens. With
    twice the calls on convex pairs the median call is a convex one; with equal
    counts it fell in the gap between the groups and moved by a quarter with
    machine noise alone. 6 * 18 + 6 * 9 = 162 calls a round."""
    return 18 if p >= 1.0 and q >= 1.0 else 9

# Largest |objective - reference objective| accepted on a convex route. The
# coder's own stopping rule leaves it 2e-8 to 2e-6 above the optimum here.
CONVEX_TOL = 1e-5
REF_COLUMNS = 10  # columns of each convex batch call checked against the reference


def _has_prox(p: float, q: float) -> bool:
    return p == q or (p, q) == (2.0, 1.0)


def _on_fixed_panel(p: float, q: float) -> bool:
    """Batch routes whose solver can stop on its iteration budget for some
    inputs get inputs that do not depend on the seed, so that they fail
    identically in every run: the smoothed (non-prox) routes, and (1, 1),
    whose prox loop caps about 7 in 100k columns at m=8, d=12, lam=10."""
    return not _has_prox(p, q) or (p, q) == (1.0, 1.0)


def _unit_atoms(rng, m: int, d: int) -> np.ndarray:
    M = rng.standard_normal((m, d))
    return M / np.linalg.norm(M, axis=0)


def _ball_points(rng, m: int, n: int) -> np.ndarray:
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=0) * rng.uniform(size=n) ** (1.0 / m)


class CodeRoutes:
    """Batch coding for every exponent route, then single `sparse_code` calls.

    One operation is one coded batch column or one call; it fails when the
    solver reports it did not converge. `batch_objective` does not return its
    flags, so they are read through a FlagTap on the `_solve_columns` call it
    makes.
    """

    name = "code-routes"
    uses = ("sparse_coding.batch_objective", "sparse_coding.sparse_code", "solve.sparse_coding")

    def __init__(self):
        self.first = None
        self.tap = None

    def setup(self, seed: int, workdir: str, lpdict) -> None:
        self.sc = lpdict.sparse_coding
        core = lpdict.core
        self.batches = []
        for i, (p, q, dicts, n) in enumerate(BATCH_ROUTES):
            rng = np.random.default_rng([FIXED_PANEL_SEED if _on_fixed_panel(p, q) else seed, 1, i])
            for _ in range(dicts):
                D = _unit_atoms(rng, 8, 12)
                X = _ball_points(rng, 8, n)
                self.batches.append((core.Penalty(p, q, 10.0), core.Dictionary(D), core.SignalSet(X), D, X))
        # Single calls all come from the fixed panel: a few seeded draws of a
        # nonconvex pair take seconds instead of milliseconds, and one such call
        # moves a round's wall time by a third.
        self.calls = []
        for p in CALL_P:
            for q in CALL_Q:
                rng = np.random.default_rng([FIXED_PANEL_SEED, 2, int(p * 10), int(q * 10)])
                for _ in range(calls_per_pair(p, q)):
                    m, d = (int(v) for v in rng.integers(1, 6, size=2))
                    D = _unit_atoms(rng, m, d)
                    x = _ball_points(rng, m, 1)[:, 0]
                    lam = float(rng.uniform(2.0, 10.0))
                    self.calls.append((core.Penalty(p, q, lam), core.Dictionary(D), x, D))
        self.tap = FlagTap("lpdict.sparse_coding")
        sc = self.sc
        # warm-up: one fixed-panel column on every route, so that set-up time
        # does not follow the seed (one seeded (0.5,0.5) column took 40 to
        # 370 ms), and one call on every call pair
        cfg = sc.SolverConfig()
        rng = np.random.default_rng([FIXED_PANEL_SEED, 3])
        Dw, xw = core.Dictionary(_unit_atoms(rng, 8, 12)), core.SignalSet(_ball_points(rng, 8, 1))
        for p, q, *_ in BATCH_ROUTES:
            sc.batch_objective(xw, Dw, core.Penalty(p, q, 10.0), cfg)
        warmed = set()
        for pen, Dd, x, _D in self.calls:
            if (pen.p, pen.q) not in warmed:
                warmed.add((pen.p, pen.q))
                sc.sparse_code(x, Dd, pen, cfg)

    def close(self) -> None:
        if self.tap is not None:
            self.tap.close()

    def run_round(self) -> RoundOut:
        sc = self.sc
        cfg = sc.SolverConfig()
        start = time.perf_counter()
        means, coeffs, flags = [], [], []
        for pen, Dd, Xs, _D, _X in self.batches:
            self.tap.flags.clear()
            mean, C = sc.batch_objective(Xs, Dd, pen, cfg)
            means.append(mean)
            coeffs.append(np.array(C.coeffs))
            got = [conv for _key, conv in self.tap.flags]
            flags.append(np.concatenate(got) if got and sum(f.size for f in got) == Xs.n else None)
        results, call_s = [], []
        for pen, Dd, x, _D in self.calls:
            t0 = time.perf_counter()
            r = sc.sparse_code(x, Dd, pen, cfg)
            call_s.append(time.perf_counter() - t0)
            results.append(r)
        wall = time.perf_counter() - start
        batch_failed = sum(int(np.size(f) - np.count_nonzero(f)) for f in flags if f is not None)
        call_failed = sum(not r.converged for r in results)
        objectives = np.concatenate(
            [np.full(X.shape[1], m) for m, (_p, _Dd, _Xs, _D, X) in zip(means, self.batches)]
            + [np.array([r.objective for r in results])]
        )
        return RoundOut(
            wall=wall,
            attempted=sum(X.shape[1] for *_rest, X in self.batches) + len(self.calls),
            failed=batch_failed + call_failed,
            objectives=objectives,
            call_s=call_s,
            detail={"means": means, "coeffs": coeffs, "flags": flags, "results": results},
        )

    def check_round(self, out: RoundOut) -> list[str]:
        bad = []
        det = out.detail
        if any(f is None for f in det["flags"]):
            bad.append("batch convergence flags could not be read; batch failures are not counted")
        sig = [np.concatenate([c.ravel() for c in det["coeffs"]])] + [r.coeffs for r in det["results"]]
        sig = np.concatenate([np.ravel(s) for s in sig])
        if self.first is None:
            self.first = sig
        elif not np.array_equal(sig, self.first):
            bad.append("coefficients differ from the first round's")
        for (pen, _Dd, _Xs, D, X), mean, A in zip(self.batches, det["means"], det["coeffs"]):
            route = route_name(pen)
            objs = []
            for j in range(X.shape[1]):
                objs.append(refs.code_objective(X[:, j], D, A[:, j], pen.p, pen.q, pen.lam))
                bad += _bounds_problems(f"batch {route} col {j}", X[:, j], A[:, j], objs[-1], pen, D.shape[1])
            if abs(mean - np.mean(objs)) > 1e-9 * max(abs(mean), 1e-300):
                bad.append(f"batch {route}: mean objective {mean!r} != own evaluation {np.mean(objs)!r}")
        for i, ((pen, _Dd, x, D), r) in enumerate(zip(self.calls, det["results"])):
            mine = refs.code_objective(x, D, r.coeffs, pen.p, pen.q, pen.lam)
            where = f"call {i} (p={pen.p:g}, q={pen.q:g}, m={D.shape[0]}, d={D.shape[1]})"
            if abs(r.objective - mine) > 1e-9 * max(abs(mine), 1e-12):
                bad.append(f"{where}: objective {r.objective!r} != own evaluation {mine!r}")
            bad += _bounds_problems(where, x, r.coeffs, mine, pen, D.shape[1])
        return bad[:20]

    def check_deep(self, out: RoundOut) -> list[str]:
        bad = []
        det = out.detail
        # failed operations are counted, not checked against the references
        for (pen, _Dd, _Xs, D, X), A, conv in zip(self.batches, det["coeffs"], det["flags"]):
            ref = CONVEX_REFS.get((pen.p, pen.q))
            if ref is None:
                continue
            for j in range(min(REF_COLUMNS, X.shape[1])):
                if conv is None or conv[j]:
                    bad += _against_reference(f"batch {route_name(pen)} col {j}", X[:, j], D, A[:, j], pen, ref)
        for i, ((pen, _Dd, x, D), r) in enumerate(zip(self.calls, det["results"])):
            where = f"call {i} (p={pen.p:g}, q={pen.q:g}, m={D.shape[0]}, d={D.shape[1]})"
            ref = CONVEX_REFS.get((pen.p, pen.q))
            if not r.converged:
                continue
            if ref is not None:
                bad += _against_reference(where, x, D, r.coeffs, pen, ref)
            elif D.shape[1] <= 2:
                grid, res = refs.grid_search(D, x, pen.lam, pen.p, pen.q)
                if r.objective > grid + res:
                    bad.append(f"{where}: objective {r.objective!r} worse than grid {grid!r} + resolution {res!r}")
        return bad[:20]


# reference solver for each convex route: (D, x, lam) -> coefficients
CONVEX_REFS = {
    (2.0, 2.0): refs.solve_p2q2,
    (2.0, 1.0): refs.solve_p2q1,
    (1.0, 1.0): refs.solve_p1q1,
    (1.5, 1.5): lambda D, x, lam: refs.solve_smooth_separable(D, x, lam, 1.5),
}


def _against_reference(where, x, D, a, pen, ref) -> list[str]:
    mine = refs.code_objective(x, D, a, pen.p, pen.q, pen.lam)
    want = refs.code_objective(x, D, ref(D, x, pen.lam), pen.p, pen.q, pen.lam)
    want = min(want, 0.5 * float(x @ x))
    if abs(mine - want) > CONVEX_TOL:
        return [f"{where}: objective {mine!r} vs reference {want!r} (tolerance {CONVEX_TOL:g})"]
    return []


def _bounds_problems(where, x, a, obj, pen, d) -> list[str]:
    bad = []
    top = 0.5 * float(x @ x)
    if not 0.0 <= obj <= top * (1.0 + 1e-12) + 1e-15:
        bad.append(f"{where}: objective {obj!r} outside [0, 0.5 ||x||^2 = {top!r}]")
    radius = refs.l1_radius(x, pen.p, pen.q, pen.lam, d)
    if np.sum(np.abs(a)) > radius * (1.0 + 1e-9) + 1e-15:
        bad.append(f"{where}: ||a||_1 = {np.sum(np.abs(a))!r} exceeds the l1 radius {radius!r}")
    return bad


WORKLOADS = {
    "sweep-sphere": sweep_sphere,
    "sweep-planted-learned": sweep_planted_learned,
    "code-routes": CodeRoutes,
}
