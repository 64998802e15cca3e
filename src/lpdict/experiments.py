"""Monte Carlo harness for the generalization gap of dictionary coding.

Generates unit-ball distributions, estimates |train objective - expected
objective| across sample sizes, compares each gap against the deviation
bound eta, and fits the decay rate of the mean gap against sqrt(log n / n).

Seeding: each (n, trial) job derives child seeds from the master seed with
fixed integer tags, so trials are order-independent and a config reproduces
its CSV byte-for-byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundInputs, _derived_L, full_report, proof_constants
from .core import Dictionary, Penalty, SignalSet, _unit_columns
from .learning import LearnConfig, learn
from .sparse_coding import SolverConfig, _solve_columns

__all__ = [
    "DistributionSpec",
    "ExperimentConfig",
    "GapRow",
    "GapCurve",
    "sample",
    "random_dictionary",
    "planted_dictionary",
    "estimate_expected_f",
    "gap_sweep",
    "export",
    "load_curve",
]

_KINDS = ("uniform-sphere", "uniform-ball", "planted-sparse")
_DICT_SOURCES = ("learned", "random", "planted")

# integer stream tags for child-seed derivation
_TAG_TRAIN, _TAG_DICT, _TAG_HOLDOUT, _TAG_LEARN, _TAG_PLANT = 1, 2, 3, 4, 5
_CSV_HEADER = "n,trial,train_F,holdout_F,gap,eta"
_PARTIAL = ".partial"  # suffix of the temporary files `export` renames into place


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class DistributionSpec:
    """A unit-ball signal distribution.

    ``planted-sparse`` synthesizes x = D* a from a seeded dictionary with
    `dict_d` atoms and `sparsity_k`-sparse Gaussian coefficients scaled by
    `coeff_scale`, then divides each sample by max(1, ||x||) so it stays in
    the ball.
    """

    kind: str
    m: int
    seed: int = 0
    dict_d: int = 0
    true_dict_seed: int = 0
    sparsity_k: int = 1
    coeff_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if int(self.m) < 1:
            raise ValueError("m must be a positive integer")
        if int(self.seed) < 0 or int(self.true_dict_seed) < 0:
            raise ValueError("seeds must be unsigned integers")
        if self.kind == "planted-sparse":
            if int(self.dict_d) < 1:
                raise ValueError("planted-sparse requires dict_d >= 1")
            if not 1 <= int(self.sparsity_k) <= int(self.dict_d):
                raise ValueError("sparsity_k must lie in [1, dict_d]")
            if self.coeff_scale < 0.0:
                raise ValueError("coeff_scale must be nonnegative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "DistributionSpec":
        return DistributionSpec(**data)


def random_dictionary(m: int, d: int, seed=0) -> Dictionary:
    """Seeded atoms drawn uniformly on each unit sphere."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng([int(seed), 77])
    return Dictionary(_unit_columns(rng.standard_normal((int(m), int(d)))))


def planted_dictionary(dist: DistributionSpec) -> Dictionary:
    """The dictionary a planted-sparse distribution synthesizes from."""
    if dist.kind != "planted-sparse":
        raise ValueError("planted_dictionary needs a planted-sparse spec")
    return random_dictionary(dist.m, dist.dict_d, np.random.default_rng([int(dist.true_dict_seed), _TAG_PLANT]))


def sample(dist: DistributionSpec, n: int) -> SignalSet:
    """Draw n independent signals; deterministic given (dist.seed, n)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    rng = np.random.default_rng([int(dist.seed), n])
    m = int(dist.m)
    if dist.kind == "uniform-sphere":
        return SignalSet(_unit_columns(rng.standard_normal((m, n))))
    if dist.kind == "uniform-ball":
        pts = _unit_columns(rng.standard_normal((m, n)))
        radii = rng.uniform(size=n) ** (1.0 / m)
        return SignalSet(pts * radii)
    D = planted_dictionary(dist).atoms
    d = int(dist.dict_d)
    k = int(dist.sparsity_k)
    X = np.empty((m, n))
    for j in range(n):
        support = rng.choice(d, size=k, replace=False)
        a = np.zeros(d)
        a[support] = dist.coeff_scale * rng.standard_normal(k)
        x = D @ a
        X[:, j] = x / max(1.0, float(np.linalg.norm(x)))
    return SignalSet(X)


def estimate_expected_f(
    D: Dictionary,
    dist: DistributionSpec,
    pen: Penalty,
    holdout_n: int,
    coding: SolverConfig = SolverConfig(),
):
    """Plug-in estimate of the expected per-sample coding objective.

    Returns (mean, std_error) over a fresh holdout drawn from a seed stream
    disjoint from `sample`'s training stream.
    """
    mean, std_error, _converged = _code_holdout(D, dist, pen, holdout_n, coding)
    return mean, std_error


def _code_holdout(D: Dictionary, dist: DistributionSpec, pen: Penalty, holdout_n: int, coding: SolverConfig):
    """`estimate_expected_f` plus whether every holdout column converged."""
    holdout_n = int(holdout_n)
    if holdout_n < 2:
        raise ValueError("holdout_n must be >= 2")
    holdout = sample(dataclasses.replace(dist, seed=_derive_seed(dist.seed, _TAG_HOLDOUT)), holdout_n)
    _A, obj_cols, _iters, conv = _solve_columns(holdout.signals, D, pen, coding)
    mean = float(np.mean(obj_cols))
    std_error = float(np.std(obj_cols, ddof=1) / np.sqrt(holdout_n))
    return mean, std_error, bool(np.all(conv))


@dataclass(frozen=True)
class ExperimentConfig:
    dist: DistributionSpec
    pen: Penalty
    d: int
    n_grid: tuple[int, ...]
    trials: int = 1
    holdout_n: int = 100_000
    dict_source: str = "random"
    learn: LearnConfig = field(default_factory=LearnConfig)
    confidence_x: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))
        if len(self.n_grid) == 0:
            raise ValueError("n_grid must be nonempty")
        if any(v < 2 for v in self.n_grid) or any(
            a >= b for a, b in zip(self.n_grid, self.n_grid[1:])
        ):
            raise ValueError("n_grid must be a strictly increasing list of integers >= 2")
        if int(self.d) < 1:
            raise ValueError("d must be a positive integer")
        if int(self.trials) < 1:
            raise ValueError("trials must be >= 1")
        if int(self.holdout_n) < 2:
            raise ValueError("holdout_n must be >= 2")
        if self.dict_source not in _DICT_SOURCES:
            raise ValueError(f"dict_source must be one of {_DICT_SOURCES}, got {self.dict_source!r}")
        if self.dict_source == "planted" and self.dist.kind != "planted-sparse":
            raise ValueError("dict_source='planted' needs a planted-sparse distribution")
        L = _derived_L(self.pen, int(self.d))
        for n in self.n_grid:  # the net radius gap_sweep's bound needs; raises outside (0, 1)
            proof_constants(n, int(self.dist.m), int(self.d), L, self.confidence_x)
        if int(self.holdout_n) < 10 * max(self.n_grid):
            warnings.warn(
                f"holdout_n={self.holdout_n} is below the recommended 10*max(n_grid)={10 * max(self.n_grid)}",
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        return {
            "dist": self.dist.to_dict(),
            "pen": {"p": self.pen.p, "q": self.pen.q, "lambda": self.pen.lam},
            "d": self.d,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "holdout_n": self.holdout_n,
            "dict_source": self.dict_source,
            "learn": dataclasses.asdict(self.learn),
            "confidence_x": self.confidence_x,
        }

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        pen_raw = dict(data["pen"])
        lam = pen_raw.pop("lambda", pen_raw.pop("lam", 1.0))
        learn_raw = dict(data.get("learn", {}))
        coding = SolverConfig(**learn_raw.pop("coding", {}))
        return ExperimentConfig(
            dist=DistributionSpec.from_dict(data["dist"]),
            pen=Penalty(p=pen_raw["p"], q=pen_raw["q"], lam=lam),
            d=int(data["d"]),
            n_grid=tuple(data["n_grid"]),
            trials=int(data.get("trials", 1)),
            holdout_n=int(data.get("holdout_n", 100_000)),
            dict_source=data.get("dict_source", "random"),
            learn=LearnConfig(coding=coding, **learn_raw),
            confidence_x=float(data.get("confidence_x", 1.0)),
        )


@dataclass(frozen=True)
class GapRow:
    """One (n, trial) job; `converged` is False when any training or holdout
    column stopped on the solver's iteration budget."""

    n: int
    trial: int
    train_F: float
    holdout_F: float
    gap: float
    eta: float
    holdout_std_error: float
    converged: bool


@dataclass(frozen=True)
class GapCurve:
    """Per-(n, trial) gap estimates plus the fitted decay rates.

    `slope`/`intercept` regress log(mean gap per n) on log(sqrt(log n / n));
    the `_inv_sqrt_n` pair regresses on log(1/sqrt(n)) for comparison.
    """

    rows: tuple[GapRow, ...]
    slope: float
    intercept: float
    slope_inv_sqrt_n: float
    intercept_inv_sqrt_n: float
    config: ExperimentConfig | None = None


def _fit_rates(rows: tuple[GapRow, ...]):
    ns = sorted({r.n for r in rows})
    if len(ns) < 2:
        return float("nan"), float("nan"), float("nan"), float("nan")
    mean_gap = np.array([np.mean([r.gap for r in rows if r.n == n]) for n in ns], dtype=float)
    y = np.log(np.maximum(mean_gap, 1e-300))
    ns = np.array(ns, dtype=float)
    r1 = np.log(np.sqrt(np.log(ns) / ns))
    r2 = np.log(1.0 / np.sqrt(ns))
    s1, i1 = np.polyfit(r1, y, 1)
    s2, i2 = np.polyfit(r2, y, 1)
    return float(s1), float(i1), float(s2), float(i2)


def _run_trial(cfg: ExperimentConfig, n: int, trial: int, eta: float) -> GapRow:
    master = int(cfg.dist.seed)
    train_dist = dataclasses.replace(cfg.dist, seed=_derive_seed(master, n, trial, _TAG_TRAIN))
    train = sample(train_dist, n)
    if cfg.dict_source == "random":
        D = random_dictionary(cfg.dist.m, cfg.d, np.random.default_rng([master, n, trial, _TAG_DICT]))
    elif cfg.dict_source == "planted":
        D = planted_dictionary(cfg.dist)
    else:
        lcfg = dataclasses.replace(cfg.learn, seed=_derive_seed(master, n, trial, _TAG_LEARN))
        D = learn(train, cfg.dist.m, cfg.d, cfg.pen, lcfg).final_dict
    _A, obj_cols, _iters, conv = _solve_columns(train.signals, D, cfg.pen, cfg.learn.coding)
    train_F = float(np.mean(obj_cols))
    hold_dist = dataclasses.replace(cfg.dist, seed=_derive_seed(master, n, trial, _TAG_HOLDOUT))
    holdout_F, std_err, holdout_conv = _code_holdout(D, hold_dist, cfg.pen, cfg.holdout_n, cfg.learn.coding)
    return GapRow(
        n=n,
        trial=trial,
        train_F=train_F,
        holdout_F=holdout_F,
        gap=abs(train_F - holdout_F),
        eta=eta,
        holdout_std_error=std_err,
        converged=bool(np.all(conv)) and holdout_conv,
    )


def gap_sweep(cfg: ExperimentConfig) -> GapCurve:
    """Estimate the generalization gap over the whole (n_grid x trials) plan.

    Jobs run in (n, trial) order; each derives its own seeds from (master,
    n, trial), so a row does not depend on the rows before it.
    """
    etas = {
        n: full_report(
            BoundInputs(m=cfg.dist.m, d=cfg.d, pen=cfg.pen, n=n, confidence_x=cfg.confidence_x)
        ).eta
        for n in cfg.n_grid
    }
    rows = tuple(_run_trial(cfg, n, t, etas[n]) for n in cfg.n_grid for t in range(cfg.trials))
    s1, i1, s2, i2 = _fit_rates(rows)
    return GapCurve(rows=rows, slope=s1, intercept=i1, slope_inv_sqrt_n=s2, intercept_inv_sqrt_n=i2, config=cfg)


def _sidecar_path(path: str) -> str:
    stem, _ext = os.path.splitext(path)
    return stem + ".json"


def _write_beside(target: str, text: str) -> None:
    """Write text to `target` + `_PARTIAL` and flush it to disk."""
    with open(target + _PARTIAL, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def export(curve: GapCurve, path: str) -> None:
    """Write the curve as CSV (17 significant digits) plus a JSON sidecar
    holding the fit, the config echo, seeds, and per-row extras.

    Both files are first written in full to temporary files in the target
    directory and only then renamed over the targets, so a failed or
    interrupted write leaves an earlier pair as it was; the pair is out of
    step only between the two renames.
    """
    lines = [_CSV_HEADER] + [
        f"{r.n},{r.trial},{r.train_F:.17g},{r.holdout_F:.17g},{r.gap:.17g},{r.eta:.17g}" for r in curve.rows
    ]
    sidecar = {
        "fit": {
            "slope": curve.slope,
            "intercept": curve.intercept,
            "slope_inv_sqrt_n": curve.slope_inv_sqrt_n,
            "intercept_inv_sqrt_n": curve.intercept_inv_sqrt_n,
        },
        "config": curve.config.to_dict() if curve.config is not None else None,
        "seeds": {
            "master": curve.config.dist.seed if curve.config is not None else None,
            "derivation": "SeedSequence([master, n, trial, tag]); tags: train=1, dict=2, holdout=3, learn=4",
        },
        "rows_extra": {
            "holdout_std_error": [r.holdout_std_error for r in curve.rows],
            "converged": [r.converged for r in curve.rows],
        },
    }
    outputs = ((path, "\n".join(lines) + "\n"), (_sidecar_path(path), json.dumps(sidecar, indent=2) + "\n"))
    try:
        for target, text in outputs:
            _write_beside(target, text)
        for target, _text in outputs:
            os.replace(target + _PARTIAL, target)
    except OSError as exc:
        for target, _text in outputs:
            with contextlib.suppress(OSError):
                os.remove(target + _PARTIAL)
        raise OSError(f"failed writing gap curve to {path!r}: {exc}") from exc


def load_curve(path: str) -> GapCurve:
    """Rebuild a GapCurve from `export` output; floats round-trip exactly.

    Raises ValueError when the sidecar's per-row lists do not hold one value
    per CSV row, or when its config echo does not rebuild an ExperimentConfig
    (as with a sidecar that names a config field this version lacks).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        with open(_sidecar_path(path), "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except OSError as exc:
        raise OSError(f"failed reading gap curve from {path!r}: {exc}") from exc
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"{path!r} does not carry the expected header {_CSV_HEADER!r}")
    extras = sidecar.get("rows_extra", {})
    std_errors = extras.get("holdout_std_error")
    converged = extras.get("converged")
    for key, values in (("holdout_std_error", std_errors), ("converged", converged)):
        if not isinstance(values, list) or len(values) != len(lines) - 1:
            raise ValueError(
                f"sidecar of {path!r}: rows_extra.{key} must hold one value per CSV row ({len(lines) - 1})"
            )
    rows = []
    for i, ln in enumerate(lines[1:]):
        n_s, t_s, tr, ho, gp, et = ln.split(",")
        rows.append(
            GapRow(
                n=int(n_s),
                trial=int(t_s),
                train_F=float(tr),
                holdout_F=float(ho),
                gap=float(gp),
                eta=float(et),
                holdout_std_error=float(std_errors[i]),
                converged=bool(converged[i]),
            )
        )
    fit = sidecar.get("fit", {})
    try:
        config = ExperimentConfig.from_dict(sidecar["config"]) if sidecar.get("config") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"sidecar of {path!r}: config does not rebuild an ExperimentConfig: {exc!r}") from exc
    return GapCurve(
        rows=tuple(rows),
        slope=float(fit.get("slope", "nan")),
        intercept=float(fit.get("intercept", "nan")),
        slope_inv_sqrt_n=float(fit.get("slope_inv_sqrt_n", "nan")),
        intercept_inv_sqrt_n=float(fit.get("intercept_inv_sqrt_n", "nan")),
        config=config,
    )
