"""Alternating minimization of the empirical coding objective over the
product of unit spheres.

One outer round codes every signal against the current dictionary (warm
started from the previous coefficients, so the recorded objective can never
go up) and then improves the dictionary by block-coordinate descent on the
fit term: sweeps of exact updates of one unit atom at a time, each a closed
form in the coefficient statistics ``A A^T`` and ``X A^T`` (Mairal, Bach,
Ponce and Sapiro 2010). Atoms that ended a round unused are swapped for the
worst-represented training signal, which leaves the recorded objective
untouched because their coefficient rows are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CoeffMatrix, Dictionary, Penalty, SignalSet, _coeffs_of, _signals_of, _unit_columns
from .sparse_coding import SolverConfig, _col_sq, _solve_columns

__all__ = ["LearnConfig", "LearnTrace", "project_atoms", "dict_update", "learn"]

_MAX_INNER_UPDATES = 100  # sweeps of `dict_update`
_EARLY_STOP_REL = 1e-8
_EARLY_STOP_ROUNDS = 3
_DICT_GRAD_TOL = 1e-8  # `dict_update` stops once the Riemannian gradient norm is this small


@dataclass(frozen=True)
class LearnConfig:
    outer_iters: int = 50
    seed: int = 0
    coding: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if int(self.outer_iters) < 1:
            raise ValueError("outer_iters must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be an unsigned integer")


@dataclass(frozen=True)
class LearnTrace:
    """Objective per outer round plus the final factor pair."""

    objectives: tuple[float, ...]
    final_dict: Dictionary
    final_coeffs: CoeffMatrix


def project_atoms(M) -> Dictionary:
    """Scale every column to unit l2 norm; a zero column at index j becomes
    the standard basis vector e_(j mod m)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError("need a 2-D matrix with at least one row and column")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must be finite")
    return Dictionary(_unit_columns(M))


def _fit_value(Xmat, Datoms, Amat) -> float:
    R = Xmat - Datoms @ Amat
    return 0.5 * float(np.sum(R * R)) / Xmat.shape[1]


def dict_update(X, A, D0: Dictionary) -> Dictionary:
    """Block-coordinate descent on the fit term, one unit atom at a time.

    With ``C = A A^T / n`` and ``B = X A^T / n`` the fit is, up to a
    constant, ``0.5*tr(D^T D C) - tr(D^T B)``; over atom j alone on the unit
    sphere it is minimized exactly by ``D_j = u/||u||`` with
    ``u = B_j - D C_j + D_j C_jj`` (Mairal, Bach, Ponce and Sapiro 2010,
    there on the unit ball). A sweep updates every atom in turn, so no sweep
    raises the fit; an atom with ``u = 0``, such as one whose coefficient
    row is zero, is left as it is. Sweeps stop once the Riemannian gradient
    norm is at most `_DICT_GRAD_TOL`, or after `_MAX_INNER_UPDATES`. The
    result replaces D0 only if its fit is lower, so the full objective at
    fixed coefficients cannot go up; the penalty does not depend on the
    dictionary.
    """
    Xmat = _signals_of(X)
    Amat = _coeffs_of(A)
    D = D0.atoms.copy()
    if Xmat.shape[1] != Amat.shape[1] or Amat.shape[0] != D.shape[1] or Xmat.shape[0] != D.shape[0]:
        raise ValueError(
            f"shape mismatch: signals {Xmat.shape}, coeffs {Amat.shape}, atoms {D.shape}"
        )
    if not (np.all(np.isfinite(Xmat)) and np.all(np.isfinite(Amat))):
        raise ValueError("inputs must be finite")
    n = Xmat.shape[1]
    C = Amat @ Amat.T / n
    B = Xmat @ Amat.T / n
    for _ in range(_MAX_INNER_UPDATES):
        egrad = D @ C - B
        rgrad = egrad - D * np.sum(D * egrad, axis=0)  # tangent to each sphere
        if np.sqrt(np.sum(rgrad * rgrad)) <= _DICT_GRAD_TOL:
            break
        for j in range(D.shape[1]):
            u = B[:, j] - D @ C[:, j] + D[:, j] * C[j, j]
            norm = np.sqrt(u @ u)
            if norm > 0.0:
                D[:, j] = u / norm
    if _fit_value(Xmat, D, Amat) < _fit_value(Xmat, D0.atoms, Amat):
        return Dictionary(D)
    return D0


def _revive_dead_atoms(Datoms: np.ndarray, Amat: np.ndarray, Xmat: np.ndarray) -> np.ndarray:
    """Swap atoms with all-zero coefficient rows for the worst-coded signals.

    Objective-neutral at the current coefficients: a dead atom contributes
    nothing to the reconstruction.
    """
    dead = np.flatnonzero(np.max(np.abs(Amat), axis=1) == 0.0)
    if dead.size == 0:
        return Datoms
    residuals = np.sqrt(_col_sq(Xmat - Datoms @ Amat))
    order = np.argsort(-residuals, kind="stable")
    src = order[np.arange(dead.size) % order.size]
    D = Datoms.copy()
    D[:, dead] = Xmat[:, src]
    # live atoms are divided by 1, which leaves them exact; each source is
    # divided by its vector norm (a dot product), which can differ in the last
    # bit from the column reduction `_unit_columns` would take
    norms = np.ones(D.shape[1])
    norms[dead] = [np.linalg.norm(Xmat[:, i]) for i in src]
    return _unit_columns(D, norms)


def _init_dictionary(Xmat: np.ndarray, d: int, cfg: LearnConfig) -> Dictionary:
    """d training signals drawn at random, as unit atoms."""
    rng = np.random.default_rng([int(cfg.seed), 23])
    n = Xmat.shape[1]
    idx = rng.choice(n, size=d, replace=n < d)
    return project_atoms(Xmat[:, idx])


def learn(X: SignalSet, m: int, d: int, pen: Penalty, cfg: LearnConfig = LearnConfig()) -> LearnTrace:
    """Alternate coding and dictionary steps; the recorded objective is
    non-increasing by construction (warm-started coding, descent-only
    dictionary step, objective-neutral atom revival)."""
    Xmat = X.signals
    if Xmat.shape[0] != int(m):
        raise ValueError(f"signal rows {Xmat.shape[0]} do not match m={m}")
    if int(d) < 1:
        raise ValueError("d must be a positive integer")
    D = _init_dictionary(Xmat, int(d), cfg)
    A = None
    objectives: list[float] = []
    for _ in range(int(cfg.outer_iters)):
        A, obj_cols, _iters, _conv = _solve_columns(Xmat, D, pen, cfg.coding, warm=A)
        objectives.append(float(np.mean(obj_cols)))
        if len(objectives) > _EARLY_STOP_ROUNDS:
            recent = objectives[-(_EARLY_STOP_ROUNDS + 1) :]
            drops = [
                (recent[i] - recent[i + 1]) / max(abs(recent[i]), 1e-300)
                for i in range(_EARLY_STOP_ROUNDS)
            ]
            if all(r < _EARLY_STOP_REL for r in drops):
                break
        D = dict_update(Xmat, A, D)
        D = Dictionary(_revive_dead_atoms(D.atoms, A, Xmat))
    return LearnTrace(tuple(objectives), D, CoeffMatrix(A))
