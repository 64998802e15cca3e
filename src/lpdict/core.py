"""Domain types, norms, and the elementary coefficient-bound inequalities.

Everything here is pure and immutable: constructors validate their arrays
(renormalizing dictionary atoms that are within tolerance of unit length),
then freeze them read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_UNIT = 1e-9   # slack for unit-norm atom validation
TOL_BALL = 1e-12  # slack for unit-ball membership
_NORM_FLOOR = 1e-154  # below this a column is treated as zero (its square underflows)

__all__ = [
    "TOL_UNIT",
    "TOL_BALL",
    "Penalty",
    "Dictionary",
    "SignalSet",
    "CoeffMatrix",
    "lp_norm",
    "penalty_eval",
    "l1_factor",
    "l1_bound_from_penalty",
    "dict_distance",
]


def _validated_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D matrix with at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class Penalty:
    """Sparsity measure ``g(v) = ||v / lam||_p ** q`` with exponents p, q > 0.

    ``lam`` is the weight: larger values make the penalty cheaper. For
    p >= 1 and q >= 1 this is a power of a norm; for smaller exponents it
    is a quasi-norm power and the coding problem becomes nonconvex.
    """

    p: float
    q: float
    lam: float = 1.0

    def __post_init__(self):
        for name in ("p", "q", "lam"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"Penalty.{name} must be a positive finite real, got {getattr(self, name)!r}")
            object.__setattr__(self, name, v)

    @property
    def separable(self) -> bool:
        """True when q == p, so g splits into independent coordinates."""
        return self.q == self.p


@dataclass(frozen=True)
class Dictionary:
    """Real m x d matrix whose columns (atoms) all have unit l2 norm.

    Columns within TOL_UNIT of unit length are renormalized exactly;
    anything farther off is rejected rather than silently accepted.
    """

    atoms: np.ndarray

    def __post_init__(self):
        atoms = _validated_matrix(self.atoms, "atoms")
        norms = np.linalg.norm(atoms, axis=0)
        off = np.abs(norms - 1.0)
        if np.any(off > TOL_UNIT):
            j = int(np.argmax(off))
            raise ValueError(f"atom {j} has norm {norms[j]:.12g}; expected 1 within {TOL_UNIT:g}")
        atoms = atoms / norms
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]


def _unit_columns(M: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """``M / norms`` with every column at unit l2 norm; a column whose norm is
    below 1e-154 becomes the standard basis vector e_(j mod m), j its index.

    `norms` defaults to the column norms of M; pass them when they were
    computed another way. M itself is never modified.
    """
    if norms is None:
        norms = np.linalg.norm(M, axis=0)
    zero = np.flatnonzero(norms < _NORM_FLOOR)
    if zero.size:
        M = M.copy()
        M[:, zero] = 0.0
        M[zero % M.shape[0], zero] = 1.0
        norms = norms.copy()
        norms[zero] = 1.0
    return M / norms


@dataclass(frozen=True)
class SignalSet:
    """Column-stacked signals, each inside the unit l2 ball (slack TOL_BALL)."""

    signals: np.ndarray

    def __post_init__(self):
        signals = _validated_matrix(self.signals, "signals")
        norms = np.linalg.norm(signals, axis=0)
        if np.any(norms > 1.0 + TOL_BALL):
            j = int(np.argmax(norms))
            raise ValueError(f"signal {j} has norm {norms[j]:.12g}; must lie in the unit ball")
        signals.setflags(write=False)
        object.__setattr__(self, "signals", signals)

    @property
    def m(self) -> int:
        return self.signals.shape[0]

    @property
    def n(self) -> int:
        return self.signals.shape[1]


@dataclass(frozen=True)
class CoeffMatrix:
    """Column-stacked coefficient vectors, one per signal."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _validated_matrix(self.coeffs, "coeffs")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]


def lp_norm(v, p: float) -> float:
    """``(sum_i |v_i|^p)^(1/p)`` for any p > 0; 0 for the zero or empty vector.

    A norm for p >= 1 and a quasi-norm below that. Entries are rescaled by
    their maximum before exponentiation so extreme p stays overflow-safe.
    """
    p = float(p)
    if not np.isfinite(p) or p <= 0.0:
        raise ValueError(f"p must be a positive finite real, got {p!r}")
    a = np.abs(np.asarray(v, dtype=float)).ravel()
    if a.size == 0:
        return 0.0
    mx = float(a.max())
    if mx == 0.0:
        return 0.0
    return float(mx * np.sum((a / mx) ** p) ** (1.0 / p))


def penalty_eval(v, pen: Penalty) -> float:
    """Value of the sparsity measure ``||v / lam||_p ** q``."""
    return float((lp_norm(v, pen.p) / pen.lam) ** pen.q)


def _count_as_float(k, name: str) -> float:
    """``float(k)``, with a ValueError naming k in place of an OverflowError."""
    try:
        return float(k)
    except OverflowError:
        raise ValueError(f"{name} is too large to convert to a float") from None


def l1_factor(p: float, d: int) -> float:
    """``d ** max(1 - 1/p, 0)``: the constant with ``||v||_1 <= factor * ||v||_p``.

    Equals 1 for every p <= 1 (the quasi-norm already dominates the l1 norm).
    """
    p = float(p)
    if not np.isfinite(p) or p <= 0.0:
        raise ValueError(f"p must be a positive finite real, got {p!r}")
    d = int(d)
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    return _count_as_float(d, "d") ** max(1.0 - 1.0 / p, 0.0)


def l1_bound_from_penalty(t: float, pen: Penalty, d: int) -> float:
    """l1 radius implied by a penalty level: ``g(v) <= t`` forces
    ``||v||_1 <= lam * d^(1 - 1/p)_+ * t^(1/q)``.
    """
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be a nonnegative finite real, got {t!r}")
    return pen.lam * l1_factor(pen.p, d) * t ** (1.0 / pen.q)


def _atoms_of(D) -> np.ndarray:
    return D.atoms if isinstance(D, Dictionary) else np.asarray(D, dtype=float)


def _signals_of(X) -> np.ndarray:
    return X.signals if isinstance(X, SignalSet) else np.asarray(X, dtype=float)


def _coeffs_of(A) -> np.ndarray:
    return A.coeffs if isinstance(A, CoeffMatrix) else np.asarray(A, dtype=float)


def dict_distance(D1, D2) -> float:
    """Largest columnwise l2 distance between two dictionaries.

    This is the metric under which the covering numbers and Lipschitz
    constants are stated; it accepts Dictionary instances or raw matrices.
    """
    A1, A2 = _atoms_of(D1), _atoms_of(D2)
    if A1.shape != A2.shape:
        raise ValueError(f"shape mismatch: {A1.shape} vs {A2.shape}")
    return float(np.linalg.norm(A1 - A2, axis=0).max())
