"""Penalized least-squares coding of signals against a fixed dictionary.

Solves ``min_a 0.5*||x - D a||^2 + g(a)`` with ``g(a) = ||a/lam||_p^q`` for
one signal or a whole column-stacked batch.

Solver routes: one batched proximal-gradient loop with the fixed step 1/L,
``L = lambda_max(D^T D)``, codes every (p, q), with a prox for each shape of
penalty:

* q == p: the penalty is coordinate-separable. The 1-D prox has closed forms
  for p in {1/2, 1, 3/2, 2} (half thresholding for p = 1/2, Xu et al. 2012;
  a quadratic in ``sqrt|a|`` for p = 3/2) and is solved by a bracketed
  bisection on the stationarity equation, plus a comparison with 0, for
  every other exponent.
* p == 2: the penalty is ``(||a||_2/lam)^q``, whose prox is the scalar
  ``|.|^q`` prox of the column norm along the column.
* anything else: the prox of ``t*(sum|a_i/lam|^p)^(q/p)`` is the separable
  prox at a scalar multiplier found by a safeguarded Newton search
  (`_multiplier_prox`); for q < min(p, 1) one separable prox at the
  multiplier linearized at the current point takes its place, a
  majorize-minimize step. For p < 1 < q/p the multiplier path can miss the
  global prox, and the loop's descent check keeps those pairs monotone.

Convex pairs (p, q >= 1) run monotone FISTA with per-column adaptive restart
and stop a column on a duality-gap certificate: the gap between its
objective and the dual value at its scaled residual is at most
``obj_tol * max(1, F)``. For p = 1 with q in {1, 2} the loop also tries an
exact finish at a few fixed iterations (`_FINISH_AT`): it solves each live
column's reduced KKT system on the iterate's sign pattern, the manifold that
proximal gradient identifies (Bareilles, Iutzeler and Malick 2022; the
working sets of Massias, Gramfort and Salmon 2018), as one small system on
the column's support, and retires the column with that point when the point
keeps the signs, passes the same gap test and does not raise F. A column
that fails gets one active-set pivot, dropping the coordinates whose sign
flipped or else adding the worst KKT violator, and one more solve under the
same tests. A column whose plain step no longer descends in floating point
also stops. Nonconvex pairs (p < 1 or q < 1) run the loop without
momentum, stop on a small gain or a rise, and get deterministic
multi-start; all starts of a call are solved together, as blocks of columns
of one loop. Every path ends with an explicit comparison against a = 0, so a
returned objective never exceeds ``0.5*||x||^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TOL_BALL,
    CoeffMatrix,
    Dictionary,
    Penalty,
    SignalSet,
    _atoms_of,
    _coeffs_of,
    _signals_of,
    l1_bound_from_penalty,
    penalty_eval,
)

__all__ = [
    "SolverConfig",
    "CodingResult",
    "objective",
    "sparse_code",
    "batch_objective",
    "brute_force_code",
    "is_eps_near_solution",
    "grid_resolution_error",
]

_FINISH_AT = (10, 20, 30, 50, 80, 130, 200)  # iterations at which p = 1, q in {1, 2} try the exact finish
_FINISH_CHUNK = 256  # columns per chunk of the finish, which bounds its stacked solves
_BISECT_ITERS = 60
_SEARCH_STEPS = 60  # multiplier search: Newton steps, each falling back to bisection
_SEARCH_TOL = 1e-12  # on log(mu*S^(1-r)/(t*r)), i.e. on the relative error of mu
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the iterative coder (its step is always 1/L); defaults suit unit-ball signals."""

    max_iters: int = 5000
    obj_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if self.obj_tol <= 0.0:
            raise ValueError("obj_tol must be positive")
        if int(self.restarts) < 1:
            raise ValueError("restarts must be >= 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be an unsigned integer")


@dataclass(frozen=True)
class CodingResult:
    """Outcome of coding one signal: coefficients plus diagnostics."""

    coeffs: np.ndarray
    objective: float
    residual_norm: float
    iterations: int
    converged: bool


def _col_sq(M: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", M, M)


def objective(x, D, a, pen: Penalty) -> float:
    """Per-sample coding objective ``0.5*||x - D a||^2 + g(a)``."""
    atoms = _atoms_of(D)
    x = np.asarray(x, dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    if x.shape[0] != atoms.shape[0]:
        raise ValueError(f"signal length {x.shape[0]} does not match dictionary rows {atoms.shape[0]}")
    if a.shape[0] != atoms.shape[1]:
        raise ValueError(f"coefficient length {a.shape[0]} does not match atom count {atoms.shape[1]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(a))):
        raise ValueError("inputs must be finite")
    r = x - atoms @ a
    return float(0.5 * (r @ r) + penalty_eval(a, pen))


def _power_sums(M: np.ndarray, p: float) -> np.ndarray:
    """``sum_i M_ij^p`` per column, for ``M >= 0``."""
    if p == 1.0:
        return np.sum(M, axis=0)
    if p == 2.0:
        return _col_sq(M)
    return np.sum(M**p, axis=0)


def _penalty_cols(A: np.ndarray, pen: Penalty) -> np.ndarray:
    """g evaluated on every column at once."""
    S = _power_sums(np.abs(A), pen.p) / pen.lam**pen.p
    if pen.separable:
        return S
    return S ** (pen.q / pen.p)


# ---------------------------------------------------------------------------
# proximal operators


def _prox_magnitude(y: np.ndarray, s, p: float) -> np.ndarray:
    """Global minimizer of ``0.5*(a - y)^2 + s*a^p`` over ``a >= 0`` for every
    magnitude ``y >= 0`` at once; s broadcasts.

    Closed forms for p in {1/2, 1, 3/2}: half thresholding for p = 1/2
    (Xu et al. 2012) and a quadratic in ``sqrt(a)`` for p = 3/2; p = 2 never
    reaches here, since `_prox_step` scales in place for it. Other
    exponents bisect on the stationarity equation
    ``psi(a) = a - y + s*p*a^(p-1)``: for p > 1 on ``(0, y)``, where psi
    increases; for p < 1 on ``[a_c, y]`` above its minimum
    ``a_c = (s*p*(1-p))^(1/(2-p))``, keeping the root only where it beats
    a = 0. An infinite weight gives 0, a zero weight returns y unchanged.
    """
    s = np.asarray(s, dtype=float)
    if p == 1.0:
        return np.maximum(y - s, 0.0)
    if p == 1.5:
        # a + 1.5*s*sqrt(a) = y is a quadratic in u = sqrt(a); this root form
        # stays finite for s = inf and for y = s = 0
        c = 1.5 * s
        u = 2.0 * y / np.maximum(c + np.sqrt(c * c + 4.0 * y), _TINY)
        a = u * u
    elif p == 0.5:
        # the global minimizer is nonzero exactly above y = 1.5*s^(2/3)
        take = y > 1.5 * s ** (2.0 / 3.0)
        ys = np.where(take, y, 1.0)
        phi = np.arccos(np.where(take, s, 0.0) / 4.0 * (ys / 3.0) ** -1.5)
        a = np.where(take, 2.0 / 3.0 * ys * (1.0 + np.cos(2.0 * np.pi / 3.0 - 2.0 / 3.0 * phi)), 0.0)
    else:
        s = np.broadcast_to(s, y.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if p > 1.0:
                lo = np.zeros_like(y)
                hi = y.copy()
                for _ in range(_BISECT_ITERS):
                    mid = 0.5 * (lo + hi)
                    up = mid - y + s * p * mid ** (p - 1.0) > 0.0
                    hi = np.where(up, mid, hi)
                    lo = np.where(up, lo, mid)
                a = 0.5 * (lo + hi)
            else:
                a_c = (s * p * (1.0 - p)) ** (1.0 / (2.0 - p))
                safe = np.where(a_c > 0.0, a_c, 1.0)
                psi_c = a_c - y + s * p * safe ** (p - 1.0)
                interior = (a_c < y) & (psi_c < 0.0) & (s > 0.0) & (y > 0.0)
                lo = np.where(interior, a_c, 0.0)
                hi = np.where(interior, y, 0.0)
                for _ in range(_BISECT_ITERS):
                    mid = 0.5 * (lo + hi)
                    safe = np.where(mid > 0.0, mid, 1.0)
                    up = mid - y + s * p * safe ** (p - 1.0) > 0.0
                    hi = np.where(up & interior, mid, hi)
                    lo = np.where(up | ~interior, lo, mid)
                root = 0.5 * (lo + hi)
                take = interior & (0.5 * (root - y) ** 2 + s * root**p < 0.5 * y * y)
                a = np.where(take, root, 0.0)
    return np.where(s == 0.0, y, a)


def _prox_power_vector(Z: np.ndarray, s, p: float) -> np.ndarray:
    """Elementwise prox of ``s*|.|^p``: the sign of Z times `_prox_magnitude`
    of ``|Z|``; s broadcasts over Z."""
    return np.copysign(_prox_magnitude(np.abs(Z), s, p), Z)


def _dual_norms(V: np.ndarray, p: float) -> np.ndarray:
    """Column norms ``||V||_p*`` dual to ``||.||_p``, for p >= 1."""
    if p == 1.0:
        return np.max(np.abs(V), axis=0)
    if p == 2.0:
        return np.sqrt(_col_sq(V))
    e = p / (p - 1.0)
    M = np.abs(V)
    top = np.max(M, axis=0)
    M /= np.where(top > 0.0, top, 1.0)  # scaled, so that large e cannot overflow
    return top * _power_sums(M, e) ** (1.0 / e)


def _multiplier_prox(Z: np.ndarray, t: np.ndarray, pen: Penalty, Y: np.ndarray) -> np.ndarray:
    """Prox of ``t * S(a)^r`` per column, ``S(a) = sum|a_i/lam|^p``, ``r = q/p``.

    The minimizer is the separable prox ``a(mu) = prox_{mu*|./lam|^p}(Z)``
    at a multiplier with ``psi(mu) = mu - t*r*S(a(mu))^(r-1) = 0``. Along
    ``a(mu)`` the prox objective falls where ``psi < 0`` and rises where
    ``psi > 0``, and ``psi <= 0`` on ``[0, mu_hi]``, ``mu_hi = t*r*S(Z)^(r-1)``.
    So for q > p the root is the unique one in ``[0, mu_hi]``; for
    ``p > q >= 1`` (a convex prox) it is the first one above ``mu_hi``, and
    for q = 1 none exists, and the prox is 0, when ``lam*||Z||_p* <= t``.
    A safeguarded Newton search on ``log(mu*S^(1-r)/(t*r))`` in ``log(mu)``
    finds it, started from the multiplier at Y, the point the step was taken
    from. For ``q < min(p, 1)`` there is no search: one separable prox at
    the multiplier linearized at Y minimizes a majorizer, since ``S^r`` is
    concave in S; ``a = 0`` is then a strict local minimum anyway, and Y = 0
    maps to 0. When p < 1 or q < 1 the result is also compared with ``a = 0``.
    For ``p < 1 < q/p`` the path skips jumps of the separable prox, so the
    result need not be the global prox; the loop's descent check covers it.

    Overwrites Z with the result and returns it.
    """
    p, q, lam = pen.p, pen.q, pen.lam
    r = q / p
    lp = lam**-p
    y = np.abs(Z)
    c = np.broadcast_to(t * r, Z.shape[1:])
    Sz = _power_sums(y, p) * lp
    Sy = _power_sums(np.abs(Y), p) * lp
    live = (c > 0.0) & (Sz > 0.0)
    mag = np.where(live, 0.0, y)  # a zero step or a zero column is its own prox
    if q == 1.0 and p > 1.0:
        live &= lam * _dual_norms(y, p) > t
    if q < min(p, 1.0):
        live &= Sy > 0.0
    J = slice(None) if live.all() else np.flatnonzero(live)
    yJ, cJ, SyJ = y[:, J], c[J], Sy[J]
    if q < min(p, 1.0):
        mag[:, J] = _prox_magnitude(yJ, cJ * SyJ ** (r - 1.0) * lp, p)
    else:
        mag[:, J] = _multiplier_search(yJ, cJ, Sz[J], SyJ, p, r, lp)
    if p < 1.0 or q < 1.0:
        lose = 0.5 * _col_sq(mag - y) + t * (_power_sums(mag, p) * lp) ** r >= 0.5 * _col_sq(y)
        mag[:, lose & live] = 0.0
    return np.copysign(mag, Z, out=Z)


def _multiplier_search(y, c, Sz, Sy, p: float, r: float, lp: float) -> np.ndarray:
    """Magnitudes ``a(mu)`` at the root of ``g = log(mu*S(a(mu))^(1-r)/c)``,
    ``c = t*r``, per column (see `_multiplier_prox`); every column has
    ``c > 0`` and ``S(y) > 0``.

    In ``log(mu)``, g has slope ``1 - (1-r)*e`` with ``e = -mu*S'/S`` in
    ``[0, p/(p-1)]``; that slope is at least 1 for r > 1 and, for
    ``p > q >= 1``, at least ``(q-1)/(p-1)``. Newton steps stay inside a
    bracket of the root and fall back to bisection. A column stops moving
    once ``|g| <= _SEARCH_TOL`` or its bracket has closed.
    """
    mu_hi = c * Sz ** (r - 1.0)
    if r > 1.0:
        lo, hi = np.zeros_like(mu_hi), mu_hi
    else:
        lo, hi = mu_hi, np.full_like(mu_hi, np.inf)
    best = np.full_like(mu_hi, np.inf)
    mag = np.zeros_like(y)
    # S(Y) = 0 gives an infinite or zero start, S(a) = 0 an infinite g, and a
    # zero slope a wild Newton point: the bracket test catches each of them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = c * Sy ** (r - 1.0)
        mu = np.where((mu > lo) & (mu < hi), mu, mu_hi)
        log_c = np.log(c)
        for _ in range(_SEARCH_STEPS):
            A = _prox_magnitude(y, mu * lp, p)
            Ap = A if p == 1.0 else A**p
            sum_ap = Ap.sum(axis=0)
            if p < 1.0:
                # the separable prox jumps, so g can step over 0 and the
                # search then closes on the jump: keep the best point seen
                f = 0.5 * _col_sq(A - y) + c / r * (sum_ap * lp) ** r
                keep = f < best
                best = np.where(keep, f, best)
                np.copyto(mag, A, where=keep)
            g = np.log(mu) - log_c + (1.0 - r) * np.log(sum_ap * lp)
            done = (np.abs(g) <= _SEARCH_TOL) | (hi <= lo * (1.0 + 4.0 * _EPS))
            if done.all():
                break
            lo = np.where(g < 0.0, mu, lo)
            hi = np.where(g > 0.0, mu, hi)
            R = y - A
            w = np.divide(Ap * R, A + (p - 1.0) * R, out=np.zeros_like(A), where=A > 0.0)
            mu_next = mu * np.exp(-g * sum_ap / (sum_ap - (1.0 - r) * p * w.sum(axis=0)))
            inside = (mu_next > lo) & (mu_next < hi)
            if not inside.all():
                if r > 1.0:
                    mid = np.where(lo > 0.0, np.sqrt(lo * hi), 0.5 * hi)
                else:
                    mid = np.where(hi < np.inf, np.sqrt(lo * hi), 4.0 * lo)
                mu_next = np.where(inside, mu_next, mid)
            mu = np.where(done, mu, mu_next)
    return mag if p < 1.0 else A


def _prox_step(Z: np.ndarray, steps, pen: Penalty, Y: np.ndarray) -> np.ndarray:
    """Prox of ``step * g`` applied columnwise; `steps` is scalar or per-column.

    Separable penalties (q == p) take the elementwise prox, p = 2 the scalar
    ``|.|^q`` prox of each column's norm, and every other pair the
    multiplier search of `_multiplier_prox`, which starts from Y, the point
    the step was taken from. Z may be overwritten: use the returned array.
    """
    t = np.asarray(steps, dtype=float)
    if pen.separable:
        s = t * pen.lam ** (-pen.p)
        if pen.p == 1.0:
            mag = np.abs(Z)
            mag -= s
            np.maximum(mag, 0.0, out=mag)
            return np.copysign(mag, Z, out=Z)
        if pen.p == 2.0:
            Z /= 1.0 + 2.0 * s
            return Z
        return _prox_power_vector(Z, s, pen.p)
    if pen.p == 2.0:
        norms = np.sqrt(_col_sq(Z))
        rho = _prox_magnitude(norms, t * pen.lam ** (-pen.q), pen.q)
        Z *= np.divide(rho, norms, out=np.zeros_like(norms), where=norms > 0.0)
        return Z
    return _multiplier_prox(Z, t, pen, Y)


# ---------------------------------------------------------------------------
# proximal-gradient batch solver


def _gram_spectrum(G: np.ndarray) -> tuple[float, int]:
    """Largest eigenvalue of the Gram matrix G and its numerical rank, counted
    with the default threshold of `np.linalg.matrix_rank`, ``top * d * eps``."""
    w = np.linalg.eigvalsh(G)
    return float(w[-1]), int(np.count_nonzero(w > w[-1] * G.shape[0] * _EPS))


def _fit_cols(B, GB, hb, bb):
    """``0.5*||x - D b||^2`` per column, from the cached product ``GB = G @ B``."""
    return bb - np.einsum("ij,ij->j", hb, B) + 0.5 * np.einsum("ij,ij->j", B, GB)


def _duality_gap(A, v, fit, pen_a, pen: Penalty) -> np.ndarray:
    """Per-column duality gap of a convex route at A, in Gram form.

    With ``v = h - G a = D^T r`` for the residual ``r = x - D a``, the dual
    point ``c*r`` has value ``c*(2*base - h.a) - c^2*fit - g*(c*v)``; using
    ``h.a = 2*base - 2*fit - a.v`` the gap is
    ``g(a) + g*(c*v) - c*a.v + (1 - c)^2*fit``. For q > 1 the conjugate of
    ``g = (||.||_p/lam)^q`` is ``(1-1/q)*q^(-1/(q-1))*(lam*||v||_p*)^(q/(q-1))``
    and the residual itself is the dual point (c = 1). For q = 1, g* is the
    indicator of the dual-norm ball of radius 1/lam, and c scales the
    residual into it.
    """
    av = np.einsum("ij,ij->j", A, v)
    q = pen.q
    lam_norm = pen.lam * _dual_norms(v, pen.p)
    if q > 1.0:
        with np.errstate(over="ignore"):  # an infinite gap only defers the stop
            conj = (1.0 - 1.0 / q) * q ** (-1.0 / (q - 1.0)) * lam_norm ** (q / (q - 1.0))
        return pen_a + conj - av
    c = 1.0 / np.maximum(1.0, lam_norm)
    return pen_a - c * av + (1.0 - c) ** 2 * fit


def _pattern_solve(G, h, s, pen: Penalty) -> np.ndarray:
    """Minimizer of the p = 1, q in {1, 2} objective on each column's sign
    pattern ``s`` (entries in {-1, 0, 1}), as a dense array shaped like s.

    On the support S and signs s_S of a column the objective is a quadratic
    in ``a_S``, minimized by ``G_SS a_S = h_S - s_S/lam`` for q = 1 and
    ``(G_SS + 2/lam^2 * s_S s_S') a_S = h_S`` for q = 2. Columns with the same
    ``|S|`` are solved as one stack of ``|S| x |S|`` systems; each system is
    factored on its own, so a column's solution does not depend on the other
    columns. A column whose ``G_SS`` is exactly singular gets NaN on S.
    """
    on = s != 0.0
    size = np.count_nonzero(on, axis=0)
    order = np.argsort(size, kind="stable")
    count = np.bincount(size)
    # every support, ascending, column after column in order of size, so
    # that the columns of one size hold one contiguous run
    rows = np.nonzero(on[:, order].T)[1]
    cols = np.repeat(order, size[order])
    sS = s[rows, cols]
    rhs = h[rows, cols] - sS / pen.lam if pen.q == 1.0 else h[rows, cols]
    x = np.empty(rows.size)
    lo = 0
    for k in np.flatnonzero(count[1:]) + 1:  # (np.unique would import numpy.ma)
        hi = lo + count[k] * k
        S = rows[lo:hi].reshape(-1, k)
        M = G[S[:, :, None], S[:, None, :]]
        if pen.q == 2.0:
            sk = sS[lo:hi].reshape(-1, k)
            M += 2.0 / pen.lam**2 * sk[:, :, None] * sk[:, None, :]
        b = rhs[lo:hi].reshape(-1, k, 1)
        try:
            x[lo:hi] = np.linalg.solve(M, b).ravel()
        except np.linalg.LinAlgError:  # some G_SS is exactly singular: solve one by one
            for i in range(M.shape[0]):
                try:
                    x[lo + i * k : lo + (i + 1) * k] = np.linalg.solve(M[i], b[i]).ravel()
                except np.linalg.LinAlgError:
                    x[lo + i * k : lo + (i + 1) * k] = np.nan
        lo = hi
    a = np.zeros(s.shape)
    a[rows, cols] = x
    return a


def _finish_try(G, h, base, A, GA, fA, pA, J, s, pen: Penalty, obj_tol: float):
    """`_pattern_solve` for the columns J on the patterns s. A solution
    passes when it keeps the signs s, its duality gap is at most
    ``obj_tol * max(1, F)``, and its F is at most the iterate's; passing
    columns are overwritten in A, GA, fA and pA. Returns the pass mask, the
    solutions and ``v = h - G a`` at them."""
    hJ = h[:, J]
    a = _pattern_solve(G, hJ, s, pen)
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular G_SS fails the tests below
        Ga = np.einsum("ij,jk->ik", G, a)  # per column in a fixed order, unlike G @ a on one column
        f = _fit_cols(a, Ga, hJ, base[J])
        pa = _penalty_cols(a, pen)
        F = f + pa
        v = hJ - Ga
        ok = np.all(np.sign(a) == s, axis=0) & (F <= fA[J] + pA[J])
        ok &= _duality_gap(a, v, f, pa, pen) <= obj_tol * np.maximum(1.0, F)
    K = J[ok]
    A[:, K], GA[:, K], fA[K], pA[K] = a[:, ok], Ga[:, ok], f[ok], pa[ok]
    return ok, a, v


def _pivot(s, a, v, pen: Penalty):
    """One active-set move per column from the pattern s whose solution a
    failed, with ``v = h - G a``: drop the coordinates whose sign flipped
    (or became 0 or NaN); if none did, add the off-support coordinate with
    the largest ``|v_i|`` above the subgradient weight ``w`` (``1/lam`` for
    q = 1, ``2*||a||_1/lam^2`` for q = 2), signed like ``v_i``. Returns the
    mask of the columns that moved and their new patterns."""
    flipped = (s != 0.0) & (np.sign(a) != s)
    moved = flipped.any(axis=0)
    s2 = np.where(flipped, 0.0, s)
    off = np.where(s == 0.0, np.abs(v), 0.0)
    w = 1.0 / pen.lam if pen.q == 1.0 else 2.0 * np.sum(np.abs(a), axis=0) / pen.lam**2
    i = np.argmax(off, axis=0)
    add = np.flatnonzero(~moved & (off[i, np.arange(s.shape[1])] > w))
    s2[i[add], add] = np.sign(v[i[add], add])
    moved[add] = True
    return moved, s2[:, moved]


def _size_chunks(size, rank: int) -> list:
    """Positions of the entries with ``0 < size <= rank``, ordered by size,
    so that a chunk holds few sizes, and cut into chunks of `_FINISH_CHUNK`.
    A last chunk of one column joins the one before it: numpy sums a lone
    column in another order than a column of a wider array."""
    pos = np.flatnonzero((size > 0) & (size <= rank))
    pos = pos[np.argsort(size[pos], kind="stable")]
    starts = list(range(0, pos.size, _FINISH_CHUNK))
    if len(starts) > 1 and starts[-1] == pos.size - 1:
        starts.pop()
    return [pos[i:j] for i, j in zip(starts, starts[1:] + [pos.size])]


def _sign_pattern_finish(G, rank: int, h, base, A, GA, fA, pA, cols, pen: Penalty, obj_tol: float):
    """Exact finish for p = 1, q in {1, 2} on the columns `cols` of A.

    Each column's iterate gives a sign pattern, and `_pattern_solve` finds
    the minimizer on it. Supports larger than rank(G), whose systems are
    singular, are skipped. A solution is accepted when it keeps the signs,
    its duality gap is at most ``obj_tol * max(1, F)``, and its F is at most
    the iterate's (`_finish_try`). A column that fails gets one active-set
    pivot (`_pivot`) and, if its new support is nonempty and at most
    rank(G), one more solve under the same tests. Accepted columns are
    overwritten in A, GA, fA and pA, and returned.

    Each pass goes in the chunks of `_size_chunks`, which bound the stacked
    systems; a column's result does not depend on its chunk.
    """
    accepted = np.zeros(cols.size, dtype=bool)
    # the second pass's positions in cols and patterns go into arrays
    # allocated once, so that no small array outlives its chunk
    redo = np.empty(cols.size, dtype=int)
    patterns = np.empty((A.shape[0], cols.size), dtype=np.int8)
    m = 0
    for P in _size_chunks(np.count_nonzero(A, axis=0)[cols], rank):
        s = np.sign(A[:, cols[P]])
        ok, a, v = _finish_try(G, h, base, A, GA, fA, pA, cols[P], s, pen, obj_tol)
        accepted[P] = ok
        if not ok.all():
            moved, s2 = _pivot(s[:, ~ok], a[:, ~ok], v[:, ~ok], pen)
            k = s2.shape[1]
            redo[m : m + k], patterns[:, m : m + k] = P[~ok][moved], s2
            m += k
    redo, patterns = redo[:m], patterns[:, :m]
    for P in _size_chunks(np.count_nonzero(patterns, axis=0), rank):
        R = redo[P]
        accepted[R] = _finish_try(G, h, base, A, GA, fA, pA, cols[R], patterns[:, P], pen, obj_tol)[0]
    return cols[accepted]


def _prox_grad_descent(G, h, base, pen: Penalty, cfg: SolverConfig, A0):
    """Monotone FISTA over all columns, with per-column restarts.

    Every live column steps by ``1/L``, ``L = lambda_max(G)``: the fit is
    the quadratic ``0.5*a'Ga - h'a + base``, so L is the exact Lipschitz
    constant of its gradient and the step needs no line search (Beck and
    Teboulle 2009). Each column carries its own momentum ``t`` and
    extrapolated point ``Y``. The products ``G @ A`` and ``G @ Y`` travel
    with the iterates, so an iteration costs one Gram product and nothing
    that grows with the signal dimension. A step that would raise a column's
    objective is dropped and restarts its momentum (``t = 1``, ``Y = A``);
    the column retires when such a plain step still fails to descend.

    Convex routes (p, q >= 1) retire a column once its duality gap is at
    most ``obj_tol * max(1, F)``, or on a rise after a plain step. For p = 1
    with q in {1, 2}, at each iteration in `_FINISH_AT` the columns still
    live try `_sign_pattern_finish`, one exact solve on their sign pattern
    and, where that fails, one more after an active-set pivot; a column
    whose solution it certifies retires with that solution, and every other
    column carries on unchanged. Nonconvex routes (p < 1 or
    q < 1) run without momentum and retire on a rise or on a gain of at most
    ``obj_tol * max(1, |F|)``.

    A retired column gets step 0 and no momentum, which freezes it in the
    working arrays until they are compacted; compaction waits until enough
    columns have retired, which keeps both the copying and the wasted
    arithmetic at a bounded fraction.
    """
    d, n = G.shape[0], h.shape[1]
    convex = pen.p >= 1.0 and pen.q >= 1.0
    finish = pen.p == 1.0 and pen.q in (1.0, 2.0)
    top, rank = _gram_spectrum(G)
    step0 = 1.0 / max(top, 1e-12)

    A_out = None  # allocated at the first compaction
    obj_out = np.empty(n)
    iters_out = np.zeros(n, dtype=int)
    conv_out = np.zeros(n, dtype=bool)

    idx = np.arange(n)  # working column -> original column
    alive = np.ones(n, dtype=bool)
    # A0, h and base are only read: every in-place write below goes to a
    # buffer this loop allocated
    A = Y = A0
    GA = GY = G @ A0
    hw, bw = h, base
    fA = _fit_cols(A, GA, hw, bw)
    pA = _penalty_cols(A, pen)
    sw = np.full(n, step0)
    tw = np.ones(n)

    for it in range(1, int(cfg.max_iters) + 1):
        Z = GY - hw  # the gradient at Y, turned into the forward step in place
        Z *= -sw
        Z += Y
        Z = _prox_step(Z, sw, pen, Y)
        pZ = _penalty_cols(Z, pen)
        GZ = G @ Z
        del Y, GY
        fZ = _fit_cols(Z, GZ, hw, bw)
        FA, FZ = fA + pA, fZ + pZ
        rise = FZ > FA
        if convex:
            # a rise keeps the better A; a rise after a plain step is float
            # noise at the optimum
            done = rise & (tw == 1.0)
        else:
            done = rise | (np.abs(FA - FZ) <= cfg.obj_tol * np.maximum(1.0, np.abs(FZ)))
        del FA, FZ
        if rise.any():  # keep the old iterate
            np.copyto(Z, A, where=rise)
            np.copyto(GZ, GA, where=rise)
            fZ = np.where(rise, fA, fZ)
            pZ = np.where(rise, pA, pZ)
        if convex:
            v = hw - GZ
            done |= _duality_gap(Z, v, fZ, pZ, pen) <= cfg.obj_tol * np.maximum(1.0, fZ + pZ)
            del v
        done &= alive
        if finish and it in _FINISH_AT:
            trying = np.flatnonzero(alive & ~done)
            done[_sign_pattern_finish(G, rank, hw, bw, Z, GZ, fZ, pZ, trying, pen, cfg.obj_tol)] = True
        if done.any():
            cols = idx[done]
            obj_out[cols] = fZ[done] + pZ[done]
            iters_out[cols] = it
            conv_out[cols] = True
            alive &= ~done
            sw[done] = 0.0
            tw[done] = 1.0
        if convex:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tw * tw))
            beta = np.where(rise, 0.0, (tw - 1.0) / t_next)
            tw = np.where(rise, 1.0, t_next)
        if convex and beta.any():
            # Y = Z + beta*(Z - A), written over the old A and G@A; beta is
            # 0 on the first pass, so A is never A0 here
            A -= Z
            A *= -beta
            A += Z
            GA -= GZ
            GA *= -beta
            GA += GZ
            Y, GY = A, GA
        else:
            Y, GY = Z, GZ
        A, GA, fA, pA = Z, GZ, fZ, pZ
        del Z, GZ
        live = int(np.count_nonzero(alive))
        if live == 0:
            break
        if live < 0.6 * idx.size and idx.size > 64:
            if A_out is None:
                A_out = np.empty((d, n))
            A_out[:, idx[~alive]] = A[:, ~alive]
            # one array at a time, so that each full-width array is freed
            # before the next is copied
            same = Y is A
            A = A[:, alive]
            GA = GA[:, alive]
            Y = A if same else Y[:, alive]
            GY = GA if same else GY[:, alive]
            hw, bw = hw[:, alive], bw[alive]
            sw, tw, fA, pA = sw[alive], tw[alive], fA[alive], pA[alive]
            idx = idx[alive]
            alive = np.ones(idx.size, dtype=bool)
    if alive.any():  # ran out of iterations
        cols = idx[alive]
        obj_out[cols] = fA[alive] + pA[alive]
        iters_out[cols] = it
    if A_out is None:
        return A, obj_out, iters_out, conv_out
    A_out[:, idx] = A
    return A_out, obj_out, iters_out, conv_out


# ---------------------------------------------------------------------------
# multi-start orchestration


def _random_l1_ball_points(radii: np.ndarray, d: int, rng) -> np.ndarray:
    """One point per column, spread over the l1 ball of the given radius."""
    n = radii.shape[0]
    w = rng.exponential(size=(d, n))
    w /= np.maximum(w.sum(axis=0), 1e-300)
    signs = rng.integers(0, 2, size=(d, n)) * 2.0 - 1.0
    scale = radii * rng.uniform(size=n) ** (1.0 / d)
    return signs * w * scale


def _solve_columns(Xmat: np.ndarray, D: Dictionary, pen: Penalty, cfg: SolverConfig, warm=None):
    """Code every column of Xmat; returns (A, obj, iters, conv) arrays.

    Every start (zero, the warm start, and for nonconvex exponents a ridge
    start and seeded random ones) is a block of columns in one
    `_prox_grad_descent` call. On a convex route (p, q >= 1) a warm start
    replaces the zero start, since monotone FISTA never ends above F(warm).
    The candidates, and the literal zero vector, are merged per column:
    strictly smaller objective wins, ties break toward smaller l1 norm and
    then toward the earlier candidate. `iters` sums the iterations of every
    start.
    """
    atoms = D.atoms
    d, n = atoms.shape[1], Xmat.shape[1]
    G = atoms.T @ atoms
    h = atoms.T @ Xmat
    base = 0.5 * _col_sq(Xmat)

    nonconvex = pen.p < 1.0 or pen.q < 1.0
    randoms = max(int(cfg.restarts) - 2, 0) if nonconvex else 0
    k = (warm is None or nonconvex) + (warm is not None) + nonconvex + randoms
    if k == 1:
        A0 = np.zeros((d, n)) if warm is None else warm
        A, obj, it, conv = _prox_grad_descent(G, h, base, pen, cfg, A0)
    else:
        A0 = np.empty((d, k * n))  # one block of columns per start
        A0[:, :n] = 0.0
        j = n
        if warm is not None:
            A0[:, j : j + n] = warm
            j += n
        if nonconvex:
            A0[:, j : j + n] = np.linalg.solve(G + 1e-6 * max(_gram_spectrum(G)[0], 1.0) * np.eye(d), h)
            j += n
            radii = np.array([l1_bound_from_penalty(t, pen, d) for t in base])
            for i in range(randoms):
                rng = np.random.default_rng([int(cfg.seed), 9151, i])
                A0[:, j : j + n] = _random_l1_ball_points(radii, d, rng)
                j += n
        A, obj, it, conv = _prox_grad_descent(G, np.tile(h, k), np.tile(base, k), pen, cfg, A0)

    # zero is always a candidate: objective 0.5*||x||^2 at l1 norm 0
    best_A = np.zeros((d, n))
    best_obj = base.copy()
    best_l1 = np.zeros(n)
    best_conv = np.ones(n, dtype=bool)
    for j in range(0, k * n, n):
        Aj, obj_j = A[:, j : j + n], obj[j : j + n]
        l1 = np.sum(np.abs(Aj), axis=0)
        better = (obj_j < best_obj) | ((obj_j == best_obj) & (l1 < best_l1))
        best_A[:, better] = Aj[:, better]
        best_obj[better] = obj_j[better]
        best_l1[better] = l1[better]
        best_conv[better] = conv[j : j + n][better]
    return best_A, best_obj, it.reshape(k, n).sum(axis=0), best_conv


def _check_signal(x: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != m:
        raise ValueError(f"signal length {x.shape[0]} does not match dictionary rows {m}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal must be finite")
    if np.linalg.norm(x) > 1.0 + TOL_BALL:
        raise ValueError("signal must lie in the unit l2 ball")
    return x


def sparse_code(x, D: Dictionary, pen: Penalty, cfg: SolverConfig = SolverConfig()) -> CodingResult:
    """Code one unit-ball signal; the result never beats-by-losing to a = 0.

    For convex pairs (p, q >= 1) a converged result is within
    ``cfg.obj_tol * max(1, F)`` of the infimum, certified by a duality gap;
    it stops short of that certificate only where a plain step no longer
    descends in floating point. For p = 1 with q in {1, 2} the certified
    point is usually the exact minimizer on the sign pattern the loop
    identified, or on that pattern after one active-set pivot.
    For nonconvex pairs the result is the best of `cfg.restarts`
    deterministic starts, each run to a stationary point.
    """
    x = _check_signal(x, D.m)
    A, _obj, iters, conv = _solve_columns(x[:, None], D, pen, cfg)
    coeffs = A[:, 0]
    r = x - D.atoms @ coeffs
    res = float(np.linalg.norm(r))
    val = float(0.5 * (r @ r) + penalty_eval(coeffs, pen))
    return CodingResult(
        coeffs=coeffs,
        objective=val,
        residual_norm=res,
        iterations=int(iters[0]),
        converged=bool(conv[0]),
    )


def batch_objective(X: SignalSet, D: Dictionary, pen: Penalty, cfg: SolverConfig = SolverConfig()):
    """Mean coding objective over a signal set plus the stacked coefficients.

    The mean runs over per-sample objectives in column order, so repeated
    calls with identical inputs reproduce bit-identical output.
    """
    Xmat = _signals_of(X)
    if Xmat.shape[0] != D.m:
        raise ValueError(f"signal rows {Xmat.shape[0]} do not match dictionary rows {D.m}")
    A, _obj, _iters, _conv = _solve_columns(Xmat, D, pen, cfg)
    R = Xmat - D.atoms @ A
    per_sample = 0.5 * _col_sq(R) + _penalty_cols(A, pen)
    return float(np.mean(per_sample)), CoeffMatrix(A)


def is_eps_near_solution(X: SignalSet, D: Dictionary, A, pen: Penalty, eps: float, oracle_objectives) -> bool:
    """True iff every column's objective is within eps of its trusted optimum."""
    Xmat = _signals_of(X)
    Amat = _coeffs_of(A)
    oracle = np.asarray(oracle_objectives, dtype=float).ravel()
    if Amat.shape != (D.d, Xmat.shape[1]):
        raise ValueError(f"coefficient matrix shape {Amat.shape} does not match ({D.d}, {Xmat.shape[1]})")
    if oracle.shape[0] != Xmat.shape[1]:
        raise ValueError("one oracle objective per sample is required")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    R = Xmat - D.atoms @ Amat
    per_sample = 0.5 * _col_sq(R) + _penalty_cols(Amat, pen)
    return bool(np.all(per_sample <= oracle + eps))


# ---------------------------------------------------------------------------
# brute-force grid oracle


def _line_envelope(slopes: np.ndarray, values: np.ndarray):
    """Lower envelope of the lines ``s -> values[k] + slopes[k] * s``.

    `slopes` must be sorted ascending. Returns (slopes, values, breakpoints)
    with lines ordered by descending slope; line i is active for queries up
    to breakpoints[i].
    """
    keep: list[int] = []
    for k in range(slopes.shape[0]):
        c, v = float(slopes[k]), float(values[k])
        while keep:
            c1, v1 = float(slopes[keep[-1]]), float(values[keep[-1]])
            if c == c1:
                if v >= v1:
                    break
                keep.pop()
                continue
            if len(keep) < 2:
                break
            c0, v0 = float(slopes[keep[-2]]), float(values[keep[-2]])
            s_cross = (v0 - v) / (c - c0)  # where the outer pair meets
            if v1 + c1 * s_cross >= v0 + c0 * s_cross:
                keep.pop()  # middle line never strictly below the outer pair
            else:
                break
        if keep and slopes[keep[-1]] == c and values[keep[-1]] <= v:
            continue
        keep.append(k)
    idx = np.array(keep[::-1], dtype=int)  # descending slope
    cs, vs = slopes[idx], values[idx]
    if cs.shape[0] > 1:
        bps = (vs[1:] - vs[:-1]) / (cs[:-1] - cs[1:])
    else:
        bps = np.empty(0)
    return cs, vs, bps


def _envelope_eval(env, s: np.ndarray) -> np.ndarray:
    cs, vs, bps = env
    idx = np.searchsorted(bps, s, side="left")
    return vs[idx] + cs[idx] * s


def brute_force_code(
    x,
    D: Dictionary,
    pen: Penalty,
    grid_half_width: float | None = None,
    grid_points: int = 2001,
) -> CodingResult:
    """Exhaustive grid-search oracle over ``[-w, w]^d`` for d <= 3.

    The default half width w is the l1 radius implied by the zero solution,
    which always contains the continuum minimizer. The zero vector is added
    to the candidate set explicitly, so the reported objective never exceeds
    ``0.5*||x||^2`` regardless of grid parity.

    For d == 3 with a separable penalty (q == p), the scan eliminates the
    third axis exactly through a lower envelope of lines, which returns the
    same minimum as the full product-grid scan at a fraction of the cost.
    """
    d = D.d
    if d > 3:
        raise ValueError(f"brute force supports d <= 3, got d={d}")
    grid_points = int(grid_points)
    if grid_points < 11:
        raise ValueError("grid_points must be >= 11")
    x = _check_signal(x, D.m)
    atoms = D.atoms
    base = 0.5 * float(x @ x)
    if grid_half_width is None:
        w = l1_bound_from_penalty(base, pen, d)
    else:
        w = float(grid_half_width)
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError("grid_half_width must be a positive finite real")
    grid = np.linspace(-w, w, grid_points)
    G = atoms.T @ atoms
    h = atoms.T @ x
    lam, p, q = pen.lam, pen.p, pen.q

    quad = [0.5 * G[i, i] * grid**2 - h[i] * grid for i in range(d)]
    pen1d = (np.abs(grid) / lam) ** p

    best_obj = base  # zero candidate
    best_pt = np.zeros(d)

    if d == 1:
        vals = base + quad[0] + pen1d ** (q / p)
        j = int(np.argmin(vals))
        if vals[j] < best_obj:
            best_obj, best_pt = float(vals[j]), np.array([grid[j]])
    elif d == 2:
        chunk = max(1, (1 << 21) // grid_points)
        for start in range(0, grid_points, chunk):
            a = grid[start : start + chunk]
            plane = quad[0][start : start + chunk, None] + quad[1][None, :]
            plane += G[0, 1] * a[:, None] * grid[None, :]
            S = pen1d[start : start + chunk, None] + pen1d[None, :]
            plane += S if pen.separable else S ** (q / p)
            plane += base
            k = int(np.argmin(plane))
            ia, ib = divmod(k, grid_points)
            if plane[ia, ib] < best_obj:
                best_obj = float(plane[ia, ib])
                best_pt = np.array([a[ia], grid[ib]])
    elif pen.separable:
        # exact third-axis elimination: for fixed (a, b) the c-grid minimum is
        # min_c f2(c) + c*(G02*a + G12*b), a lower envelope of lines in one scalar
        f = [quad[i] + pen1d for i in range(3)]
        env = _line_envelope(grid, f[2])
        best_ab = (0, 0)
        found = False
        chunk = max(1, (1 << 21) // grid_points)
        for start in range(0, grid_points, chunk):
            a = grid[start : start + chunk]
            plane = f[0][start : start + chunk, None] + f[1][None, :]
            plane += G[0, 1] * a[:, None] * grid[None, :]
            plane += _envelope_eval(env, G[0, 2] * a[:, None] + G[1, 2] * grid[None, :])
            k = int(np.argmin(plane))
            ia, ib = divmod(k, grid_points)
            if base + plane[ia, ib] < best_obj:
                best_obj = base + float(plane[ia, ib])
                best_ab = (start + ia, ib)
                found = True
        if found:
            ia, ib = best_ab
            a_v, b_v = grid[ia], grid[ib]
            c_vals = f[2] + grid * (G[0, 2] * a_v + G[1, 2] * b_v)
            ic = int(np.argmin(c_vals))
            best_pt = np.array([a_v, b_v, grid[ic]])
            best_obj = base + float(f[0][ia] + f[1][ib] + G[0, 1] * a_v * b_v + c_vals[ic])
    else:
        # generic d == 3: plane scan per outer grid value (slow; test-scale only)
        for ia, a_v in enumerate(grid):
            plane = quad[1][:, None] + quad[2][None, :]
            plane += G[1, 2] * grid[:, None] * grid[None, :]
            plane += a_v * (G[0, 1] * grid[:, None] + G[0, 2] * grid[None, :])
            S = pen1d[ia] + pen1d[:, None] + pen1d[None, :]
            plane += quad[0][ia] + base + S ** (q / p)
            k = int(np.argmin(plane))
            ib, ic = divmod(k, grid_points)
            if plane[ib, ic] < best_obj:
                best_obj = float(plane[ib, ic])
                best_pt = np.array([a_v, grid[ib], grid[ic]])

    val = objective(x, D, best_pt, pen)  # exact re-evaluation at the winner
    res = float(np.linalg.norm(x - atoms @ best_pt))
    return CodingResult(coeffs=best_pt, objective=val, residual_norm=res, iterations=0, converged=True)


def grid_resolution_error(
    x,
    D: Dictionary,
    pen: Penalty,
    grid_half_width: float | None = None,
    grid_points: int = 2001,
) -> float:
    """Conservative bound on how far the grid minimum can sit above the
    continuum infimum for `brute_force_code` with the same arguments.

    Splits into the fit term (gradient bound over the search box) and the
    penalty term (worst variation across one grid cell, with the p < 1
    quasi-norm handled through its p-power subadditivity).
    """
    d = D.d
    x = np.asarray(x, dtype=float).ravel()
    base = 0.5 * float(x @ x)
    w = l1_bound_from_penalty(base, pen, d) if grid_half_width is None else float(grid_half_width)
    if w == 0.0:
        return 0.0
    step = 2.0 * w / (int(grid_points) - 1)
    half = 0.5 * step
    sig = float(np.linalg.norm(D.atoms, 2))
    fit_err = sig * (sig * w * math.sqrt(d) + float(np.linalg.norm(x))) * half * math.sqrt(d)
    lam, p, q = pen.lam, pen.p, pen.q
    if p <= 1.0:
        du = d * (half / lam) ** p
    else:
        du = d * p * (w / lam) ** (p - 1.0) * (half / lam)
    if pen.separable:
        pen_err = du
    else:
        r = q / p
        u_max = d * (w / lam) ** p
        pen_err = du**r if r < 1.0 else r * (u_max + du) ** (r - 1.0) * du
    return float(fit_err + pen_err)
