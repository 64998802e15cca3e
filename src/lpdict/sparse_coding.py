"""Penalized least-squares coding of signals against a fixed dictionary.

Solves ``min_a 0.5*||x - D a||^2 + g(a)`` with ``g(a) = ||a/lam||_p^q`` for
one signal or a whole column-stacked batch.

Solver routes:

* q == p: the penalty is coordinate-separable, so a batched proximal-gradient
  loop with backtracking does the work: monotone FISTA with per-column
  adaptive restart. The 1-D prox subproblem has closed forms for p in {1, 2}
  and is solved by a bracketed bisection on the stationarity equation (plus
  an explicit comparison with 0) for every other exponent.
* (p, q) == (2, 1): the penalty is a scaled l2 norm, whose prox is columnwise
  soft shrinkage, so the same loop applies.
* anything else: gradient descent on a smoothed objective where ``||.||_p``
  is replaced by ``(sum (v_i^2 + eps)^(p/2))^(1/p)``, polished by an
  eps -> eps/1000 continuation in three stages.

On the convex prox routes (p = q >= 1 and (2, 1)) a column stops on a
duality-gap certificate: the gap between its objective and the dual value
at its scaled residual is at most ``obj_tol * max(1, F)``. The nonconvex
prox routes (p = q < 1) run the loop without momentum and stop on a small
gain or a small move. Nonconvex exponents (p < 1 or q < 1) get
deterministic multi-start. Every path ends with an explicit comparison
against a = 0, so a returned objective never exceeds ``0.5*||x||^2``.
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

_MAX_BACKTRACKS = 60
_BISECT_ITERS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the iterative coder; defaults suit unit-ball signals."""

    max_iters: int = 5000
    step_shrink: float = 0.5
    grad_tol: float = 1e-10
    obj_tol: float = 1e-8
    restarts: int = 5
    smoothing_eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.step_shrink < 1.0:
            raise ValueError("step_shrink must lie in (0, 1)")
        if self.grad_tol <= 0.0 or self.obj_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if int(self.restarts) < 1:
            raise ValueError("restarts must be >= 1")
        if self.smoothing_eps < 0.0:
            raise ValueError("smoothing_eps must be nonnegative")
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


def _atoms_of(D) -> np.ndarray:
    return D.atoms if isinstance(D, Dictionary) else np.asarray(D, dtype=float)


def _signals_of(X) -> np.ndarray:
    return X.signals if isinstance(X, SignalSet) else np.asarray(X, dtype=float)


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


def _penalty_cols(A: np.ndarray, pen: Penalty) -> np.ndarray:
    """g evaluated on every column at once."""
    if pen.p == 1.0:
        S = np.sum(np.abs(A), axis=0) / pen.lam
    elif pen.p == 2.0:
        S = _col_sq(A) / (pen.lam * pen.lam)
    else:
        S = np.sum((np.abs(A) / pen.lam) ** pen.p, axis=0)
    if pen.separable:
        return S
    return S ** (pen.q / pen.p)


# ---------------------------------------------------------------------------
# proximal operators


def _prox_power_scalar(z: float, s: float, p: float) -> float:
    """Global minimizer of ``0.5*(a - z)^2 + s*|a|^p`` for one scalar."""
    if s == 0.0 or z == 0.0:
        return z
    y = abs(z)
    sign = 1.0 if z > 0 else -1.0
    if p > 1.0:
        # psi(a) = a - y + s*p*a^(p-1) is increasing with a root in (0, y)
        lo, hi = 0.0, y
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid - y + s * p * mid ** (p - 1.0) > 0.0:
                hi = mid
            else:
                lo = mid
        return sign * 0.5 * (lo + hi)
    # p < 1: either 0 or the larger root of psi on [a_c, y], whichever is cheaper
    a_c = (s * p * (1.0 - p)) ** (1.0 / (2.0 - p))
    if a_c >= y or a_c - y + s * p * a_c ** (p - 1.0) >= 0.0:
        return 0.0
    lo, hi = a_c, y
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid - y + s * p * mid ** (p - 1.0) > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    if 0.5 * (root - y) ** 2 + s * root**p < 0.5 * y * y:
        return sign * root
    return 0.0


def _prox_power_vector(Z: np.ndarray, s, p: float) -> np.ndarray:
    """Vectorized version of `_prox_power_scalar`; s broadcasts over Z."""
    y = np.abs(Z)
    s = np.broadcast_to(np.asarray(s, dtype=float), Z.shape)
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
        a = np.where(s == 0.0, y, a)
    return np.sign(Z) * a


def _prox_step(Z: np.ndarray, steps, pen: Penalty) -> np.ndarray:
    """Prox of ``step * g`` applied columnwise; `steps` is scalar or per-column.

    The closed-form routes overwrite Z with the result and return it.
    """
    if pen.separable:
        s = np.asarray(steps, dtype=float) * pen.lam ** (-pen.p)
        if pen.p == 1.0:
            mag = np.abs(Z)
            mag -= s
            np.maximum(mag, 0.0, out=mag)
            return np.copysign(mag, Z, out=Z)
        if pen.p == 2.0:
            Z /= 1.0 + 2.0 * s
            return Z
        return _prox_power_vector(Z, s, pen.p)
    if pen.p == 2.0 and pen.q == 1.0:
        t = np.asarray(steps, dtype=float) / pen.lam
        norms = np.sqrt(_col_sq(Z))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norms > 0.0, np.maximum(1.0 - t / norms, 0.0), 0.0)
        Z *= scale
        return Z
    raise ValueError(f"no prox route for exponents (p={pen.p}, q={pen.q})")


def _has_prox(pen: Penalty) -> bool:
    return pen.separable or (pen.p == 2.0 and pen.q == 1.0)


# ---------------------------------------------------------------------------
# proximal-gradient batch solver


def _top_eigenvalue(G: np.ndarray) -> float:
    if G.shape[0] == 1:
        return float(G[0, 0])
    return float(np.linalg.eigvalsh(G)[-1])


def _fit_cols(B, GB, hb, bb):
    """``0.5*||x - D b||^2`` per column, from the cached product ``GB = G @ B``."""
    return bb - np.einsum("ij,ij->j", hb, B) + 0.5 * np.einsum("ij,ij->j", B, GB)


def _duality_gap(A, v, fit, pen_a, pen: Penalty) -> np.ndarray:
    """Per-column duality gap of a convex route at A, in Gram form.

    With ``v = h - G a = D^T r`` for the residual ``r = x - D a``, the dual
    point ``c*r`` has value ``c*(2*base - h.a) - c^2*fit - g*(c*v)``; using
    ``h.a = 2*base - 2*fit - a.v`` the gap is
    ``g(a) + g*(c*v) - c*a.v + (1 - c)^2*fit``. For the norm penalties g* is
    the indicator of the dual-norm ball of radius 1/lam, so ``c`` scales the
    residual into it; for ``p = q > 1`` the residual itself is the dual point.
    """
    av = np.einsum("ij,ij->j", A, v)
    if pen.p > 1.0 and pen.separable:
        p = pen.p
        e = p / (p - 1.0)
        if p == 2.0:
            S = pen.lam * pen.lam * _col_sq(v)
        else:
            with np.errstate(over="ignore"):  # an infinite gap only defers the stop
                S = np.sum((pen.lam * np.abs(v)) ** e, axis=0)
        return pen_a + (1.0 - 1.0 / p) * p ** (-1.0 / (p - 1.0)) * S - av
    if pen.p == 1.0:  # (1, 1): the dual norm is the max norm
        dual_norm = np.max(np.abs(v), axis=0)
    else:  # (2, 1)
        dual_norm = np.sqrt(_col_sq(v))
    c = 1.0 / np.maximum(1.0, pen.lam * dual_norm)
    return pen_a - c * av + (1.0 - c) ** 2 * fit


def _prox_grad_descent(G, h, base, pen: Penalty, cfg: SolverConfig, A0):
    """Monotone FISTA over all columns, with per-column steps and restarts.

    Each column carries its own step, momentum ``t`` and extrapolated point
    ``Y``. The products ``G @ A`` and ``G @ Y`` travel with the iterates, so
    an iteration costs one Gram product (plus one per backtrack) and nothing
    that grows with the signal dimension. A step that would raise a column's
    objective is dropped and restarts its momentum (``t = 1``, ``Y = A``);
    the column retires when such a plain step still fails to descend.

    Convex routes retire a column once its duality gap is at most
    ``obj_tol * max(1, F)``, or once its gradient mapping passes the
    `grad_tol` test. Nonconvex separable routes (p < 1) run without momentum
    and retire on a small gain or a small move.

    A retired column gets step 0 and no momentum, which freezes it in the
    working arrays until they are compacted; compaction waits until enough
    columns have retired, which keeps both the copying and the wasted
    arithmetic at a bounded fraction.
    """
    d, n = G.shape[0], h.shape[1]
    convex = pen.p >= 1.0
    step0 = 1.0 / max(_top_eigenvalue(G), 1e-12)

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
        for _bt in range(_MAX_BACKTRACKS):
            Z = GY - hw  # the gradient at Y, turned into the forward step in place
            Z *= -sw
            Z += Y
            Z = _prox_step(Z, sw, pen)
            pZ = _penalty_cols(Z, pen)
            delta = Z - Y
            GZ = G @ Z
            dd = _col_sq(delta)
            # the fit is quadratic, so sufficient decrease from Y is exactly
            # delta' G delta <= ||delta||^2 / step
            curv = np.einsum("ij,ij->j", delta, GZ) - np.einsum("ij,ij->j", delta, GY)
            del delta
            bad = sw * curv - dd > 2e-12 * sw
            if not bad.any():
                break
            sw = np.where(bad, sw * cfg.step_shrink, sw)
        del Y, GY, curv, bad
        fZ = _fit_cols(Z, GZ, hw, bw)
        FA, FZ = fA + pA, fZ + pZ
        rise = FZ > FA
        small_move = dd <= (cfg.grad_tol * sw) ** 2 * np.maximum(1.0, _col_sq(Z))
        if convex:
            # Z near-stationary bounds F(Z) - F*, and a rise keeps the better
            # A; a rise after a plain step is float noise at the optimum
            done = small_move | (rise & (tw == 1.0))
        else:
            done = small_move | rise | (np.abs(FA - FZ) <= cfg.obj_tol * np.maximum(1.0, np.abs(FZ)))
        del FA, FZ, dd, small_move
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
        live = int(np.count_nonzero(alive))
        if live == 0:
            break
        if live < 0.6 * idx.size and idx.size > 64:
            if A_out is None:
                A_out = np.empty((d, n))
            A_out[:, idx[~alive]] = A[:, ~alive]
            same = Y is A
            A, GA = A[:, alive], GA[:, alive]
            Y, GY = (A, GA) if same else (Y[:, alive], GY[:, alive])
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
# smoothed gradient descent for non-prox exponent pairs


def _smoothed_value_grad(a, G, h, b, pen: Penalty, eps: float):
    fit = b - h @ a + 0.5 * a @ (G @ a)
    u = (a / pen.lam) ** 2 + eps
    up = u ** (pen.p / 2.0)
    S = float(np.sum(up))
    val = fit + S ** (pen.q / pen.p)
    coef = pen.q * S ** (pen.q / pen.p - 1.0) if S > 0.0 else 0.0
    grad = (G @ a - h) + coef * u ** (pen.p / 2.0 - 1.0) * a / pen.lam**2
    return float(val), grad


def _smoothed_descent(G, h, b, pen: Penalty, cfg: SolverConfig, a0):
    """Armijo gradient descent on the smoothed objective, with continuation.

    Runs one solve at `smoothing_eps` and then three polishing stages with
    eps divided by 10 each time; the caller re-evaluates the true objective.
    """
    a = np.array(a0, dtype=float)
    eps = max(cfg.smoothing_eps, 1e-300)
    budget = max(int(cfg.max_iters) // 4, 25)
    step0 = 1.0 / max(_top_eigenvalue(G), 1e-12)
    total = 0
    converged = True
    for _stage in range(4):
        step = step0
        val, grad = _smoothed_value_grad(a, G, h, b, pen, eps)
        stage_conv = False
        for _ in range(budget):
            gn2 = float(grad @ grad)
            if math.sqrt(gn2) <= cfg.grad_tol * max(1.0, float(np.linalg.norm(a))):
                stage_conv = True
                break
            step = min(step * 2.0, 1e6 * step0)
            accepted = False
            while step > 1e-20:
                cand = a - step * grad
                cval, cgrad = _smoothed_value_grad(cand, G, h, b, pen, eps)
                if cval <= val - 1e-4 * step * gn2:
                    accepted = True
                    break
                step *= cfg.step_shrink
            total += 1
            if not accepted:
                stage_conv = True
                break
            if val - cval <= cfg.obj_tol * max(1.0, abs(cval)):
                a, val, grad = cand, cval, cgrad
                stage_conv = True
                break
            a, val, grad = cand, cval, cgrad
        converged = converged and stage_conv
        eps *= 0.1
    return a, total, converged


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

    Candidates from every start (and the literal zero vector) are merged
    per column: strictly smaller objective wins, ties break toward smaller
    l1 norm and then toward the earlier candidate.
    """
    atoms = D.atoms
    d, n = atoms.shape[1], Xmat.shape[1]
    G = atoms.T @ atoms
    h = atoms.T @ Xmat
    base = 0.5 * _col_sq(Xmat)

    nonconvex = pen.p < 1.0 or pen.q < 1.0
    starts: list[np.ndarray] = [np.zeros((d, n))]
    if warm is not None:
        starts.append(np.asarray(warm, dtype=float))
    if nonconvex:
        ridge = np.linalg.solve(G + 1e-6 * max(_top_eigenvalue(G), 1.0) * np.eye(d), h)
        starts.append(ridge)
        radii = np.array([l1_bound_from_penalty(t, pen, d) for t in base])
        for k in range(max(int(cfg.restarts) - 2, 0)):
            rng = np.random.default_rng([int(cfg.seed), 9151, k])
            starts.append(_random_l1_ball_points(radii, d, rng))

    # zero is always a candidate: objective 0.5*||x||^2 at l1 norm 0
    best_A = np.zeros((d, n))
    best_obj = base.copy()
    best_l1 = np.zeros(n)
    best_conv = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=int)

    for A0 in starts:
        if _has_prox(pen):
            A, obj, it, conv = _prox_grad_descent(G, h, base, pen, cfg, A0)
        else:
            A = np.empty((d, n))
            obj = np.empty(n)
            it = np.zeros(n, dtype=int)
            conv = np.zeros(n, dtype=bool)
            for j in range(n):
                aj, tj, cj = _smoothed_descent(G, h[:, j], float(base[j]), pen, cfg, A0[:, j])
                A[:, j] = aj
                obj[j] = float(base[j]) - h[:, j] @ aj + 0.5 * aj @ (G @ aj) + penalty_eval(aj, pen)
                it[j], conv[j] = tj, cj
        iters += it
        l1 = np.sum(np.abs(A), axis=0)
        better = (obj < best_obj) | ((obj == best_obj) & (l1 < best_l1))
        best_A[:, better] = A[:, better]
        best_obj[better] = obj[better]
        best_l1[better] = l1[better]
        best_conv[better] = conv[better]
    return best_A, best_obj, iters, best_conv


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

    On the convex prox routes (p = q >= 1 and (2, 1)) a converged result is
    within ``cfg.obj_tol * max(1, F)`` of the infimum, certified by a
    duality gap; it stops short of that certificate only where the gradient
    mapping is already below `cfg.grad_tol` or a plain step no longer
    descends in floating point. Convex pairs without a prox take the
    smoothed route, which carries no certificate. For nonconvex pairs the
    result is the best of `cfg.restarts` deterministic starts, each run to a
    stationary point.
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
    Amat = A.coeffs if isinstance(A, CoeffMatrix) else np.asarray(A, dtype=float)
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
