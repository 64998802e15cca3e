"""Reference computations for the benchmark, written apart from lpdict.

Nothing here imports lpdict: every quantity the benchmark checks the program
against is computed from the formulas themselves, with numpy and scipy.
`python3 bench/refs.py` runs the self-test against closed-form cases.
"""

from __future__ import annotations

import math

import numpy as np

SQRT8 = math.sqrt(8.0)
GRID_POINTS = 2001  # per axis of the grid reference


# ---------------------------------------------------------------------------
# bound and rate references


def eta_closed_form(m: int, d: int, lam: float, p: float, q: float, n: int, x: float) -> float:
    """eta(n, m, d, L) with L the worst-case Lipschitz constant times (1 + 1e-9).

    L = lam * d^max(1 - 1/p, 0) * (1/2)^(1/q); beta = (m d / 8) max(log(6 sqrt8 L), 1);
    eta = 2 sqrt(beta log n / n) + sqrt((beta + x / sqrt8) / n). Natural logarithms.
    """
    L = lam * float(d) ** max(1.0 - 1.0 / p, 0.0) * 0.5 ** (1.0 / q) * (1.0 + 1e-9)
    beta = (m * d / 8.0) * max(math.log(6.0 * SQRT8 * L), 1.0)
    return 2.0 * math.sqrt(beta * math.log(n) / n) + math.sqrt((beta + x / SQRT8) / n)


def refit_slopes(ns, gaps) -> tuple[float, float]:
    """Slopes of log(mean gap per n) against log sqrt(log n / n) and log(1/sqrt n)."""
    ns = np.asarray(ns, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    grid = np.unique(ns)
    mean_gap = np.array([gaps[ns == n].mean() for n in grid])
    y = np.log(np.maximum(mean_gap, 1e-300))
    s1 = np.polyfit(np.log(np.sqrt(np.log(grid) / grid)), y, 1)[0]
    s2 = np.polyfit(np.log(1.0 / np.sqrt(grid)), y, 1)[0]
    return float(s1), float(s2)


# ---------------------------------------------------------------------------
# coding objective and its elementary bounds


def code_objective(x, D, a, p: float, q: float, lam: float) -> float:
    """0.5 ||x - D a||^2 + (sum |a_i / lam|^p)^(q / p)."""
    r = x - D @ a
    return float(0.5 * (r @ r) + np.sum(np.abs(a / lam) ** p) ** (q / p))


def l1_radius(x, p: float, q: float, lam: float, d: int) -> float:
    """l1 radius any coefficient vector no worse than a = 0 must lie in:
    g(a) <= 0.5 ||x||^2 forces ||a||_1 <= lam d^max(1 - 1/p, 0) (0.5 ||x||^2)^(1/q)."""
    return lam * float(d) ** max(1.0 - 1.0 / p, 0.0) * (0.5 * float(x @ x)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# per-route reference solvers (one signal each)


def solve_p2q2(D, x, lam: float) -> np.ndarray:
    """Closed form: (D^T D + (2 / lam^2) I) a = D^T x."""
    d = D.shape[1]
    return np.linalg.solve(D.T @ D + (2.0 / lam**2) * np.eye(d), D.T @ x)


def solve_p2q1(D, x, lam: float) -> np.ndarray:
    """g(a) = ||a||_2 / lam. Optimality gives a = (G + mu I)^-1 h with
    mu ||a|| = 1 / lam, a 1-D increasing equation in mu; a = 0 when ||h|| <= 1 / lam."""
    from scipy.optimize import brentq

    h = D.T @ x
    if np.linalg.norm(h) <= 1.0 / lam:
        return np.zeros(D.shape[1])
    w, Q = np.linalg.eigh(D.T @ D)
    w = np.maximum(w, 0.0)
    c = Q.T @ h

    def phi(mu):
        return mu * np.sqrt(np.sum((c / (w + mu)) ** 2)) - 1.0 / lam

    lo = hi = 1.0
    while phi(lo) >= 0.0:
        lo *= 0.5
    while phi(hi) <= 0.0:
        hi *= 2.0
    mu = brentq(phi, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    return Q @ (c / (w + mu))


def solve_p1q1(D, x, lam: float) -> np.ndarray:
    """Bound-constrained smooth split a = u - v, u, v >= 0, solved by L-BFGS-B:
    0.5 ||x - D(u - v)||^2 + (1 / lam) sum(u + v). L-BFGS-B can stall on
    this degenerate split, so coordinate descent finishes the solve until the
    optimality conditions hold to 1e-13."""
    from scipy.optimize import minimize

    d = D.shape[1]
    G, h = D.T @ D, D.T @ x
    t = 1.0 / lam

    def fun(z):
        a = z[:d] - z[d:]
        ga = G @ a - h
        val = 0.5 * float(x @ x) - h @ a + 0.5 * a @ (G @ a) + np.sum(z) * t
        return val, np.concatenate([ga + t, -ga + t])

    res = minimize(
        fun,
        np.zeros(2 * d),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * d),
        options={"ftol": 0.0, "gtol": 1e-13, "maxiter": 50000, "maxfun": 100000, "maxcor": 30},
    )
    a = res.x[:d] - res.x[d:]
    for _ in range(100000):
        for i in range(d):
            z = h[i] - G[i] @ a + G[i, i] * a[i]
            a[i] = np.sign(z) * max(abs(z) - t, 0.0) / G[i, i]
        g = G @ a - h
        on = a != 0.0
        kkt = max(np.max(np.abs(g[on] + t * np.sign(a[on])), initial=0.0),
                  np.max(np.abs(g[~on]) - t, initial=0.0))
        if kkt <= 1e-13:
            break
    return a


def solve_smooth_separable(D, x, lam: float, p: float) -> np.ndarray:
    """Tightly converged BFGS solve for q == p > 1, where sum |a_i / lam|^p is
    continuously differentiable; the best of a zero and a ridge start."""
    from scipy.optimize import minimize

    d = D.shape[1]
    G, h = D.T @ D, D.T @ x

    def fun(a):
        val = 0.5 * float(x @ x) - h @ a + 0.5 * a @ (G @ a) + np.sum(np.abs(a / lam) ** p)
        grad = G @ a - h + p * np.sign(a) * np.abs(a) ** (p - 1.0) / lam**p
        return val, grad

    starts = [np.zeros(d), np.linalg.solve(G + 1e-3 * np.eye(d), h)]
    best = None
    for a0 in starts:
        res = minimize(fun, a0, jac=True, method="BFGS", options={"gtol": 1e-12, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    return best.x


def grid_search(D, x, lam: float, p: float, q: float):
    """Global minimum over a uniform GRID_POINTS grid on [-w, w]^d (d <= 2), w the l1 radius.

    Returns (value, resolution): the grid minimum, including a = 0, and a
    conservative bound on how far it can sit above the continuum minimum,
    which lies in the box because it is no worse than a = 0.
    """
    d = D.shape[1]
    if d > 2:
        raise ValueError("grid search supports d <= 2")
    w = l1_radius(x, p, q, lam, d)
    best = 0.5 * float(x @ x)
    if w == 0.0:
        return best, 0.0
    points = GRID_POINTS
    g = np.linspace(-w, w, points)
    G, h = D.T @ D, D.T @ x
    pen1 = np.abs(g / lam) ** p
    if d == 1:
        vals = 0.5 * float(x @ x) - h[0] * g + 0.5 * G[0, 0] * g**2 + pen1 ** (q / p)
        best = min(best, float(vals.min()))
    else:
        quad0 = 0.5 * G[0, 0] * g**2 - h[0] * g
        quad1 = 0.5 * G[1, 1] * g**2 - h[1] * g
        for start in range(0, points, 256):
            a0 = g[start : start + 256, None]
            vals = quad0[start : start + 256, None] + quad1[None, :] + G[0, 1] * a0 * g[None, :]
            vals += (pen1[start : start + 256, None] + pen1[None, :]) ** (q / p)
            best = min(best, 0.5 * float(x @ x) + float(vals.min()))
    # every continuum point is within `half` of a grid point in each coordinate
    half = w / (points - 1)
    delta = half * math.sqrt(d)
    sig = float(np.linalg.norm(D, 2))
    fit_err = sig * (sig * w + math.sqrt(float(x @ x))) * delta + 0.5 * sig**2 * delta**2
    if p <= 1.0:
        dS = d * (half / lam) ** p  # |x|^p is p-subadditive
    else:
        dS = d * p * ((w + half) / lam) ** (p - 1.0) * half / lam
    r = q / p
    S_max = d * ((w + half) / lam) ** p
    pen_err = dS**r if r <= 1.0 else r * (S_max + dS) ** (r - 1.0) * dS
    return best, float(fit_err + pen_err)


# ---------------------------------------------------------------------------
# self-test against closed forms


def _soft(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def selftest() -> list[str]:
    """Check each reference on inputs whose answer is known in closed form;
    returns the failures."""
    bad: list[str] = []

    def near(name, got, want, tol):
        if not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol):
            bad.append(f"{name}: got {got}, want {want}")

    # beta = m d / 8 = 1 when log(6 sqrt8 L) < 1: eta(100) = 2 sqrt(ln 100 / 100) + 1/10
    near("eta", eta_closed_form(2, 4, 0.1, 1.0, 1.0, 100, 0.0), 2.0 * math.sqrt(math.log(100.0) / 100.0) + 0.1, 1e-15)
    # beta = (8 * 12 / 8) * log(6 sqrt8 * 5 (1 + 1e-9)) for lam = 10, p = q = 1
    beta = 12.0 * math.log(30.0 * SQRT8 * (1.0 + 1e-9))
    near("eta-log", eta_closed_form(8, 12, 10.0, 1.0, 1.0, 64, 1.0),
         2.0 * math.sqrt(beta * math.log(64.0) / 64.0) + math.sqrt((beta + 1.0 / SQRT8) / 64.0), 1e-14)

    ns = np.repeat([64.0, 128.0, 256.0, 512.0], 3)
    near("slope", refit_slopes(ns, 0.7 * np.sqrt(np.log(ns) / ns) ** 1.3)[0], 1.3, 1e-9)
    near("slope-inv", refit_slopes(ns, 2.0 / np.sqrt(ns))[1], 1.0, 1e-9)

    # orthonormal dictionary: every route splits into scalar problems
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
    z = np.array([0.6, -0.05, 0.3, -0.45])
    x = Q @ z
    lam = 4.0
    near("p2q2", solve_p2q2(Q, x, lam), z / (1.0 + 2.0 / lam**2), 1e-12)
    near("p1q1", solve_p1q1(Q, x, lam), _soft(z, 1.0 / lam), 1e-7)
    near("p2q1", solve_p2q1(Q, x, lam), z * max(0.0, 1.0 - 1.0 / (lam * np.linalg.norm(z))), 1e-10)
    # p = 1.5: a + 1.5 lam^-1.5 sqrt(a) = |z|, a quadratic in sqrt(a)
    c = 1.5 * lam**-1.5
    s = (-c + np.sqrt(c * c + 4.0 * np.abs(z))) / 2.0
    near("p1.5q1.5", solve_smooth_separable(Q, x, lam, 1.5), np.sign(z) * s * s, 1e-6)

    # p = q = 1/2, d = 1: stationary points solve the cubic s^3 - |z| s + lam^-0.5 / 2 = 0 in s = sqrt(a)
    for zz, lam1 in ((0.9, 100.0), (0.4, 4.0)):  # a nonzero and a zero minimizer
        D1 = np.array([[1.0], [0.0]])
        x1 = np.array([zz, 0.0])
        roots = np.roots([1.0, 0.0, -zz, 0.5 * lam1**-0.5])
        cands = [0.0] + [float(r.real) ** 2 for r in roots if abs(r.imag) < 1e-12 and r.real > 0.0]
        want = min(0.5 * (a - zz) ** 2 + (a / lam1) ** 0.5 for a in cands)
        if want >= 0.5 * zz * zz - 1e-3 and lam1 == 100.0:
            bad.append("grid d=1: the nonzero case lost its nonzero minimizer")
        got, res = grid_search(D1, x1, lam1, 0.5, 0.5)
        if not want - 1e-12 <= got <= want + res:
            bad.append(f"grid d=1: got {got}, want {want} (+{res})")
    return bad


if __name__ == "__main__":
    failures = selftest()
    for f in failures:
        print("FAIL", f)
    print("reference self-test:", "ok" if not failures else f"{len(failures)} failures")
    raise SystemExit(1 if failures else 0)
