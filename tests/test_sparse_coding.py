import numpy as np
import pytest

from lpdict import sparse_coding
from lpdict.core import (
    CoeffMatrix,
    Dictionary,
    Penalty,
    SignalSet,
    l1_bound_from_penalty,
    penalty_eval,
)
from lpdict.sparse_coding import (
    _FINISH_CHUNK,
    CodingResult,
    SolverConfig,
    _duality_gap,
    _line_envelope,
    _envelope_eval,
    _pattern_solve,
    _prox_grad_descent,
    _prox_power_vector,
    _sign_pattern_finish,
    _solve_columns,
    batch_objective,
    brute_force_code,
    grid_resolution_error,
    is_eps_near_solution,
    objective,
    sparse_code,
)


def _prox_power_scalar(z: float, s: float, p: float) -> float:
    """Reference for the elementwise prox: the global minimizer of
    ``0.5*(a - z)^2 + s*|a|^p`` for one scalar, by 60 steps of plain bisection."""
    if s == 0.0 or z == 0.0:
        return z
    y = abs(z)
    sign = 1.0 if z > 0 else -1.0
    if p > 1.0:
        # psi(a) = a - y + s*p*a^(p-1) is increasing with a root in (0, y)
        lo, hi = 0.0, y
        for _ in range(60):
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
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid - y + s * p * mid ** (p - 1.0) > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    if 0.5 * (root - y) ** 2 + s * root**p < 0.5 * y * y:
        return sign * root
    return 0.0


def random_dictionary(rng, m, d):
    M = rng.standard_normal((m, d))
    return Dictionary(M / np.linalg.norm(M, axis=0))


def random_ball_signal(rng, m, radius=1.0):
    x = rng.standard_normal(m)
    return x * (rng.uniform(0.05, radius) / max(np.linalg.norm(x), 1e-12))


class TestObjective:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(0)
        D = random_dictionary(rng, 4, 6)
        x = random_ball_signal(rng, 4)
        val = objective(x, D, np.zeros(6), Penalty(1, 1, 2))
        assert val == pytest.approx(0.5 * float(x @ x), rel=1e-14)

    def test_zero_residual(self):
        rng = np.random.default_rng(1)
        D = random_dictionary(rng, 5, 3)
        a = rng.standard_normal(3) * 0.1
        x = D.atoms @ a
        lam = 3.0
        assert objective(x, D, a, Penalty(1, 1, lam)) == pytest.approx(
            np.sum(np.abs(a)) / lam, rel=1e-12
        )

    def test_hand_value(self):
        # 0.5*(0.8 - 0.3)^2 + 0.3/2 = 0.275
        D = Dictionary(np.array([[1.0]]))
        assert objective([0.8], D, [0.3], Penalty(1, 1, 2)) == pytest.approx(0.275, abs=1e-15)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            D = random_dictionary(rng, m, d)
            x = random_ball_signal(rng, m)
            a = rng.standard_normal(d)
            pen = Penalty(
                p=float(rng.uniform(0.3, 3)), q=float(rng.uniform(0.3, 3)), lam=float(rng.uniform(0.5, 3))
            )
            r = x - D.atoms @ a
            assert objective(x, D, a, pen) == pytest.approx(
                0.5 * float(r @ r) + penalty_eval(a, pen), rel=1e-12
            )

    def test_dimension_mismatch(self):
        D = Dictionary(np.eye(3))
        with pytest.raises(ValueError):
            objective(np.zeros(2), D, np.zeros(3), Penalty(1, 1, 1))
        with pytest.raises(ValueError):
            objective(np.zeros(3), D, np.zeros(2), Penalty(1, 1, 1))


class TestProx:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 1.5, 3.0])
    def test_matches_dense_grid(self, p):
        rng = np.random.default_rng(17)
        for _ in range(40):
            z = float(rng.standard_normal() * 2)
            s = float(rng.uniform(0.01, 2.0))
            a = _prox_power_scalar(z, s, p)
            grid = np.linspace(-abs(z) * 1.1 - 1e-9, abs(z) * 1.1 + 1e-9, 100001)
            best = float(np.min(0.5 * (grid - z) ** 2 + s * np.abs(grid) ** p))
            mine = 0.5 * (a - z) ** 2 + s * abs(a) ** p
            assert mine <= best + 1e-8

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.5, 3.0])
    def test_vector_agrees_with_scalar(self, p):
        rng = np.random.default_rng(23)
        Z = rng.standard_normal(200) * 2
        s = 0.37
        vec = _prox_power_vector(Z, s, p)
        scal = np.array([_prox_power_scalar(float(z), s, p) for z in Z])
        assert np.allclose(vec, scal, atol=1e-12)

    def test_zero_step_is_identity(self):
        Z = np.array([0.5, -1.0, 2.0])
        assert np.allclose(_prox_power_vector(Z, 0.0, 0.5), Z)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iters == 5000
        assert cfg.obj_tol == 1e-8
        assert cfg.restarts == 5

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iters": 0},
            {"obj_tol": 0.0},
            {"restarts": 0},
            {"seed": -1},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)


class TestSparseCode:
    def test_soft_threshold_closed_form(self):
        D = Dictionary(np.array([[1.0]]))
        res = sparse_code(np.array([0.8]), D, Penalty(1, 1, 2))
        assert res.coeffs[0] == pytest.approx(0.3, abs=1e-8)
        assert res.objective == pytest.approx(0.275, abs=1e-10)
        oracle = brute_force_code(np.array([0.8]), D, Penalty(1, 1, 2), grid_points=4001)
        assert res.objective == pytest.approx(oracle.objective, abs=1e-6)

    def test_lasso_zero_optimality(self):
        # with max_j |<d_j, x>| <= 1/lam the zero vector is optimal
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            D = random_dictionary(rng, m, d)
            x = random_ball_signal(rng, m)
            corr = float(np.max(np.abs(D.atoms.T @ x)))
            lam = 0.9 / corr if corr > 0 else 1.0
            pen = Penalty(1, 1, lam)
            res = sparse_code(x, D, pen)
            assert np.all(res.coeffs == 0.0)
            assert res.objective == pytest.approx(0.5 * float(x @ x), rel=1e-12)
            if D.d == 1:
                oracle = brute_force_code(x, D, pen, grid_points=2001)
                assert res.objective <= oracle.objective + 1e-10

    def test_ridge_closed_form(self):
        # min 0.5||x - D a||^2 + ||a||^2 over orthonormal D has a = D^T x / 3
        D = Dictionary(np.eye(2))
        x = np.array([0.6, -0.3])
        res = sparse_code(x, D, Penalty(2, 2, 1))
        assert np.allclose(res.coeffs, x / 3.0, atol=1e-8)
        assert res.objective == pytest.approx(0.15, abs=1e-10)
        oracle = brute_force_code(x, D, Penalty(2, 2, 1), grid_points=4001)
        assert np.allclose(oracle.coeffs, x / 3.0, atol=1e-3)
        assert res.objective <= oracle.objective + 1e-9

    def test_zero_signal(self):
        rng = np.random.default_rng(6)
        D = random_dictionary(rng, 3, 5)
        res = sparse_code(np.zeros(3), D, Penalty(0.5, 0.5, 1))
        assert np.all(res.coeffs == 0.0)
        assert res.objective == 0.0
        assert res.converged

    def test_block_norm_penalty_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            D = random_dictionary(rng, m, d)
            x = random_ball_signal(rng, m)
            pen = Penalty(2, 1, float(rng.uniform(0.5, 2)))
            res = sparse_code(x, D, pen)
            oracle = brute_force_code(x, D, pen, grid_points=1501)
            tol = max(1e-6, 2 * grid_resolution_error(x, D, pen, grid_points=1501))
            assert res.objective <= oracle.objective + tol

    def test_multiplier_and_norm_proxes_match_oracle(self):
        # q != p: the multiplier-search prox, and the radial prox for p = 2
        rng = np.random.default_rng(8)
        for pq in [(1.0, 2.0), (0.5, 1.0), (1.0, 0.5), (1.5, 1.0), (1.5, 2.0), (2.0, 0.5), (0.5, 2.0)]:
            for _ in range(6):
                m, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
                D = random_dictionary(rng, m, d)
                x = random_ball_signal(rng, m)
                pen = Penalty(pq[0], pq[1], float(rng.uniform(0.8, 2)))
                res = sparse_code(x, D, pen)
                oracle = brute_force_code(x, D, pen, grid_points=1501)
                tol = max(2e-3, 2 * grid_resolution_error(x, D, pen, grid_points=1501))
                assert res.objective <= oracle.objective + tol

    def test_half_one_batch_converges(self):
        # two (0.5, 1) batches, m=8, d=12, lam=10; 2 of their 30 columns once
        # ran out the iteration budget, and the multiplier-search prox must
        # converge on every column
        rng = np.random.default_rng([20140320, 1, 6])
        for _ in range(2):
            D = random_dictionary(rng, 8, 12)
            X = rng.standard_normal((8, 15))
            X = X / np.linalg.norm(X, axis=0) * rng.uniform(size=15) ** (1.0 / 8)
            _A, _obj, _iters, conv = _solve_columns(X, D, Penalty(0.5, 1.0, 10.0), SolverConfig())
            assert conv.all()

    def test_objective_range_invariant(self):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(max_iters=400, restarts=3)
        for _ in range(150):
            m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            D = random_dictionary(rng, m, d)
            x = random_ball_signal(rng, m)
            pen = Penalty(
                p=float(rng.choice([0.5, 1.0, 1.5, 2.0])),
                q=float(rng.choice([0.5, 1.0, 2.0])),
                lam=float(rng.uniform(0.5, 4)),
            )
            res = sparse_code(x, D, pen, cfg)
            half = 0.5 * float(x @ x)
            assert 0.0 <= res.objective <= half + 1e-10
            assert res.residual_norm <= np.sqrt(2 * res.objective) + 1e-9
            assert res.residual_norm <= np.linalg.norm(x) + 1e-9
            assert np.sum(np.abs(res.coeffs)) <= l1_bound_from_penalty(half, pen, d) + 1e-9
            assert res.objective == pytest.approx(
                0.5 * res.residual_norm**2 + penalty_eval(res.coeffs, pen), abs=1e-10
            )

    def test_rejects_signal_outside_ball(self):
        D = Dictionary(np.eye(2))
        with pytest.raises(ValueError):
            sparse_code(np.array([1.2, 0.0]), D, Penalty(1, 1, 1))

    def test_rejects_nonfinite_signal(self):
        D = Dictionary(np.eye(2))
        with pytest.raises(ValueError):
            sparse_code(np.array([np.nan, 0.0]), D, Penalty(1, 1, 1))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        D = random_dictionary(rng, 3, 3)
        x = random_ball_signal(rng, 3)
        pen = Penalty(0.5, 0.5, 1.2)
        a = sparse_code(x, D, pen)
        b = sparse_code(x, D, pen)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.objective == b.objective


class TestOracleEquivalence:
    @pytest.mark.parametrize("pq", [(1.0, 1.0), (2.0, 2.0), (0.5, 0.5)])
    def test_solver_vs_brute_force(self, pq):
        rng = np.random.default_rng(int(pq[0] * 10 + pq[1]))
        cfg = SolverConfig(restarts=8, seed=3)
        for _ in range(15):
            m = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            D = random_dictionary(rng, m, d)
            x = random_ball_signal(rng, m)
            pen = Penalty(pq[0], pq[1], float(rng.uniform(0.5, 2)))
            res = sparse_code(x, D, pen, cfg)
            oracle = brute_force_code(x, D, pen, grid_points=801)
            tol = max(1e-3, 2 * grid_resolution_error(x, D, pen, grid_points=801))
            assert abs(res.objective - oracle.objective) <= tol


def _lasso_reference(D, X, lam, max_sweeps=20000):
    """Cyclic coordinate descent on every column at once, run until a whole
    sweep moves no coefficient by more than 1e-15; coordinate minimization
    is exact for the l1 penalty."""
    G, H = D.T @ D, D.T @ X
    A = np.zeros_like(H)
    for _ in range(max_sweeps):
        before = A.copy()
        for i in range(G.shape[0]):
            z = H[i] - G[i] @ A + G[i, i] * A[i]
            A[i] = np.sign(z) * np.maximum(np.abs(z) - 1.0 / lam, 0.0) / G[i, i]
        if np.max(np.abs(A - before)) <= 1e-15:
            return A
    raise AssertionError("coordinate descent reference did not reach a fixed point")


def _group_reference(D, X, lam):
    """(2, 1): a = (G + mu I)^-1 h with mu ||a|| = 1/lam, an increasing
    equation in mu solved by bisection to the last bit; a = 0 when ||h|| <= 1/lam."""
    w, Q = np.linalg.eigh(D.T @ D)
    w = np.maximum(w, 0.0)
    out = np.zeros((D.shape[1], X.shape[1]))
    for j in range(X.shape[1]):
        c = Q.T @ (D.T @ X[:, j])
        if np.linalg.norm(c) <= 1.0 / lam:
            continue
        lo, hi = 0.0, 1.0
        while hi * np.linalg.norm(c / (w + hi)) <= 1.0 / lam:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * np.linalg.norm(c / (w + mid)) > 1.0 / lam:
                hi = mid
            else:
                lo = mid
        out[:, j] = Q @ (c / (w + hi))
    return out


class TestConvexOptimum:
    """Convex routes stop within ``obj_tol * max(1, F*)`` of the optimum F*."""

    @staticmethod
    def _batch(seed, n=40):
        rng = np.random.default_rng(seed)
        D = random_dictionary(rng, 8, 12)
        X = np.column_stack([random_ball_signal(rng, 8) for _ in range(n)])
        return D, X

    @staticmethod
    def _dual_bound(D, X, pen):
        """Weak duality: for any residual r and c >= 0 the dual value
        ``c*x.r - c^2*||r||^2/2 - g*(c*D^T r)`` is at most the optimum; g* is
        the conjugate of ``(||.||_p/lam)^q``, a dual-norm ball indicator for
        q = 1. The residual comes from a long, tight solve. The dual value is
        first order in the residual's error where g* is not smooth, so for
        (1, 2), a quadratic on each sign pattern, the solve is polished by the
        exact minimizer on its own support and signs."""
        _F, A = batch_objective(SignalSet(X), D, pen, SolverConfig(max_iters=50000, obj_tol=1e-14))
        A = np.array(A.coeffs)
        if (pen.p, pen.q) == (1.0, 2.0):
            for j in range(X.shape[1]):
                T = A[:, j] != 0.0
                s, DT = np.sign(A[T, j]), D.atoms[:, T]
                A[T, j] = np.linalg.solve(DT.T @ DT + 2.0 / pen.lam**2 * np.outer(s, s), DT.T @ X[:, j])
        R = X - D.atoms @ A
        V = np.abs(D.atoms.T @ R)
        e = np.inf if pen.p == 1.0 else pen.p / (pen.p - 1.0)
        dual_norm = np.max(V, axis=0) if e == np.inf else np.sum(V**e, axis=0) ** (1.0 / e)
        if pen.q == 1.0:
            c = np.minimum(1.0, 1.0 / (pen.lam * dual_norm))
            conj = 0.0
        else:
            c, q = 1.0, pen.q
            conj = (1.0 - 1.0 / q) * q ** (-1.0 / (q - 1.0)) * (pen.lam * dual_norm) ** (q / (q - 1.0))
        return c * np.sum(X * R, axis=0) - 0.5 * c**2 * np.sum(R * R, axis=0) - conj

    @staticmethod
    def _optimum(D, X, pen):
        if pen.p == 2.0 and pen.q == 2.0:
            G = D.atoms.T @ D.atoms
            ref = np.linalg.solve(G + 2.0 / pen.lam**2 * np.eye(D.d), D.atoms.T @ X)
        elif pen.p == 1.0 and pen.q == 1.0:
            ref = _lasso_reference(D.atoms, X, pen.lam)
        elif pen.p == 2.0 and pen.q == 1.0:
            ref = _group_reference(D.atoms, X, pen.lam)
        else:
            return TestConvexOptimum._dual_bound(D, X, pen)
        return np.array([objective(X[:, j], D, ref[:, j], pen) for j in range(X.shape[1])])

    @pytest.mark.parametrize("pq", [(2.0, 2.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (1.5, 1.0), (1.5, 2.0)])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_within_obj_tol_of_optimum(self, pq, seed):
        D, X = self._batch(seed)
        pen = Penalty(pq[0], pq[1], 10.0)
        cfg = SolverConfig()
        best = self._optimum(D, X, pen)
        tol = cfg.obj_tol * np.maximum(1.0, best)
        _F, A = batch_objective(SignalSet(X), D, pen, cfg)
        batch = np.array([objective(X[:, j], D, A.coeffs[:, j], pen) for j in range(X.shape[1])])
        assert np.all(batch <= best + tol)
        for j in range(X.shape[1]):
            res = sparse_code(X[:, j], D, pen, cfg)
            assert res.converged
            assert best[j] - 1e-12 <= res.objective <= best[j] + tol[j]


class TestSignPatternFinish:
    """The exact finish of p = 1, q in {1, 2} on the iterate's sign pattern."""

    @staticmethod
    def _code_recording(monkeypatch, D, X, pen):
        """Code X; return every finish call as (rank, h, A before, offered, accepted, A after)."""
        calls = []
        finish = sparse_coding._sign_pattern_finish

        def record(G, rank, h, base, A, GA, fA, pA, cols, pen, obj_tol):
            before = A.copy()
            acc = finish(G, rank, h, base, A, GA, fA, pA, cols, pen, obj_tol)
            calls.append((rank, h.copy(), before, cols.copy(), acc.copy(), A.copy()))
            return acc

        monkeypatch.setattr(sparse_coding, "_sign_pattern_finish", record)
        _A, _obj, _iters, conv = _solve_columns(X, D, pen, SolverConfig())
        assert conv.all()
        return calls

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_finished_columns_meet_kkt(self, monkeypatch, q):
        D, X = TestConvexOptimum._batch(31, n=200)
        pen = Penalty(1.0, q, 10.0)
        calls = self._code_recording(monkeypatch, D, X, pen)
        H = np.hstack([h[:, acc] for _r, h, _b, _c, acc, _a in calls])
        A = np.hstack([a[:, acc] for _r, _h, _b, _c, acc, a in calls])
        assert A.shape[1] >= 150
        V = H - D.atoms.T @ D.atoms @ A
        on = A != 0.0
        # the subgradient of g at a is w*sign(a) on the support and within [-w, w] off it
        w = np.full(A.shape[1], 1.0 / pen.lam) if q == 1.0 else 2.0 * np.sum(np.abs(A), axis=0) / pen.lam**2
        assert np.all(np.abs(V - w * np.sign(A))[on] <= 1e-14)
        assert np.all((np.abs(V) / w)[~on] <= 1.0)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_supports_beyond_rank_are_skipped(self, monkeypatch, q):
        # m = 3 < d = 12: G has rank 3, and early iterates carry larger supports
        rng = np.random.default_rng(41)
        D = random_dictionary(rng, 3, 12)
        X = rng.standard_normal((3, 200))
        X /= np.linalg.norm(X, axis=0)
        calls = self._code_recording(monkeypatch, D, X, Penalty(1.0, q, 10.0))
        oversized = 0
        for rank, _h, before, cols, acc, after in calls:
            assert rank == 3
            big = cols[np.count_nonzero(before[:, cols], axis=0) > rank]
            oversized += big.size
            assert np.intersect1d(big, acc).size == 0
            assert np.array_equal(after[:, big], before[:, big])
        assert oversized > 0

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_chunk_does_not_change_a_column(self, q):
        D, X = TestConvexOptimum._batch(33, n=3 * _FINISH_CHUNK + 37)
        pen = Penalty(1.0, q, 10.0)
        G, H = D.atoms.T @ D.atoms, D.atoms.T @ X
        base = 0.5 * np.sum(X * X, axis=0)
        # iterates from before the first scheduled finish
        A, _obj, _it, _conv = _prox_grad_descent(G, H, base, pen, SolverConfig(max_iters=9), np.zeros((12, X.shape[1])))
        GA = G @ A
        fA, pA = sparse_coding._fit_cols(A, GA, H, base), sparse_coding._penalty_cols(A, pen)
        rank = int(np.linalg.matrix_rank(G))

        def finish(J):
            out = [A[:, J], GA[:, J], fA[J], pA[J]]  # copies, overwritten where accepted
            acc = _sign_pattern_finish(G, rank, H[:, J], base[J], *out, np.arange(J.size), pen, 1e-8)
            return np.isin(np.arange(J.size), acc), out

        every = np.arange(X.shape[1])
        acc_all, out_all = finish(every)
        assert 0 < acc_all.sum() < every.size
        for J in (every[:_FINISH_CHUNK], every[_FINISH_CHUNK + 11 : 2 * _FINISH_CHUNK + 11]):
            acc, out = finish(J)
            assert np.array_equal(acc, acc_all[J])
            for mine, whole in zip(out, out_all):
                assert np.array_equal(mine[..., acc], whole[..., J][..., acc])

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_singular_reduced_system_is_skipped(self, q):
        # atom 4 repeats atom 0, so a support holding both has a singular
        # G_SS although it is smaller than rank(G) = 4
        rng = np.random.default_rng(43)
        D = random_dictionary(rng, 4, 4)
        D = Dictionary(np.column_stack([D.atoms, D.atoms[:, 0]]))
        X = rng.standard_normal((4, 40))
        X /= np.linalg.norm(X, axis=0)
        pen = Penalty(1.0, q, 10.0)
        G, H = D.atoms.T @ D.atoms, D.atoms.T @ X
        base = 0.5 * np.sum(X * X, axis=0)
        A, _obj, _it, _conv = _prox_grad_descent(G, H, base, pen, SolverConfig(max_iters=30), np.zeros((5, 40)))
        A[:, 0] = [0.1, 0.0, 0.0, 0.0, 0.2]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(G[np.ix_([0, 4], [0, 4])], [1.0, 1.0])
        GA = G @ A
        fA, pA = sparse_coding._fit_cols(A, GA, H, base), sparse_coding._penalty_cols(A, pen)

        def finish(J):
            out = [A[:, J], GA[:, J], fA[J], pA[J]]
            acc = _sign_pattern_finish(G, 4, H[:, J], base[J], *out, np.arange(J.size), pen, 1e-8)
            return np.isin(np.arange(J.size), acc), out[0]

        acc, coeffs = finish(np.arange(40))
        assert not acc[0] and np.array_equal(coeffs[:, 0], A[:, 0])
        assert acc[1:].any()
        rest, rest_coeffs = finish(np.arange(1, 40))
        assert np.array_equal(rest, acc[1:]) and np.array_equal(rest_coeffs, coeffs[:, 1:])

    @staticmethod
    def _early_iterates(seed, n, q, iters):
        """A (1, q) batch with its iterates after `iters` loop iterations, and
        the Gram data the finish takes."""
        D, X = TestConvexOptimum._batch(seed, n=n)
        pen = Penalty(1.0, q, 10.0)
        G, H = D.atoms.T @ D.atoms, D.atoms.T @ X
        base = 0.5 * np.sum(X * X, axis=0)
        A, _obj, _it, _conv = _prox_grad_descent(G, H, base, pen, SolverConfig(max_iters=iters), np.zeros((12, n)))
        GA = G @ A
        fA, pA = sparse_coding._fit_cols(A, GA, H, base), sparse_coding._penalty_cols(A, pen)
        return pen, G, H, base, A, GA, fA, pA

    @pytest.mark.parametrize("q, iters", [(1.0, 9), (2.0, 19)])
    def test_pivot_accepts_columns_whose_first_solve_failed(self, q, iters):
        pen, G, H, base, A, GA, fA, pA = self._early_iterates(31, 200, q, iters)
        s = np.sign(A)
        first = _pattern_solve(G, H, s, pen)
        flips = (s != 0.0) & (np.sign(first) != s)
        acc = _sign_pattern_finish(G, 8, H, base, A, GA, fA, pA, np.arange(200), pen, 1e-8)
        # a column whose first solve flipped a sign is accepted on its
        # pattern without the flipped coordinates
        pivoted = acc[flips[:, acc].any(axis=0)]
        assert pivoted.size > 0
        assert np.array_equal(A[:, pivoted] != 0.0, (s != 0.0)[:, pivoted] & ~flips[:, pivoted])
        # and, for q = 1, a column whose first solve kept its signs may be
        # accepted with one more coordinate
        grown = acc[np.count_nonzero(A[:, acc], axis=0) > np.count_nonzero(s[:, acc], axis=0)]
        assert grown.size > 0 or q == 2.0
        assert np.all(np.count_nonzero(A[:, grown], axis=0) == np.count_nonzero(s[:, grown], axis=0) + 1)
        # both meet the KKT conditions of the column's problem
        K = np.concatenate([pivoted, grown])
        a = A[:, K]
        V = H[:, K] - G @ a
        on = a != 0.0
        w = np.full(K.size, 1.0 / pen.lam) if q == 1.0 else 2.0 * np.sum(np.abs(a), axis=0) / pen.lam**2
        assert np.all(np.abs(V - w * np.sign(a))[on] <= 1e-14)
        assert np.all((np.abs(V) / w)[~on] <= 1.0)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_results_do_not_depend_on_the_chunking(self, monkeypatch, q):
        state = self._early_iterates(34, 600, q, 19)
        pen, G, H, base = state[:4]
        outs = []
        for chunk in (_FINISH_CHUNK, 64, 7, 2):
            monkeypatch.setattr(sparse_coding, "_FINISH_CHUNK", chunk)
            arrays = [x.copy() for x in state[4:]]
            acc = _sign_pattern_finish(G, 12, H, base, *arrays, np.arange(600), pen, 1e-8)
            outs.append((np.sort(acc), arrays))
        acc0, arrays0 = outs[0]
        assert 0 < acc0.size < 600
        for acc, arrays in outs[1:]:
            assert np.array_equal(acc, acc0)
            for mine, first in zip(arrays, arrays0):
                assert np.array_equal(mine, first)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_single_one_two_calls_are_certified(self, seed):
        # the (1, 2) calls of TestConvexOptimum: a converged result carries its
        # duality-gap certificate
        D, X = TestConvexOptimum._batch(seed)
        pen, cfg = Penalty(1.0, 2.0, 10.0), SolverConfig()
        G = D.atoms.T @ D.atoms
        for j in range(X.shape[1]):
            res = sparse_code(X[:, j], D, pen, cfg)
            assert res.converged
            a, h = res.coeffs[:, None], (D.atoms.T @ X[:, j])[:, None]
            fit = np.array([0.5 * res.residual_norm**2])
            pen_a = np.array([penalty_eval(res.coeffs, pen)])
            gap = _duality_gap(a, h - G @ a, fit, pen_a, pen)
            assert gap[0] <= cfg.obj_tol * max(1.0, res.objective)


class TestDescent:
    # every exponent pair the benchmark codes, plus (1, 2); every stop rule
    # of the loop relies on its descent check, so no column's objective may
    # rise as the iteration budget grows
    @pytest.mark.parametrize(
        "p, q",
        [(p, q) for p in (0.5, 1.0, 1.5, 2.0) for q in (0.5, 1.0, 2.0)] + [(1.5, 1.5)],
    )
    def test_objective_does_not_rise_with_max_iters(self, p, q):
        rng = np.random.default_rng([31, int(10 * p), int(10 * q)])
        D = random_dictionary(rng, 8, 12)
        X = np.column_stack([random_ball_signal(rng, 8) for _ in range(80)])
        G, h = D.atoms.T @ D.atoms, D.atoms.T @ X
        base = 0.5 * np.einsum("ij,ij->j", X, X)
        A0 = 0.1 * rng.standard_normal((12, 80))  # nonzero, so that every route moves
        pen = Penalty(p, q, 10.0)
        last = None
        for budget in (1, 2, 3, 5, 10, 11, 20, 30, 50, 80, 130, 300):
            cfg = SolverConfig(max_iters=budget)
            _A, obj, _it, _conv = _prox_grad_descent(G, h, base, pen, cfg, A0)
            if last is not None:
                assert np.all(obj <= last), (budget, float(np.max(obj - last)))
            last = obj


class TestWarmStart:
    # a warm-started convex solve runs the warm start alone: monotone FISTA
    # never ends above F(warm), so no column may end above it
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (1.0, 2.0), (1.5, 1.5), (2.0, 1.0), (2.0, 2.0)])
    def test_convex_warm_start_runs_alone(self, p, q):
        rng = np.random.default_rng([37, int(10 * p), int(10 * q)])
        D = random_dictionary(rng, 8, 12)
        X = np.column_stack([random_ball_signal(rng, 8) for _ in range(80)])
        G, h = D.atoms.T @ D.atoms, D.atoms.T @ X
        base = 0.5 * np.einsum("ij,ij->j", X, X)
        warm = 0.1 * rng.standard_normal((12, 80))
        pen, cfg = Penalty(p, q, 10.0), SolverConfig()
        F_warm = sparse_coding._fit_cols(warm, G @ warm, h, base) + sparse_coding._penalty_cols(warm, pen)
        _A, obj, iters, _conv = _solve_columns(X, D, pen, cfg, warm=warm)
        assert np.all(obj <= F_warm)
        assert np.array_equal(iters, _prox_grad_descent(G, h, base, pen, cfg, warm)[2])


class TestBatchObjective:
    def test_all_zero_signals(self):
        D = Dictionary(np.eye(3))
        X = SignalSet(np.zeros((3, 4)))
        F, A = batch_objective(X, D, Penalty(1, 1, 1))
        assert F == 0.0
        assert np.all(A.coeffs == 0.0)

    def test_single_sample_matches_sparse_code(self):
        rng = np.random.default_rng(12)
        for pen in (Penalty(1, 1, 2), Penalty(0.5, 0.5, 1), Penalty(1, 2, 1)):
            D = random_dictionary(rng, 4, 3)
            x = random_ball_signal(rng, 4)
            res = sparse_code(x, D, pen)
            F, A = batch_objective(SignalSet(x[:, None]), D, pen)
            assert F == pytest.approx(res.objective, rel=1e-12, abs=1e-15)
            assert np.allclose(A.coeffs[:, 0], res.coeffs, atol=1e-12)

    def test_duplicate_columns_average(self):
        rng = np.random.default_rng(13)
        D = random_dictionary(rng, 4, 5)
        x = random_ball_signal(rng, 4)
        pen = Penalty(1, 1, 3)
        F1, _ = batch_objective(SignalSet(x[:, None]), D, pen)
        F2, _ = batch_objective(SignalSet(np.column_stack([x, x])), D, pen)
        assert F2 == pytest.approx(F1, rel=1e-12)

    def test_mean_of_per_sample_objectives(self):
        rng = np.random.default_rng(14)
        D = random_dictionary(rng, 3, 4)
        X = SignalSet(np.column_stack([random_ball_signal(rng, 3) for _ in range(6)]))
        pen = Penalty(1, 1, 5)
        F, A = batch_objective(X, D, pen)
        per = [objective(X.signals[:, i], D, A.coeffs[:, i], pen) for i in range(6)]
        assert F == pytest.approx(np.mean(per), rel=1e-12)


class TestEpsNearSolution:
    def _setup(self):
        rng = np.random.default_rng(15)
        D = random_dictionary(rng, 2, 2)
        X = SignalSet(np.column_stack([random_ball_signal(rng, 2) for _ in range(3)]))
        pen = Penalty(1, 1, 2)
        F, A = batch_objective(X, D, pen)
        oracle = [objective(X.signals[:, i], D, A.coeffs[:, i], pen) for i in range(3)]
        return D, X, A, pen, oracle

    def test_minimizers_are_zero_near(self):
        D, X, A, pen, oracle = self._setup()
        assert is_eps_near_solution(X, D, A, pen, 0.0, oracle)

    def test_zero_matrix_with_slack(self):
        D, X, A, pen, oracle = self._setup()
        slack = max(0.5 * float(X.signals[:, i] @ X.signals[:, i]) - oracle[i] for i in range(3))
        zero = CoeffMatrix(np.zeros_like(A.coeffs))
        assert is_eps_near_solution(X, D, zero, pen, slack + 1e-12, oracle)

    def test_perturbed_fails_at_zero_eps(self):
        D, X, A, pen, oracle = self._setup()
        bad = A.coeffs + 1.0
        assert not is_eps_near_solution(X, D, bad, pen, 0.0, oracle)

    def test_shape_mismatch(self):
        D, X, A, pen, oracle = self._setup()
        with pytest.raises(ValueError):
            is_eps_near_solution(X, D, A.coeffs[:, :2], pen, 0.0, oracle)


class TestBruteForce:
    def test_refuses_large_d(self):
        D = Dictionary(np.eye(4))
        with pytest.raises(ValueError, match="d <= 3"):
            brute_force_code(np.zeros(4), D, Penalty(1, 1, 1))

    def test_refuses_small_grid(self):
        D = Dictionary(np.eye(2))
        with pytest.raises(ValueError, match="grid_points"):
            brute_force_code(np.zeros(2), D, Penalty(1, 1, 1), grid_points=5)

    def test_zero_signal(self):
        D = Dictionary(np.eye(2))
        res = brute_force_code(np.zeros(2), D, Penalty(1, 1, 1))
        assert res.objective == 0.0
        assert np.all(res.coeffs == 0.0)

    def test_zero_candidate_caps_objective(self):
        # even-point grids exclude 0; the explicit zero candidate still wins
        rng = np.random.default_rng(16)
        D = random_dictionary(rng, 2, 2)
        x = random_ball_signal(rng, 2, radius=0.2)
        pen = Penalty(1, 1, 0.1)  # harsh penalty: zero is optimal
        res = brute_force_code(x, D, pen, grid_half_width=1.0, grid_points=12)
        assert res.objective <= 0.5 * float(x @ x) + 1e-15

    def test_envelope_path_equals_plain_scan(self):
        # d=3 separable goes through the third-axis elimination, d=3 with
        # q != p through the plane scan; check both against the naive
        # product-grid scan on small grids
        rng = np.random.default_rng(18)
        cases = []
        for _ in range(10):
            m = int(rng.integers(1, 4))
            D, x = random_dictionary(rng, m, 3), random_ball_signal(rng, m)
            p = float(rng.choice([0.5, 1.0, 2.0]))
            cases.append((D, x, Penalty(p, p, float(rng.uniform(0.5, 2)))))
        # a zero signal: the default half width is 0, so every grid point,
        # and with it every slope of the line envelope, is 0
        cases.append((random_dictionary(rng, 2, 3), np.zeros(2), Penalty(1, 1, 1.5)))
        cases.append((random_dictionary(rng, 3, 3), random_ball_signal(rng, 3), Penalty(1, 2, 1.5)))
        cases.append((random_dictionary(rng, 2, 3), random_ball_signal(rng, 2), Penalty(0.5, 1, 0.8)))
        N = 31
        for D, x, pen in cases:
            w = l1_bound_from_penalty(0.5 * float(x @ x), pen, 3)
            if w > 0.0:
                got = brute_force_code(x, D, pen, grid_half_width=w, grid_points=N)
            else:
                got = brute_force_code(x, D, pen, grid_points=N)
            g = np.linspace(-w, w, N)
            A, B, C = np.meshgrid(g, g, g, indexing="ij")
            pts = np.stack([A.ravel(), B.ravel(), C.ravel()])
            R = x[:, None] - D.atoms @ pts
            S = np.sum((np.abs(pts) / pen.lam) ** pen.p, axis=0)
            obj = 0.5 * np.einsum("ij,ij->j", R, R) + S ** (pen.q / pen.p)
            ref = min(float(np.min(obj)), 0.5 * float(x @ x))
            assert got.objective == pytest.approx(ref, abs=1e-10)
            assert objective(x, D, got.coeffs, pen) == got.objective

    def test_line_envelope_matches_direct_minimum(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            slopes = np.unique(rng.standard_normal(k))
            vals = rng.standard_normal(slopes.size)
            env = _line_envelope(slopes, vals)
            s = rng.standard_normal(17) * 3
            direct = np.min(vals[None, :] + s[:, None] * slopes[None, :], axis=1)
            assert np.allclose(_envelope_eval(env, s), direct, atol=1e-12)

    def test_returns_coding_result(self):
        D = Dictionary(np.eye(2))
        res = brute_force_code(np.array([0.5, 0.1]), D, Penalty(1, 1, 1))
        assert isinstance(res, CodingResult)
        assert res.converged and res.iterations == 0
