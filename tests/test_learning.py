import numpy as np
import pytest

from lpdict.core import CoeffMatrix, Dictionary, Penalty, SignalSet
from lpdict.learning import (
    _DICT_GRAD_TOL,
    LearnConfig,
    LearnTrace,
    _fit_value,
    _init_dictionary,
    _revive_dead_atoms,
    dict_update,
    learn,
    project_atoms,
)
from lpdict.sparse_coding import SolverConfig, batch_objective, objective


def fast_cfg(**kw):
    coding = kw.pop("coding", SolverConfig(max_iters=600, obj_tol=1e-10))
    return LearnConfig(coding=coding, **kw)


def unit_ball_signals(rng, m, n, radius=1.0):
    X = rng.standard_normal((m, n))
    scale = rng.uniform(0.1, radius, size=n) / np.maximum(np.linalg.norm(X, axis=0), 1e-12)
    return SignalSet(X * scale)


def empirical_objective(X, D, A, pen):
    vals = [objective(X.signals[:, i], D, A.coeffs[:, i], pen) for i in range(X.n)]
    return float(np.mean(vals))


class TestProjectAtoms:
    def test_normalizes_column(self):
        D = project_atoms(np.array([[0.0], [3.0], [4.0]]))
        assert np.allclose(D.atoms[:, 0], [0.0, 0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit_columns(self):
        M = np.eye(3)
        assert np.array_equal(project_atoms(M).atoms, M)

    def test_zero_column_fallback(self):
        M = np.zeros((3, 4))
        M[:, 0] = [1.0, 0, 0]
        M[:, 1] = [0, 2.0, 0]
        D = project_atoms(M)  # columns 2 and 3 are zero
        assert np.allclose(D.atoms[:, 2], [0, 0, 1])  # e_(2 mod 3)
        assert np.allclose(D.atoms[:, 3], [1, 0, 0])  # e_(3 mod 3)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_atoms(np.array([[np.inf], [0.0]]))


class TestReviveDeadAtoms:
    def test_zero_worst_coded_signal_gives_basis_atom(self):
        # atoms 1 and 5 are unused and every signal is zero, so each revived
        # atom is the basis vector of its own index, e_(j mod m)
        D0 = project_atoms(np.random.default_rng(2).standard_normal((3, 6))).atoms
        A = np.zeros((6, 2))
        A[[0, 2, 3, 4], :] = 0.5
        D = _revive_dead_atoms(D0, A, np.zeros((3, 2)))
        assert np.array_equal(D[:, 1], [0.0, 1.0, 0.0])  # e_(1 mod 3)
        assert np.array_equal(D[:, 5], [0.0, 0.0, 1.0])  # e_(5 mod 3)
        assert np.array_equal(D[:, [0, 2, 3, 4]], D0[:, [0, 2, 3, 4]])

    def test_revived_atom_is_its_normalized_signal(self):
        D0 = np.eye(2)
        A = np.array([[0.5], [0.0]])
        X = np.array([[0.0], [0.6]])
        D = _revive_dead_atoms(D0, A, X)
        assert np.array_equal(D[:, 1], [0.0, 1.0])
        assert np.array_equal(D[:, 0], [1.0, 0.0])


class TestDictUpdate:
    def test_zero_coefficients_leave_dictionary(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 3))
        D0 = Dictionary(M / np.linalg.norm(M, axis=0))
        X = unit_ball_signals(rng, 4, 5)
        D1 = dict_update(X, np.zeros((3, 5)), D0)
        assert np.array_equal(D1.atoms, D0.atoms)

    def test_exact_factorization_is_stationary(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 3))
        D0 = Dictionary(M / np.linalg.norm(M, axis=0))
        A = rng.standard_normal((3, 6)) * 0.1
        X = D0.atoms @ A
        X = X / max(1.0, np.linalg.norm(X, axis=0).max())  # keep in ball
        A = A / max(1.0, np.linalg.norm(D0.atoms @ A, axis=0).max())
        D1 = dict_update(X, A, D0)
        assert np.allclose(D1.atoms, D0.atoms, atol=1e-8)

    def test_single_step_decreases_fit(self):
        # one signal (1, 0), one atom starting at (0, 1): the atom must move
        # toward the signal and the fit must strictly decrease
        D0 = Dictionary(np.array([[0.0], [1.0]]))
        X = np.array([[1.0], [0.0]])
        A = np.array([[1.0]])
        before = 0.5 * np.sum((X - D0.atoms @ A) ** 2)
        D1 = dict_update(X, A, D0)
        after = 0.5 * np.sum((X - D1.atoms @ A) ** 2)
        assert after < before
        assert D1.atoms[0, 0] > 0.5  # moved most of the way toward e_1

    def test_never_increases_objective(self):
        rng = np.random.default_rng(2)
        pen = Penalty(1, 1, 5)
        for _ in range(20):
            m, d, n = 4, 6, 8
            M = rng.standard_normal((m, d))
            D0 = Dictionary(M / np.linalg.norm(M, axis=0))
            X = unit_ball_signals(rng, m, n)
            A = rng.standard_normal((d, n)) * 0.2
            before = empirical_objective(X, D0, CoeffMatrix(A), pen)
            D1 = dict_update(X, A, D0)
            after = empirical_objective(X, D1, CoeffMatrix(A), pen)
            assert after <= before + 1e-10

    def test_shape_mismatch(self):
        D0 = Dictionary(np.eye(3))
        with pytest.raises(ValueError):
            dict_update(np.zeros((3, 4)), np.zeros((2, 4)), D0)

    @staticmethod
    def _random_problems(seed, count=200):
        """Random (X, A, D0) with sparse coefficients and some all-zero rows."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            m, d, n = (int(v) for v in rng.integers([2, 2, 5], [9, 13, 60]))
            M = rng.standard_normal((m, d))
            D0 = Dictionary(M / np.linalg.norm(M, axis=0))
            X = unit_ball_signals(rng, m, n).signals
            A = rng.standard_normal((d, n)) * (rng.uniform(size=(d, n)) < 0.4)
            A[rng.uniform(size=d) < 0.2] = 0.0
            yield X, A, D0

    def test_random_inputs_keep_unit_atoms_and_never_raise_the_fit(self):
        for X, A, D0 in self._random_problems(12):
            D1 = dict_update(X, A, D0).atoms
            assert np.all(np.abs(np.linalg.norm(D1, axis=0) - 1.0) <= 1e-12)
            assert _fit_value(X, D1, A) <= _fit_value(X, D0.atoms, A)
            # an unused atom is not moved; a new Dictionary renormalizes
            # every atom it is given, which can change its last bit
            unused = ~A.any(axis=1)
            same = D0.atoms if D1 is D0.atoms else Dictionary(D0.atoms).atoms
            assert np.array_equal(D1[:, unused], same[:, unused])

    def test_tolerance_stop_meets_per_atom_optimality(self):
        # at a stop on the gradient tolerance every used atom is, to within
        # it, u/||u|| for u = B_j - D C_j + D_j C_jj, its exact update
        stops = 0
        for X, A, D0 in self._random_problems(13):
            D = dict_update(X, A, D0).atoms
            n = X.shape[1]
            C, B = A @ A.T / n, X @ A.T / n
            egrad = D @ C - B
            if np.linalg.norm(egrad - D * np.sum(D * egrad, axis=0)) > _DICT_GRAD_TOL:
                continue  # stopped on the sweep cap
            stops += 1
            for j in np.flatnonzero(A.any(axis=1)):
                u = B[:, j] - D @ C[:, j] + D[:, j] * C[j, j]
                norm = np.linalg.norm(u)
                assert D[:, j] @ u > 0.0
                assert np.linalg.norm(u / norm - D[:, j]) <= 2.0 * _DICT_GRAD_TOL / norm + 1e-15
        assert stops > 100


class TestLearn:
    def test_all_zero_signals(self):
        X = SignalSet(np.zeros((3, 5)))
        trace = learn(X, 3, 4, Penalty(1, 1, 1), fast_cfg(outer_iters=3))
        assert all(v == 0.0 for v in trace.objectives)
        assert np.allclose(np.linalg.norm(trace.final_dict.atoms, axis=0), 1.0)

    def test_monotone_trace_random_data(self):
        rng = np.random.default_rng(3)
        X = unit_ball_signals(rng, 8, 50)
        trace = learn(X, 8, 12, Penalty(1, 1, 10), fast_cfg(outer_iters=10, seed=4))
        objs = np.array(trace.objectives)
        assert np.all(np.diff(objs) <= 1e-8)
        assert objs[-1] <= objs[0]
        assert np.allclose(np.linalg.norm(trace.final_dict.atoms, axis=0), 1.0, atol=1e-9)

    def test_monotone_trace_nonconvex_penalty(self):
        rng = np.random.default_rng(4)
        X = unit_ball_signals(rng, 4, 20)
        trace = learn(
            X, 4, 6, Penalty(0.5, 0.5, 2), fast_cfg(outer_iters=6, coding=SolverConfig(max_iters=300, restarts=3))
        )
        assert np.all(np.diff(trace.objectives) <= 1e-8)

    def test_planted_fit_improves(self):
        rng = np.random.default_rng(5)
        true = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        A = np.zeros((6, 40))
        for j in range(40):
            A[rng.integers(0, 6), j] = 0.5
        Xm = true @ A
        X = SignalSet(Xm / np.maximum(1.0, np.linalg.norm(Xm, axis=0)))
        trace = learn(X, 6, 6, Penalty(1, 1, 50), fast_cfg(outer_iters=8, seed=1))
        assert trace.objectives[-1] <= trace.objectives[0]

    def test_coding_consistency_of_final_dict(self):
        rng = np.random.default_rng(6)
        X = unit_ball_signals(rng, 5, 30)
        pen = Penalty(1, 1, 8)
        cfg = fast_cfg(outer_iters=6, seed=2)
        trace = learn(X, 5, 7, pen, cfg)
        F, _ = batch_objective(X, trace.final_dict, pen, cfg.coding)
        assert F <= trace.objectives[-1] + 1e-8

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        X = unit_ball_signals(rng, 4, 15)
        cfg = fast_cfg(outer_iters=5, seed=9)
        t1 = learn(X, 4, 5, Penalty(1, 1, 6), cfg)
        t2 = learn(X, 4, 5, Penalty(1, 1, 6), cfg)
        assert t1.objectives == t2.objectives
        assert np.array_equal(t1.final_dict.atoms, t2.final_dict.atoms)
        assert np.array_equal(t1.final_coeffs.coeffs, t2.final_coeffs.coeffs)

    def test_initial_atoms_are_normalized_training_signals(self):
        rng = np.random.default_rng(8)
        X = unit_ball_signals(rng, 3, 10)
        D = _init_dictionary(X.signals, 4, fast_cfg(seed=3))
        unit = X.signals / np.linalg.norm(X.signals, axis=0)
        for j in range(4):
            assert np.min(np.linalg.norm(unit - D.atoms[:, j : j + 1], axis=0)) < 1e-15
        trace = learn(X, 3, 4, Penalty(1, 1, 5), fast_cfg(outer_iters=2))
        assert isinstance(trace, LearnTrace)

    def test_rejects_mismatched_m(self):
        X = SignalSet(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            learn(X, 4, 4, Penalty(1, 1, 1), fast_cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LearnConfig(outer_iters=0)
        with pytest.raises(TypeError):  # a deleted field
            LearnConfig(init_mode="data-atoms")
