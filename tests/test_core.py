import math
import pathlib
import tomllib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpdict
from lpdict.core import (
    TOL_UNIT,
    CoeffMatrix,
    Dictionary,
    Penalty,
    SignalSet,
    _unit_columns,
    dict_distance,
    l1_bound_from_penalty,
    l1_factor,
    lp_norm,
    penalty_eval,
)

P_GRID = (0.3, 0.5, 1.0, 1.5, 2.0, 4.0)


class TestLpNorm:
    def test_euclidean_3_4_5(self):
        assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_l1_sum_of_ones(self):
        assert lp_norm([1.0, 1.0, 1.0, 1.0], 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_quasi_norm_half(self):
        # (1^0.5 + 1^0.5)^2 = 4, hand evaluation
        assert lp_norm([1.0, 1.0], 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_zero_vector(self):
        for p in P_GRID:
            assert lp_norm(np.zeros(5), p) == 0.0

    def test_empty_vector(self):
        assert lp_norm(np.zeros(0), 2.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(ValueError):
            lp_norm([1.0], p)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=8),
        st.floats(1e-9, 100),
        st.sampled_from(P_GRID),
    )
    @settings(max_examples=200, deadline=None)
    def test_absolute_homogeneity(self, v, c, p):
        base = lp_norm(v, p)
        assert lp_norm(c * np.asarray(v), p) == pytest.approx(c * base, rel=1e-9, abs=1e-9)


class TestPenaltyEval:
    def test_squared_l2(self):
        assert penalty_eval([3.0, 4.0], Penalty(2, 2, 1)) == pytest.approx(25.0, rel=1e-12)

    def test_lambda_scaling(self):
        assert penalty_eval([3.0, 4.0], Penalty(2, 1, 5)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector(self):
        for pen in (Penalty(0.5, 0.7, 2), Penalty(2, 2, 1), Penalty(1, 1, 3)):
            assert penalty_eval(np.zeros(4), pen) == 0.0

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            Penalty(p=0, q=1, lam=1)
        with pytest.raises(ValueError):
            Penalty(p=1, q=-2, lam=1)
        with pytest.raises(ValueError):
            Penalty(p=1, q=1, lam=0.0)


class TestL1Factor:
    def test_quasi_norm_regime(self):
        assert l1_factor(0.5, 100) == 1.0

    def test_p2(self):
        assert l1_factor(2.0, 4) == pytest.approx(2.0, rel=1e-14)

    def test_p1(self):
        assert l1_factor(1.0, 7) == 1.0

    def test_holder_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            v = rng.standard_normal(rng.integers(1, 10))
            for p in P_GRID:
                assert np.sum(np.abs(v)) <= l1_factor(p, v.size) * lp_norm(v, p) * (1 + 1e-12) + 1e-12


class TestL1BoundFromPenalty:
    def test_zero_level(self):
        assert l1_bound_from_penalty(0.0, Penalty(2, 3, 4), 9) == 0.0

    def test_sub_one_exponent(self):
        # lam * d^0 * t^(1/1) with p=0.5, q=1, lam=1, t=1/2
        assert l1_bound_from_penalty(0.5, Penalty(0.5, 1, 1), 10) == pytest.approx(0.5, rel=1e-14)

    def test_hand_value(self):
        # 3 * 4^(1/2) * 4^(1/2) = 12
        assert l1_bound_from_penalty(4.0, Penalty(2, 2, 3), 4) == pytest.approx(12.0, rel=1e-14)

    def test_implied_l1_radius(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = rng.standard_normal(rng.integers(1, 8))
            pen = Penalty(
                p=float(rng.uniform(0.3, 3.0)),
                q=float(rng.uniform(0.3, 3.0)),
                lam=float(rng.uniform(0.5, 3.0)),
            )
            t = penalty_eval(v, pen)
            assert np.sum(np.abs(v)) <= l1_bound_from_penalty(t, pen, v.size) * (1 + 1e-10) + 1e-12

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            l1_bound_from_penalty(-1.0, Penalty(1, 1, 1), 3)


def _random_dictionary(rng, m, d):
    M = rng.standard_normal((m, d))
    return Dictionary(M / np.linalg.norm(M, axis=0))


class TestUnitColumns:
    def test_scales_columns_and_replaces_zero_ones(self):
        M = np.array([[3.0, 0.0, 0.0, 1e-160], [4.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
        kept = M.copy()
        U = _unit_columns(M)
        # columns 1 and 3 count as zero and become e_(1 mod 3) and e_(3 mod 3)
        assert np.array_equal(U, [[0.6, 0.0, 0.0, 1.0], [0.8, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        assert np.array_equal(M, kept)

    def test_given_norms_are_used(self):
        M = np.array([[2.0, 0.0], [0.0, 5.0]])
        U = _unit_columns(M, np.array([4.0, 0.0]))
        assert np.array_equal(U, [[0.5, 0.0], [0.0, 1.0]])


class TestDictDistance:
    def test_identity(self):
        D = _random_dictionary(np.random.default_rng(0), 4, 5)
        assert dict_distance(D, D) == 0.0

    def test_antipodal(self):
        D = _random_dictionary(np.random.default_rng(1), 3, 4)
        assert dict_distance(D, Dictionary(-D.atoms)) == pytest.approx(2.0, rel=1e-12)

    def test_column_swap(self):
        D1 = Dictionary(np.eye(2))
        D2 = Dictionary(np.eye(2)[:, ::-1])
        assert dict_distance(D1, D2) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dict_distance(Dictionary(np.eye(2)), Dictionary(np.eye(3)))

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            A = _random_dictionary(rng, 3, 4)
            B = _random_dictionary(rng, 3, 4)
            C = _random_dictionary(rng, 3, 4)
            assert dict_distance(A, B) == pytest.approx(dict_distance(B, A), rel=1e-14)
            assert dict_distance(A, C) <= dict_distance(A, B) + dict_distance(B, C) + 1e-12


class TestDomainTypes:
    def test_dictionary_renormalizes_near_unit(self):
        M = np.eye(3) * (1 + 0.5 * TOL_UNIT)
        D = Dictionary(M)
        assert np.allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-15)

    def test_dictionary_rejects_off_unit(self):
        with pytest.raises(ValueError, match="atom"):
            Dictionary(np.eye(3) * 1.01)

    def test_dictionary_rejects_nonfinite(self):
        M = np.eye(2)
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dictionary(M)

    def test_dictionary_shape_properties(self):
        D = Dictionary(np.eye(4)[:, :2])
        assert (D.m, D.d) == (4, 2)

    def test_dictionary_atoms_read_only(self):
        D = Dictionary(np.eye(2))
        with pytest.raises(ValueError):
            D.atoms[0, 0] = 5.0

    def test_signal_set_accepts_ball(self):
        X = SignalSet(np.array([[0.6, 0.0], [0.8, 0.0]]))
        assert (X.m, X.n) == (2, 2)

    def test_signal_set_rejects_outside_ball(self):
        with pytest.raises(ValueError, match="signal"):
            SignalSet(np.array([[1.1], [0.0]]))

    def test_coeff_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoeffMatrix(np.array([[1.0, np.inf]]))


def test_pyproject_version_is_the_package_version():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lpdict.__version__
