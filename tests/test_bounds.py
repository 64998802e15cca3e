import json
import math

import numpy as np
import pytest

from lpdict import bounds
from lpdict.bounds import (
    BoundInputs,
    compute_beta,
    compute_eta,
    empirical_C,
    empirical_C_squared,
    empirical_L,
    full_report,
    hoeffding_tail,
    log_covering_number,
    log_covering_number_tight,
    proof_constants,
    required_samples,
    worst_case_L,
)
from lpdict.core import Dictionary, Penalty, SignalSet, dict_distance
from lpdict.sparse_coding import brute_force_code

LOG_3_SQRT8 = math.log(3.0 * math.sqrt(8.0))


def unit_sphere_signals(rng, m, n):
    X = rng.standard_normal((m, n))
    return SignalSet(X / np.linalg.norm(X, axis=0))


class TestEmpiricalConstants:
    def test_unit_norm_signals(self):
        X = unit_sphere_signals(np.random.default_rng(0), 4, 10)
        pen = Penalty(0.5, 1, 1)
        assert empirical_L(X, pen, 7) == pytest.approx(0.5, rel=1e-12)
        assert empirical_C(X, pen, 7) == pytest.approx(0.25, rel=1e-12)

    def test_zero_signals(self):
        X = SignalSet(np.zeros((3, 5)))
        pen = Penalty(2, 2, 2)
        assert empirical_L(X, pen, 4) == 0.0
        assert empirical_C(X, pen, 4) == 0.0

    def test_two_sample_frozen_value(self):
        # mean of ||x||*lam*d^(1/2)*(0.5||x||^2)^(1/2) over norms {1, 0.5},
        # lam=2, d=4: frozen from an independent scalar evaluation
        X = SignalSet(np.array([[1.0, 0.5], [0.0, 0.0]]))
        got = empirical_L(X, Penalty(2, 2, 2), 4)
        assert got == pytest.approx(1.7677669529663689, rel=1e-14)

    def test_single_sample_curvature(self):
        X = SignalSet(np.array([[1.0], [0.0]]))
        got = empirical_C(X, Penalty(1, 2, 3), 9)
        assert got == pytest.approx(1.0606601717798214, rel=1e-14)

    def test_squared_reading_relationship(self):
        X = unit_sphere_signals(np.random.default_rng(1), 3, 8)
        pen = Penalty(1, 1, 2)
        r = pen.lam * 0.5  # all radii equal for unit-norm signals, p=1, q=1
        assert empirical_C_squared(X, pen, 5) == pytest.approx(0.5 * r * r, rel=1e-12)

    def test_below_worst_case(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 30))
            X = rng.standard_normal((m, n))
            X /= np.maximum(np.linalg.norm(X, axis=0), 1.0)
            pen = Penalty(
                p=float(rng.uniform(0.3, 3)), q=float(rng.uniform(0.3, 3)), lam=float(rng.uniform(0.5, 3))
            )
            d = int(rng.integers(1, 20))
            assert empirical_L(SignalSet(X), pen, d) <= worst_case_L(pen, d) * (1 + 1e-12)


class TestWorstCase:
    def test_sub_one_p(self):
        assert worst_case_L(Penalty(0.5, 1, 1), 100) == pytest.approx(0.5, rel=1e-14)

    def test_p2(self):
        assert worst_case_L(Penalty(2, 1, 1), 9) == pytest.approx(1.5, rel=1e-14)

    def test_lambda_homogeneity(self):
        pen1 = Penalty(1.5, 2, 1)
        pen2 = Penalty(1.5, 2, 2)
        assert worst_case_L(pen2, 6) == pytest.approx(2 * worst_case_L(pen1, 6), rel=1e-14)


class TestCoveringNumber:
    def test_hand_value(self):
        assert log_covering_number(4, 6, 0.3) == pytest.approx(55.2620422318571, rel=1e-13)

    def test_limit_eps_to_one(self):
        assert log_covering_number(5, 7, 1 - 1e-12) == pytest.approx(35 * math.log(3), rel=1e-9)

    def test_scalar_case(self):
        assert log_covering_number(1, 1, 0.5) == pytest.approx(1.791759469228055, rel=1e-13)

    def test_rejects_out_of_range(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                log_covering_number(3, 3, eps)

    def test_tight_variant_is_smaller(self):
        for eps in (0.1, 0.5, 0.9):
            assert log_covering_number_tight(3, 4, eps) <= log_covering_number(3, 4, eps)


class TestHoeffdingTail:
    def test_vacuous_at_zero(self):
        assert hoeffding_tail(10, 0.0) == 2.0

    def test_hand_value(self):
        assert hoeffding_tail(1000, 0.1) == pytest.approx(9.079985952496971e-05, rel=1e-12)

    def test_doubling_identity(self):
        # 2*exp(-2n tau^2) == (2*exp(-n tau^2))^2 / 2
        for n, tau in ((50, 0.3), (200, 0.2), (1000, 0.05)):
            assert hoeffding_tail(2 * n, tau) == pytest.approx(hoeffding_tail(n, tau) ** 2 / 2, rel=1e-12)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            hoeffding_tail(5, -0.1)


class TestBeta:
    def test_example_configuration(self):
        # L at the worst case 1/2 for p < 1, q = 1, lam = 1
        assert compute_beta(16, 32, 0.5) == pytest.approx(64 * LOG_3_SQRT8, rel=1e-14)
        assert compute_beta(16, 32, 0.5) == pytest.approx(136.85331580851377, rel=1e-14)

    def test_clamp_floor(self):
        # log(6*sqrt(8)*0.1) ~ 0.529 < 1, so the max clamps
        assert compute_beta(4, 4, 0.1) == pytest.approx(16 / 8.0, rel=1e-14)

    def test_floor_always_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, d = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            L = float(rng.uniform(1e-3, 50))
            assert compute_beta(m, d, L) >= m * d / 8.0 - 1e-12


class TestEta:
    def test_direct_substitution_n3(self):
        beta, x = 7.0, 0.0
        expect = 2 * math.sqrt(beta * math.log(3) / 3) + math.sqrt(beta / 3)
        assert compute_eta(3, beta, x) == pytest.approx(expect, rel=1e-14)

    def test_frozen_high_precision_value(self):
        beta = compute_beta(16, 32, 0.5)
        assert compute_eta(10**6, beta, 0.0) == pytest.approx(0.09866275659119624, rel=1e-14)

    def test_strictly_decreasing_from_three(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            beta = float(rng.uniform(0.5, 500))
            x = float(rng.uniform(0, 10))
            for n in (3, 5, 17, 400, 12345):
                assert compute_eta(2 * n, beta, x) < compute_eta(n, beta, x)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            compute_eta(1, 1.0, 0.0)

    @pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
    def test_rejects_bad_confidence(self, x):
        with pytest.raises(ValueError, match="confidence_x"):
            compute_eta(100, 1.0, x)
        with pytest.raises(ValueError, match="confidence_x"):
            proof_constants(10**5, 8, 12, 0.7, x)
        with pytest.raises(ValueError, match="confidence_x"):
            BoundInputs(m=8, d=12, pen=Penalty(1, 1, 10), n=100, confidence_x=x)


class TestProofConstants:
    def test_identity_holds(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            m, d = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            L = float(rng.uniform(0.05, 20))
            x = float(rng.uniform(0, 5))
            n = int(rng.integers(3, 10**7))
            try:
                eps, tau, gamma = proof_constants(n, m, d, L, x)
            except ValueError:
                continue
            # net-size times tail-bound, with the exponents combined so the
            # order-one product never overflows on the way
            lhs = 2 * math.exp(m * d * math.log(3 / eps) - n * tau * tau)
            assert lhs == pytest.approx(2 * math.exp(-x), rel=1e-10)
            assert gamma == tau / math.sqrt(8)
            done += 1

    def test_frozen_epsilon(self):
        eps, tau, gamma = proof_constants(10**6, 16, 32, 0.5, 0.0)
        assert eps == pytest.approx(0.04348216219836522, rel=1e-14)

    def test_confidence_only_moves_tau(self):
        e0, t0, _ = proof_constants(10**5, 8, 12, 0.7, 0.0)
        e1, t1, _ = proof_constants(10**5, 8, 12, 0.7, 3.0)
        assert e1 == e0
        assert t1 > t0

    def test_small_n_rejected(self):
        # small L with a large beta floor pushes the net radius past 1
        with pytest.raises(ValueError, match="net radius"):
            proof_constants(3, 30, 30, 0.05, 0.0)

    def test_confidence_beyond_double_precision_is_a_value_error(self, monkeypatch):
        # at x = 1e17 one ulp of m*d*log(3/eps) + x is 16, so rounding alone
        # moves the identity far past 1e-10
        with pytest.raises(ValueError, match="too large to certify"):
            proof_constants(1000, 3, 3, 5.0, 1e17)
        with pytest.raises(ValueError, match="too large to certify"):
            proof_constants(1000, 3, 3, 5.0, 1e300)
        # a defect that rounding does not explain stays an ArithmeticError
        monkeypatch.setattr(bounds, "_ROUNDING_SLACK", 0.0)
        with pytest.raises(ArithmeticError, match="net/tail identity violated"):
            proof_constants(1000, 3, 3, 5.0, 1e17)


class TestFullReport:
    def test_example_beta_with_strictness_bump(self):
        for m, d in ((8, 16), (16, 32)):
            rep = full_report(BoundInputs(m=m, d=d, pen=Penalty(0.5, 1, 1), n=10**6))
            assert rep.beta == pytest.approx((m * d / 8) * LOG_3_SQRT8, rel=1e-6)
            assert rep.L_worst == pytest.approx(0.5, rel=1e-14)

    def test_zero_signals_fill_empirical_fields(self):
        X = SignalSet(np.zeros((4, 3)))
        rep = full_report(BoundInputs(m=4, d=6, pen=Penalty(1, 1, 1), n=100), X)
        assert rep.L_X == 0.0 and rep.C_X == 0.0 and rep.c_x_squared == 0.0
        assert rep.L_worst == worst_case_L(Penalty(1, 1, 1), 6)

    def test_eta_recomposition(self):
        inputs = BoundInputs(m=6, d=9, pen=Penalty(1, 1, 4), n=5000, confidence_x=2.0)
        rep = full_report(inputs)
        L = worst_case_L(inputs.pen, 9) * (1 + 1e-9)
        assert rep.eta == pytest.approx(compute_eta(5000, compute_beta(6, 9, L), 2.0), rel=1e-14)

    def test_json_schema(self):
        rep = full_report(BoundInputs(m=3, d=5, pen=Penalty(1, 1, 2), n=1000))
        data = json.loads(json.dumps(rep.to_dict()))
        assert list(data.keys()) == [
            "L_X",
            "C_X",
            "L_worst",
            "beta",
            "eta",
            "log_covering",
            "epsilon_net",
            "tau",
            "gamma",
            "hoeffding_tail",
            "c_x_squared",
        ]
        assert all(np.isfinite(v) for v in data.values())
        assert all(v >= 0 for v in data.values())


class TestRequiredSamples:
    def test_round_trip(self):
        beta = compute_beta(8, 12, 5.0)
        for n0 in (3, 10, 777, 43210):
            target = compute_eta(n0, beta, 1.0)
            n = required_samples(target, 8, 12, 5.0, 1.0)
            assert n == n0

    def test_frozen_inversion(self):
        n = required_samples(0.1, 16, 32, 0.5, 0.0)
        assert n == 971648
        beta = compute_beta(16, 32, 0.5)
        assert compute_eta(n, beta, 0.0) <= 0.1 < compute_eta(n - 1, beta, 0.0)

    def test_loose_target_returns_floor(self):
        # eta(3) ~ 4.25 for this configuration, comfortably under the target
        assert required_samples(10.0, 4, 4, 1.0, 0.0) == 3

    def test_minimality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            beta_md = (int(rng.integers(2, 20)), int(rng.integers(2, 20)))
            L = float(rng.uniform(0.2, 5))
            x = float(rng.uniform(0, 3))
            target = float(rng.uniform(0.05, 2.0))
            n = required_samples(target, beta_md[0], beta_md[1], L, x)
            beta = compute_beta(beta_md[0], beta_md[1], L)
            assert compute_eta(n, beta, x) <= target
            if n > 3:
                assert compute_eta(n - 1, beta, x) > target

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            required_samples(0.0, 3, 3, 1.0, 0.0)

    def test_unreachable_target_signals_overflow(self):
        with pytest.raises(ValueError, match="2\\^62"):
            required_samples(1e-12, 2, 2, 1.0, 0.0)


class TestEmpiricalLipschitz:
    def test_gap_bounded_by_constant_times_distance(self):
        # oracle-coded objectives on tiny instances; same grid for both
        # dictionaries so the comparison is exact up to roundoff
        rng = np.random.default_rng(7)
        pen = Penalty(1, 1, 2)
        m = d = 2
        n = 4
        Xm = rng.standard_normal((m, n))
        Xm /= np.maximum(np.linalg.norm(Xm, axis=0), 1.0) / rng.uniform(0.3, 1.0, size=n)
        X = SignalSet(Xm)
        from lpdict.bounds import empirical_L as eL

        L = eL(X, pen, d)

        def F(D):
            vals = [brute_force_code(Xm[:, i], D, pen, grid_points=301).objective for i in range(n)]
            return float(np.mean(vals))

        for _ in range(60):
            M1, M2 = rng.standard_normal((m, d)), rng.standard_normal((m, d))
            D1 = Dictionary(M1 / np.linalg.norm(M1, axis=0))
            D2 = Dictionary(M2 / np.linalg.norm(M2, axis=0))
            gap = abs(F(D1) - F(D2))
            assert gap <= L * dict_distance(D1, D2) * 1.01 + 1e-12
