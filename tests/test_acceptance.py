"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The bound-envelope sweep
(criteria 7 and 8) is computed once in a session fixture and shared.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from lpdict.bounds import empirical_L, hoeffding_tail, proof_constants
from lpdict.cli import run
from lpdict.core import Dictionary, Penalty, SignalSet, dict_distance, l1_bound_from_penalty
from lpdict.experiments import (
    DistributionSpec,
    ExperimentConfig,
    estimate_expected_f,
    gap_sweep,
    random_dictionary,
    sample,
)
from lpdict.learning import LearnConfig, learn
from lpdict.sparse_coding import (
    SolverConfig,
    _solve_columns,
    brute_force_code,
    grid_resolution_error,
    sparse_code,
)

LOG_3_SQRT8 = math.log(3.0 * math.sqrt(8.0))


def _report(num: int, detail: str) -> None:
    print(f"[PASS] criterion {num}: {detail}")


def test_criterion_1_example_reproduction(capsys):
    """beta equals (md/8)*log(3*sqrt(8)) at the auto-derived L for p < 1, q = 1."""
    worst = 0.0
    for m, d in ((8, 16), (16, 32)):
        for p in (0.3, 0.5, 0.9):
            code = run(
                f"bound --m {m} --d {d} --p {p} --q 1 --lambda 1 --n 1000000 --confidence 0".split()
            )
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            expect = (m * d / 8.0) * LOG_3_SQRT8
            rel = abs(out["beta"] - expect) / expect
            worst = max(worst, rel)
            assert rel <= 1e-6
    with capsys.disabled():
        _report(1, f"beta matches (md/8)*log(3*sqrt(8)) to {worst:.2e} relative (tol 1e-6)")


def test_criterion_2_proof_constant_identity(capsys):
    """exp(md*log(3/eps)) * 2*exp(-n*tau^2) == 2*exp(-x) to 1e-10 relative."""
    rng = np.random.default_rng(2021)
    worst = 0.0
    done = 0
    while done < 100:
        m, d = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        L = float(rng.uniform(0.05, 20.0))
        x = float(rng.uniform(0.0, 5.0))
        n = int(rng.integers(3, 10**7))
        try:
            eps, tau, _gamma = proof_constants(n, m, d, L, x)
        except ValueError:
            continue  # net radius outside (0, 1): not a valid tuple
        # exponents combined so the order-one product cannot overflow
        lhs = 2.0 * math.exp(m * d * math.log(3.0 / eps) - n * tau * tau)
        rel = abs(lhs / (2.0 * math.exp(-x)) - 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-10
        done += 1
    with capsys.disabled():
        _report(2, f"identity holds on 100 random tuples, worst relative defect {worst:.2e} (tol 1e-10)")


def test_criterion_3_oracle_equivalence(capsys):
    """Solver objective vs exhaustive grid search on 200 tiny instances."""
    rng = np.random.default_rng(33)
    cfg = SolverConfig(restarts=8, seed=5)
    pens = [(1.0, 1.0), (2.0, 2.0), (0.5, 0.5)]
    worst_margin = -np.inf
    for i in range(200):
        p, q = pens[i % 3]
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        D = random_dictionary(m, d, int(rng.integers(0, 2**32)))
        x = rng.standard_normal(m)
        x *= rng.uniform(0.05, 1.0) / max(np.linalg.norm(x), 1e-12)
        pen = Penalty(p, q, float(rng.uniform(0.5, 2.0)))
        res = sparse_code(x, D, pen, cfg)
        oracle = brute_force_code(x, D, pen, grid_points=2001)
        tol = max(1e-3, 2.0 * grid_resolution_error(x, D, pen, grid_points=2001))
        diff = abs(res.objective - oracle.objective)
        worst_margin = max(worst_margin, diff - tol)
        assert diff <= tol, (i, p, q, m, d, diff, tol)
    with capsys.disabled():
        _report(3, f"200 instances at grid 2001; worst |diff|-tol margin {worst_margin:.2e} (<= 0)")


def test_criterion_4_objective_range_invariant(capsys):
    """0 <= objective <= 0.5*||x||^2 and the l1 coefficient bound, 10^4 triples."""
    rng = np.random.default_rng(44)
    cfg = SolverConfig(max_iters=300, restarts=2, seed=7)
    p_choices = (0.5, 1.0, 1.5, 2.0)
    q_choices = (0.5, 1.0, 2.0)
    worst_hi = -np.inf
    worst_l1 = -np.inf
    for _ in range(10_000):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        D = random_dictionary(m, d, int(rng.integers(0, 2**32)))
        x = rng.standard_normal(m)
        x *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(x), 1e-12)
        pen = Penalty(
            float(rng.choice(p_choices)), float(rng.choice(q_choices)), float(rng.uniform(0.5, 4.0))
        )
        res = sparse_code(x, D, pen, cfg)
        half = 0.5 * float(x @ x)
        assert res.objective >= 0.0
        worst_hi = max(worst_hi, res.objective - half)
        assert res.objective <= half + 1e-6
        slack = float(np.sum(np.abs(res.coeffs))) - l1_bound_from_penalty(half, pen, d)
        worst_l1 = max(worst_l1, slack)
        assert slack <= 1e-6
    with capsys.disabled():
        _report(4, f"10^4 triples; worst upper-bound excess {worst_hi:.2e}, worst l1 excess {worst_l1:.2e} (tol 1e-6)")


def test_criterion_5_empirical_lipschitz(capsys):
    """|F_X(D') - F_X(D)| <= empirical_L * distance * 1.01 on 1000 pairs."""
    rng = np.random.default_rng(55)
    m = d = 2
    n = 4
    Xm = rng.standard_normal((m, n))
    Xm *= rng.uniform(0.3, 1.0, size=n) / np.linalg.norm(Xm, axis=0)
    X = SignalSet(Xm)
    pen = Penalty(1, 1, 2)
    L = empirical_L(X, pen, d)

    cache: dict[int, float] = {}

    def F(D: Dictionary, key: int) -> float:
        if key not in cache:
            vals = [brute_force_code(Xm[:, i], D, pen, grid_points=601).objective for i in range(n)]
            cache[key] = float(np.mean(vals))
        return cache[key]

    dicts = [random_dictionary(m, d, k) for k in range(2000)]
    worst = -np.inf
    for k in range(1000):
        D1, D2 = dicts[2 * k], dicts[2 * k + 1]
        gap = abs(F(D1, 2 * k) - F(D2, 2 * k + 1))
        bound = L * dict_distance(D1, D2) * 1.01 + 1e-12
        worst = max(worst, gap - bound)
        assert gap <= bound
    with capsys.disabled():
        _report(5, f"1000 dictionary pairs; worst gap-bound margin {worst:.2e} (<= 0)")


def test_criterion_6_hoeffding_consistency(capsys):
    """Exceedance frequency of the centered train objective stays below the tail bound."""
    pen = Penalty(1, 1, 10)
    coding = SolverConfig()
    D = random_dictionary(8, 12, seed=66)
    spec = DistributionSpec(kind="uniform-sphere", m=8, seed=67)
    ref, _se = estimate_expected_f(D, spec, pen, 100_000, coding)
    trials = 2000
    details = []
    for n, tau in ((50, 0.3), (200, 0.2)):
        # one draw of trials*n columns, solved in blocks, grouped per trial
        per_trial = np.empty(trials)
        block = max(1, 100_000 // n)
        drawn = sample(dataclasses.replace(spec, seed=68 + n), trials * n)
        for start in range(0, trials, block):
            stop = min(start + block, trials)
            cols = drawn.signals[:, start * n : stop * n]
            _A, obj, _it, _cv = _solve_columns(cols, D, pen, coding)
            per_trial[start:stop] = obj.reshape(stop - start, n).mean(axis=1)
        exceed = np.abs(per_trial - ref) > tau / math.sqrt(8.0)
        phat = float(exceed.mean())
        bound = hoeffding_tail(n, tau)
        se = math.sqrt(max(phat * (1 - phat), 0.0) / trials)
        assert phat <= bound + 3 * se, (n, tau, phat, bound, se)
        details.append(f"(n={n}, tau={tau}): freq {phat:.4f} <= {bound:.4f}+3se")
    with capsys.disabled():
        _report(6, "; ".join(details))


@pytest.fixture(scope="session")
def envelope_sweep():
    cfg = ExperimentConfig(
        dist=DistributionSpec(kind="uniform-sphere", m=8, seed=77),
        pen=Penalty(1, 1, 10),
        d=12,
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
        trials=20,
        holdout_n=50_000,
        dict_source="random",
        confidence_x=1.0,
    )
    return gap_sweep(cfg)


def test_criterion_7_bound_envelope(envelope_sweep, capsys):
    """Every noise-adjusted gap sits below eta at confidence_x = 1."""
    worst = -np.inf
    for row in envelope_sweep.rows:
        margin = (row.gap - 3.0 * row.holdout_std_error) - row.eta
        worst = max(worst, margin)
        assert margin <= 0.0, (row.n, row.trial, row.gap, row.eta)
    with capsys.disabled():
        _report(7, f"140 sweep points, zero violations; worst gap-eta margin {worst:.3f}")


def test_criterion_8_rate_check(envelope_sweep, capsys):
    """Fitted slope of log(mean gap) vs log(sqrt(log n / n)) lands in [0.6, 1.4]."""
    slope = envelope_sweep.slope
    assert 0.6 <= slope <= 1.4, slope
    with capsys.disabled():
        _report(8, f"fitted slope {slope:.3f} in [0.6, 1.4] (vs 1/sqrt(n) regressor: {envelope_sweep.slope_inv_sqrt_n:.3f})")


def test_criterion_9_learning_sanity(capsys):
    """Monotone objective trace and unit-norm atoms on planted-sparse data."""
    pen = Penalty(1, 1, 10)
    worst_increase = -np.inf
    worst_norm = 0.0
    for seed in range(10):
        spec = DistributionSpec(
            kind="planted-sparse", m=8, dict_d=12, sparsity_k=2, seed=900 + seed, true_dict_seed=seed
        )
        X = sample(spec, 500)
        cfg = LearnConfig(outer_iters=15, seed=seed, coding=SolverConfig(max_iters=2000))
        trace = learn(X, 8, 12, pen, cfg)
        objs = np.array(trace.objectives)
        increases = np.diff(objs)
        worst_increase = max(worst_increase, float(increases.max(initial=-np.inf)))
        assert np.all(increases <= 1e-8), (seed, objs)
        norms = np.linalg.norm(trace.final_dict.atoms, axis=0)
        worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
        assert np.all(np.abs(norms - 1.0) <= 1e-9), seed
    with capsys.disabled():
        _report(9, f"10 seeds; worst objective increase {worst_increase:.2e} (tol 1e-8), worst atom-norm error {worst_norm:.2e} (tol 1e-9)")
