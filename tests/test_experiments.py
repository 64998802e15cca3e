import dataclasses
import json
import os

import numpy as np
import pytest

from lpdict import experiments
from lpdict.core import Penalty
from lpdict.experiments import (
    DistributionSpec,
    ExperimentConfig,
    GapCurve,
    estimate_expected_f,
    export,
    gap_sweep,
    load_curve,
    planted_dictionary,
    random_dictionary,
    sample,
)
from lpdict.learning import LearnConfig
from lpdict.sparse_coding import SolverConfig


def tiny_config(**kw):
    defaults = dict(
        dist=DistributionSpec(kind="uniform-sphere", m=4, seed=11),
        pen=Penalty(1, 1, 5),
        d=6,
        n_grid=(16, 32),
        trials=2,
        holdout_n=400,
        dict_source="random",
        learn=LearnConfig(outer_iters=3, coding=SolverConfig(max_iters=400)),
        confidence_x=1.0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestSample:
    def test_sphere_norms(self):
        X = sample(DistributionSpec(kind="uniform-sphere", m=5, seed=0), 200)
        assert np.allclose(np.linalg.norm(X.signals, axis=0), 1.0, atol=1e-12)

    def test_ball_membership_and_radius_moment(self):
        # ||x||^m is uniform on [0, 1] for the uniform ball, so its mean is 1/2
        m = 4
        X = sample(DistributionSpec(kind="uniform-ball", m=m, seed=1), 100_000)
        norms = np.linalg.norm(X.signals, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)
        vals = norms**m
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_planted_sparse_scale_zero(self):
        spec = DistributionSpec(
            kind="planted-sparse", m=4, dict_d=6, sparsity_k=2, coeff_scale=0.0, seed=2
        )
        X = sample(spec, 20)
        assert np.all(X.signals == 0.0)

    def test_planted_sparse_in_ball(self):
        spec = DistributionSpec(
            kind="planted-sparse", m=4, dict_d=6, sparsity_k=2, coeff_scale=3.0, seed=3
        )
        X = sample(spec, 500)
        assert np.all(np.linalg.norm(X.signals, axis=0) <= 1.0 + 1e-12)

    def test_deterministic_given_seed_and_n(self):
        spec = DistributionSpec(kind="uniform-sphere", m=3, seed=7)
        assert np.array_equal(sample(spec, 50).signals, sample(spec, 50).signals)

    def test_distinct_seeds_differ(self):
        a = sample(DistributionSpec(kind="uniform-sphere", m=3, seed=1), 10)
        b = sample(DistributionSpec(kind="uniform-sphere", m=3, seed=2), 10)
        assert not np.array_equal(a.signals, b.signals)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="bogus", m=3)
        with pytest.raises(ValueError):
            DistributionSpec(kind="planted-sparse", m=3)  # dict_d missing
        with pytest.raises(ValueError):
            DistributionSpec(kind="planted-sparse", m=3, dict_d=4, sparsity_k=9)

    def test_planted_dictionary_shape(self):
        spec = DistributionSpec(kind="planted-sparse", m=5, dict_d=8, sparsity_k=1, true_dict_seed=6)
        D = planted_dictionary(spec)
        assert (D.m, D.d) == (5, 8)
        assert np.array_equal(D.atoms, planted_dictionary(spec).atoms)


class TestEstimateExpectedF:
    def test_degenerate_distribution(self):
        spec = DistributionSpec(
            kind="planted-sparse", m=3, dict_d=4, sparsity_k=1, coeff_scale=0.0, seed=4
        )
        D = random_dictionary(3, 4, seed=5)
        mean, se = estimate_expected_f(D, spec, Penalty(1, 1, 2), 100)
        assert mean == 0.0 and se == 0.0

    def test_range(self):
        spec = DistributionSpec(kind="uniform-sphere", m=4, seed=5)
        D = random_dictionary(4, 6, seed=6)
        mean, se = estimate_expected_f(D, spec, Penalty(1, 1, 5), 500)
        assert 0.0 <= mean <= 0.5
        assert se >= 0.0

    def test_standard_error_shrinks_with_root_two(self):
        spec = DistributionSpec(kind="uniform-sphere", m=4, seed=6)
        D = random_dictionary(4, 6, seed=7)
        _, se1 = estimate_expected_f(D, spec, Penalty(1, 1, 5), 4000)
        _, se2 = estimate_expected_f(D, spec, Penalty(1, 1, 5), 8000)
        assert se1 / se2 == pytest.approx(np.sqrt(2.0), rel=0.25)

    def test_rejects_tiny_holdout(self):
        spec = DistributionSpec(kind="uniform-sphere", m=3, seed=6)
        with pytest.raises(ValueError):
            estimate_expected_f(random_dictionary(3, 3, 1), spec, Penalty(1, 1, 1), 1)

    def test_sample_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample(DistributionSpec(kind="uniform-sphere", m=3, seed=1), 0)


class TestGapSweep:
    def test_shapes_and_invariants(self):
        curve = gap_sweep(tiny_config())
        assert len(curve.rows) == 4
        for row in curve.rows:
            assert row.gap == pytest.approx(abs(row.train_F - row.holdout_F), abs=1e-15)
            assert 0.0 <= row.train_F <= 0.5
            assert 0.0 <= row.holdout_F <= 0.5
            assert row.eta > 0.0
        etas = {row.n: row.eta for row in curve.rows}
        assert etas[32] < etas[16]

    def test_degenerate_distribution_gap_near_zero(self):
        cfg = tiny_config(
            dist=DistributionSpec(
                kind="planted-sparse", m=4, dict_d=6, sparsity_k=1, coeff_scale=0.0, seed=8
            ),
            n_grid=(16,),
            trials=1,
        )
        curve = gap_sweep(cfg)
        assert curve.rows[0].gap == pytest.approx(0.0, abs=1e-12)
        assert curve.rows[0].eta > 0.0

    def test_planted_source_uses_planted_dictionary(self):
        spec = DistributionSpec(
            kind="planted-sparse", m=4, dict_d=5, sparsity_k=1, seed=9, true_dict_seed=3
        )
        cfg = tiny_config(dist=spec, d=5, dict_source="planted", n_grid=(16,), trials=1)
        curve = gap_sweep(cfg)
        assert len(curve.rows) == 1

    def test_learned_source_runs(self):
        cfg = tiny_config(dict_source="learned", n_grid=(12,), trials=1, holdout_n=200)
        curve = gap_sweep(cfg)
        assert len(curve.rows) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(n_grid=())
        with pytest.raises(ValueError):
            tiny_config(n_grid=(32, 16))
        with pytest.raises(ValueError):
            tiny_config(dict_source="planted")  # needs planted-sparse dist
        with pytest.raises(ValueError, match="net radius"):  # about 3 for n = 2 at m=8, d=12
            tiny_config(dist=DistributionSpec(kind="uniform-sphere", m=8), d=12, pen=Penalty(1, 1, 1), n_grid=(2, 4))

    def test_holdout_warning(self):
        with pytest.warns(UserWarning, match="holdout_n"):
            tiny_config(holdout_n=100)

    def test_converged_flag_covers_the_holdout(self, monkeypatch, tmp_path):
        # a holdout column that stops on the budget must flag its row
        cfg = tiny_config()
        solve = experiments._solve_columns

        def holdout_budget_hit(Xmat, D, pen, coding, warm=None):
            A, obj, iters, conv = solve(Xmat, D, pen, coding, warm)
            if Xmat.shape[1] == cfg.holdout_n:
                conv = conv.copy()
                conv[0] = False
            return A, obj, iters, conv

        monkeypatch.setattr(experiments, "_solve_columns", holdout_budget_hit)
        curve = gap_sweep(cfg)
        assert [row.converged for row in curve.rows] == [False] * len(curve.rows)
        path = str(tmp_path / "curve.csv")
        export(curve, path)
        assert load_curve(path).rows == curve.rows

    def test_sweep_sphere_holdout_converges(self):
        # the (n=32, trial=1) holdout of the benchmark's sphere sweep: m=8,
        # d=12, p=q=1, lam=10, a random dictionary, master seed 20140320
        master, n, trial = 20140320, 32, 1
        D = random_dictionary(8, 12, np.random.default_rng([master, n, trial, experiments._TAG_DICT]))
        tag = experiments._TAG_HOLDOUT
        hold_seed = experiments._derive_seed(experiments._derive_seed(master, n, trial, tag), tag)
        X = sample(DistributionSpec(kind="uniform-sphere", m=8, seed=hold_seed), 10_000)
        _A, _obj, iters, conv = experiments._solve_columns(X.signals, D, Penalty(1, 1, 10), SolverConfig())
        assert conv.all()
        assert iters.max() < SolverConfig().max_iters


class TestExport:
    def test_empty_curve_header_only(self, tmp_path):
        curve = GapCurve(rows=(), slope=float("nan"), intercept=float("nan"),
                         slope_inv_sqrt_n=float("nan"), intercept_inv_sqrt_n=float("nan"))
        path = str(tmp_path / "empty.csv")
        export(curve, path)
        with open(path) as fh:
            assert fh.read() == "n,trial,train_F,holdout_F,gap,eta\n"

    def test_round_trip_exact(self, tmp_path):
        curve = gap_sweep(tiny_config())
        path = str(tmp_path / "curve.csv")
        export(curve, path)
        loaded = load_curve(path)
        assert loaded.rows == curve.rows
        assert loaded.slope == curve.slope
        assert loaded.intercept == curve.intercept
        assert loaded.config == curve.config

    def test_sidecar_schema(self, tmp_path):
        curve = gap_sweep(tiny_config())
        path = str(tmp_path / "curve.csv")
        export(curve, path)
        with open(str(tmp_path / "curve.json")) as fh:
            sidecar = json.load(fh)
        assert set(sidecar.keys()) == {"fit", "config", "seeds", "rows_extra"}
        assert set(sidecar["fit"].keys()) == {
            "slope",
            "intercept",
            "slope_inv_sqrt_n",
            "intercept_inv_sqrt_n",
        }
        assert sidecar["seeds"]["master"] == 11
        assert len(sidecar["rows_extra"]["holdout_std_error"]) == len(curve.rows)

    def test_deterministic_bytes(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        export(gap_sweep(cfg), p1)
        export(gap_sweep(cfg), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_io_error_carries_path(self):
        curve = GapCurve(rows=(), slope=0.0, intercept=0.0, slope_inv_sqrt_n=0.0, intercept_inv_sqrt_n=0.0)
        with pytest.raises(OSError, match="no/such/dir"):
            export(curve, "no/such/dir/out.csv")

    def test_failed_sidecar_write_keeps_the_earlier_pair(self, tmp_path, monkeypatch):
        path = str(tmp_path / "curve.csv")
        export(gap_sweep(tiny_config(n_grid=(16,), trials=1)), path)
        files = sorted(os.listdir(tmp_path))
        before = [(tmp_path / name).read_bytes() for name in files]
        earlier = load_curve(path)
        write = experiments._write_beside

        def fail_on_sidecar(target, text):
            if target.endswith(".json"):
                raise OSError("no space left on device")
            write(target, text)

        monkeypatch.setattr(experiments, "_write_beside", fail_on_sidecar)
        with pytest.raises(OSError, match="curve.csv"):
            export(gap_sweep(tiny_config(n_grid=(16,), trials=2)), path)
        assert sorted(os.listdir(tmp_path)) == files == ["curve.csv", "curve.json"]
        assert [(tmp_path / name).read_bytes() for name in files] == before
        again = load_curve(path)
        assert again.rows == earlier.rows and again.config == earlier.config

    @pytest.mark.parametrize("key", ["converged", "holdout_std_error"])
    def test_load_rejects_sidecar_row_count_mismatch(self, tmp_path, key):
        path = str(tmp_path / "curve.csv")
        export(gap_sweep(tiny_config(n_grid=(16,), trials=2)), path)
        side = str(tmp_path / "curve.json")
        with open(side) as fh:
            sidecar = json.load(fh)
        sidecar["rows_extra"][key] = sidecar["rows_extra"][key][:1]
        with open(side, "w") as fh:
            json.dump(sidecar, fh)
        with pytest.raises(ValueError, match=key):
            load_curve(path)

    # fields this version lacks; earlier versions wrote them into the echo
    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("coding", "smoothing_eps", 1e-6),
            ("coding", "step_shrink", 0.5),
            ("coding", "grad_tol", 1e-10),
            ("learn", "dict_step_shrink", 0.5),
            ("learn", "dict_grad_tol", 1e-8),
        ],
    )
    def test_load_rejects_config_echo_that_does_not_rebuild(self, tmp_path, block, key, value):
        path = str(tmp_path / "curve.csv")
        export(gap_sweep(tiny_config(n_grid=(16,), trials=1)), path)
        side = str(tmp_path / "curve.json")
        with open(side) as fh:
            sidecar = json.load(fh)
        learn = sidecar["config"]["learn"]
        (learn["coding"] if block == "coding" else learn)[key] = value
        with open(side, "w") as fh:
            json.dump(sidecar, fh)
        with pytest.raises(ValueError, match="curve.csv"):
            load_curve(path)

    def test_config_round_trips_through_json(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


class TestHoeffdingConsistency:
    def test_exceedance_frequency_below_bound(self):
        # scaled-down version of the concentration check: fixed dictionary,
        # spheres, 300 trials at (n=50, tau=0.3)
        from lpdict.bounds import hoeffding_tail
        from lpdict.sparse_coding import _solve_columns

        pen = Penalty(1, 1, 10)
        D = random_dictionary(8, 12, seed=21)
        spec = DistributionSpec(kind="uniform-sphere", m=8, seed=22)
        coding = SolverConfig(max_iters=800)
        ref, _ = estimate_expected_f(D, spec, pen, 20_000, coding)
        n, tau, trials = 50, 0.3, 300
        exceed = 0
        for t in range(trials):
            X = sample(dataclasses.replace(spec, seed=1000 + t), n)
            _, obj, _, _ = _solve_columns(X.signals, D, pen, coding)
            if abs(float(np.mean(obj)) - ref) > tau / np.sqrt(8):
                exceed += 1
        phat = exceed / trials
        bound = hoeffding_tail(n, tau)
        se = np.sqrt(max(phat * (1 - phat), 1e-12) / trials)
        assert phat <= bound + 3 * se
