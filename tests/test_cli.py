import json

import numpy as np
import pytest

from lpdict.cli import run


def write_matrix(path, M):
    np.savetxt(path, np.asarray(M, dtype=float), fmt="%.17g", delimiter=",")


class TestBound:
    def test_example_configuration(self, capsys):
        code = run(
            "bound --m 16 --d 32 --p 0.5 --q 1 --lambda 1 --n 1000000 --confidence 0".split()
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["beta"] == pytest.approx(136.85331580851377, rel=1e-6)
        assert out["eta"] == pytest.approx(0.0986627, rel=1e-4)
        assert out["L_worst"] == pytest.approx(0.5, rel=1e-12)
        assert out["L_X"] == 0.0

    def test_empirical_fields_from_signals(self, capsys, tmp_path):
        path = str(tmp_path / "x.csv")
        write_matrix(path, np.array([[1.0, 0.5], [0.0, 0.0]]))
        code = run(
            f"bound --m 2 --d 4 --p 2 --q 2 --lambda 2 --n 1000 --confidence 0 --signals {path}".split()
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L_X"] == pytest.approx(1.7677669529663689, rel=1e-12)

    def test_invalid_p_names_flag(self, capsys):
        code = run("bound --m 4 --d 4 --p -1 --q 1 --lambda 1 --n 100 --confidence 0".split())
        assert code == 1
        err = capsys.readouterr().err
        assert "--p" in err and err.count("\n") == 1

    def test_unknown_flag_is_validation_error(self, capsys):
        code = run("bound --m 4 --d 4 --p 1 --q 1 --lambda 1 --n 100 --confidence 0 --bogus 3".split())
        assert code == 1

    def test_small_n_warning(self, capsys):
        code = run("bound --m 2 --d 2 --p 1 --q 1 --lambda 1 --n 2 --confidence 0".split())
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "n >= 3" in err


class TestSampleSize:
    def test_round_trips_against_bound(self, capsys):
        assert run(
            "samplesize --target-eta 0.1 --m 16 --d 32 --p 0.5 --q 1 --lambda 1 --confidence 0".split()
        ) == 0
        out = json.loads(capsys.readouterr().out)
        n = out["n"]
        assert out["eta_at_n"] <= 0.1 < out["eta_at_n_minus_1"]
        assert run(
            f"bound --m 16 --d 32 --p 0.5 --q 1 --lambda 1 --n {n} --confidence 0".split()
        ) == 0
        bound_out = json.loads(capsys.readouterr().out)
        assert bound_out["eta"] == pytest.approx(out["eta_at_n"], rel=1e-9)

    def test_rejects_bad_target(self, capsys):
        code = run("samplesize --target-eta -2 --m 4 --d 4 --p 1 --q 1 --lambda 1 --confidence 0".split())
        assert code == 1
        assert "--target-eta" in capsys.readouterr().err


class TestCode:
    def test_soft_threshold_case(self, capsys, tmp_path):
        sig = str(tmp_path / "x.csv")
        dic = str(tmp_path / "D.csv")
        write_matrix(sig, np.array([[0.8]]))
        write_matrix(dic, np.array([[1.0]]))
        code = run(f"code --signal {sig} --dict {dic} --p 1 --q 1 --lambda 2".split())
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["objective"] == pytest.approx(0.275, abs=1e-9)
        assert out["coeffs"][0] == pytest.approx(0.3, abs=1e-7)
        assert out["converged"] is True

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        dic = str(tmp_path / "D.csv")
        write_matrix(dic, np.array([[1.0]]))
        code = run(f"code --signal {tmp_path}/nope.csv --dict {dic} --p 1 --q 1 --lambda 1".split())
        assert code == 2
        assert "--signal" in capsys.readouterr().err

    def test_bad_dictionary_is_validation(self, capsys, tmp_path):
        sig = str(tmp_path / "x.csv")
        dic = str(tmp_path / "D.csv")
        write_matrix(sig, np.array([[0.5]]))
        write_matrix(dic, np.array([[2.0]]))  # atom norm 2
        code = run(f"code --signal {sig} --dict {dic} --p 1 --q 1 --lambda 1".split())
        assert code == 1
        assert "--dict" in capsys.readouterr().err


class TestLearn:
    def test_writes_dictionary_and_trace(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 20))
        X /= np.maximum(np.linalg.norm(X, axis=0), 1.0) * 1.25
        data = str(tmp_path / "data.csv")
        write_matrix(data, X)
        out_dict = str(tmp_path / "D.csv")
        out_trace = str(tmp_path / "trace.csv")
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"outer_iters": 3, "coding": {"max_iters": 300}}, fh)
        code = run(
            f"learn --data {data} --d 6 --p 1 --q 1 --lambda 5 --config {cfg} "
            f"--out-dict {out_dict} --out-trace {out_trace}".split()
        )
        assert code == 0
        D = np.loadtxt(out_dict, delimiter=",", ndmin=2)
        assert D.shape == (4, 6)
        assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-9)
        rows = open(out_trace).read().strip().split("\n")
        assert rows[0] == "round,objective"
        objs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a + 1e-8 for a, b in zip(objs, objs[1:]))

    def test_malformed_config_is_validation(self, capsys, tmp_path):
        data = str(tmp_path / "data.csv")
        write_matrix(data, np.zeros((2, 3)))
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            fh.write("{not json")
        code = run(f"learn --data {data} --d 2 --p 1 --q 1 --lambda 1 --config {cfg}".split())
        assert code == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("coding", [{"bogus": 1}, {"max_iters": 0}])
    def test_invalid_coding_key_is_validation(self, capsys, tmp_path, coding):
        data = str(tmp_path / "data.csv")
        write_matrix(data, np.zeros((2, 3)))
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"coding": coding}, fh)
        code = run(f"learn --data {data} --d 2 --p 1 --q 1 --lambda 1 --config {cfg}".split())
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config:") and err.count("\n") == 1


class TestExperiment:
    def test_runs_tiny_sweep(self, capsys, tmp_path):
        cfg = {
            "dist": {"kind": "uniform-sphere", "m": 3, "seed": 5},
            "pen": {"p": 1, "q": 1, "lambda": 4},
            "d": 4,
            "n_grid": [8, 16],
            "trials": 1,
            "holdout_n": 160,
            "dict_source": "random",
            "learn": {"outer_iters": 2, "coding": {"max_iters": 300}},
            "confidence_x": 1.0,
        }
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out_dir = str(tmp_path / "out")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run(f"experiment --config {cfg_path} --out {out_dir} --threads 1".split())
        assert code == 0
        rows = open(out_dir + "/gap_curve.csv").read().strip().split("\n")
        assert rows[0] == "n,trial,train_F,holdout_F,gap,eta"
        assert len(rows) == 3
        sidecar = json.load(open(out_dir + "/gap_curve.json"))
        assert sidecar["config"]["d"] == 4

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code = run(f"experiment --config {tmp_path}/nope.json --out {tmp_path}".split())
        assert code == 2


class TestCheck:
    def test_self_checks_pass(self, capsys):
        assert run(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6
