import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lpdict
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

    @pytest.mark.parametrize("m, d", [(3, 3), (16, 32)])
    def test_huge_n_gives_a_finite_eta(self, m, d, capsys):
        code = run(f"bound --m {m} --d {d} --p 1 --q 1 --lambda 1 --n {10**300} --confidence 1".split())
        assert code == 0
        eta = json.loads(capsys.readouterr().out)["eta"]
        assert math.isfinite(eta) and eta > 0.0


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

    @pytest.mark.parametrize("body", ["7", '"abc"'])
    def test_non_object_config_is_validation(self, capsys, tmp_path, body):
        data = str(tmp_path / "data.csv")
        write_matrix(data, np.zeros((2, 3)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        code = run(f"learn --data {data} --d 2 --p 1 --q 1 --lambda 1 --config {cfg}".split())
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --config:")

    @pytest.mark.parametrize("coding", [{"bogus": 1}, {"max_iters": 0}, {"step_shrink": 0.5}, {"grad_tol": 1e-10}])
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

    def test_deleted_init_mode_key_is_validation(self, capsys, tmp_path):
        data = str(tmp_path / "data.csv")
        write_matrix(data, np.zeros((2, 3)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init_mode": "data-atoms"}))
        code = run(f"learn --data {data} --d 2 --p 1 --q 1 --lambda 1 --config {cfg}".split())
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config, --seed:") and err.count("\n") == 1


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
            code = run(f"experiment --config {cfg_path} --out {out_dir}".split())
        assert code == 0
        rows = open(out_dir + "/gap_curve.csv").read().strip().split("\n")
        assert rows[0] == "n,trial,train_F,holdout_F,gap,eta"
        assert len(rows) == 3
        sidecar = json.load(open(out_dir + "/gap_curve.json"))
        assert sidecar["config"]["d"] == 4

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code = run(f"experiment --config {tmp_path}/nope.json --out {tmp_path}".split())
        assert code == 2

    def test_n_grid_without_a_net_radius_is_validation(self, capsys, tmp_path):
        cfg = {
            "dist": {"kind": "uniform-sphere", "m": 8, "seed": 7},
            "pen": {"p": 1, "q": 1, "lambda": 1},
            "d": 12,
            "n_grid": [2, 4],
            "holdout_n": 40,
        }
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out_dir = tmp_path / "out"
        code = run(f"experiment --config {cfg_path} --out {out_dir}".split())
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config: net radius") and err.count("\n") == 1
        assert not out_dir.exists()


_BOUND = "bound --m 8 --d 12 --p 1 --q 1 --lambda 10 --n 1000 --confidence 1"
_SAMPLESIZE = "samplesize --target-eta 0.5 --m 8 --d 12 --p 1 --q 1 --lambda 10 --confidence 1"
_CODE = "code --signal {dir}/x.csv --dict {dir}/D.csv --p 1 --q 1 --lambda 2"
_LEARN = "learn --data {dir}/X.csv --d 2 --p 1 --q 1 --lambda 2 --out-dict {dir}/o.csv --out-trace {dir}/t.csv"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (f"{_BOUND} --m 0", "--m"),
        (f"{_BOUND} --d 0", "--d"),
        (f"{_BOUND} --n 0", "--n"),
        (f"{_BOUND} --p -1", "--p"),
        (f"{_BOUND} --lambda nan", "--lambda"),
        (f"{_BOUND} --confidence -1", "--confidence"),
        (f"{_BOUND} --confidence nan", "--confidence"),
        (f"{_BOUND} --confidence inf", "--confidence"),
        (f"{_BOUND} --L 0", "--L"),
        (f"{_BOUND} --L nan", "--L"),
        (f"{_BOUND} --L inf", "--L"),
        (f"{_SAMPLESIZE} --m 0", "--m"),
        (f"{_SAMPLESIZE} --d 0", "--d"),
        (f"{_SAMPLESIZE} --confidence -1", "--confidence"),
        (f"{_SAMPLESIZE} --confidence nan", "--confidence"),
        (f"{_SAMPLESIZE} --confidence inf", "--confidence"),
        (f"{_SAMPLESIZE} --L 0", "--L"),
        (f"{_SAMPLESIZE} --L nan", "--L"),
        (f"{_SAMPLESIZE} --L inf", "--L"),
        (f"{_SAMPLESIZE} --target-eta -2", "--target-eta"),
        (f"{_SAMPLESIZE} --target-eta nan", "--target-eta"),
        (f"{_CODE} --max-iters 0", "--max-iters"),
        (f"{_CODE} --restarts 0", "--restarts"),
        (f"{_CODE} --seed -1", "--seed"),
        (f"{_CODE} --lambda nan", "--lambda"),
        (f"{_LEARN} --d 0", "--d"),
        (f"{_LEARN} --seed -1", "--seed"),
        (f"{_LEARN} --p -1", "--p"),
        (f"{_BOUND} --m {{big}}", "--m"),
        (f"{_BOUND} --d {{big}}", "--d"),
        (f"{_BOUND} --n {{big}}", "--n"),
        (f"{_SAMPLESIZE} --m {{big}}", "--m"),
        (f"{_SAMPLESIZE} --d {{big}}", "--d"),
        ("bound --m 3 --d 3 --p 1 --q 1 --lambda 10 --n 1000 --confidence 1e17", "--confidence"),
    ],
)
def test_invalid_flag_value_is_one_line_naming_the_flag(argv, flag, capsys, tmp_path):
    write_matrix(tmp_path / "x.csv", [[0.5], [0.1]])
    write_matrix(tmp_path / "D.csv", np.eye(2))
    write_matrix(tmp_path / "X.csv", [[0.5, 0.1, 0.2], [0.1, 0.3, 0.1]])
    code = run(argv.format(dir=tmp_path, big=10**400).split())  # {big}: beyond float range
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err.split(": ")[1].split(", ")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


_NUMERIC_FLAGS = {
    "bound": ("--m", "--d", "--n", "--p", "--q", "--lambda", "--confidence", "--L"),
    "samplesize": ("--target-eta", "--m", "--d", "--p", "--q", "--lambda", "--confidence", "--L"),
}
_plain = {  # values each command accepts
    "--m": st.integers(1, 40),
    "--d": st.integers(1, 40),
    "--n": st.integers(2, 10**7),
    "--p": st.floats(0.2, 4.0),
    "--q": st.floats(0.2, 4.0),
    "--lambda": st.floats(0.1, 50.0),
    "--confidence": st.floats(0.0, 10.0),
    "--L": st.floats(0.05, 50.0),
    "--target-eta": st.floats(0.01, 10.0),
}
_wild = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 1e-300, 1e300, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(_NUMERIC_FLAGS)),
    plain=st.fixed_dictionaries(_plain),
    wild=st.dictionaries(st.sampled_from(sorted(_plain)), _wild, max_size=2),
    with_L=st.booleans(),
)
def test_numeric_flags_fuzz(command, plain, wild, with_L, capsys):
    values = {**plain, **wild}
    argv = [command]
    for flag in _NUMERIC_FLAGS[command]:
        if flag != "--L" or with_L or flag in wild:
            argv += [flag, repr(values[flag])]
    code = run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        _strict_json(out)
    else:
        assert err.startswith("error: ")


class TestCheck:
    def test_self_checks_pass(self, capsys):
        assert run(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6


def test_python_dash_m_runs_the_cli():
    src = str(Path(lpdict.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = "bound --m 16 --d 32 --p 0.5 --q 1 --lambda 1 --n 1000000 --confidence 0".split()
    done = subprocess.run([sys.executable, "-m", "lpdict", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert math.isfinite(json.loads(done.stdout)["eta"])
