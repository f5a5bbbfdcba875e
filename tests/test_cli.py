"""Command-line surface: JSON-only stdout, exit codes, config validation,
and byte-identical reruns."""

import json
import subprocess
import sys

import numpy as np
import pytest

from slicemix.cli import (
    EXIT_DIVERGED,
    EXIT_USAGE,
    ConfigError,
    main,
    merge_config,
    read_matrix,
    write_matrix,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "slicemix", *args],
                          capture_output=True, text=True, env=full_env)


class TestPlan:
    def test_square_base(self, capsys):
        code, out, err = run_cli(["plan", "--width", "336", "--height", "336"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["m"], doc["n"]) == (1, 1)
        assert doc["wasted"] == 0.0

    def test_1024(self, capsys):
        code, out, _ = run_cli(["plan", "--width", "1024", "--height", "1024"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["m"], doc["n"]) == (4, 4)
        assert set(doc) == {"w", "h", "m", "n", "s", "utilized", "wasted"}

    def test_invalid_geometry_exits_2(self, capsys):
        code, out, err = run_cli(["plan", "--width", "0", "--height", "10"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "positive" in err


class TestRoute:
    @pytest.fixture()
    def fixtures(self, tmp_path):
        tok = tmp_path / "tokens.txt"
        txt = tmp_path / "text.txt"
        write_matrix(tok, np.log(np.array([[0.4], [0.3], [0.2], [0.1]])))
        write_matrix(txt, np.array([[1.0]]))
        return str(tok), str(txt)

    def test_fixture_selection(self, fixtures, capsys):
        tok, txt = fixtures
        code, out, _ = run_cli(["route", "--gamma", "0.5",
                                "--tokens", tok, "--text", txt], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kept"] == [0, 1]
        assert doc["cumulative"] == pytest.approx(0.7, abs=1e-12)
        assert set(doc) == {"gamma", "kept", "scores", "cumulative"}

    def test_gamma_one_keeps_all(self, fixtures, capsys):
        tok, txt = fixtures
        code, out, _ = run_cli(["route", "--gamma", "1.0",
                                "--tokens", tok, "--text", txt], capsys)
        assert code == 0
        assert sorted(json.loads(out)["kept"]) == [0, 1, 2, 3]

    def test_missing_file_exits_2(self, fixtures, capsys):
        _, txt = fixtures
        code, out, err = run_cli(["route", "--gamma", "0.5",
                                  "--tokens", "/nonexistent.txt", "--text", txt],
                                 capsys)
        assert code == EXIT_USAGE
        assert out == ""

    def test_bad_gamma_exits_2(self, fixtures, capsys):
        tok, txt = fixtures
        code, _, err = run_cli(["route", "--gamma", "1.5",
                                "--tokens", tok, "--text", txt], capsys)
        assert code == EXIT_USAGE
        assert "gamma" in err


class TestMatrixIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4))
        path = tmp_path / "m.txt"
        write_matrix(path, arr)
        assert np.array_equal(read_matrix(path), arr)
        header = path.read_text().splitlines()[0]
        assert header == "3 4"

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected 4 values"):
            read_matrix(path)


class TestBilinearCommand:
    def test_alternating_summary(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(["bilinear", "--method", "alt", "--c", "0.5",
                                "--steps", "50", "--out", str(out_csv)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "optimal"
        assert doc["final_loss"] == pytest.approx(0.125, abs=1e-8)
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "step,alpha,beta,tau,nu,norm_u,norm_v,loss"

    def test_gd_antisym_suboptimal(self, capsys):
        code, out, _ = run_cli(["bilinear", "--method", "gd", "--c", "0.5",
                                "--init", "antisym", "--eta", "0.01",
                                "--steps", "100000"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "suboptimal"
        assert doc["final_loss"] == pytest.approx(1.125, abs=1e-4)

    def test_zero_steps_initial_row_only(self, tmp_path, capsys):
        out_csv = tmp_path / "t.csv"
        code, out, _ = run_cli(["bilinear", "--method", "alt", "--c", "0.3",
                                "--steps", "0", "--out", str(out_csv)], capsys)
        assert code == 0
        assert len(out_csv.read_text().strip().split("\n")) == 2

    def test_invalid_c_exits_2(self, capsys):
        code, out, err = run_cli(["bilinear", "--method", "gd", "--c", "1.5"], capsys)
        assert code == EXIT_USAGE
        assert out == ""

    def test_divergent_run_exits_3(self, capsys):
        code, out, _ = run_cli(["bilinear", "--method", "gd", "--c", "0.5",
                                "--eta", "3.0", "--steps", "4000"], capsys)
        assert code == EXIT_DIVERGED
        assert json.loads(out)["classification"] == "diverged"


class TestSweepCommand:
    def test_summary_schema(self, capsys):
        code, out, _ = run_cli(["sweep", "--c", "0.3,0.5", "--methods", "gd,alt",
                                "--steps", "2000", "--init", "generic"], capsys)
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 4
        for doc in docs:
            assert set(doc) == {"c", "eta", "method", "init", "classification",
                                "final_loss", "steps_to_converge"}

    def test_bad_method_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--c", "0.3", "--methods", "newton"],
                               capsys)
        assert code == EXIT_USAGE


class TestTrainCommand:
    def test_unknown_config_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"training": {"warmup": 5}}))
        code, out, err = run_cli(["train", "--mode", "e2e", "--seed", "1",
                                  "--config", str(cfg)], capsys)
        assert code == EXIT_USAGE
        assert "training.warmup" in err
        assert out == ""

    def test_short_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"training": {"total_steps": 6, "n_train": 4, "n_eval": 2}}))
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(["train", "--mode", "alternating", "--seed", "2",
                                "--config", str(cfg), "--out", str(out_dir)],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "alternating" and doc["seed"] == 2
        assert set(doc) == {"mode", "seed", "final_eval", "only_global_eval",
                            "only_local_eval", "diverged"}
        report = (out_dir / "report_alternating_seed2.csv").read_text()
        assert report.startswith("step,stage,loss\n")
        summary = json.loads((out_dir / "summary_alternating_seed2.json").read_text())
        assert summary["final_eval"] == doc["final_eval"]


class TestConfigMerge:
    def test_defaults_pass_through(self):
        merged = merge_config({})
        assert merged["router"]["gamma"] == 0.75
        assert merged["slicing"]["base"] == 336

    def test_override_leaf(self):
        merged = merge_config({"router": {"gamma": 0.5}})
        assert merged["router"]["gamma"] == 0.5
        assert merged["router"]["local_queries"] == 4

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'decoder'"):
            merge_config({"decoder": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="router.top_k"):
            merge_config({"router": {"top_k": 3}})


class TestDeterminism:
    def test_plan_byte_identical(self):
        a = run_subprocess(["plan", "--width", "999", "--height", "417"])
        b = run_subprocess(["plan", "--width", "999", "--height", "417"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_bilinear_trace_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bilinear", "--method", "gd", "--c", "0.4", "--init", "antisym",
                "--steps", "500", "--seed", "5"]
        a = run_subprocess(args + ["--out", str(f1)])
        b = run_subprocess(args + ["--out", str(f2)])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert f1.read_bytes() == f2.read_bytes()

    def test_env_var_seed_fallback(self):
        args = ["bilinear", "--method", "alt", "--c", "0.5", "--steps", "10"]
        a = run_subprocess(args, env={"SLIME_KIT_SEED": "77"})
        b = run_subprocess(args + ["--seed", "77"])
        c = run_subprocess(args + ["--seed", "78"])
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_stdout_is_json_only(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"training": {"total_steps": 4, "n_train": 3, "n_eval": 2}}))
        res = run_subprocess(["train", "--mode", "e2e", "--seed", "3",
                              "--config", str(cfg)])
        assert res.returncode == 0
        json.loads(res.stdout)  # a single JSON document


class TestScipyStaysUnloaded:
    """Only GELU needs scipy, so commands that run no GELU never import it."""

    @staticmethod
    def imported(args):
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True)
        # -X importtime logs one "... | <module>" line per import on stderr
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                   if line.startswith("import time:")]
        return proc, modules

    @pytest.mark.parametrize("args", [
        ["-c", "import slicemix.cli"],
        ["-m", "slicemix", "plan", "--width", "1371", "--height", "642"],
        ["-m", "slicemix", "bilinear", "--method", "gd", "--c", "0.4", "--steps", "100"],
    ])
    def test_command_does_not_import_scipy(self, args):
        proc, modules = self.imported(args)
        assert proc.returncode == 0, proc.stderr
        assert "slicemix.cli" in modules
        assert not [m for m in modules if m.split(".")[0] == "scipy"]

    def test_first_gelu_call_binds_erf(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from slicemix import numerics\n"
            "assert 'scipy' not in sys.modules\n"
            "xs = np.linspace(-6.0, 6.0, 101)\n"
            "y, dy = numerics.gelu(xs), numerics.gelu_grad(xs)\n"
            "from scipy.special import erf\n"
            "assert numerics._erf is erf\n"
            "cdf = 0.5 * (1.0 + erf(xs / np.sqrt(2.0)))\n"
            "assert np.array_equal(y, 0.5 * xs * (1.0 + erf(xs / np.sqrt(2.0))))\n"
            "pdf = np.exp(-0.5 * xs * xs) / np.sqrt(2.0 * np.pi)\n"
            "np.testing.assert_allclose(dy, cdf + xs * pdf, rtol=1e-14, atol=0.0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_plan_and_bilinear_run_with_scipy_blocked(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"  # makes any scipy import raise ImportError
            "from slicemix.cli import main\n"
            "assert main(['plan', '--width', '1371', '--height', '642']) == 0\n"
            "assert main(['bilinear', '--method', 'gd', '--c', '0.4', '--steps', '100']) == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
