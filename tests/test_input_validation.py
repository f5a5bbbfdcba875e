"""Bad plan geometry, trajectory arguments, train configs, matrix fixtures
and SLIME_KIT_SEED values are rejected before any run starts: exit 2, one
stderr line, nothing on stdout. What does reach stdout is strict JSON."""

import json
import math
import warnings

import numpy as np
import pytest

from slicemix import bilinear as bl
from slicemix import pipeline as pl
from slicemix.cli import (EXIT_DIVERGED, EXIT_USAGE, SEED_ENV_VAR, ConfigError, main,
                          merge_config, write_matrix)
from slicemix.slicing import plan_partition


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_rejected(args, capsys, needle):
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert needle in err


def train_args(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return ["train", "--mode", "e2e", "--seed", "1", "--config", str(path)]


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestPlanInputs:
    @pytest.mark.parametrize("base", ["0", "-5"])
    def test_nonpositive_base(self, base, capsys):
        assert_rejected(["plan", "--width", "100", "--height", "100", "--base", base],
                        capsys, "base (the tile side) must be positive")

    def test_plan_partition_raises(self):
        with pytest.raises(ValueError, match="base"):
            plan_partition(100, 100, base=0)

    @pytest.mark.parametrize("width, height, base, needle", [
        (10**160, 10**160, 336, "image area"),
        (10**400, 5, 336, "image area"),
        (5, 5, 10**200, "canvas area"),
    ], ids=["square-1e160", "wide-1e400", "base-1e200"])
    def test_float_overflowing_geometry(self, width, height, base, needle, capsys):
        with pytest.raises(ValueError, match=needle):
            plan_partition(width, height, base=base)
        assert_rejected(["plan", "--width", str(width), "--height", str(height),
                         "--base", str(base)], capsys, needle)


class TestTrajectoryInputs:
    @pytest.mark.parametrize("command", ["bilinear", "sweep"])
    @pytest.mark.parametrize("d", ["1", "4097"])
    def test_dimension_out_of_range(self, command, d, capsys):
        # the dense d x d target is never built: 4097 is one past the bound,
        # and no size that would allocate much is tried
        assert_rejected([command, "--c", "0.5", "--d", d], capsys,
                        "dimension must lie in [2, 4096]")

    @pytest.mark.parametrize("method", ["gd", "alt", "gd_vector"])
    def test_bilinear_negative_steps(self, method, capsys):
        assert_rejected(["bilinear", "--method", method, "--c", "0.5", "--steps", "-1"],
                        capsys, "steps must be non-negative")

    @pytest.mark.parametrize("method", ["gd", "gd_vector"])
    @pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf"])
    def test_bilinear_nonpositive_eta_for_descent(self, method, eta, capsys):
        assert_rejected(["bilinear", "--method", method, "--c", "0.5", "--eta", eta,
                         "--steps", "10"], capsys, "step size must be positive and finite")

    @pytest.mark.parametrize("command", ["bilinear", "sweep"])
    @pytest.mark.parametrize("init", ["nan,0", "inf,1", "0,-inf"])
    def test_non_finite_init(self, command, init, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_rejected([command, "--c", "0.5", "--method" if command == "bilinear"
                             else "--methods", "gd", "--init", init, "--steps", "5"],
                            capsys, "init coordinates must be finite")
        with pytest.raises(ValueError, match="init coordinates"):
            bl.resolve_init(tuple(float(x) for x in init.split(",")))

    @pytest.mark.parametrize("c, methods", [("", "gd"), (",", "gd"), ("0.5", "")])
    def test_sweep_empty_grid(self, c, methods, capsys):
        assert_rejected(["sweep", "--c", c, "--methods", methods], capsys,
                        "at least one value")

    @pytest.mark.parametrize("extra, needle", [
        (["--steps", "-1"], "steps must be non-negative"),
        (["--eta", "0"], "step size must be positive"),
    ])
    def test_sweep_run_errors_exit_2(self, extra, needle, tmp_path, capsys):
        outdir = tmp_path / "traces"
        assert_rejected(["sweep", "--c", "0.5", "--methods", "gd",
                         "--outdir", str(outdir), *extra], capsys, needle)
        assert not outdir.exists()

    def test_run_experiment_validates_before_running(self):
        inst = bl.make_instance(d=4, c=0.5, seed=0)
        for method in ("gd", "gd_vector", "alternating"):
            with pytest.raises(ValueError, match="steps"):
                bl.run_experiment(inst, method=method, steps=-1)
        for method in ("gd", "gd_vector"):
            for eta in (0.0, math.inf):
                with pytest.raises(ValueError, match="step size"):
                    bl.run_experiment(inst, method=method, steps=5, eta=eta)

    def test_gd_step_rejects_infinite_eta(self):
        inst = bl.make_instance(d=4, c=0.5, seed=0)
        for eta in (0.0, math.inf, math.nan):
            state = bl.BilinearState.from_vectors(inst, inst.a, inst.b, eta)
            with pytest.raises(ValueError, match="positive and finite"):
                bl.gd_step(state, inst)

    def test_alternating_ignores_eta(self):
        inst = bl.make_instance(d=4, c=0.5, seed=0)
        a = bl.run_experiment(inst, method="alternating", steps=5, eta=0.0)
        b = bl.run_experiment(inst, method="alternating", steps=5)
        np.testing.assert_array_equal(a.loss, b.loss)


class TestOutputPaths:
    """An output path that cannot be written exits 2 after the run, with
    nothing on stdout."""

    @pytest.mark.parametrize("target", ["missing_dir/x.csv", "."],
                             ids=["missing-parent", "a-directory"])
    def test_bilinear_out(self, target, tmp_path, capsys):
        assert_rejected(["bilinear", "--c", "0.5", "--steps", "5",
                         "--out", str(tmp_path / target)], capsys, "cannot write the trace")

    def test_sweep_outdir_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert_rejected(["sweep", "--c", "0.5", "--steps", "5", "--outdir", str(path)],
                        capsys, "cannot write the traces")

    def test_train_out_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        config = {"training": {"total_steps": 2, "n_train": 1, "n_eval": 1}}
        assert_rejected(train_args(tmp_path, config) + ["--out", str(path)], capsys,
                        "cannot write the report")


class TestTrainConfig:
    @pytest.mark.parametrize("config, needle", [
        ({"slicing": {"base": 7, "max_grid": 1}}, "unknown config key 'slicing'"),
        ({"bilinear": {"d": 4}}, "unknown config key 'bilinear'"),
        ({"router": {"gamma": 2}}, "gamma must lie in (0, 1]"),
        ({"router": {"gamma": 0}}, "gamma must lie in (0, 1]"),
        ({"router": {"train_noise_sigma": -1}}, "train_noise_sigma must be non-negative"),
        ({"training": {"n_train": 0}}, "n_train must be at least 1"),
        ({"training": {"n_eval": 0}}, "n_eval must be at least 1"),
        ({"training": {"sizes": 5}}, "'training.sizes' must be a non-empty list"),
        ({"training": {"sizes": []}}, "'training.sizes' must be a non-empty list"),
        ({"training": {"sizes": [96, 0]}}, "'training.sizes' must be a non-empty list"),
        ({"training": {"sizes": [96, 128.0]}}, "'training.sizes' must be a non-empty list"),
        ({"router": {"gamma": "x"}}, "'router.gamma' must be a number"),
        ({"router": {"gamma": True}}, "'router.gamma' must be a number"),
        ({"training": {"n_train": 2.5}}, "'training.n_train' must be an integer"),
        ({"adapter": {"gate_noise": 1}}, "'adapter.gate_noise' must be true or false"),
        ({"training": {"lr": -1}}, "learning rates must be positive and finite"),
        ({"training": {"lr": 0}}, "learning rates must be positive and finite"),
        ({"training": {"total_steps": -3}}, "total_steps must be at least 1"),
        ({"training": {"total_steps": 0}}, "total_steps must be at least 1"),
        ([1, 2], "config section '(top level)' must be an object"),
        ({"router": 5}, "config section 'router' must be an object"),
    ])
    def test_rejected_before_training(self, config, needle, tmp_path, capsys):
        assert_rejected(train_args(tmp_path, config), capsys, needle)

    @pytest.mark.parametrize("lr", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_lr(self, lr, tmp_path, capsys):
        # Python's json module reads these literals, so they reach the check
        path = tmp_path / "cfg.json"
        path.write_text('{"training": {"lr": %s}}' % lr)
        assert_rejected(["train", "--mode", "e2e", "--seed", "1", "--config", str(path)],
                        capsys, "learning rates must be positive and finite")

    def test_int_stands_in_for_float(self):
        cfg = merge_config({"router": {"gamma": 1}, "training": {"lr": 1}})
        assert cfg["router"]["gamma"] == 1 and cfg["training"]["lr"] == 1

    @pytest.mark.parametrize("lr", [0.0, -0.1, math.nan, math.inf])
    def test_stage_schedule_rejects_lr(self, lr):
        with pytest.raises(ValueError, match="learning rates"):
            pl.default_schedule("alternating", lr=lr)

    def test_help_lists_only_the_sections_train_reads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("(unknown keys are rejected):\n", 1)[1]
        assert set(json.loads(epilog)) == {"adapter", "router", "training"}

    def test_max_grid_is_not_a_config_key(self):
        with pytest.raises(ConfigError, match="slicing.max_grid"):
            merge_config({"slicing": {"max_grid": 1}})

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": -0.5}, {"gamma": 1.5}, {"gamma": math.nan},
        {"router_noise_sigma": -0.1}, {"n_train": 0},
    ])
    def test_pipeline_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            pl.PipelineConfig(**kwargs)

    def test_pipeline_config_allows_no_eval_set(self):
        assert pl.PipelineConfig(gamma=1.0, n_train=1, n_eval=0).n_eval == 0


class TestConfigRanges:
    """Every count and size in a train config is at least 1 (n_eval, which
    the benchmark sets to 0, is checked by `train` itself)."""

    @pytest.mark.parametrize("config, needle", [
        ({"training": {"grid": 0}}, "grid must be at least 1"),
        ({"training": {"base": 0}}, "base must be at least 1"),
        ({"training": {"out_dim": 0}}, "out_dim must be at least 1"),
        ({"router": {"local_queries": 0}}, "local_queries must be at least 1"),
        ({"router": {"local_queries": -2}}, "local_queries must be at least 1"),
        ({"adapter": {"feat_dim": 0}}, "feat_dim must be at least 1"),
        ({"adapter": {"model_dim": -1}}, "model_dim must be at least 1"),
    ])
    def test_rejected_before_training(self, config, needle, tmp_path, capsys):
        assert_rejected(train_args(tmp_path, config), capsys, needle)

    @pytest.mark.parametrize("kwargs, needle", [
        ({"grid": 0}, "grid"), ({"max_grid": 0}, "max_grid"),
        ({"local_queries": 0}, "local_queries"), ({"base": -96}, "base"),
    ])
    def test_pipeline_config_rejects(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            pl.PipelineConfig(**kwargs)


class TestRouteOverflow:
    def test_overflowing_similarities_exit_2_without_warnings(self, tmp_path, capsys):
        # finite fixtures whose token-text products overflow to infinity
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        tok.write_text("2 1\n1e200 1e200\n")
        txt.write_text("1 1\n1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_rejected(["route", "--tokens", str(tok), "--text", str(txt)], capsys,
                            "scores are not finite")


class TestSeedEnvVar:
    @pytest.mark.parametrize("args", [
        ["bilinear", "--method", "alt", "--c", "0.5", "--steps", "5"],
        ["sweep", "--c", "0.5", "--steps", "5"],
        ["train", "--mode", "e2e"],
    ])
    def test_bad_value_exits_2_naming_it(self, args, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert_rejected(args, capsys, SEED_ENV_VAR)

    def test_explicit_seed_does_not_read_it(self, monkeypatch, capsys):
        args = ["bilinear", "--method", "alt", "--c", "0.5", "--steps", "5", "--seed", "4"]
        _, expected, _ = run_cli(args, capsys)
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert run_cli(args, capsys) == (0, expected, "")

    def test_plan_and_route_ignore_it(self, tmp_path, monkeypatch, capsys):
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        write_matrix(tok, np.log(np.array([[0.4], [0.3], [0.2], [0.1]])))
        write_matrix(txt, np.array([[1.0]]))
        commands = [["plan", "--width", "999", "--height", "417"],
                    ["route", "--gamma", "0.5", "--tokens", str(tok), "--text", str(txt)]]
        expected = [run_cli(args, capsys) for args in commands]
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert [run_cli(args, capsys) for args in commands] == expected
        assert all(code == 0 for code, _, _ in expected)


class TestStrictJson:
    def test_diverged_train_reports_null_evals(self, tmp_path, capsys):
        config = {"training": {"lr": 40, "total_steps": 20, "n_train": 3, "n_eval": 2}}
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(train_args(tmp_path, config) + ["--out", str(out_dir)],
                               capsys)
        assert code == EXIT_DIVERGED
        doc = strict_json(out)
        assert doc["diverged"] is True
        assert doc["final_eval"] is None
        assert strict_json((out_dir / "summary_e2e_seed1.json").read_text()) == doc

    def test_diverged_bilinear_reports_null_loss(self, capsys):
        # a huge step size overflows the loss to infinity before the norm check
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run_cli(["bilinear", "--method", "gd", "--c", "0.5",
                                    "--eta", "1e200", "--steps", "50", "--seed", "1"],
                                   capsys)
        assert code == EXIT_DIVERGED
        doc = strict_json(out)
        assert doc["classification"] == "diverged" and doc["final_loss"] is None

    @pytest.mark.parametrize("method", ["gd", "gd_vector"])
    def test_overflowing_descent_exits_3_without_warnings(self, method, capsys):
        # no errstate here: a numpy overflow warning would fail the test
        code, out, err = run_cli(["bilinear", "--method", method, "--c", "0.5",
                                  "--eta", "1e100", "--steps", "50", "--seed", "1"], capsys)
        assert code == EXIT_DIVERGED
        assert strict_json(out)["classification"] == "diverged"
        assert err == ""

    def test_route_rejects_negative_header(self, tmp_path, capsys):
        # (-1) * (-1) matches the one value, so only the sign check catches it
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        tok.write_text("-1 -1\n0.5\n")
        write_matrix(txt, np.array([[1.0]]))
        assert_rejected(["route", "--tokens", str(tok), "--text", str(txt)], capsys,
                        f"{tok}: header '-1 -1' must give non-negative sizes")

    @pytest.mark.parametrize("header", ["1.5 2", "2 x", "1e1 1"])
    def test_route_rejects_non_integer_header(self, header, tmp_path, capsys):
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        tok.write_text(f"{header}\n0.5 0.5\n")
        write_matrix(txt, np.array([[1.0]]))
        assert_rejected(["route", "--tokens", str(tok), "--text", str(txt)], capsys,
                        f"{tok}: header '{header}' must give two integers")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_route_rejects_non_finite_fixture(self, value, tmp_path, capsys):
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        tok.write_text(f"3 1\n0.1 {value} 0.2\n")
        write_matrix(txt, np.array([[1.0]]))
        assert_rejected(["route", "--tokens", str(tok), "--text", str(txt)], capsys,
                        "values must be finite")
