"""Bad plan geometry, trajectory arguments, train configs, matrix fixtures
and SLIME_KIT_SEED values are rejected before any run starts: exit 2, one
stderr line, nothing on stdout. What does reach stdout is strict JSON, and a
property drives drawn arguments, configs, fixtures and seeds through it."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicemix import adapters as ad
from slicemix import bilinear as bl
from slicemix import pipeline as pl
from slicemix.cli import (EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, SEED_ENV_VAR, TRAIN_CONFIG,
                          TRAIN_KEYS, main, merge_config, write_matrix)
from slicemix.numerics import fd_grad_check, make_rng
from slicemix.routing import (RouterConfig, compress_local, route_layout, route_tokens,
                              select_prefix)
from slicemix.slicing import MAX_GRID, make_global_view, plan_partition, resize_bilinear


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
                        capsys, "base must be at least 1 and an integer")

    def test_plan_partition_raises(self):
        with pytest.raises(ValueError, match="base"):
            plan_partition(100, 100, base=0)

    def test_plan_partition_rejects_no_grid_options(self):
        # with no tiling to choose from, max() failed on an empty sequence
        with pytest.raises(ValueError, match="max_grid"):
            plan_partition(3, 3, base=4, max_grid=0)

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
                        "d must be in [2, 4096] and an integer")

    @pytest.mark.parametrize("method", ["gd", "alt", "gd_vector"])
    def test_bilinear_negative_steps(self, method, capsys):
        assert_rejected(["bilinear", "--method", method, "--c", "0.5", "--steps", "-1"],
                        capsys, "steps must be non-negative")

    @pytest.mark.parametrize("method", ["gd", "gd_vector"])
    @pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf"])
    def test_bilinear_nonpositive_eta_for_descent(self, method, eta, capsys):
        assert_rejected(["bilinear", "--method", method, "--c", "0.5", "--eta", eta,
                         "--steps", "10"], capsys, "eta must be positive and finite")

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

    @pytest.mark.parametrize("command", ["bilinear", "sweep"])
    def test_init_of_three_coordinates(self, command, capsys):
        # bilinear.resolve_init's own count check is the CLI's
        assert_rejected([command, "--c", "0.5", "--method" if command == "bilinear"
                         else "--methods", "gd", "--init", "1,2,3", "--steps", "5"],
                        capsys, "init must be a name or (alpha0, beta0), got 3 values")

    @pytest.mark.parametrize("c, methods", [("", "gd"), (",", "gd"), ("0.5", "")])
    def test_sweep_empty_grid(self, c, methods, capsys):
        assert_rejected(["sweep", "--c", c, "--methods", methods], capsys,
                        "at least one value")

    @pytest.mark.parametrize("extra, needle", [
        (["--steps", "-1"], "steps must be non-negative"),
        (["--eta", "0"], "eta must be positive"),
        # this --c replaces the first: 1.5 is rejected before c = 0.5 runs
        (["--c", "0.5,1.5"], "c must lie in (-1, 1)"),
        # alt ignores the step size, so its run would come before gd's rejection
        (["--methods", "alt,gd", "--eta", "0"], "eta must be positive"),
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
                with pytest.raises(ValueError, match="eta must be positive and finite"):
                    bl.run_experiment(inst, method=method, steps=5, eta=eta)

    def test_run_experiment_rejects_an_init_of_three_coordinates(self):
        # unpacking the start failed with "too many values to unpack"
        inst = bl.make_instance(d=4, c=0.5, seed=0)
        with pytest.raises(ValueError, match=r"init must be a name or \(alpha0, beta0\), got 3"):
            bl.run_experiment(inst, init=(1, 2, 3))

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


# library doors whose raise no other test runs, each with the message it pins
DOOR_FAILURES = {
    "gate-width": (lambda: ad.gate_weights(np.ones(5), ad.init_gate(make_rng(0), 4)),
                   "pooled feature width does not match gate parameters"),
    # these gave [nan nan], the inf with a generator behind only a RuntimeWarning
    "gate-nan": (lambda: ad.gate_weights(np.array([0.5, np.nan, 1.0, 2.0]),
                                         ad.init_gate(make_rng(0), 4)),
                 "pooled must be finite"),
    "gate-inf": (lambda: ad.gate_weights(np.array([[1.0, 2.0, 3.0, 4.0], [0, 0, -np.inf, 1]]),
                                         ad.init_gate(make_rng(0), 4), make_rng(1)),
                 "pooled must be finite"),
    "fd-length": (lambda: fd_grad_check(np.sum, np.ones(3), np.ones(4)),
                  "gradient and point must have the same length"),
    # a matrix with columns but no rows: a check on the column count passes it
    "no-token-rows": (lambda: compress_local(np.zeros((0, 4)),
                                             ad.init_qformer(make_rng(0), 2, 4, 4)),
                      "patch tokens must be a non-empty 2-D matrix"),
    "image-without-rows": (lambda: route_layout((3, 0)),
                           "every image needs at least one of the token rows"),
    "resize-to-zero": (lambda: resize_bilinear(np.ones((4, 4)), 0, 3),
                       "out_h must be at least 1 and an integer"),
    # a count that is not whole would fail later inside range() or numpy, with a TypeError
    "fractional-stage-steps": (lambda: pl.StageSchedule("e2e", (2.5,), 0.1),
                               "steps must be non-negative and an integer"),
    "fractional-run-steps": (lambda: bl.run_experiment(bl.make_instance(d=4), steps=2.5),
                             "steps must be non-negative and an integer"),
    "fractional-dimension": (lambda: bl.make_instance(d=2.5),
                             "d must be in [2, 4096] and an integer"),
    "fractional-resize": (lambda: resize_bilinear(np.ones((4, 4)), 2, 2.5),
                          "out_w must be at least 1 and an integer"),
    "fractional-global-view": (lambda: make_global_view(np.ones((4, 4)), 2.5),
                               "base must be at least 1 and an integer"),
    # an MLP of width 0 was built, with empty parameters
    "empty-mlp": (lambda: ad.init_mlp(make_rng(0), 0, 4),
                  "d_in must be at least 1 and an integer"),
    "fractional-queries": (lambda: ad.init_qformer(make_rng(0), 2.5, 4, 4),
                           "n_queries must be at least 1 and an integer"),
    "fractional-gate": (lambda: ad.init_gate(make_rng(0), 2.5),
                        "d_in must be at least 1 and an integer"),
    # pixel sizes are whole; a fractional width was planned
    "fractional-plan": (lambda: plan_partition(1.5, 100),
                        "width must be at least 1 and an integer"),
    "fractional-seed": (lambda: make_rng(2.5), "seed must be non-negative and an integer"),
    # a negative or NaN tolerance switched the plateau stop off
    "negative-stop-tol": (lambda: bl.run_experiment(bl.make_instance(d=4), stop_tol=-1.0),
                          "stop_tol must be positive and finite"),
    "nan-stop-tol": (lambda: bl.run_experiment(bl.make_instance(d=4), stop_tol=math.nan),
                     "stop_tol must be positive and finite"),
    # a string failed its comparison with a TypeError
    "text-gamma": (lambda: RouterConfig(gamma="x"), "gamma must lie in (0, 1]"),
    # a one-element array compared as its element and was kept as the gamma
    "array-gamma": (lambda: RouterConfig(gamma=np.array([0.5])), "gamma must lie in (0, 1]"),
    "text-lr": (lambda: pl.StageSchedule("e2e", (2,), "x"), "lr must be positive and finite"),
    # any truthy flag turned the noise on
    "text-gate-noise": (lambda: pl.PipelineConfig(gate_noise="no"),
                        "gate_noise must be True or False"),
    "text-noise-flag": (lambda: ad.init_gate(make_rng(0), 4, noise_enabled="no"),
                        "noise_enabled must be True or False"),
    # a NaN token was kept, and a NaN score made the kept mass NaN
    "nan-tokens": (lambda: route_tokens([[math.nan, 0.0]], [[1.0, 1.0]], RouterConfig()),
                   "image tokens must be a non-empty 2-D matrix of finite values (z_v)"),
    "nan-scores": (lambda: select_prefix([math.nan, 0.5], 0.5),
                   "scores must be a non-empty 1-D vector of non-negative finite values"),
    # a negative score let the running mass fall, so the cut kept the wrong
    # prefix and reported a mass short of gamma
    "negative-scores": (lambda: select_prefix([0.6, -0.5, 0.5], 0.7),
                        "scores must be a non-empty 1-D vector of non-negative finite values"),
    # finite tokens whose similarities overflow gave NaN scores and a warning
    "overflowing-similarities": (lambda: route_tokens([[1e200, 1e200]], [[1e200, 1e200]],
                                                      RouterConfig()),
                                 "token-text similarities overflow, so the scores are not "
                                 "finite"),
}


@pytest.mark.parametrize("name", DOOR_FAILURES)
def test_a_library_door_names_its_failure(name):
    call, message = DOOR_FAILURES[name]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_numpy_integer_counts_pass_the_doors():
    assert pl.StageSchedule("e2e", (np.int64(2),), 0.1).steps == (2,)
    assert bl.run_experiment(bl.make_instance(d=np.int32(4)), steps=np.int64(2)).step.size == 3
    cfg = pl.PipelineConfig(grid=np.int64(3), n_train=np.int32(2), sizes=(np.int64(96),),
                            gate_noise=np.True_)
    task = pl.make_toy_task(np.int64(0), cfg)
    assert len(task.train_set) == 2
    assert pl.init_params(task, np.int64(1)).gate.noise_enabled
    assert pl.default_schedule("e2e", seed=np.int64(1), total_steps=np.int32(2)).steps == (2,)
    assert resize_bilinear(np.ones((4, 4)), np.int64(2), np.int32(3)).shape == (2, 3)
    assert make_global_view(np.ones((4, 4)), np.int64(8)).shape == (8, 8)
    rng = make_rng(np.int64(0))
    assert ad.init_mlp(rng, np.int64(4), np.int32(3)).w1.shape == (4, 3)
    assert ad.init_qformer(rng, np.int64(2), np.int32(4), np.int64(3)).wo.shape == (4, 3)
    assert ad.init_gate(rng, np.int32(4)).w_g.shape == (4, 2)
    assert plan_partition(np.int64(1000), np.int32(500), np.int64(336), np.int64(6)) == (
        plan_partition(1000, 500))


# wrong values for a config key of each kind, as JSON text (10**400 as an
# integer literal, past the float range)
HUGE = "1" + "0" * 400
WRONG_KINDS = {
    int: ['"x"', "true", "2.5", "[1]", "{}", "null", "0"],
    float: ['"x"', "true", "[0.5]", "null", HUGE, "-1"],
    bool: ['"yes"', "1", "null"],
    tuple: ["5", '"96"', "[]", "[96, 0]", "[96, 128.0]", "[true]", "[[96]]"],
}
# widths past pipeline.MAX_WIDTH, which numpy refused with a message naming no key
TOO_WIDE = {"feat_dim": ["4097", "1" + "0" * 30], "model_dim": ["4097"], "out_dim": [HUGE],
            "local_queries": ["1" + "0" * 15, "1" + "0" * 40]}
WRONG_VALUES = [(section, key, text) for section, keys in TRAIN_KEYS.items() for key in keys
                for text in WRONG_KINDS[type(TRAIN_CONFIG[section][key])] + TOO_WIDE.get(key, [])]


class TestTrainConfig:
    @pytest.mark.parametrize("section, key, text", WRONG_VALUES, ids=[
        f"{key}={re.sub(r'^10{9,}$', lambda m: f'10**{len(m[0]) - 1}', text)}"
        for _, key, text in WRONG_VALUES])
    def test_every_wrong_kind(self, section, key, text, tmp_path, capsys, monkeypatch):
        # the CLI passes every value on as given: the library's doors reject
        # it by the key's name before a task is built
        def never(*args):
            raise AssertionError("a task was built")
        monkeypatch.setattr(pl, "make_toy_task", never)
        path = tmp_path / "cfg.json"
        path.write_text('{"%s": {"%s": %s}}' % (section, key, text))
        code, out, err = run_cli(["train", "--mode", "e2e", "--seed", "1", "--config", str(path)],
                                 capsys)
        assert (code, out, err.count("\n")) == (EXIT_USAGE, "", 1), err
        assert err.startswith("train: ") and re.search(rf"\b{key}\b", err), err

    @pytest.mark.parametrize("config, needle", [
        ({"slicing": {"base": 7, "max_grid": 1}}, "unknown config key 'slicing'"),
        ({"bilinear": {"d": 4}}, "unknown config key 'bilinear'"),
        ({"router": {"gamma": 2}}, "gamma must lie in (0, 1]"),
        ({"router": {"gamma": 0}}, "gamma must lie in (0, 1]"),
        ({"router": {"train_noise_sigma": -1}}, "train_noise_sigma must be non-negative"),
        ({"training": {"n_train": 0}}, "n_train must be at least 1"),
        ({"training": {"n_eval": 0}}, "n_eval must be at least 1"),
        # the JSON's shape, the one thing the CLI checks itself; a section
        # is checked before an unknown key beside it
        ({"router": {"top_k": 3}}, "unknown config key 'router.top_k'"),
        ({"training": {"lr": 0.1, "epochs": 3}}, "unknown config key 'training.epochs'"),
        ({"adapter": []}, "config section 'adapter' must be an object"),
        ({"training": None}, "config section 'training' must be an object"),
        ("x", "config section '(top level)' must be an object"),
        (None, "config section '(top level)' must be an object"),
        ({"bogus": 1, "router": 5}, "config section 'router' must be an object"),
        ({"decoder": {}, "router": {"gamma": 0.5}}, "unknown config key 'decoder'"),
        ({"training": {"lr": -1}}, "lr must be positive and finite"),
        ({"training": {"lr": 0}}, "lr must be positive and finite"),
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
                        capsys, "lr must be positive and finite")

    @pytest.mark.parametrize("content", [None, b"{", b"\xff\xfe"],
                             ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_config(self, content, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        assert_rejected(["train", "--mode", "e2e", "--seed", "1", "--config", str(path)],
                        capsys, "train: cannot read config: ")

    @pytest.mark.parametrize("sigma", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_router_noise(self, sigma, tmp_path, capsys):
        # a NaN noise scale made every sort key NaN, so tokens were kept in index order
        path = tmp_path / "cfg.json"
        path.write_text('{"router": {"train_noise_sigma": %s}}' % sigma)
        assert_rejected(["train", "--mode", "e2e", "--seed", "1", "--config", str(path)],
                        capsys, "train_noise_sigma must be non-negative and finite")

    def test_int_stands_in_for_float(self):
        cfg = merge_config({"router": {"gamma": 1}, "training": {"lr": 1}})
        assert cfg["router"]["gamma"] == 1 and cfg["training"]["lr"] == 1

    @pytest.mark.parametrize("lr", [0.0, -0.1, math.nan, math.inf])
    def test_stage_schedule_rejects_lr(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            pl.default_schedule("alternating", lr=lr)

    def test_help_lists_only_the_sections_train_reads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("(unknown keys are rejected):\n", 1)[1]
        assert set(json.loads(epilog)) == {"adapter", "router", "training"}

    def test_max_grid_is_not_a_config_key(self):
        with pytest.raises(ValueError, match="unknown config key 'slicing'"):
            merge_config({"slicing": {"max_grid": 1}})
        assert pl.PipelineConfig.max_grid == MAX_GRID

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": -0.5}, {"gamma": 1.5}, {"gamma": math.nan},
        {"train_noise_sigma": -0.1}, {"n_train": 0},
        {"train_noise_sigma": math.nan}, {"train_noise_sigma": math.inf},
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
        ({"training": {"out_dim": 0}}, "out_dim must be in [1, 4096]"),
        ({"router": {"local_queries": 0}}, "local_queries must be in [1, 4096]"),
        ({"router": {"local_queries": -2}}, "local_queries must be in [1, 4096]"),
        ({"adapter": {"feat_dim": 0}}, "feat_dim must be in [1, 4096]"),
        ({"adapter": {"model_dim": -1}}, "model_dim must be in [1, 4096]"),
    ])
    def test_rejected_before_training(self, config, needle, tmp_path, capsys):
        assert_rejected(train_args(tmp_path, config), capsys, needle)

    @pytest.mark.parametrize("queries, needle", [
        (10**15, "local_queries must be in [1, 4096] and an integer"),
        (10**23, "local_queries must be in [1, 4096] and an integer"),
    ], ids=["1e15", "1e23"])
    def test_unallocatable_local_queries(self, queries, needle, tmp_path, capsys):
        # numpy would refuse these query heads (56.8 PiB, or past its largest
        # dimension) in words that name no key; the config's door names it
        config = {"router": {"local_queries": queries},
                  "training": {"n_train": 1, "n_eval": 1, "total_steps": 1}}
        assert_rejected(train_args(tmp_path, config), capsys, needle)

    @pytest.mark.parametrize("kwargs, needle", [
        ({"grid": 0}, "grid"), ({"max_grid": 0}, "max_grid"),
        ({"local_queries": 0}, "local_queries"), ({"base": -96}, "base"),
        # a negative n_eval built a task with no eval set; an empty or
        # non-positive size failed inside numpy or resize_bilinear
        ({"n_eval": -1}, "n_eval"), ({"sizes": ()}, "sizes"), ({"sizes": (0,)}, "sizes"),
        ({"sizes": (96, -128)}, "sizes"),
        # a fractional count built, and the task build failed in numpy or range
        ({"n_train": 2.5}, "n_train"), ({"local_queries": 2.5}, "local_queries"),
        ({"grid": 1.5}, "grid"), ({"feat_dim": 2.5}, "feat_dim"), ({"n_eval": 1.5}, "n_eval"),
        ({"sizes": (96.5,)}, "sizes"),
    ])
    def test_pipeline_config_rejects(self, kwargs, needle):
        # max_grid is slicing's class constant, not a field to set
        error = TypeError if "max_grid" in kwargs else ValueError
        with pytest.raises(error, match=needle):
            pl.PipelineConfig(**kwargs)


class TestTaskBudget:
    """A config whose task build would touch more than TASK_PIXEL_BUDGET
    pixels fails before anything is built."""

    @staticmethod
    def pixels(cfg):
        # per image: the image, its tile canvas at the largest grid, its global view
        per_image = max(cfg.sizes) ** 2 + (MAX_GRID * cfg.base) ** 2 + cfg.base ** 2
        return (cfg.n_train + cfg.n_eval) * per_image

    def test_at_the_bound_and_one_pixel_past(self, monkeypatch):
        hires = dict(sizes=(384, 576), n_train=48, n_eval=0)
        bound = self.pixels(pl.PipelineConfig(**hires))
        monkeypatch.setattr(pl, "TASK_PIXEL_BUDGET", bound)
        pl.PipelineConfig(**hires)
        monkeypatch.setattr(pl, "TASK_PIXEL_BUDGET", bound - 1)
        with pytest.raises(ValueError, match=f"touch {bound} pixels .* budget of {bound - 1}$"):
            pl.PipelineConfig(**hires)

    def test_at_the_bound_and_one_image_past(self):
        per_image = self.pixels(pl.PipelineConfig(n_train=1, n_eval=0))
        n = pl.TASK_PIXEL_BUDGET // per_image
        assert self.pixels(pl.PipelineConfig(n_train=n, n_eval=0)) <= pl.TASK_PIXEL_BUDGET
        with pytest.raises(ValueError, match=f"past the budget of {pl.TASK_PIXEL_BUDGET}"):
            pl.PipelineConfig(n_train=n, n_eval=1)

    def test_the_largest_built_config_fits(self):
        # perfbench's infer-hires: 48 images of up to 576 px on a side
        cfg = pl.PipelineConfig(sizes=(384, 576), n_train=48, n_eval=0)
        assert self.pixels(cfg) <= pl.TASK_PIXEL_BUDGET
        assert self.pixels(pl.PipelineConfig()) <= pl.TASK_PIXEL_BUDGET

    @pytest.mark.parametrize("training", [
        {"n_train": 10**20}, {"n_eval": 10**20}, {"sizes": [10**6]}, {"base": 10**5, "grid": 1},
    ], ids=["n_train", "n_eval", "sizes", "base"])
    def test_cli_rejects_before_building(self, training, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a task was built")
        monkeypatch.setattr(pl, "make_toy_task", never)
        assert_rejected(train_args(tmp_path, {"training": training}), capsys,
                        f"past the budget of {pl.TASK_PIXEL_BUDGET}")


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


    @pytest.mark.parametrize("tokens, text, needle", [
        ("2 0\n", "1 0\n", "image tokens must be a non-empty 2-D matrix"),
        ("2 1\n0.1 0.2\n", "0 1\n", "text tokens must be a non-empty 2-D matrix"),
    ])
    def test_empty_fixture_exits_2(self, tokens, text, needle, tmp_path, capsys):
        # a matrix without columns is as empty as one without rows: routing
        # on it would score every token at zero similarity
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        tok.write_text(tokens)
        txt.write_text(text)
        assert_rejected(["route", "--tokens", str(tok), "--text", str(txt)], capsys, needle)

    def test_value_that_is_not_a_number_exits_2_naming_where(self, tmp_path, capsys):
        # float's own message named neither the file nor the place of the value
        tok, txt = tmp_path / "tokens.txt", tmp_path / "text.txt"
        tok.write_text("2 2\n0.1 0.2\n0.3 x\n")
        txt.write_text("1 2\n1 1\n")
        assert_rejected(["route", "--tokens", str(tok), "--text", str(txt)], capsys,
                        f"{tok}: row 2, column 2: 'x' is not a number")


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


class TestNegativeSeed:
    """A negative seed is rejected before any work, by a message that names
    it: numpy's own names neither the flag nor the variable. The flag meets
    the library's check of `seed`, the variable the CLI's own."""

    COMMANDS = [["bilinear", "--c", "0.5"], ["sweep", "--c", "0.5"], ["train", "--mode", "e2e"]]

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        monkeypatch.setattr(bl, "make_instance", lambda **kwargs: built.append(kwargs))
        monkeypatch.setattr(pl, "make_toy_task", lambda *args: built.append(args))
        return built

    @pytest.fixture
    def ran(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bl, "run_experiment", lambda *args, **kwargs: ran.append(kwargs))
        monkeypatch.setattr(pl, "train", lambda *args: ran.append(args))
        return ran

    @pytest.mark.parametrize("args", COMMANDS)
    def test_flag(self, args, ran, monkeypatch, capsys):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, err = run_cli(args + ["--seed", "-1"], capsys)
        assert (code, out, err) == (EXIT_USAGE, "", f"{args[0]}: seed must be non-negative "
                                                    "and an integer\n")
        assert ran == []

    @pytest.mark.parametrize("args", COMMANDS)
    def test_env_var(self, args, built, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "-4")
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (EXIT_USAGE, "", f"{args[0]}: {SEED_ENV_VAR} must be "
                                                    "non-negative, got '-4'\n")
        assert built == []


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


# -- the CLI boundary as a property --------------------------------------------

def mostly(valid, invalid):
    """Draws from `invalid` when a drawn digit 0-4 is 4, else from `valid`, so
    that most drawn invocations get past most checks."""
    return st.integers(min_value=0, max_value=4).flatmap(lambda k: invalid if k == 4 else valid)


any_float = st.floats(allow_nan=True, allow_infinity=True)
positive = st.integers(min_value=1, max_value=6)
non_positive = st.integers(min_value=-1, max_value=0)


def flags(**options):
    """`--name=value` for each drawn option that is present; the `=` form
    keeps argparse from reading a value like -inf as a flag."""
    return st.fixed_dictionaries({}, optional=options).map(
        lambda d: [f"--{name}={value}" for name, value in d.items()])


@st.composite
def fixtures(draw, cols: int):
    """Matrix fixture text: mostly a `rows cols` header and as many values,
    finite or not; sometimes a broken header or a wrong value count."""
    rows = draw(mostly(st.integers(min_value=1, max_value=3), non_positive))
    cols = draw(mostly(st.just(cols), st.integers(min_value=-1, max_value=3)))
    value = st.floats(min_value=-3.0, max_value=3.0).map(repr)
    n = max(rows * cols, 0)
    values = draw(mostly(st.lists(value, min_size=n, max_size=n), st.lists(
        value | st.sampled_from(["nan", "inf", "1e300", "x"]), max_size=8)))
    header = draw(mostly(st.just(f"{rows} {cols}"), st.sampled_from(["", "2", "x 1", "1.5 1"])))
    return " ".join([header, *values]) + "\n"


def train_configs():
    """Config JSON with tiny sizes and at most two steps, and sometimes a
    wrong value or type, an unknown key or text that is not a config at all."""
    optional = {
        "adapter": {"feat_dim": mostly(positive, non_positive | st.just("x")),
                    "model_dim": mostly(positive, non_positive),
                    "gate_noise": mostly(st.booleans(), st.just("yes"))},
        "router": {"gamma": mostly(st.floats(min_value=0.05, max_value=1.0), any_float),
                   "local_queries": mostly(positive, non_positive),
                   "train_noise_sigma": mostly(st.floats(min_value=0.0, max_value=1.0),
                                               any_float)},
        "training": {"out_dim": mostly(positive, non_positive),
                     "base": mostly(st.sampled_from([12, 48, 96]), st.sampled_from([0, 7])),
                     "grid": mostly(st.integers(min_value=1, max_value=4), non_positive),
                     "lr": mostly(st.floats(min_value=0.01, max_value=1.0),
                                  any_float | st.just(1e300))},
    }
    # the work a config asks for is bounded: these keys are always present
    training = st.fixed_dictionaries({
        "sizes": mostly(st.lists(st.integers(min_value=1, max_value=200), min_size=1,
                                 max_size=2), st.lists(non_positive, max_size=2)),
        "n_train": mostly(st.integers(min_value=1, max_value=3), non_positive),
        "n_eval": mostly(st.integers(min_value=1, max_value=2), non_positive),
        "total_steps": mostly(st.integers(min_value=1, max_value=2), non_positive),
    }, optional=optional["training"])
    config = st.fixed_dictionaries({"training": training}, optional={
        "adapter": st.fixed_dictionaries({}, optional=optional["adapter"]),
        "router": st.fixed_dictionaries({}, optional=optional["router"])})
    return mostly(config.map(json.dumps), st.sampled_from(
        ["", "{", "[]", "null", "NaN", '{"training": 5}', '{"bogus": 1}']))


@st.composite
def invocations(draw):
    """argv that argparse accepts, the texts of the two fixtures and the
    config it may name, and SLIME_KIT_SEED (None: unset)."""
    c = mostly(st.floats(min_value=-0.99, max_value=0.99), any_float).map(repr)
    methods = mostly(st.sampled_from(["gd", "alt", "alternating", "gd_vector"]),
                     st.just("bogus"))
    rank_one = flags(
        eta=mostly(st.floats(min_value=1e-4, max_value=0.5), any_float | st.just(1e300)),
        steps=mostly(st.integers(min_value=0, max_value=5), non_positive),
        d=mostly(st.integers(min_value=2, max_value=40), st.sampled_from([-2, 1, 5000])),
        seed=mostly(st.integers(min_value=0, max_value=2**70), st.integers(min_value=-3,
                                                                           max_value=-1)),
        init=mostly(st.sampled_from(["generic", "antisym", "sym", "0.5,0.5"]),
                    st.sampled_from(["bogus", "1,x", "1,2,3"])))
    command = draw(st.sampled_from(["plan", "route", "bilinear", "sweep", "train"]))
    if command == "plan":
        side = mostly(st.integers(min_value=1, max_value=5000),
                      non_positive | st.integers(min_value=10**6, max_value=10**30))
        argv = [f"--width={draw(side)}", f"--height={draw(side)}", *draw(flags(base=side))]
    elif command == "route":
        argv = ["--tokens={tokens}", "--text={text}",
                *draw(flags(gamma=mostly(st.floats(min_value=0.01, max_value=1.0),
                                         any_float)))]
    elif command == "bilinear":
        argv = [f"--c={draw(c)}", *draw(flags(method=methods)), *draw(rank_one)]
    elif command == "sweep":
        argv = [f"--c={draw(st.lists(c, max_size=3).map(','.join))}",
                *draw(flags(methods=st.lists(methods, max_size=3).map(",".join))),
                *draw(rank_one)]
    else:
        argv = [f"--mode={draw(st.sampled_from(sorted(pl.STAGE_PLANS)))}", "--config={config}",
                *draw(flags(seed=st.integers(min_value=-3, max_value=2**70)))]
    width = draw(st.integers(min_value=1, max_value=3))
    env_seed = draw(st.none() | st.sampled_from(["", "0", "7", "-4", "abc", "1e3", str(2**70)]))
    return ([command, *argv], draw(fixtures(width)), draw(fixtures(width)),
            draw(train_configs()), env_seed)


class TestCliBoundary:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(invocations())
    @example((["bilinear", "--c=0.5", "--method=gd", "--eta=1e100", "--steps=50", "--seed=1"],
              "", "", "", None))   # a run that diverges: exit 3
    @example((["train", "--mode=e2e", "--config={config}", "--seed=1"], "", "",
              '{"training": {"lr": %s}}' % HUGE, None))   # past the float range: exit 2
    def test_exit_codes_and_streams(self, case):
        # whatever arrives at the door: exit 0 or 3 with one strict-JSON
        # document on stdout, or exit 2 with nothing on stdout and one
        # `<command>: ` line on stderr; never an exception
        argv, tokens, text, config, env_seed = case
        env = {} if env_seed is None else {SEED_ENV_VAR: env_seed}
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: str(Path(tmp) / f"{name}.txt") for name in ("tokens", "text", "config")}
            for name, content in zip(paths, (tokens, text, config)):
                Path(paths[name]).write_text(content)
            argv = [arg.format(**paths) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if env_seed is None:
                    os.environ.pop(SEED_ENV_VAR, None)
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED), (argv, code)
        if code == EXIT_USAGE:
            assert out == "", argv
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err.startswith(f"{argv[0]}: "), (argv, err)
        else:
            strict_json(out)
