"""Command-line surface: JSON-only stdout, exit codes, config validation,
and byte-identical reruns."""

import inspect
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest

from slicemix import bilinear as bl
from slicemix import cli
from slicemix import pipeline as pl
from slicemix.cli import (
    EXIT_DIVERGED,
    EXIT_USAGE,
    SEED_ENV_VAR,
    build_parser,
    main,
    merge_config,
    read_matrix,
    write_matrix,
)
from slicemix.slicing import BASE_RESOLUTION


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
        assert "width must be at least 1" in err


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

    @pytest.mark.parametrize("args, needle", [
        (["--c", "0.1,0.2,0.3,0.4", "--methods", "gd,newton"], "unknown method 'newton'"),
        (["--c", ","], "--c and --methods each need at least one value"),
        (["--c", "0.1", "--methods", ","], "--c and --methods each need at least one value"),
    ], ids=["unknown-method", "no-c", "no-methods"])
    def test_arguments_checked_before_any_instance(self, args, needle, monkeypatch, capsys):
        # at --d 4096 each instance is a dense 128 MiB target
        built = []
        monkeypatch.setattr(bl, "make_instance", lambda **kwargs: built.append(kwargs))
        code, out, err = run_cli(["sweep", "--d", "4096", *args], capsys)
        assert (code, out, err) == (EXIT_USAGE, "", f"sweep: {needle}\n")
        assert built == []

    def test_one_instance_at_a_time(self, tmp_path, monkeypatch, capsys):
        # each instance holds a dense d x d target, so the sweep frees one
        # before it builds the next
        built, make = [], bl.make_instance

        def tracked(**kwargs):
            assert [ref for ref in built if ref() is not None] == []
            inst = make(**kwargs)
            built.append(weakref.ref(inst))
            return inst
        monkeypatch.setattr(bl, "make_instance", tracked)
        code, out, _ = run_cli(["sweep", "--c", "0.1,0.2,0.3,0.4", "--methods", "gd,alt",
                                "--d", "8", "--steps", "5", "--outdir", str(tmp_path)], capsys)
        assert code == 0 and len(built) == 4 and len(json.loads(out)) == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"trace_{m}_c{c}.csv" for m in ("gd", "alt") for c in (0.1, 0.2, 0.3, 0.4))


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


def _option(command, flag):
    """The argparse action behind one subcommand's flag."""
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return commands.choices[command]._option_string_actions[flag]


class TestLibraryDefaults:
    """Every default and name the CLI offers is read from the library."""

    @pytest.mark.parametrize("mode", list(pl.STAGE_PLANS))
    def test_empty_config_trains_the_library_defaults(self, mode, tmp_path, monkeypatch,
                                                      capsys):
        seen = []

        def train(schedule, task):
            seen.append((schedule, task.cfg))
            return pl.RunReport(mode=schedule.mode, seed=schedule.seed, steps=[],
                                final_eval=0.0, only_global_eval=0.0, only_local_eval=0.0,
                                config={})
        monkeypatch.setattr(pl, "train", train)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code, _, _ = run_cli(["train", "--mode", mode, "--seed", "3", "--config", str(cfg)],
                             capsys)
        assert code == 0
        assert seen == [(pl.default_schedule(mode, 3), pl.PipelineConfig())]

    def test_mode_choices_are_the_stage_table(self):
        assert list(_option("train", "--mode").choices) == list(pl.STAGE_PLANS)

    @pytest.mark.parametrize("command", ["bilinear", "sweep"])
    def test_rank_one_defaults_are_the_library_defaults(self, command):
        args = build_parser().parse_args([command, "--c", "0.5"])
        assert args.d == bl.DEFAULT_D == inspect.signature(bl.make_instance).parameters["d"].default
        assert args.eta == bl.DEFAULT_ETA == \
            inspect.signature(bl.run_experiment).parameters["eta"].default
        assert args.init == bl.DEFAULT_INIT == "generic" == \
            inspect.signature(bl.run_experiment).parameters["init"].default
        assert _option(command, "--init").help == "generic | antisym | sym | 'alpha0,beta0'"
        assert list(bl.INITS) == ["generic", "antisym", "sym"]

    def test_methods_are_the_library_methods_plus_alt(self, capsys):
        names = sorted({*bl.METHODS, "alt"})
        assert sorted(cli.METHODS) == names
        for name in names:
            code, _, _ = run_cli(["bilinear", "--method", name, "--c", "0.5", "--steps", "2"],
                                 capsys)
            assert code == 0, name
        code, out, _ = run_cli(["sweep", "--c", "0.5", "--steps", "2",
                                "--methods", ",".join(names)], capsys)
        assert code == 0 and len(json.loads(out)) == len(names)
        for name in ["newton", "Alt", "alternate"]:
            assert run_cli(["bilinear", "--method", name, "--c", "0.5"], capsys)[0] == EXIT_USAGE
            assert run_cli(["sweep", "--methods", name, "--c", "0.5"], capsys)[0] == EXIT_USAGE


class TestConfigMerge:
    def test_defaults_pass_through(self):
        merged = merge_config({})
        assert merged["router"]["gamma"] == 0.75
        plan = build_parser().parse_args(["plan", "--width", "1", "--height", "1"])
        assert plan.base == BASE_RESOLUTION == 336

    def test_override_leaf(self):
        merged = merge_config({"router": {"gamma": 0.5}})
        assert merged["router"]["gamma"] == 0.5
        assert merged["router"]["local_queries"] == 4

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'decoder'"):
            merge_config({"decoder": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="router.top_k"):
            merge_config({"router": {"top_k": 3}})


_MINIMAL_ARGS = {
    "plan": ["--width", "1", "--height", "1"],
    "route": ["--tokens", "t.txt", "--text", "x.txt"],
    "bilinear": ["--c", "0.5"],
    "sweep": ["--c", "0.5"],
    "train": ["--mode", "e2e"],
}


class TestErrorBoundary:
    """`main` turns any OSError, ValueError or MemoryError a command raises
    into exit 2 and one `<command>: <message>` line on stderr."""

    @pytest.mark.parametrize("command", sorted(_MINIMAL_ARGS))
    @pytest.mark.parametrize("error", [ValueError("bad value"), OSError("disk gone"),
                                       MemoryError("Unable to allocate 1.00 PiB")],
                             ids=["ValueError", "OSError", "MemoryError"])
    def test_failure_exits_2_with_one_line(self, command, error, monkeypatch, capsys):
        def fail(args):
            raise error
        monkeypatch.setattr(cli, f"cmd_{command}", fail)
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, out, err = run_cli([command, *_MINIMAL_ARGS[command]], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"{command}: {error}\n"


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
    """slicemix needs numpy alone: GELU's normal CDF comes from a numpy table."""

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

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        tok, txt, cfg = tmp_path / "tokens.txt", tmp_path / "text.txt", tmp_path / "cfg.json"
        write_matrix(tok, np.log(np.array([[0.4], [0.3], [0.2], [0.1]])))
        write_matrix(txt, np.array([[1.0]]))
        cfg.write_text(json.dumps({"training": {"total_steps": 6, "n_train": 3, "n_eval": 2}}))
        commands = [
            ["plan", "--width", "1371", "--height", "642"],
            ["route", "--tokens", str(tok), "--text", str(txt)],
            ["bilinear", "--method", "gd", "--c", "0.4", "--steps", "100"],
            ["sweep", "--c", "0.4", "--steps", "100"],
            # the command GELU serves, forward and backward
            ["train", "--mode", "e2e", "--config", str(cfg)],
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"  # makes any scipy import raise ImportError
            "from slicemix.cli import main\n"
            f"codes = [main(args) for args in {commands!r}]\n"
            "assert codes == [0] * len(codes), codes\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
