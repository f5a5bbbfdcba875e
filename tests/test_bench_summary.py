"""tools/bench_summary.py: the quartile summary, and whole runs on the heads of
a fixture git repository whose perfbench prints canned result lines."""

import importlib.util
import json
import statistics
import subprocess
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "tools" / "bench_summary.py")
bs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bs)

METRICS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_ref_s", "unit": "op/ref_s", "better": "higher", "bound": 0.24}]
SPEC = {"run_seconds": 15, "end_to_end": METRICS,
        "workloads": [{"name": "train"}, {"name": "bilinear"}]}

# prints perfbench/run.py's last two lines, the record and then the result
# line, and logs the head's name, workload and seed, and where it ran; seed 3
# fails its checks, set-up is the seed over ten and throughput 100 times the
# seed, each times the head's own factor
STUB_RUN = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wl = sys.argv[sys.argv.index("--workload") + 1]
with open(os.environ["STUB_LOG"], "a") as f:
    f.write(f"NAME {wl} {seed}\\n")
with open(os.environ["STUB_LOG"] + ".cwd", "a") as f:
    f.write(os.getcwd() + "\\n")
ok = seed != 3
print(json.dumps({"env": {"numpy": "x"}, "nproc": 2, "affinity": 2, "platform": "p",
                  "loadavg_before": [0.5, 0, 0], "loadavg_after": [1.0, 0, 0]}))
print(json.dumps({"correct": ok, "attempted": 4, "failed": 0 if ok else 1,
                  "metrics": {"setup_s": {"value": seed / 10 * SETUP, "unit": "s"},
                              "ops_per_ref_s": {"value": 100.0 * seed * OPS,
                                                "unit": "op/ref_s"}}
                             if ok else {}}))
"""


def test_summary_is_median_and_inclusive_quartiles_of_correct_runs():
    runs = [{"correct": True, "setup_s": v} for v in (0.9, 0.5, 0.7, 0.6, 0.8)]
    runs.append({"correct": False, "setup_s": 9.0})
    s = bs.summarize(runs, METRICS)
    assert s == {"setup_s": {"median": 0.7, "q1": 0.6, "q3": 0.8, "n": 5, "unit": "s",
                             "better": "lower"}}
    # one run: its value is the median and both quartiles
    assert bs.summarize(runs[:1], METRICS)["setup_s"] == \
        {"median": 0.9, "q1": 0.9, "q3": 0.9, "n": 1, "unit": "s", "better": "lower"}


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=Bench Test", "-c", "user.email=bench@test",
                           "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


def write_head(repo: Path, name: str, setup: float = 1.0, ops: float = 1.0,
               spec: dict = SPEC) -> None:
    """Writes a head's stub perfbench and BENCHMARK.json into the working tree."""
    (repo / "perfbench").mkdir(exist_ok=True)
    (repo / "perfbench" / "run.py").write_text(
        STUB_RUN.replace("NAME", name).replace("SETUP", repr(setup)).replace("OPS", repr(ops)))
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """Two commits: c1, then c2, whose set-up is ten times faster; runs are
    logged to tmp_path/order.log and temporary trees go under tmp_path/tmp."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    for name, setup in (("c1", 1.0), ("c2", 0.1)):
        write_head(repo, name, setup=setup)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", name)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(bs, "ROOT", repo)   # BENCH_<label>.json lands here
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "order.log"))
    return repo


def run_order(repo: Path) -> list[str]:
    return (repo.parent / "order.log").read_text().splitlines()


def test_a_run_writes_one_file_per_label(repo, capsys):
    code = bs.main(["--label", "t1", "--seeds", "1,2,3,4"])
    assert code == 1   # seed 3's run failed its checks
    doc = json.loads((repo / "BENCH_t1.json").read_text())
    assert (doc["label"], doc["seeds"], doc["seconds"]) == ("t1", [1, 2, 3, 4], 15)
    assert doc["machine"] == {"env": {"numpy": "x"}, "nproc": 2, "affinity": 2,
                              "platform": "p"}
    assert not doc["machine_varied"]
    [head] = doc["heads"]
    assert (head["rev"], head["commit"]) == (".", git(repo, "rev-parse", "--short", "HEAD"))
    train = head["workloads"]["train"]
    assert list(head["workloads"]) == ["train", "bilinear"] and train["incorrect_runs"] == 1
    assert [r["seed"] for r in train["runs"]] == [1, 2, 3, 4]
    setup = train["summary"]["setup_s"]
    assert setup["median"] == statistics.median([s / 10 * 0.1 for s in (1, 2, 4)])
    assert setup["n"] == 3
    assert train["summary"]["ops_per_ref_s"]["q3"] == 300.0
    assert doc["verdicts"] == [] and capsys.readouterr().out == ""
    # `.` runs in the working tree itself
    assert set((repo.parent / "order.log.cwd").read_text().split()) == {str(repo)}


@pytest.mark.parametrize("argv", [
    ["--label", "a/b", "--seeds", "1"],
    ["--label", "x", "--seeds", "1,y"],
])
def test_bad_arguments_exit_2(repo, argv):
    with pytest.raises(SystemExit) as exc:
        bs.main(argv)
    assert exc.value.code == 2


def test_two_heads_run_alternating_pairs_and_print_verdicts(repo, capsys):
    c1, c2 = (git(repo, "rev-parse", "--short", rev) for rev in ("HEAD~1", "HEAD"))
    seeds = list(range(1, 11))
    code = bs.main(["--label", "t2", "--seeds", ",".join(map(str, seeds)),
                    "--heads", f"{c1},."])
    assert code == 1   # seed 3 fails its checks on both heads
    order = run_order(repo)
    # the older head runs first on the 1st, 3rd, ... seed, the newer on the others
    assert order[:8] == ["c1 train 1", "c2 train 1", "c1 bilinear 1", "c2 bilinear 1",
                         "c2 train 2", "c1 train 2", "c2 bilinear 2", "c1 bilinear 2"]
    assert len(order) == 2 * 2 * len(seeds)
    doc = json.loads((repo / "BENCH_t2.json").read_text())
    assert [(h["rev"], h["commit"]) for h in doc["heads"]] == [(c1, c1), (".", c2)]
    assert doc["heads"][0]["workloads"]["train"]["summary"]["setup_s"]["median"] == 0.6
    out = capsys.readouterr().out.splitlines()
    verdicts = {(v["workload"], v["metric"]): v for v in map(json.loads, out)}
    assert len(out) == len(verdicts) == 4 and list(map(json.loads, out)) == doc["verdicts"]
    parent_setup = [s / 10 for s in seeds if s != 3]
    q1, _, q3 = statistics.quantiles(parent_setup, n=4, method="inclusive")
    assert verdicts["train", "setup_s"] == {
        "parent": c1, "change": c2,
        "workload": "train", "metric": "setup_s", "better": "lower", "pairs": 9, "won": 9,
        "lost": 0, "parent_median": 0.6,
        "change_median": statistics.median([s / 10 * 0.1 for s in seeds if s != 3]),
        "parent_spread": q3 - q1,
        "gain": True, "within_bound": True}
    ties = verdicts["train", "ops_per_ref_s"]
    assert (ties["won"], ties["lost"], ties["gain"], ties["within_bound"]) == (0, 0, False, True)


def test_three_heads_rotate_and_give_two_sets_of_verdicts(repo, capsys):
    write_head(repo, "wt", setup=0.01)   # an uncommitted third head
    assert bs.main(["--label", "t3", "--seeds", "1,2,4", "--heads", "HEAD~1,HEAD,."]) == 0
    # seed i starts at head i mod 3
    assert [line for line in run_order(repo) if " train " in line] == [
        "c1 train 1", "c2 train 1", "wt train 1", "c2 train 2", "wt train 2", "c1 train 2",
        "wt train 4", "c1 train 4", "c2 train 4"]
    doc = json.loads((repo / "BENCH_t3.json").read_text())
    c1, c2 = (git(repo, "rev-parse", "--short", rev) for rev in ("HEAD~1", "HEAD"))
    assert [h["commit"] for h in doc["heads"]] == [c1, c2, f"{c2}-dirty"]
    pairs = [(v["parent"], v["change"]) for v in doc["verdicts"]]
    assert pairs == [(c1, c2)] * 4 + [(c2, f"{c2}-dirty")] * 4
    assert len(capsys.readouterr().out.splitlines()) == 8
    # the two archived heads ran in temporary trees, all since removed
    ran_in = set((repo.parent / "order.log.cwd").read_text().split())
    assert len(ran_in) == 3 and str(repo) in ran_in
    assert all(Path(d).is_relative_to(repo.parent / "tmp") for d in ran_in - {str(repo)})
    assert list((repo.parent / "tmp").iterdir()) == []


def test_a_worse_change_is_out_of_bound_and_no_gain(repo, capsys):
    # half the throughput: every pair lost, and 50% past the 24% bound; set-up
    # 1% faster on every pair, but by less than the parent's own spread
    write_head(repo, "wt", setup=0.1 * 0.99, ops=0.5)
    bs.main(["--label", "t4", "--seeds", "1,2,4,5", "--heads", "HEAD,."])
    verdicts = {(v["workload"], v["metric"]): v
                for v in map(json.loads, capsys.readouterr().out.splitlines())}
    ops, setup = verdicts["bilinear", "ops_per_ref_s"], verdicts["bilinear", "setup_s"]
    assert (ops["won"], ops["lost"], ops["gain"], ops["within_bound"]) == (0, 4, False, False)
    assert (setup["won"], setup["gain"], setup["within_bound"]) == (4, False, True)


def test_one_seed_reads_no_gain(repo, capsys):
    # c2 sets up ten times faster, but one pair is too few to read a gain
    bs.main(["--label", "t5", "--seeds", "1", "--heads", "HEAD~1,HEAD"])
    verdicts = {(v["workload"], v["metric"]): v
                for v in map(json.loads, capsys.readouterr().out.splitlines())}
    setup = verdicts["train", "setup_s"]
    assert (setup["pairs"], setup["won"], setup["within_bound"]) == (1, 1, True)
    assert not any(v["gain"] for v in verdicts.values())


def test_a_head_with_another_benchmark_exits_2_before_any_run(repo, capsys):
    write_head(repo, "wt", spec={**SPEC, "run_seconds": 5})
    with pytest.raises(SystemExit) as exc:
        bs.main(["--label", "x", "--seeds", "1", "--heads", "HEAD,."])
    assert exc.value.code == 2
    assert not (repo.parent / "order.log").exists()
    assert capsys.readouterr().err.strip().endswith(": .")
    assert list((repo.parent / "tmp").iterdir()) == []


def test_an_unknown_revision_exits_2_with_one_line(repo, capsys):
    with pytest.raises(SystemExit) as exc:
        bs.main(["--label", "x", "--seeds", "1", "--heads", "nosuchrev,."])
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "nosuchrev" in line
    assert not (repo.parent / "order.log").exists()
