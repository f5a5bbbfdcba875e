"""tools/bench_summary.py: the quartile summary, and a whole run against a
stub checkout whose perfbench prints canned result lines."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "tools" / "bench_summary.py")
bs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bs)

METRICS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_ref_s", "unit": "op/ref_s", "better": "higher", "bound": 0.24}]

# prints perfbench/run.py's last two lines: the record, then the result line;
# seed 3 fails its checks, and setup_s is the seed over ten
STUB_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
ok = seed != 3
print(json.dumps({"env": {"numpy": "x"}, "nproc": 2, "affinity": 2, "platform": "p",
                  "loadavg_before": [0.5, 0, 0], "loadavg_after": [1.0, 0, 0]}))
print(json.dumps({"correct": ok, "attempted": 4, "failed": 0 if ok else 1,
                  "metrics": {"setup_s": {"value": seed / 10, "unit": "s"},
                              "ops_per_ref_s": {"value": 100.0 * seed, "unit": "op/ref_s"}}
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


@pytest.fixture
def stub_checkout(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 15, "end_to_end": METRICS,
        "workloads": [{"name": "train"}, {"name": "bilinear"}]}))
    monkeypatch.setattr(bs, "ROOT", tmp_path)   # BENCH_<label>.json lands here
    return checkout


def test_a_run_writes_one_file_per_label(stub_checkout, tmp_path, capsys):
    code = bs.main(["--label", "t1", "--seeds", "1,2,3,4", "--checkout", str(stub_checkout),
                    "--commit", "abc"])
    assert code == 1   # seed 3's run failed its checks
    doc = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert (doc["label"], doc["commit"], doc["seeds"], doc["seconds"]) == ("t1", "abc",
                                                                           [1, 2, 3, 4], 15)
    assert doc["machine"] == {"env": {"numpy": "x"}, "nproc": 2, "affinity": 2,
                              "platform": "p"}
    assert not doc["machine_varied"]
    train = doc["workloads"]["train"]
    assert list(doc["workloads"]) == ["train", "bilinear"] and train["incorrect_runs"] == 1
    assert [r["seed"] for r in train["runs"]] == [1, 2, 3, 4]
    setup = train["summary"]["setup_s"]
    assert setup["median"] == statistics.median([0.1, 0.2, 0.4]) and setup["n"] == 3
    assert train["summary"]["ops_per_ref_s"]["q3"] == 300.0
    assert capsys.readouterr().out == "BENCH_t1.json\n"


@pytest.mark.parametrize("argv", [
    ["--label", "a/b", "--seeds", "1"],
    ["--label", "x", "--seeds", "1,y"],
])
def test_bad_arguments_exit_2(stub_checkout, argv):
    with pytest.raises(SystemExit) as exc:
        bs.main(argv + ["--checkout", str(stub_checkout)])
    assert exc.value.code == 2


# a stub whose figures are the default stub's times a factor per metric, and
# which logs each run's tree, workload and seed to a shared file
PAIRED_RUN = STUB_RUN + """
wl = sys.argv[sys.argv.index("--workload") + 1]
with open(LOG, "a") as f:
    f.write(f"NAME {wl} {seed}\\n")
"""


def paired_stub(root: Path, name: str, log: Path, setup: float, ops: float) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    run = PAIRED_RUN.replace("LOG", repr(str(log))).replace("NAME", name).replace(
        '"value": seed / 10,', f'"value": seed / 10 * {setup!r},').replace(
        '"value": 100.0 * seed,', f'"value": 100.0 * seed * {ops!r},')
    (tree / "perfbench" / "run.py").write_text(run)
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 15, "end_to_end": METRICS,
        "workloads": [{"name": "train"}, {"name": "bilinear"}]}))
    return tree


def test_against_runs_alternating_pairs_and_prints_verdicts(tmp_path, monkeypatch, capsys):
    log = tmp_path / "order.log"
    parent = paired_stub(tmp_path, "parent", log, setup=1.0, ops=1.0)
    # the change cuts every set-up time tenfold and ties every throughput
    change = paired_stub(tmp_path, "change", log, setup=0.1, ops=1.0)
    monkeypatch.setattr(bs, "ROOT", tmp_path)
    seeds = list(range(1, 11))
    code = bs.main(["--label", "t2", "--seeds", ",".join(map(str, seeds)),
                    "--checkout", str(change), "--commit", "new", "--against", str(parent),
                    "--parent-commit", "old"])
    assert code == 1   # seed 3 fails its checks on both sides
    order = log.read_text().split("\n")[:-1]
    # the parent runs first on the 1st, 3rd, ... seed, the change on the others
    assert order[:8] == ["parent train 1", "change train 1", "parent bilinear 1",
                         "change bilinear 1", "change train 2", "parent train 2",
                         "change bilinear 2", "parent bilinear 2"]
    assert len(order) == 2 * 2 * len(seeds)
    docs = {label: json.loads((tmp_path / f"BENCH_{label}.json").read_text())
            for label in ("t2", "t2-parent")}
    assert (docs["t2"]["commit"], docs["t2-parent"]["commit"]) == ("new", "old")
    assert docs["t2-parent"]["workloads"]["train"]["summary"]["setup_s"]["median"] == 0.6
    out = capsys.readouterr().out.splitlines()
    verdicts = {(v["workload"], v["metric"]): v for v in map(json.loads, out)}
    assert len(out) == len(verdicts) == 4
    parent_setup = [s / 10 for s in seeds if s != 3]
    q1, _, q3 = statistics.quantiles(parent_setup, n=4, method="inclusive")
    assert verdicts["train", "setup_s"] == {
        "workload": "train", "metric": "setup_s", "better": "lower", "pairs": 9, "won": 9,
        "lost": 0, "parent_median": 0.6,
        "change_median": statistics.median([s / 10 * 0.1 for s in seeds if s != 3]),
        "parent_spread": q3 - q1,
        "gain": True, "within_bound": True}
    ties = verdicts["train", "ops_per_ref_s"]
    assert (ties["won"], ties["lost"], ties["gain"], ties["within_bound"]) == (0, 0, False, True)


def test_a_worse_change_is_out_of_bound_and_no_gain(tmp_path, monkeypatch, capsys):
    log = tmp_path / "order.log"
    parent = paired_stub(tmp_path, "parent", log, setup=1.0, ops=1.0)
    # half the throughput: every pair lost, and 50% past the 24% bound; set-up
    # 1% faster on every pair, but by less than the parent's own spread
    change = paired_stub(tmp_path, "change", log, setup=0.99, ops=0.5)
    monkeypatch.setattr(bs, "ROOT", tmp_path)
    bs.main(["--label", "t3", "--seeds", "1,2,4,5", "--checkout", str(change),
             "--against", str(parent)])
    verdicts = {(v["workload"], v["metric"]): v
                for v in map(json.loads, capsys.readouterr().out.splitlines())}
    ops, setup = verdicts["bilinear", "ops_per_ref_s"], verdicts["bilinear", "setup_s"]
    assert (ops["won"], ops["lost"], ops["gain"], ops["within_bound"]) == (0, 4, False, False)
    assert (setup["won"], setup["gain"], setup["within_bound"]) == (4, False, True)


def test_against_another_benchmark_exits_2(stub_checkout, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    (other / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 5}))
    with pytest.raises(SystemExit) as exc:
        bs.main(["--label", "x", "--seeds", "1", "--checkout", str(stub_checkout),
                 "--against", str(other)])
    assert exc.value.code == 2
