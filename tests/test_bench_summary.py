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
