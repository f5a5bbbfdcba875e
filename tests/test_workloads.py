"""The first round of the train, infer-hires and bilinear benchmark workloads
passes that workload's own check, so a change that would make a benchmark
run read `outputs_incorrect` fails here first. perfbench/test_checks.py
does the same for gradcheck's round."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["train", "infer-hires", "bilinear"])
def test_a_first_round_passes_its_workloads_check(name):
    wl = workloads.WORKLOADS[name](1)
    wl.check(0, wl.round(0).output)
