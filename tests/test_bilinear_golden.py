"""Golden digests of the rank-one lab's traces.

Each case pins sha256(to_csv() + json.dumps(summary(), sort_keys=True)) of
one `run_experiment` call, or the type and message of the exception it
raised. The digests were recorded before the descent moved from numpy
scalars to plain floats, so any change in a bit of a trace, a summary field
or an error shows here. Runs that overflow are recorded and replayed under
`np.errstate`, since the numpy-scalar recurrence warned on overflow.

Regenerate with `python tests/test_bilinear_golden.py` (prints the JSON).
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from slicemix import bilinear as bl

GOLDEN = Path(__file__).parent / "data" / "golden_bilinear.json"

INIT_GRID = ("antisym", "generic", "sym", (0.0, 0.0), (3.0, -2.0), (1e-3, 5.0))

# (method, c, seed, init, eta, steps, stop_tol, STOP_WINDOW) axes
GRIDS = {
    "gd": ((0.1, 0.5, 0.9, -0.3), (1, 2), INIT_GRID,
           (0.01, 0.3, 2.0, 1e40, 1e100, 1e200), (0, 1, 50, 3000),
           (None, 1e-6, 1e-3), (1, 100)),
    "gd_vector": ((0.5, -0.3), (1,), INIT_GRID, (0.01, 0.3, 1e100), (0, 50, 300),
                  (None, 1e-6), (1, 100)),
    "alternating": ((0.1, 0.9, -0.3), (1, 2), INIT_GRID, (0.01,), (0, 1, 50, 300),
                    (None, 1e-6), (1, 100)),
}


def cases(method):
    return itertools.product(*GRIDS[method])


def case_digest(method, c, seed, init, eta, steps, stop_tol, stop_window):
    inst = bl.make_instance(d=16, c=c, seed=seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(bl, "STOP_WINDOW", stop_window):
            trace = bl.run_experiment(inst, init=init, method=method, steps=steps, eta=eta,
                                      stop_tol=stop_tol)
    except Exception as exc:  # the pin covers error types and messages too
        return f"{type(exc).__name__}: {exc}"
    text = trace.to_csv() + json.dumps(trace.summary(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    return {method: [case_digest(method, *case) for case in cases(method)]
            for method in GRIDS}


def test_traces_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(GRIDS)
    for method, digests in golden.items():
        grid = list(cases(method))
        assert len(grid) == len(digests), method
        for case, want in zip(grid, digests):
            assert case_digest(method, *case) == want, (method, case)


def test_block_and_chunk_boundaries_change_no_byte(monkeypatch):
    # blocks of 7 rows put stop windows of 1 and 100 across many block edges
    monkeypatch.setattr(bl, "GD_BLOCK_ROWS", 7)
    monkeypatch.setattr(bl, "CSV_CHUNK_ROWS", 5)
    golden = json.loads(GOLDEN.read_text())["gd"]
    for case, want in zip(cases("gd"), golden):
        c, seed, _, _, steps, *_ = case
        if c == 0.5 and seed == 1 and steps >= 50:
            assert case_digest("gd", *case) == want, case


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=0)
    sys.stdout.write("\n")
