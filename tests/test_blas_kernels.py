"""The pipeline's bitwise pins under several OpenBLAS kernels.

numpy's OpenBLAS is built for many CPUs at once, and `OPENBLAS_CORETYPE`
picks the kernel for one process. Each kernel sums a matrix product in its
own order, so bits that hold under one kernel alone (say, only with AVX-512)
would fail on most other x86 machines. This runs a fixed set of pins in a
subprocess per kernel: the golden training record, batch-equals-loop, the
exact stage freezes, one end-to-end FD check, a task build against its
fresh-array reference and the normal CDF's table, which comes from `math`
alone, against its list-built reference. A kernel this machine cannot run
is skipped with the reason. A BLAS that does not know the variable runs its own kernel each
time, and the three runs are then one.

Batch-equals-loop over drawn configs
(`tests/test_properties.py::TestBatchEqualsLoop`) is not a pin: under
`Prescott` the bits of `w @ t` in `adapters.qformer_apply`, an (n_q, L) @
(L, 1) product per patch at feat_dim = 1, depend on whether the tokens
start on a 16-byte boundary. At feat_dim = model_dim = 1 the batched stack
starts an image 8 bytes off that boundary whenever the images before it
hold an odd number of values, so the batch and the loop can differ in the
last bit there. The property's drawn examples happen to pass under
`Prescott`, but the fault stands until the alignment is mended.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("SkylakeX", "Haswell", "Prescott")
PINS = (
    "tests/test_pipeline.py::TestTrain::test_golden_training_runs",
    "tests/test_pipeline.py::TestBatchedPass::test_matches_a_loop_of_forwards",
    "tests/test_pipeline.py::TestTrain::test_stage_freezes_are_bitwise_exact",
    "tests/test_pipeline.py::TestGradients::test_fd_check_per_mode[full]",
    "tests/test_properties.py::TestTaskBytes::test_a_build_is_the_fresh_array_reference",
    "tests/test_numerics.py::TestGelu::test_the_table_is_built_in_one_buffer",
)
# one product through BLAS: a kernel the CPU cannot run dies here
PROBE = "import numpy as np; np.ones((64, 64)) @ np.ones((64, 64))"


def _env(kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("kernel", KERNELS)
def test_pins_hold_under_each_kernel(kernel):
    probe = subprocess.run([sys.executable, "-c", PROBE], env=_env(kernel), cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode < 0:
        pytest.skip(f"the {kernel} kernel cannot run here: "
                    f"{signal.Signals(-probe.returncode).name}")
    if probe.returncode != 0:
        pytest.skip(f"the {kernel} kernel cannot load here: exit {probe.returncode}, "
                    f"{probe.stderr.strip()[-200:]}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *PINS], env=_env(kernel), cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]
