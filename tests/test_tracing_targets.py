"""perfbench's tracer wraps program functions by the names their callers
bind, and skips a name that no longer resolves; every metric built on that
name then reads zero calls. The names that do not resolve are pinned here,
so deleting another traced name fails this test instead of zeroing a metric
without a word. Retargeting the tracing shortens the list. A name can also
resolve and still record nothing, when the program calls another binding;
the spans a short training run and a small task build record are pinned
for that."""

import sys
from pathlib import Path

from slicemix import pipeline as pl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402

UNRESOLVED = [
    # the mixture's MLP forms gelu(pre) from its saved CDF, and the gate calls
    # softmax's arithmetic on the mean it computed, so neither binds these now
    "slicemix.adapters.gelu",
    "slicemix.adapters.softmax",
    "slicemix.routing.softmax",
    "slicemix.numerics.softmax_rows",
    "slicemix.pipeline.apply_selection",
    "slicemix.routing.relevance_scores",
]

# what a 4-step e2e training run records, the task built before tracing
TRAIN_SPANS = {
    "pipeline.train", "pipeline.init_params", "numerics.make_rng",
    "adapters.global_fwd", "adapters.gate_sample", "adapters.global_vjp",
    "adapters.mlp_apply", "adapters.global_qformer_apply",
    "adapters.mlp_vjp", "adapters.global_qformer_vjp",
    "adapters.local_fwd", "adapters.local_vjp",
    "numerics.attention_weights", "numerics.cross_attention_vjp",
    "numerics.gelu_grad", "numerics.softplus",
}
# resolve but record nothing in training
KNOWN_SILENT = set()


def test_unresolved_targets_are_the_known_stale_ones():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == UNRESOLVED
    finally:
        tracer.uninstall()


def test_a_training_run_records_the_known_spans():
    task = pl.make_toy_task(3)
    tracer = Tracer()
    try:
        tracer.install()
        pl.train(pl.default_schedule("e2e", total_steps=4), task)
    finally:
        tracer.uninstall()
    counts = tracer.phase(0, tracer.mark()).counts()
    recorded = {name for name, n in counts.items() if n}
    assert recorded == TRAIN_SPANS
    assert not recorded & KNOWN_SILENT and KNOWN_SILENT <= counts.keys()
    # one gate evaluation and one pass of each expert per mixture pass: 4
    # steps and 2 noiseless evaluations
    assert counts["adapters.gate_sample"] == counts["adapters.global_fwd"] == 6
    assert counts["adapters.mlp_apply"] == counts["adapters.global_qformer_apply"] == 6


# what a 5-image task build records: per image one plan, one global view and
# one canvas cut into tiles, and three resizes (the smooth field, the global
# view and the canvas)
BUILD_SPANS = {
    "pipeline.make_toy_task": 1, "numerics.make_rng": 1,
    "slicing.plan_partition": 5, "slicing.make_global_view": 5,
    "slicing.extract_patches": 5, "slicing.scaled_canvas": 5,
    "slicing.resize_bilinear": 15,
}


def test_a_task_build_records_the_slicing_spans():
    tracer = Tracer()
    try:
        tracer.install()
        pl.make_toy_task(3, pl.PipelineConfig(n_train=3, n_eval=2))
    finally:
        tracer.uninstall()
    counts = tracer.phase(0, tracer.mark()).counts()
    assert {name: n for name, n in counts.items() if n} == BUILD_SPANS
