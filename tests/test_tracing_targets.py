"""perfbench's tracer wraps program functions by the names their callers
bind, and skips a name that no longer resolves; every metric built on that
name then reads zero calls. The names that do not resolve are pinned here,
so deleting another traced name fails this test instead of zeroing a metric
without a word. Retargeting the tracing shortens the list."""

import sys
from pathlib import Path

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


def test_unresolved_targets_are_the_known_stale_ones():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == UNRESOLVED
    finally:
        tracer.uninstall()
