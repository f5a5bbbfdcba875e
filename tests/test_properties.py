"""Property tests: invariants of the router's prefix cut, the partition
planner and bilinear resizing, checked on inputs that hypothesis draws.

The draws are derandomized, so every run checks the same examples and the
suite stays reproducible; raise max_examples locally to search wider.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slicemix.routing import select_prefix
from slicemix.slicing import plan_partition, resize_bilinear

properties = settings(max_examples=300, deadline=None, derandomize=True, database=None)
gammas = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def score_vectors(draw):
    """Non-negative scores that sum to 1, as the router's softmax gives them."""
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                        max_size=40).filter(lambda v: sum(v) > 0.0))
    v = np.array(raw)
    return v / v.sum()


class TestSelectPrefix:
    @properties
    @given(score_vectors(), gammas)
    def test_prefix_reaches_gamma_and_is_minimal(self, scores, gamma):
        kept, cum = select_prefix(scores, gamma)
        assert len(set(kept.tolist())) == len(kept) >= 1
        assert cum == np.cumsum(scores[kept])[-1]
        if cum < gamma:
            # only float rounding at gamma near 1 can fall short: keep all
            assert len(kept) == len(scores)
        else:
            # without its last token the prefix no longer reaches gamma
            assert len(kept) == 1 or np.cumsum(scores[kept])[-2] < gamma

    @properties
    @given(score_vectors(), gammas)
    def test_kept_in_descending_score_order(self, scores, gamma):
        kept, _ = select_prefix(scores, gamma)
        assert np.all(np.diff(scores[kept]) <= 0.0)
        # no dropped token scores above the last kept one
        dropped = np.setdiff1d(np.arange(len(scores)), kept)
        assert dropped.size == 0 or scores[dropped].max() <= scores[kept[-1]]


sides = st.integers(min_value=1, max_value=5000)


class TestPlanPartition:
    @properties
    @given(sides, sides, st.integers(min_value=1, max_value=800),
           st.integers(min_value=1, max_value=6))
    def test_scaled_image_fits_the_canvas(self, w, h, base, max_grid):
        plan = plan_partition(w, h, base=base, max_grid=max_grid)
        assert 1 <= plan.m <= max_grid and 1 <= plan.n <= max_grid
        canvas_w, canvas_h = plan.grid_px()
        assert w * plan.scale <= canvas_w * (1 + 1e-12)
        assert h * plan.scale <= canvas_h * (1 + 1e-12)
        assert plan.wasted >= 0.0
        assert plan.utilized <= float(w) * float(h)

    @properties
    @given(sides, sides, st.integers(min_value=1, max_value=800))
    def test_transposed_geometry_mirrors_the_plan(self, w, h, base):
        p = plan_partition(w, h, base=base)
        q = plan_partition(h, w, base=base)
        assert (q.m, q.n) == (p.n, p.m)
        assert (q.scale, q.utilized, q.wasted) == (p.scale, p.utilized, p.wasted)


pixel_sides = st.integers(min_value=1, max_value=40)


class TestResizeBilinear:
    @properties
    @given(pixel_sides, pixel_sides, pixel_sides, pixel_sides,
           st.floats(min_value=-1e3, max_value=1e3))
    def test_constant_images_stay_constant(self, in_h, in_w, out_h, out_w, value):
        out = resize_bilinear(np.full((in_h, in_w), value), out_h, out_w)
        assert out.shape == (out_h, out_w)
        # the absolute floor only matters for subnormal values, whose
        # products with the interpolation weights lose relative precision
        np.testing.assert_allclose(out, value, rtol=1e-14, atol=1e-300)

    @properties
    @given(pixel_sides, pixel_sides, pixel_sides, pixel_sides,
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_values_stay_in_the_input_range(self, in_h, in_w, out_h, out_w, seed):
        img = np.random.default_rng(seed).random((in_h, in_w))
        out = resize_bilinear(img, out_h, out_w)
        slack = 1e-15
        assert out.min() >= img.min() - slack and out.max() <= img.max() + slack
