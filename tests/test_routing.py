"""Router and compression contracts: hand cumulative-sum oracles, the
minimal-prefix and monotonicity properties, and shape guarantees."""

import numpy as np
import pytest

from slicemix import adapters as ad
from slicemix.numerics import make_rng, softmax
from slicemix.routing import (
    DEFAULT_GAMMA,
    DEFAULT_NUM_QUERIES,
    RouterConfig,
    compress_local,
    route_tokens,
    select_prefix,
)


def embed_scores(scores):
    """z_v, z_x whose router scores reproduce `scores` (softmax of log-scores)."""
    z_v = np.log(np.asarray(scores, dtype=np.float64)).reshape(-1, 1)
    z_x = np.array([[1.0]])
    return z_v, z_x


def prefix_oracle(scores, gamma):
    """Hand sort + cumulative sum, inclusive cut."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    total = 0.0
    kept = []
    for i in order:
        kept.append(i)
        total += scores[i]
        if total >= gamma:
            break
    return kept, total


class TestDefaults:
    def test_paper_preferred_settings(self):
        assert DEFAULT_NUM_QUERIES == 144
        assert DEFAULT_GAMMA == 0.75
        assert RouterConfig().gamma == 0.75
        assert RouterConfig().train_noise_sigma == 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RouterConfig(gamma=0.0)
        with pytest.raises(ValueError):
            RouterConfig(gamma=1.5)
        with pytest.raises(ValueError):
            RouterConfig(train_noise_sigma=-0.1)


class TestRouteTokens:
    def test_gamma_one_keeps_everything(self):
        rng = make_rng(50)
        z_v = rng.standard_normal((9, 4))
        z_x = rng.standard_normal((2, 4))
        sel = route_tokens(z_v, z_x, RouterConfig(gamma=1.0))
        assert sorted(sel.kept_indices.tolist()) == list(range(9))
        assert sel.cumulative_at_cut == pytest.approx(1.0, abs=1e-9)

    def test_fixture_gamma_half(self):
        z_v, z_x = embed_scores([0.4, 0.3, 0.2, 0.1])
        sel = route_tokens(z_v, z_x, RouterConfig(gamma=0.5))
        assert sel.kept_indices.tolist() == [0, 1]
        assert sel.cumulative_at_cut == pytest.approx(0.7, abs=1e-12)

    def test_fixture_inclusive_cut(self):
        z_v, z_x = embed_scores([0.4, 0.3, 0.2, 0.1])
        sel = route_tokens(z_v, z_x, RouterConfig(gamma=0.4))
        assert sel.kept_indices.tolist() == [0]
        assert sel.cumulative_at_cut == pytest.approx(0.4, abs=1e-12)

    def test_scores_sum_to_one(self):
        rng = make_rng(51)
        for _ in range(50):
            z_v = rng.standard_normal((int(rng.integers(1, 40)), 3))
            z_x = rng.standard_normal((int(rng.integers(1, 5)), 3))
            sel = route_tokens(z_v, z_x, RouterConfig())
            assert abs(sel.scores.sum() - 1.0) < 1e-12

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            route_tokens(np.zeros((0, 3)), np.ones((1, 3)), RouterConfig())
        with pytest.raises(ValueError):
            route_tokens(np.ones((2, 3)), np.zeros((0, 3)), RouterConfig())

    def test_minimal_prefix_property(self):
        rng = make_rng(52)
        for _ in range(300):
            scores = softmax(rng.standard_normal(int(rng.integers(1, 30))) * 2.0)
            gamma = float(rng.uniform(0.05, 0.999))
            kept, cum = select_prefix(scores, gamma)
            assert cum >= gamma
            assert cum - scores[kept[-1]] < gamma

    def test_matches_hand_oracle(self):
        rng = make_rng(53)
        for _ in range(200):
            scores = softmax(rng.standard_normal(int(rng.integers(1, 20))))
            gamma = float(rng.uniform(0.05, 0.999))
            kept, cum = select_prefix(scores, gamma)
            o_kept, o_cum = prefix_oracle(scores.tolist(), gamma)
            assert kept.tolist() == o_kept
            assert cum == pytest.approx(o_cum, abs=1e-12)

    def test_gamma_monotonicity(self):
        rng = make_rng(54)
        for _ in range(200):
            scores = softmax(rng.standard_normal(int(rng.integers(2, 25))) * 3.0)
            g1, g2 = sorted(rng.uniform(0.05, 1.0, size=2))
            k1, _ = select_prefix(scores, float(g1))
            k2, _ = select_prefix(scores, float(g2))
            assert set(k1.tolist()) <= set(k2.tolist())

    def test_tie_break_prefers_lower_index(self):
        scores = np.array([0.25, 0.25, 0.25, 0.25])
        kept, _ = select_prefix(scores, 0.5)
        assert kept.tolist() == [0, 1]

    def test_constant_image_offset_keeps_selection(self):
        rng = make_rng(55)
        z_v = rng.standard_normal((12, 5))
        z_x = rng.standard_normal((3, 5))
        offset = rng.standard_normal(5) * 10.0
        a = route_tokens(z_v, z_x, RouterConfig(gamma=0.6))
        b = route_tokens(z_v + offset, z_x, RouterConfig(gamma=0.6))
        assert a.kept_indices.tolist() == b.kept_indices.tolist()

    def test_training_noise_respects_gamma_accounting(self):
        rng = make_rng(56)
        z_v = rng.standard_normal((20, 4))
        z_x = rng.standard_normal((1, 4))
        cfg = RouterConfig(gamma=0.5, train_noise_sigma=0.1)
        sel = route_tokens(z_v, z_x, cfg, make_rng(3))
        # cumulative mass of kept tokens (noiseless scores) reaches gamma
        assert sel.scores[sel.kept_indices].sum() >= 0.5
        assert sel.cumulative_at_cut == pytest.approx(
            float(sel.scores[sel.kept_indices].sum()), abs=1e-12)

    def test_noise_draws_one_normal_per_token_iff_generator_and_sigma(self):
        rng = make_rng(60)
        z_v = rng.standard_normal((11, 4))
        z_x = rng.standard_normal((2, 4))
        quiet = route_tokens(z_v, z_x, RouterConfig(gamma=0.5))
        # a positive sigma and a generator: exactly one normal per token
        gen, ref = make_rng(4), make_rng(4)
        route_tokens(z_v, z_x, RouterConfig(gamma=0.5, train_noise_sigma=0.3), gen)
        ref.standard_normal(len(z_v))
        assert gen.bit_generator.state == ref.bit_generator.state
        # sigma 0: nothing drawn, and the order is the noiseless one
        gen = make_rng(4)
        before = gen.bit_generator.state
        sel = route_tokens(z_v, z_x, RouterConfig(gamma=0.5, train_noise_sigma=0.0), gen)
        assert gen.bit_generator.state == before
        assert sel.kept_indices.tolist() == quiet.kept_indices.tolist()
        # no generator: deterministic whatever sigma is
        for _ in range(2):
            again = route_tokens(z_v, z_x, RouterConfig(gamma=0.5, train_noise_sigma=0.3))
            assert again.kept_indices.tolist() == quiet.kept_indices.tolist()
            assert again.cumulative_at_cut == quiet.cumulative_at_cut

    def test_noise_off_path_deterministic(self):
        rng = make_rng(57)
        z_v = rng.standard_normal((8, 3))
        z_x = rng.standard_normal((2, 3))
        a = route_tokens(z_v, z_x, RouterConfig(gamma=0.8))
        b = route_tokens(z_v, z_x, RouterConfig(gamma=0.8))
        assert a.kept_indices.tolist() == b.kept_indices.tolist()
        assert a.cumulative_at_cut == b.cumulative_at_cut


class TestCompression:
    def test_shape_contract(self):
        rng = make_rng(60)
        p = ad.init_qformer(rng, 4, 6, 5)
        out = compress_local(rng.standard_normal((576, 6)), p)
        assert out.shape == (4, 5)

    def test_zero_values_zero_tokens(self):
        rng = make_rng(62)
        p = ad.init_qformer(rng, 3, 4, 4)
        p.wv[:] = 0.0
        out = compress_local(rng.standard_normal((10, 4)), p)
        assert np.all(out == 0.0)

    def test_warns_when_not_compressing(self):
        rng = make_rng(63)
        p = ad.init_qformer(rng, 8, 4, 4)
        with pytest.warns(UserWarning, match="fewer queries"):
            compress_local(rng.standard_normal((4, 4)), p)


class TestRelevanceScores:
    """The noiseless scores a route_tokens record carries."""

    def test_matches_explicit_average(self):
        rng = make_rng(64)
        z_v = rng.standard_normal((5, 3))
        z_x = rng.standard_normal((4, 3))
        raw = np.array([[z_v[i] @ z_x[j] for j in range(4)] for i in range(5)])
        np.testing.assert_allclose(route_tokens(z_v, z_x, RouterConfig()).scores,
                                   softmax(raw.mean(axis=1)), rtol=1e-13)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="feature width"):
            route_tokens(np.ones((2, 3)), np.ones((2, 4)), RouterConfig())


class TestSelectionJson:
    def test_schema(self):
        z_v, z_x = embed_scores([0.4, 0.3, 0.2, 0.1])
        sel = route_tokens(z_v, z_x, RouterConfig(gamma=0.5))
        doc = sel.to_json()
        assert set(doc) == {"gamma", "kept", "scores", "cumulative"}
        assert doc["kept"] == [0, 1]
        assert len(doc["scores"]) == 4
