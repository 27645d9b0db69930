import numpy as np
import pytest

from swinvos import engine
from swinvos.decoder import Decoder, predict_labels, soft_aggregate
from swinvos.engine import Tensor
from swinvos.errors import UsageError


def make_ys(rng, base_dim=8, h4=2, w4=2, dtype=np.float32):
    ys = []
    for i in range(4):
        c = base_dim * 2 ** i
        r = 2 ** (3 - i)
        n = (h4 * r) * (w4 * r)
        ys.append(Tensor(rng.standard_normal((c, n)).astype(dtype)))
    return ys


class TestDecoder:
    def test_output_extents(self, rng):
        dec = Decoder(8, 32, rng)
        out = dec(make_ys(rng), (2, 2), (64, 64))
        assert out.shape == (64, 64)

    def test_probabilities_bounded(self, rng):
        dec = Decoder(8, 32, rng)
        out = dec(make_ys(rng), (2, 2), (64, 64))
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_missing_y4_rejected(self, rng):
        dec = Decoder(8, 32, rng)
        ys = make_ys(rng)
        ys[3] = None
        with pytest.raises(UsageError):
            dec(ys, (2, 2), (64, 64))

    def test_skip_connections_are_live(self, rng):
        dec = Decoder(8, 32, rng)
        ys = make_ys(rng)
        full = dec(ys, (2, 2), (64, 64))
        zeroed = dec([None, None, None, ys[3]], (2, 2), (64, 64))
        assert np.abs(full.data - zeroed.data).max() > 0

    def test_crop_to_original_size(self, rng):
        dec = Decoder(8, 32, rng)
        out = dec(make_ys(rng), (2, 2), (57, 61))
        assert out.shape == (57, 61)

    def test_gradient_through_refinement_stage(self, rng):
        # one refinement stage end to end, finite differences in f64
        from swinvos.decoder import RefinementStage
        stage = RefinementStage(4, 6, np.random.default_rng(0)).astype(np.float64)
        probe = rng.standard_normal((6, 4, 4))

        def fn(coarse, skip):
            out = stage(coarse, skip, (4, 4))
            return engine.tsum(engine.mul(out, Tensor(probe)))

        worst = engine.gradcheck(
            fn, [rng.standard_normal((6, 2, 2)), rng.standard_normal((4, 16))])
        assert worst <= 1e-3, f"worst rel err {worst:.2e}"


class TestSoftAggregate:
    def test_single_object_half(self):
        out = soft_aggregate([Tensor(np.full((2, 2), 0.5))])
        np.testing.assert_allclose(out.data[1], 0.5, atol=1e-6)
        np.testing.assert_allclose(out.data[0], 0.5, atol=1e-6)

    def test_hand_derived_odds(self):
        out = soft_aggregate([Tensor(np.full((1, 1), 0.8))])
        assert abs(out.data[1, 0, 0] - 0.9412) < 1e-4

    def test_all_tiny_probs_background_wins(self):
        out = soft_aggregate([Tensor(np.full((2, 2), 1e-5)),
                              Tensor(np.full((2, 2), 1e-5))])
        np.testing.assert_allclose(out.data[0], 1.0, atol=1e-3)
        assert predict_labels(out).tolist() == [[0, 0], [0, 0]]

    def test_columns_sum_to_one(self, rng):
        for m in range(1, 5):
            probs = [Tensor(rng.random((3, 4)).astype(np.float32)) for _ in range(m)]
            out = soft_aggregate(probs)
            np.testing.assert_allclose(out.data.sum(axis=0), 1.0, atol=1e-6)

    def test_permutation_equivariance(self, rng):
        probs = [rng.random((2, 3)).astype(np.float32) for _ in range(3)]
        out = soft_aggregate([Tensor(p) for p in probs]).data
        perm = soft_aggregate([Tensor(probs[2]), Tensor(probs[0]), Tensor(probs[1])]).data
        np.testing.assert_allclose(perm[0], out[0], atol=1e-6)
        np.testing.assert_allclose(perm[1], out[3], atol=1e-6)
        np.testing.assert_allclose(perm[2], out[1], atol=1e-6)
        np.testing.assert_allclose(perm[3], out[2], atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            soft_aggregate([])

    def test_gradcheck_interior(self, rng):
        probe = rng.standard_normal((3, 2, 2))

        def fn(p0, p1):
            out = soft_aggregate([p0, p1])
            return engine.tsum(engine.mul(out, Tensor(probe)))

        # keep probabilities away from the clamp boundaries
        worst = engine.gradcheck(
            fn, [rng.uniform(0.2, 0.8, (2, 2)), rng.uniform(0.2, 0.8, (2, 2))])
        assert worst <= 1e-5, f"worst rel err {worst:.2e}"


class TestPredictLabels:
    def test_one_hot(self):
        dist = np.zeros((3, 2, 2))
        dist[2] = 1.0
        assert (predict_labels(dist) == 2).all()

    def test_tie_goes_to_background(self):
        dist = np.array([[[0.5]], [[0.5]]])
        assert predict_labels(dist)[0, 0] == 0

    def test_range(self, rng):
        dist = rng.random((4, 5, 5))
        labels = predict_labels(dist)
        assert labels.min() >= 0 and labels.max() <= 3
