import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swinvos import engine
from swinvos.attention import SwinBlock
from swinvos.config import VARIANTS, ModelConfig
from swinvos.encoders import (
    ImageEncoder,
    ImageOnlyMemoryEncoder,
    KeyValueProjector,
    VideoEncoder,
    heads_for,
)
from swinvos.engine import Tensor
from swinvos.errors import UsageError

NANO = ModelConfig(variant="nano")


def tie_video_to_image(video, image):
    """Copy image-encoder weights into a P=1 video encoder; zero mask embeds."""
    img = dict(image.named_parameters())
    for name, p in video.named_parameters():
        if name.startswith("stack."):
            p.data[:] = img[name].data.reshape(p.shape)
        elif "embed_rgb" in name:
            p.data[:] = img[name.replace("embed_rgb", "embed")].data
        elif "patch_embed.norm" in name:
            p.data[:] = img[name].data
        elif "embed_target" in name or "embed_other" in name:
            p.data[:] = 0


def record_block_extents(monkeypatch):
    """Record (grid dims, valid extents) of every SwinBlock call."""
    seen = []
    call = SwinBlock.__call__

    def recording(block, x, valid=None):
        seen.append((tuple(x.shape[:-1]), valid))
        return call(block, x, valid=valid)

    monkeypatch.setattr(SwinBlock, "__call__", recording)
    return seen


class TestImageEncoder:
    def test_nano_extent_laws(self, rng):
        enc = ImageEncoder(NANO, rng)
        out = enc(Tensor(rng.random((64, 64, 3)).astype(np.float32)))
        shapes = [f.shape for f in out]
        assert shapes == [(16, 16, 8), (8, 8, 16), (4, 4, 32), (2, 2, 64)]

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=6, deadline=None)
    def test_extent_laws_random_sizes(self, mh, mw):
        rng = np.random.default_rng(mh * 10 + mw)
        h, w = 32 * mh, 32 * mw
        enc = ImageEncoder(NANO, rng)
        out = enc(Tensor(rng.random((h, w, 3)).astype(np.float32)))
        for i, f in enumerate(out, start=1):
            assert f.shape == (h // 2 ** (i + 1), w // 2 ** (i + 1), 8 * 2 ** (i - 1))

    def test_deterministic(self, rng):
        enc = ImageEncoder(NANO, np.random.default_rng(3))
        frame = Tensor(rng.random((32, 32, 3)).astype(np.float32))
        a = enc(frame)
        b = enc(frame)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)

    def test_indivisible_input_padded(self, rng, monkeypatch):
        enc = ImageEncoder(NANO, rng)
        seen = record_block_extents(monkeypatch)
        out = enc(Tensor(rng.random((40, 72, 3)).astype(np.float32)))
        assert out[0].shape == (16, 24, 8)  # padded to 64 x 96
        # every block masks to its stage's valid extents, rounded up
        assert seen == [((16, 24), (10, 18)), ((8, 12), (5, 9)),
                        ((4, 6), (3, 5)), ((4, 6), (3, 5)), ((2, 3), (2, 3))]


class TestVideoEncoder:
    def test_temporal_extent_constant(self, rng):
        enc = VideoEncoder(NANO, rng)
        t = 3
        out = enc(Tensor(rng.random((t, 64, 64, 3)).astype(np.float32)),
                  Tensor(np.zeros((t, 64, 64, 1), np.float32)),
                  Tensor(np.zeros((t, 64, 64, 1), np.float32)))
        assert out[3].shape == (3, 2, 2, 64)
        for i, f in enumerate(out, start=1):
            assert f.shape[0] == t

    def test_indivisible_clip_padded(self, rng, monkeypatch):
        enc = VideoEncoder(NANO, rng)
        seen = record_block_extents(monkeypatch)
        masks = Tensor(np.zeros((2, 40, 72, 1), np.float32))
        enc(Tensor(rng.random((2, 40, 72, 3)).astype(np.float32)), masks, masks)
        assert seen == [((2, 16, 24), (2, 10, 18)), ((2, 8, 12), (2, 5, 9)),
                        ((2, 4, 6), (2, 3, 5)), ((2, 4, 6), (2, 3, 5)),
                        ((2, 2, 3), (2, 2, 3))]

    def test_empty_memory_rejected(self, rng):
        enc = VideoEncoder(NANO, rng)
        with pytest.raises(UsageError):
            enc(Tensor(np.zeros((0, 32, 32, 3), np.float32)),
                Tensor(np.zeros((0, 32, 32, 1), np.float32)),
                Tensor(np.zeros((0, 32, 32, 1), np.float32)))

    def test_degenerate_temporal_matches_image_encoder(self, rng):
        image = ImageEncoder(NANO, np.random.default_rng(11))
        video = VideoEncoder(NANO, np.random.default_rng(12))
        tie_video_to_image(video, image)
        frame = rng.random((32, 32, 3)).astype(np.float32)
        zeros = np.zeros((1, 32, 32, 1), np.float32)
        out_v = video(Tensor(frame[None]), Tensor(zeros), Tensor(zeros))
        out_i = image(Tensor(frame))
        for fv, fi in zip(out_v, out_i):
            np.testing.assert_allclose(fv.data[0], fi.data, atol=1e-6)

    def test_other_mask_disabled_independence(self, rng):
        cfg = ModelConfig(variant="nano", other_mask_enabled=False)
        enc = VideoEncoder(cfg, np.random.default_rng(4))
        frames = Tensor(rng.random((2, 32, 32, 3)).astype(np.float32))
        target = Tensor(np.zeros((2, 32, 32, 1), np.float32))
        a = enc(frames, target, Tensor(np.zeros((2, 32, 32, 1), np.float32)))
        b = enc(frames, target, Tensor(np.ones((2, 32, 32, 1), np.float32)))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)

    def test_encoder_weights_independent(self, rng):
        image = ImageEncoder(NANO, np.random.default_rng(5))
        video = VideoEncoder(NANO, np.random.default_rng(6))
        frames = Tensor(rng.random((1, 32, 32, 3)).astype(np.float32))
        zeros = Tensor(np.zeros((1, 32, 32, 1), np.float32))
        before = video(frames, zeros, zeros)
        for _, p in image.named_parameters():
            p.data += 1.0
        after = video(frames, zeros, zeros)
        for fa, fb in zip(before, after):
            np.testing.assert_array_equal(fa.data, fb.data)


class TestImageOnlyMemoryEncoder:
    def test_shapes_and_time_stacking(self, rng):
        image = ImageEncoder(NANO, np.random.default_rng(7))
        mem = ImageOnlyMemoryEncoder(NANO, np.random.default_rng(8))
        t = 2
        out = mem(image, Tensor(rng.random((t, 32, 32, 3)).astype(np.float32)),
                  Tensor(np.zeros((t, 32, 32, 1), np.float32)),
                  Tensor(np.zeros((t, 32, 32, 1), np.float32)))
        assert [f.shape for f in out] == [
            (2, 8, 8, 8), (2, 4, 4, 16), (2, 2, 2, 32), (2, 1, 1, 64)]

    def test_masks_change_features(self, rng):
        image = ImageEncoder(NANO, np.random.default_rng(7))
        mem = ImageOnlyMemoryEncoder(NANO, np.random.default_rng(8))
        frames = Tensor(rng.random((1, 32, 32, 3)).astype(np.float32))
        zeros = np.zeros((1, 32, 32, 1), np.float32)
        ones = np.ones((1, 32, 32, 1), np.float32)
        a = mem(image, frames, Tensor(zeros), Tensor(zeros))
        b = mem(image, frames, Tensor(ones), Tensor(zeros))
        assert np.abs(a[0].data - b[0].data).max() > 0


class TestKeyValueProjector:
    def test_nano_stage1_rows(self, rng):
        proj = KeyValueProjector(8, rng)
        enc = ImageEncoder(NANO, rng)
        (maps,) = proj(enc(Tensor(rng.random((32, 32, 3)).astype(np.float32))))
        assert len(maps) == 4
        assert maps[0].key.shape == (1, 64)    # C1/8 = 1, 8x8 grid
        assert maps[0].value.shape == (4, 64)  # C1/2 = 4

    def test_full_scale_stage4_rows(self, rng):
        # C=128 pyramid has C4=1024: key rows 128, value rows 512
        proj = KeyValueProjector(128, rng)
        feats = [Tensor(rng.standard_normal((2, 2, 128 * 2 ** i)).astype(np.float32))
                 for i in range(4)]
        (maps,) = proj(feats)
        assert maps[3].key.shape == (128, 4)
        assert maps[3].value.shape == (512, 4)

    def test_memory_flatten_order_delta_probe(self, rng):
        # delta at (t, x, y) of object 1 must land at column t*H*W + x*W + y
        # of object 1's maps, and nowhere in object 0's
        proj = KeyValueProjector(8, rng)
        t, h, w = 2, 3, 4
        feats = [np.zeros((2, t, h, w, 8 * 2 ** i), dtype=np.float32) for i in range(4)]
        feats[0][1, 1, 2, 3, :] = 1.0
        per_object = proj([Tensor(f) for f in feats])
        assert len(per_object) == 2 and all(len(maps) == 4 for maps in per_object)
        assert not per_object[0][0].key.data.any()
        nonzero = np.nonzero(np.abs(per_object[1][0].key.data).sum(axis=0))[0]
        assert nonzero.tolist() == [1 * h * w + 2 * w + 3]

    @pytest.mark.parametrize("extent", [32, 96])
    def test_query_maps_match_linear_reference(self, rng, extent):
        # dense_read's bytes depend on the layout of its maps: each must be
        # the transposed view of a contiguous [N, n] product, as the
        # Linear-and-transpose form gives; training needs the same gradients
        from oracles import linear_query_kv

        proj = KeyValueProjector(8, rng)
        enc = ImageEncoder(NANO, rng)
        frame = Tensor(rng.random((extent, extent, 3)).astype(np.float32))
        runs = []
        for project in (lambda f: proj(f)[0], lambda f: linear_query_kv(proj, f)):
            with engine.Tape() as tape:
                maps = [m for kv in project(enc(frame)) for m in (kv.key, kv.value)]
                loss = engine.tsum(engine.concat(
                    [engine.reshape(engine.mul(m, m), (-1,)) for m in maps], axis=0))
            engine.backward(loss, tape)
            runs.append((maps, [p.grad.copy() for p in tape.parameters]))
        (got, got_grads), (want, want_grads) = runs
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.data.strides == b.data.strides
            assert a.data.flags.f_contiguous
            assert a.data.tobytes() == b.data.tobytes()
        for a, b in zip(got_grads, want_grads, strict=True):
            assert a.tobytes() == b.tobytes()


def test_full_scale_stage4_extent():
    # C=128 pyramid on a 384x384 frame ends at 12x12x1024
    rng = np.random.default_rng(0)
    enc = ImageEncoder(ModelConfig(variant="B"), rng)
    feats = enc(Tensor(rng.random((384, 384, 3)).astype(np.float32)))
    assert feats[3].shape == (12, 12, 1024)


def test_heads_for_patterns():
    assert heads_for(96) == (3, 6, 12, 24)
    assert heads_for(128) == (4, 8, 16, 32)
    assert heads_for(8) == (1, 2, 4, 8)


def test_variant_rows_satisfy_encoder_invariants():
    # stage widths dim * 2**i split into 8ths for keys (so dim % 8 == 0);
    # blocks alternate plain/shifted in pairs; heads divide every width
    for variant, row in VARIANTS.items():
        dim, depths = row["dim"], row["depths"]
        assert dim % 8 == 0, variant
        assert len(depths) == 4 and all(d == 1 or d % 2 == 0 for d in depths), variant
        assert row["window"] > 0 and row["temporal_window"] > 0, variant
        heads = heads_for(dim)
        assert all(dim * 2 ** i % h == 0 for i, h in enumerate(heads)), variant
