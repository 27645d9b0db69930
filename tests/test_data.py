import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import listed_training_triplet

from swinvos.data import (
    VideoSample,
    load_sequence,
    read_pgm,
    read_ppm,
    sample_training_triplet,
    synth_moving_shapes,
    write_pgm,
    write_sequence,
)
from swinvos.errors import DataError, UsageError


class TestMovingShapes:
    def test_deterministic_per_seed(self):
        a = synth_moving_shapes(7, 4, 64, 2)
        b = synth_moving_shapes(7, 4, 64, 2)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        for ma, mb in zip(a.masks, b.masks):
            np.testing.assert_array_equal(ma, mb)

    def test_single_object_pixel_count_constant(self):
        sample = synth_moving_shapes(3, 8, 64, 1)
        counts = [int((m == 1).sum()) for m in sample.masks]
        assert len(set(counts)) == 1 and counts[0] > 0

    def test_masks_within_range(self):
        sample = synth_moving_shapes(1, 5, 64, 3)
        for m in sample.masks:
            assert m.min() >= 0 and m.max() <= 3

    def test_values_in_unit_range(self):
        sample = synth_moving_shapes(2, 3, 64, 2)
        for f in sample.frames:
            assert f.min() >= 0.0 and f.max() <= 1.0

    def test_oversized_objects_rejected(self):
        with pytest.raises(DataError):
            synth_moving_shapes(0, 2, 64, 3, object_extent=40)

    def test_bad_object_count(self):
        with pytest.raises(UsageError):
            synth_moving_shapes(0, 2, 64, 5)

    def test_crowded_first_layout_is_retried(self):
        # seed 32's first layout leaves the second object no room on 128 px
        from swinvos.data import _object_stamp

        mask = synth_moving_shapes(32, 1, 128, 2).masks[0]
        assert (mask == 1).sum() == 48 * 48
        assert (mask == 2).sum() == _object_stamp("disk", 46).sum()

    @pytest.mark.parametrize("seed, size, n_objects, digest", [
        (0, 128, 2, "71aadd520575b6cfa3eca3dbcf4988dc68466c46c1db450da5b642b9de285985"),
        (5, 64, 3, "cf259c5b6dee8dd2be795bbb75c5201610968a407cf68256c6aa51f03b4f98f5"),
        (7, 96, 1, "afef26f6ad2b293f5930977f9aa57ac59b76e7b4aa2ed858945d3efcadd0f56b"),
    ])
    def test_first_layout_bytes_are_stable(self, seed, size, n_objects, digest):
        import hashlib

        sample = synth_moving_shapes(seed, 4, size, n_objects)
        h = hashlib.sha256()
        for f, m in zip(sample.frames, sample.masks):
            h.update(f.tobytes())
            h.update(m.tobytes())
        assert h.hexdigest() == digest


class TestTripletSampling:
    def test_forced_triple(self):
        rng = np.random.default_rng(0)
        assert sample_training_triplet(3, 1, rng) == (0, 1, 2)

    def test_gaps_respect_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, b, c = sample_training_triplet(12, 4, rng)
            assert 0 <= a < b < c < 12
            assert b - a <= 4 and c - b <= 4

    def test_uniform_over_valid_triples(self):
        # length-6, cap-2: enumerate the valid triples as the oracle
        valid = [(a, b, c) for a in range(6) for b in range(a + 1, 6)
                 for c in range(b + 1, 6) if b - a <= 2 and c - b <= 2]
        rng = np.random.default_rng(2)
        draws = 4000
        counts = {t: 0 for t in valid}
        for _ in range(draws):
            counts[sample_training_triplet(6, 2, rng)] += 1
        expected = draws / len(valid)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # dof = len(valid) - 1 = 12; 99.9th percentile ~= 32.9
        assert chi2 < 32.9

    def test_too_short_video(self):
        with pytest.raises(UsageError):
            sample_training_triplet(2, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 32, 300, 1000])
    @pytest.mark.parametrize("cap", [0, 1, 2, 5, 25, 40])
    def test_draws_equal_the_listed_triples(self, n, cap):
        # the arithmetic draw over the first rows and the listed tail rows
        # pick the same triple as indexing the full list, from the same
        # single rng.integers call
        for seed in range(3):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            for _ in range(20):
                assert sample_training_triplet(n, cap, rng_a) == \
                    listed_training_triplet(n, cap, rng_b)
            assert rng_a.random() == rng_b.random()


@st.composite
def _pnm_blobs(draw):
    """Raw bytes, or a P5/P6-looking header of mixed tokens over a payload."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    token = st.one_of(
        st.integers(-3, 300).map(lambda v: str(v).encode()),
        st.sampled_from([b"255", b"#c\n", b"# x", b"0", b"1", b"2", b"65535"]),
        st.binary(min_size=1, max_size=4))
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b""])
    parts = [draw(st.sampled_from([b"P5", b"P6", b"P3", b"P"]))]
    for _ in range(draw(st.integers(0, 5))):
        parts += [draw(sep), draw(token)]
    return b"".join(parts) + draw(sep) + draw(st.binary(max_size=48))


class TestPnmIO:
    def test_pgm_format_definition(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        labels = read_pgm(path)
        np.testing.assert_array_equal(labels, [[0, 1], [2, 3]])

    def test_pgm_roundtrip_identity(self, rng, tmp_path):
        labels = rng.integers(0, 4, size=(9, 7)).astype(np.int64)
        path = tmp_path / "m.pgm"
        write_pgm(labels, path)
        np.testing.assert_array_equal(read_pgm(path), labels)

    @given(st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_pgm_roundtrip_any_label(self, label):
        import os
        import tempfile
        labels = np.full((3, 2), label, dtype=np.int64)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.pgm")
            write_pgm(labels, path)
            np.testing.assert_array_equal(read_pgm(path), labels)

    def test_ppm_parses_and_short_payload_rejected(self, tmp_path):
        ok = tmp_path / "ok.ppm"
        ok.write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
        frame = read_ppm(ok)
        assert frame.shape == (2, 2, 3)
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(range(11)))
        with pytest.raises(DataError, match="short payload"):
            read_ppm(bad)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n abc")
        with pytest.raises(DataError, match="magic"):
            read_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError, match="maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5 x 4 255\n", b"P5 4 4 2x5\n",
                                        b"P5 -2 4 255\n", b"P5 0 4 255\n",
                                        b"P5 4 0 255\n"])
    def test_malformed_header_is_data_error(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(64))
        with pytest.raises(DataError, match="header field|extent"):
            read_pgm(path)

    def test_overlong_header_field_is_data_error(self, tmp_path):
        # past Python's int() digit limit, which raises a bare ValueError
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5 " + b"9" * 5000 + b" 4 255\n" + bytes(64))
        with pytest.raises(DataError, match="header field"):
            read_pgm(path)

    @given(_pnm_blobs())
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_parse_or_raise_data_error(self, blob):
        import os
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.pnm")
            with open(path, "wb") as fh:
                fh.write(blob)
            for reader in (read_ppm, read_pgm):
                try:
                    out = reader(path)
                except DataError:
                    continue
                assert out.ndim == (3 if reader is read_ppm else 2)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x05\x06")
        np.testing.assert_array_equal(read_pgm(path), [[5, 6]])

    def test_ppm_scaling(self, tmp_path):
        path = tmp_path / "s.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 128]))
        frame = read_ppm(path)
        np.testing.assert_allclose(frame[0, 0], [1.0, 0.0, 128 / 255], atol=1e-6)


class TestSequenceIO:
    def test_write_load_roundtrip(self, tmp_path):
        sample = synth_moving_shapes(5, 3, 64, 2)
        write_sequence(sample, tmp_path / "seq")
        frames, masks, n_objects = load_sequence(tmp_path / "seq", need_all_masks=True)
        assert len(frames) == 3 and n_objects == 2
        for ma, mb in zip(masks, sample.masks):
            np.testing.assert_array_equal(ma, mb)

    def test_missing_first_mask_rejected(self, tmp_path):
        sample = synth_moving_shapes(5, 2, 64, 1)
        write_sequence(sample, tmp_path / "seq")
        (tmp_path / "seq" / "masks" / "00000.pgm").unlink()
        with pytest.raises(DataError):
            load_sequence(tmp_path / "seq")

    def test_inference_layout_frame0_mask_only(self, tmp_path):
        sample = synth_moving_shapes(5, 3, 64, 1)
        write_sequence(sample, tmp_path / "seq")
        (tmp_path / "seq" / "masks" / "00001.pgm").unlink()
        (tmp_path / "seq" / "masks" / "00002.pgm").unlink()
        frames, masks, n_objects = load_sequence(tmp_path / "seq")
        assert masks[0] is not None and masks[1] is None and masks[2] is None


def test_video_sample_validation():
    with pytest.raises(DataError):
        VideoSample([np.zeros((4, 4, 3), np.float32)],
                    [np.full((4, 4), 3, np.int64)], n_objects=1)
