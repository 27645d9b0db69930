import hashlib
import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (encoder_parameter_count, membership_law, parameter_count,
                     trunc_normal_loop, write_f64_checkpoint, write_version_1_checkpoint)

from swinvos import checkpoint as checkpoint_module
from swinvos import engine
from swinvos.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from swinvos.data import synth_moving_shapes
from swinvos.errors import ConfigError, DataError, DimensionError, NumericError, UsageError
from swinvos import model as model_module
from swinvos.model import (
    MemoryBank,
    Model,
    ModelConfig,
    cross_entropy,
    init_model,
    run_sequence,
    segment_frame,
    train_step,
    train_toy,
)

NANO = ModelConfig(variant="nano", k=4)


@pytest.fixture(scope="module")
def nano_model():
    return init_model(NANO, seed=0)


@st.composite
def _config_texts(draw):
    """Canonical text with a few fields dropped or given a valid-looking
    or arbitrary value, lines in any order."""
    cfg = ModelConfig(variant=draw(st.sampled_from(sorted(model_module.VARIANTS))))
    fields = dict(line.split("=", 1) for line in cfg.canonical().splitlines())
    for key in draw(st.sets(st.sampled_from(sorted(fields)), max_size=3)):
        fields[key] = draw(st.one_of(
            st.none(), st.text(max_size=8),
            st.sampled_from(["0", "1", "2", "-1", "8", "96", "1,1,2,1", "2,2,6,2", "nano",
                             "T", "every8", "firstprev", "image_only", "dense_all", " 1"])))
    lines = [f"{key}={value}" for key, value in fields.items() if value is not None]
    return "\n".join(draw(st.permutations(lines))) + "\n"


class TestModelConfig:
    def test_variant_table(self):
        t = ModelConfig(variant="T")
        assert (t.dim, t.depths, t.window) == (96, (2, 2, 6, 2), 7)
        s = ModelConfig(variant="S")
        assert (s.dim, s.depths, s.window) == (96, (2, 2, 18, 2), 7)
        b = ModelConfig(variant="B")
        assert (b.dim, b.depths, b.window) == (128, (2, 2, 18, 2), 12)
        l = ModelConfig(variant="L")
        assert (l.dim, l.depths, l.window) == (192, (2, 2, 18, 2), 12)

    def test_default_k(self):
        assert ModelConfig(variant="B").k == 128

    def test_invalid_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="XL")

    def test_canonical_roundtrip(self):
        cfg = ModelConfig(variant="nano", k=7, memory_policy="firstprev",
                          other_mask_enabled=False, encoder_mode="image_only",
                          read_mode="dense_all")
        back = ModelConfig.from_canonical(cfg.canonical())
        assert back == cfg

    def test_canonical_non_integer_field_is_config_error(self):
        text = ModelConfig(variant="nano").canonical().replace("k=128", "k=abc")
        with pytest.raises(ConfigError, match="non-integer"):
            ModelConfig.from_canonical(text)

    @pytest.mark.parametrize("old, new, message", [
        ("variant=nano", "variant=XL", "unknown variant 'XL'"),
        ("k=128", "k=0", "k must be at least 1, got 0")], ids=["variant", "k"])
    def test_canonical_validation_error_passes_through(self, old, new, message):
        text = ModelConfig(variant="nano").canonical().replace(old, new)
        with pytest.raises(ConfigError, match=message) as info:
            ModelConfig.from_canonical(text)
        assert "non-integer" not in str(info.value)

    @pytest.mark.parametrize("field, value", [
        ("dim", "999"), ("depths", "1,1,1,1"), ("window", "77"),
        ("temporal_window", "8"), ("decoder_width", "31")])
    def test_canonical_variant_field_mismatch_is_config_error(self, field, value):
        lines = ModelConfig(variant="nano").canonical().splitlines()
        text = "\n".join(f"{field}={value}" if line.startswith(f"{field}=") else line
                         for line in lines) + "\n"
        with pytest.raises(ConfigError, match=field):
            ModelConfig.from_canonical(text)

    def test_canonical_missing_variant_field_is_config_error(self):
        text = ModelConfig(variant="T").canonical().replace("window=7\n", "")
        with pytest.raises(ConfigError, match="missing"):
            ModelConfig.from_canonical(text)

    @pytest.mark.parametrize("line, problem", [
        ("bogus=1", "unknown field"), ("garbage line", "no '='"),
        ("k=7", "repeated field")], ids=["unknown", "no-equals", "repeated"])
    def test_canonical_malformed_line_is_config_error(self, line, problem):
        text = ModelConfig(variant="nano").canonical() + line + "\n"
        with pytest.raises(ConfigError, match=f"line '{line}' has .*{problem}"):
            ModelConfig.from_canonical(text)

    @pytest.mark.parametrize("value", ["7", "-1", "2"])
    def test_canonical_other_mask_not_0_or_1_is_config_error(self, value):
        text = ModelConfig(variant="nano").canonical().replace(
            "other_mask_enabled=1", f"other_mask_enabled={value}")
        with pytest.raises(ConfigError, match="other_mask_enabled"):
            ModelConfig.from_canonical(text)

    @pytest.mark.parametrize("variant", ["nano", "T", "S", "B", "L"])
    def test_canonical_text_frozen(self, variant):
        # the canonical text is every checkpoint's config block; the frozen
        # texts are what earlier checkpoints were written with
        with open(os.path.join(os.path.dirname(__file__), "canonical_configs.json")) as fh:
            frozen = json.load(fh)[variant]
        changed = dict(k=7, memory_policy="firstprev",
                       other_mask_enabled=False, encoder_mode="image_only",
                       read_mode="dense_all")
        for key, cfg in (("default", ModelConfig(variant=variant)),
                         ("changed", ModelConfig(variant=variant, **changed))):
            assert cfg.canonical() == frozen[key]
            assert ModelConfig.from_canonical(frozen[key]) == cfg

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _config_texts()))
    def test_canonical_text_parses_or_raises_config_error(self, text):
        try:
            cfg = ModelConfig.from_canonical(text)
        except ConfigError:
            return
        assert ModelConfig.from_canonical(cfg.canonical()) == cfg


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = init_model(NANO, seed=5)
        b = init_model(NANO, seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = init_model(NANO, seed=1)
        b = init_model(NANO, seed=2)
        assert any(np.abs(pa.value - pb.value).max() > 0
                   for (_, pa), (_, pb) in zip(a.named_parameters(),
                                               b.named_parameters())
                   if pa.value.size and pa.value.std() > 0)

    @pytest.mark.parametrize("variant", ["nano", "T"])
    def test_parameter_names_frozen(self, variant):
        # checkpoints store parameters by dotted name and extents; the
        # frozen list is what every earlier checkpoint was written with
        with open(os.path.join(os.path.dirname(__file__), "parameter_names.json")) as fh:
            frozen = json.load(fh)[variant]
        model = init_model(ModelConfig(variant=variant), seed=0)
        assert [[name, list(p.shape)] for name, p in model.named_parameters()] == frozen
        # every parameter is built in the one parameter dtype
        assert {p.value.dtype for p in model.parameters()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("variant", ["nano", "T"])
    def test_parameters_match_loop_reference_draws(self, variant, monkeypatch):
        # the weight-draw stream is part of the same-seed-same-bytes contract;
        # digests keep one T model in memory at a time
        def digests():
            model = init_model(ModelConfig(variant=variant), seed=7)
            return [(name, p.value.dtype, p.shape, hashlib.sha256(p.value.tobytes()).digest())
                    for name, p in model.named_parameters()]

        chunked = digests()
        monkeypatch.setattr(engine, "trunc_normal", trunc_normal_loop)
        assert chunked == digests()

    def test_nano_parameter_count_under_1e6(self, nano_model):
        assert parameter_count(nano_model) < 1_000_000

    def test_base_variant_encoder_budget(self):
        # the two B-scale encoders together carry 193.6M parameters; our
        # randomly initialized build must land within 10% of that budget
        model = init_model(ModelConfig(variant="B"), seed=0)
        count = encoder_parameter_count(model)
        assert abs(count - 193.6e6) / 193.6e6 < 0.10, f"{count / 1e6:.1f}M"
        del model


def _corner_mask():
    mask = np.zeros((8, 8), np.int64)
    mask[0, 0] = 1
    return mask


class TestMemoryBank:
    def test_policy_at_start(self):
        mask = np.zeros((8, 8), np.int64)
        mask[2:4, 2:4] = 1
        bank = MemoryBank("every8", np.zeros((8, 8, 3), np.float32), mask, 1)
        assert bank.frame_indices() == [0]
        assert bank.cache == {}

    @pytest.mark.parametrize("n_objects", [1, 2, 3])
    def test_seed_maps_are_one_hot_labels(self, n_objects):
        # labels above n_objects get no map; a label missing from the mask
        # gets an all-zero one
        mask = np.random.default_rng(n_objects).integers(0, 4, (8, 8))
        mask[mask == 2] = 0
        bank = MemoryBank("every8", np.zeros((8, 8, 3), np.float32), mask, n_objects)
        (_, _, probs), = bank.entries()
        assert isinstance(probs, engine.Tensor) and probs.dtype == np.float32
        expected = np.stack([(mask == m + 1).astype(np.float32) for m in range(n_objects)])
        assert probs.data.tobytes() == expected.tobytes()

    def test_policy_simulation_frame_20(self):
        bank = MemoryBank("every8", np.zeros((8, 8, 3), np.float32), _corner_mask(), 1)
        probs = engine.Tensor(np.zeros((1, 8, 8), np.float32))
        for t in range(1, 20):
            bank.admit(t, np.zeros((8, 8, 3), np.float32), probs)
        assert bank.frame_indices() == [0, 8, 16, 19]

    def test_firstprev_policy(self):
        bank = MemoryBank("firstprev", np.zeros((8, 8, 3), np.float32), _corner_mask(), 1)
        probs = engine.Tensor(np.zeros((1, 8, 8), np.float32))
        for t in range(1, 30):
            bank.admit(t, np.zeros((8, 8, 3), np.float32), probs)
        assert bank.frame_indices() == [0, 29]

    def test_membership_law_exhaustive_to_100(self):
        for policy in ("every8", "firstprev"):
            bank = MemoryBank(policy, np.zeros((8, 8, 3), np.float32), _corner_mask(), 1)
            probs = engine.Tensor(np.zeros((1, 8, 8), np.float32))
            for t in range(1, 101):
                assert bank.frame_indices() == membership_law(t, policy), f"t={t}"
                bank.admit(t, np.zeros((8, 8, 3), np.float32), probs)

    def test_first_mask_must_label_an_object(self):
        with pytest.raises(UsageError, match="at least one object"):
            MemoryBank("every8", np.zeros((8, 8, 3), np.float32), np.zeros((8, 8), np.int64), 0)

    def test_unknown_policy_is_config_error(self):
        with pytest.raises(ConfigError):
            MemoryBank("every9", np.zeros((8, 8, 3), np.float32), _corner_mask(), 1)

    @pytest.mark.parametrize("policy", ["every8", "firstprev"])
    @pytest.mark.parametrize("index", [0, -1])
    def test_admit_below_one_refused_and_frame_zero_kept(self, policy, index):
        mask = np.zeros((8, 8), np.int64)
        mask[2:4, 2:4] = 1
        first = np.zeros((8, 8, 3), np.float32)
        bank = MemoryBank(policy, first, mask, 1)
        ones = engine.Tensor(np.ones((1, 8, 8), np.float32))
        bank.admit(1, np.ones((8, 8, 3), np.float32), ones)
        with pytest.raises(UsageError, match="frame 0 is the given mask"):
            bank.admit(index, np.ones((8, 8, 3), np.float32), ones)
        assert bank.frame_indices() == [0, 1]
        _, frame, probs = bank.entries()[0]
        np.testing.assert_array_equal(frame, first)
        np.testing.assert_array_equal(probs.data, (mask == 1)[None].astype(np.float32))

    @pytest.mark.parametrize("policy, kept", [("every8", {0, 8}), ("firstprev", {0})])
    def test_admit_drops_the_maps_of_a_readmitted_index(self, policy, kept):
        bank = MemoryBank(policy, np.zeros((8, 8, 3), np.float32), np.ones((8, 8), np.int64), 1)
        for t in range(1, 10):
            bank.admit(t, np.zeros((8, 8, 3), np.float32),
                       engine.Tensor(np.zeros((1, 8, 8), np.float32)))
        bank.cache = {i: f"maps of {i}" for i in bank.frame_indices()}
        bank.admit(9, np.ones((8, 8, 3), np.float32),
                   engine.Tensor(np.ones((1, 8, 8), np.float32)))
        assert set(bank.cache) == kept and bank.frame_indices() == sorted(kept | {9})
        assert bank.entries()[-1][2].data.max() == 1.0  # the new masks replaced the old


class TestSegmentFrame:
    @pytest.mark.parametrize("policy", ["every8", "firstprev"])
    def test_frame_zero_refused_before_any_work(self, nano_model, monkeypatch, policy):
        sample = synth_moving_shapes(0, 2, 64, 1)
        bank = MemoryBank(policy, sample.frames[0], sample.masks[0], 1)
        before = bank.entries()

        def no_forward(*args):
            raise AssertionError("a refused frame ran the forward pass")

        monkeypatch.setattr(model_module, "_forward", no_forward)
        with pytest.raises(UsageError, match="frame 0 is the given mask"):
            segment_frame(nano_model, bank, sample.frames[1], 0)
        after = bank.entries()
        assert [i for i, _, _ in after] == [0] and bank.cache == {}
        assert after[0][1] is before[0][1] and after[0][2] is before[0][2]

    def test_returns_label_map_and_updates_bank(self, nano_model):
        sample = synth_moving_shapes(0, 3, 64, 1)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 1)
        labels, probs = segment_frame(nano_model, bank, sample.frames[1], 1)
        assert labels.shape == (64, 64)
        assert probs.shape == (1, 64, 64)
        assert set(np.unique(labels)) <= {0, 1}
        assert bank.frame_indices() == [0, 1]
        admitted = bank.entries()[1][2]
        assert isinstance(admitted, engine.Tensor) and admitted.data.tobytes() == probs.tobytes()

    def test_multi_object_labels(self, nano_model):
        sample = synth_moving_shapes(1, 2, 64, 2)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 2)
        labels, probs = segment_frame(nano_model, bank, sample.frames[1], 1)
        assert probs.shape[0] == 2
        assert labels.max() <= 2


def _refuse_unit_inner_extent(monkeypatch):
    """Make ``np.matmul`` fail on a product with inner extent 1, the K=1
    GEMM that BLAS runs several times slower per output than K=2."""
    real = np.matmul

    def guarded(a, b, *args, **kwargs):
        if np.shape(a)[-1] == 1:
            raise AssertionError(f"K=1 matmul {np.shape(a)} @ {np.shape(b)}")
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", guarded)


class TestUnitInnerExtent:
    """Nano stage-1 keys are one channel wide (C/8 with C = 8); no product
    on them may reach BLAS as a K=1 GEMM."""

    @pytest.mark.parametrize("read_mode", ["hierarchical_topk", "dense_all", "last_stage_only"])
    def test_segment_frame(self, monkeypatch, read_mode):
        model = init_model(ModelConfig(variant="nano", read_mode=read_mode), seed=0)
        sample = synth_moving_shapes(0, 3, 64, 2)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 2)
        _refuse_unit_inner_extent(monkeypatch)
        for t in (1, 2):
            segment_frame(model, bank, sample.frames[t], t)

    def test_train_step(self, monkeypatch):
        model = init_model(ModelConfig(variant="nano"), seed=0)
        sample = synth_moving_shapes(0, 3, 64, 1)
        _refuse_unit_inner_extent(monkeypatch)
        train_step(model, sample.frames, sample.masks, lr=1e-3)


class TestRunSequence:
    def test_single_frame_returns_given_mask(self, nano_model):
        sample = synth_moving_shapes(2, 1, 64, 1)
        labels, timings = run_sequence(nano_model, sample.frames, sample.masks[0])
        assert len(labels) == 1
        np.testing.assert_array_equal(labels[0], sample.masks[0])
        assert timings == [0.0]

    def test_per_frame_timings_reported(self, nano_model):
        sample = synth_moving_shapes(2, 3, 64, 1)
        labels, timings = run_sequence(nano_model, sample.frames, sample.masks[0])
        assert len(labels) == 3 and len(timings) == 3
        assert all(t > 0 for t in timings[1:])

    def test_extent_mismatch_rejected(self, nano_model):
        frames = [np.zeros((64, 64, 3), np.float32)]
        with pytest.raises(DimensionError):
            run_sequence(nano_model, frames, np.ones((32, 32), np.int64))

    def test_indivisible_extents_full_pipeline(self, nano_model):
        # frame (H, W) in, label map (H, W) out, even off the /32 grid
        rng = np.random.default_rng(8)
        frames = [rng.random((40, 72, 3)).astype(np.float32) for _ in range(2)]
        mask = np.zeros((40, 72), np.int64)
        mask[10:22, 20:40] = 1
        labels, _ = run_sequence(nano_model, frames, mask)
        assert labels[1].shape == (40, 72)

    def test_multi_object_shares_query_encoding(self, nano_model, monkeypatch):
        from swinvos.encoders import ImageEncoder

        sample = synth_moving_shapes(1, 2, 64, 2)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 2)
        calls = {"n": 0}
        original = ImageEncoder.__call__

        def counting(self, frame):
            calls["n"] += 1
            return original(self, frame)

        monkeypatch.setattr(ImageEncoder, "__call__", counting)
        segment_frame(nano_model, bank, sample.frames[1], 1)
        assert calls["n"] == 1  # one query encode serves both objects


def _trained_nano(n_objects, size, **overrides):
    model = init_model(ModelConfig(variant="nano", k=8, **overrides), seed=1)
    train_toy(model, synth_moving_shapes(3, 8, size, n_objects, 24), 3, 2e-3, seed=0)
    return model


def _count_memory_frames(monkeypatch):
    """Patch ``Model.encode_memory`` to record each call's frame count."""
    encoded = []
    original = Model.encode_memory

    def counting(self, frames, targets, others):
        encoded.append(frames.shape[0])
        return original(self, frames, targets, others)

    monkeypatch.setattr(Model, "encode_memory", counting)
    return encoded


class TestMemoryCache:
    """Per-frame memory encoders encode each retained frame once."""

    @pytest.mark.parametrize("n_objects, size, overrides", [
        (1, 64, {}),
        (2, 96, {}),
        (2, 64, {"encoder_mode": "image_only"}),
        (3, 64, {}),
    ])
    def test_matches_joint_reencode_bytewise(self, monkeypatch, n_objects, size,
                                             overrides):
        from oracles import joint_reencode_segment

        model = _trained_nano(n_objects, size, **overrides)
        assert model.per_frame_memory
        sample = synth_moving_shapes(3, 20, size, n_objects, 24)
        seen = []
        original = model_module.segment_frame

        def recording(model, bank, frame, index):
            out = original(model, bank, frame, index)
            seen.append(out[1].copy())
            return out

        monkeypatch.setattr(model_module, "segment_frame", recording)
        labels, _ = run_sequence(model, sample.frames, sample.masks[0])
        ref_labels, ref_probs = joint_reencode_segment(model, sample.frames,
                                                       sample.masks[0])
        assert len(seen) == len(ref_probs) == 19
        for t, (a, b) in enumerate(zip(labels, ref_labels)):
            np.testing.assert_array_equal(a, b, err_msg=f"labels, frame {t}")
        for t, (a, b) in enumerate(zip(seen, ref_probs)):
            np.testing.assert_array_equal(a, b, err_msg=f"probs, frame {t + 1}")

    def test_each_frame_encodes_one_memory_frame_per_object(self, monkeypatch):
        model = init_model(ModelConfig(variant="nano", k=4), seed=0)
        sample = synth_moving_shapes(1, 18, 64, 2)
        encoded = _count_memory_frames(monkeypatch)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 2)
        for t in range(1, 18):
            encoded.clear()
            segment_frame(model, bank, sample.frames[t], t)
            # one encoder call encodes the new frame for both objects
            assert encoded == [1], f"frame {t}: {encoded}"

    def test_cache_tracks_membership(self, monkeypatch):
        model = init_model(ModelConfig(variant="nano", k=4), seed=0)
        encoded = _count_memory_frames(monkeypatch)
        frame = np.zeros((8, 8, 3), np.float32)
        for policy in ("every8", "firstprev"):
            bank = MemoryBank(policy, frame, _corner_mask(), 1)
            probs = engine.Tensor(np.zeros((1, 8, 8), np.float32))
            for t in range(1, 101):
                before = len(encoded)
                model_module._forward(model, frame, bank)
                # the second pass is served from the cache
                model_module._forward(model, frame, bank)
                assert len(encoded) - before == 1, f"t={t}"
                assert sorted(bank.cache) == bank.frame_indices()
                bank.admit(t, frame, probs)
                assert sorted(bank.cache) == [i for i in bank.frame_indices()
                                              if i != t], f"t={t}"

    def test_segment_frame_cache_bounded_by_membership(self):
        model = init_model(ModelConfig(variant="nano", k=4), seed=0)
        sample = synth_moving_shapes(2, 18, 64, 1)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 1)
        for t in range(1, 18):
            segment_frame(model, bank, sample.frames[t], t)
            members = membership_law(t + 1)
            assert bank.frame_indices() == members
            # frame t is encoded when the next frame first reads it
            assert sorted(bank.cache) == [i for i in members if i != t]

    @pytest.mark.parametrize("variant, n_objects, expected", [
        ("nano", 1, [1, 1]),
        ("nano", 2, [1, 1]),
        ("T", 1, [1, 2]),
    ])
    def test_train_step_encodes_each_memory_frame_once(self, monkeypatch, variant,
                                                       n_objects, expected):
        # per-frame encoders cache frame 0's maps across both steps; the
        # 3D-window encoder re-encodes the memory jointly at step 2; one
        # call serves every object
        model = init_model(ModelConfig(variant=variant, k=4), seed=0)
        sample = synth_moving_shapes(1, 3, 32, n_objects, 8)
        encoded = _count_memory_frames(monkeypatch)
        train_step(model, sample.frames, sample.masks, lr=1e-4)
        assert encoded == expected

    @pytest.mark.parametrize("overrides", [{}, {"encoder_mode": "image_only"}])
    def test_training_step_one_matches_segment_frame(self, monkeypatch, overrides):
        model = init_model(ModelConfig(variant="nano", k=4, **overrides), seed=0)
        sample = synth_moving_shapes(1, 3, 64, 2)
        dists = []
        original = model_module.soft_aggregate

        def recording(per_object):
            dists.append(original(per_object).data.copy())
            return original(per_object)

        monkeypatch.setattr(model_module, "soft_aggregate", recording)
        bank = MemoryBank("every8", sample.frames[0], sample.masks[0], 2)
        segment_frame(model, bank, sample.frames[1], 1)
        train_step(model, sample.frames, sample.masks, lr=1e-4)
        assert len(dists) == 3
        assert dists[1].tobytes() == dists[0].tobytes()

    def test_per_frame_decision_follows_config(self):
        from types import SimpleNamespace

        def per_frame(**kw):
            return Model.per_frame_memory.fget(SimpleNamespace(config=ModelConfig(**kw)))

        assert per_frame(variant="nano")
        assert per_frame(variant="T", encoder_mode="image_only")
        assert not per_frame(variant="T")


class TestObjectBatch:
    """One memory-encoder pass serves every object."""

    @pytest.mark.parametrize("n_objects, extent", [(2, 32), (3, 16)])
    def test_joint_encoder_matches_per_object_encodes_bytewise(self, monkeypatch,
                                                                 n_objects, extent):
        from oracles import joint_reencode_segment

        model = init_model(ModelConfig(variant="T"), seed=7)
        assert not model.per_frame_memory
        sample = synth_moving_shapes(3, 11, 64, n_objects, extent)
        encoded = _count_memory_frames(monkeypatch)
        seen = []
        original = model_module.segment_frame

        def recording(model, bank, frame, index):
            out = original(model, bank, frame, index)
            seen.append(out[1].copy())
            return out

        monkeypatch.setattr(model_module, "segment_frame", recording)
        labels, _ = run_sequence(model, sample.frames, sample.masks[0])
        # one joint call per frame, over the whole bank, for all objects
        assert encoded == [len(membership_law(t)) for t in range(1, 11)]
        ref_labels, ref_probs = joint_reencode_segment(model, sample.frames,
                                                       sample.masks[0])
        assert len(seen) == len(ref_probs) == 10
        for t, (a, b) in enumerate(zip(labels, ref_labels)):
            np.testing.assert_array_equal(a, b, err_msg=f"labels, frame {t}")
        for t, (a, b) in enumerate(zip(seen, ref_probs)):
            assert a.tobytes() == b.tobytes(), f"probs, frame {t + 1}"

    @pytest.mark.parametrize("n_objects", [2, 3, 4])
    def test_other_masks_chain_in_object_order(self, n_objects):
        from oracles import chained_mask_pairs

        rng = np.random.default_rng(4)
        # values in {0, 1/2, 1}, so objects tie often; integer probes keep
        # every gradient sum exact, so only the routing at ties can differ
        probs = rng.integers(0, 3, (2, n_objects, 3, 4)) / 2.0
        probe = rng.integers(-3, 4, (2, n_objects, 2, 3, 4, 1)).astype(np.float64)
        results = []
        for build in (model_module._mask_pairs, chained_mask_pairs):
            p = engine.Parameter(probs.copy())
            with engine.Tape() as tape:
                target, other = build(p.tensor(), True)
                loss = engine.add(engine.tsum(engine.mul(target, engine.Tensor(probe[0]))),
                                  engine.tsum(engine.mul(other, engine.Tensor(probe[1]))))
            engine.backward(loss, tape)
            results.append((target.data, other.data, p.grad))
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)


class TestTraining:
    def test_cross_entropy_perfect_prediction_near_zero(self):
        dist = np.full((2, 4, 4), 1e-7, dtype=np.float64)
        labels = np.ones((4, 4), dtype=np.int64)
        dist[1] = 1.0 - 1e-7
        dist[0] = 1e-7
        loss = cross_entropy(engine.Tensor(dist), labels)
        assert float(loss.data) < 1e-5

    def test_loss_decreases_over_steps(self):
        model = init_model(ModelConfig(variant="nano", k=4), seed=3)
        sample = synth_moving_shapes(4, 3, 64, 1)
        frames, masks = sample.frames, sample.masks
        first = train_step(model, frames, masks, lr=1e-3)
        for _ in range(14):
            last = train_step(model, frames, masks, lr=1e-3)
        assert last < first

    def test_gradients_reach_every_parameter(self):
        model = init_model(ModelConfig(variant="nano", k=4), seed=4)
        sample = synth_moving_shapes(5, 3, 64, 2)
        train_step(model, sample.frames, sample.masks, lr=1e-4)
        dead = [name for name, p in model.named_parameters()
                if p.grad is None or np.abs(p.grad).max() == 0]
        assert not dead, f"no gradient reached: {dead}"

    def test_train_toy_zero_steps_untouched(self, nano_model):
        before = {n: p.value.copy() for n, p in nano_model.named_parameters()}
        curve = train_toy(nano_model, synth_moving_shapes(0, 4, 64, 1), 0, lr=1e-3, seed=0)
        assert curve == []
        for n, p in nano_model.named_parameters():
            np.testing.assert_array_equal(p.value, before[n])

    def test_train_toy_refuses_a_sample_without_objects(self, nano_model):
        from swinvos.data import VideoSample

        sample = synth_moving_shapes(0, 4, 64, 1)
        blank = VideoSample(sample.frames, [m * 0 for m in sample.masks], 1)
        before = {n: p.value.copy() for n, p in nano_model.named_parameters()}
        with pytest.raises(UsageError, match="labels an object"):
            train_toy(nano_model, blank, 2, lr=1e-3, seed=0)
        for n, p in nano_model.named_parameters():
            assert p.value.tobytes() == before[n].tobytes(), n

    @pytest.mark.parametrize("labelled", [{3}, {0, 1, 2, 3, 4, 5}])
    def test_train_toy_redraws_triplets_without_objects(self, monkeypatch, labelled):
        # every step gets a triplet with an object; with every frame
        # labelled, the triplets are the sampler's own draws
        from swinvos.data import VideoSample, sample_training_triplet

        sample = synth_moving_shapes(2, 6, 32, 1)
        masks = [m if i in labelled else m * 0 for i, m in enumerate(sample.masks)]
        seen = []

        def recording(model, frames, masks, lr):
            seen.append(tuple(next(i for i, f in enumerate(sample.frames) if f is frame)
                              for frame in frames))
            return 0.0

        monkeypatch.setattr(model_module, "train_step", recording)
        train_toy(None, VideoSample(sample.frames, masks, 1), 40, lr=1e-3, seed=3)
        assert len(seen) == 40 and all(labelled & set(t) for t in seen)
        if len(labelled) == 6:
            rng = np.random.default_rng(3)
            caps = [max(1, round(5 * s / 39)) for s in range(40)]
            assert seen == [sample_training_triplet(6, cap, rng) for cap in caps]

    def test_curriculum_changes_sampled_triplets(self):
        # reproduce the sampler's draws under both schedules, same seed
        from swinvos.data import sample_training_triplet
        n, steps, cap = 10, 6, 25
        final_cap = max(1, min(cap, n - 1))
        rng_a = np.random.default_rng(7)
        with_curriculum = [
            sample_training_triplet(
                n, max(1, round(final_cap * s / (steps - 1))), rng_a)
            for s in range(steps)]
        rng_b = np.random.default_rng(7)
        without = [sample_training_triplet(n, final_cap, rng_b)
                   for _ in range(steps)]
        assert with_curriculum != without

    def test_last_stage_only_trains_without_touching_skips(self):
        # the finer-stage reads are skipped, so the decoder skip weights never
        # enter the tape; Adam must update only what the tape touched
        model = init_model(ModelConfig(variant="nano", k=4,
                                       read_mode="last_stage_only"), seed=5)
        skips = {n: p.value.copy() for n, p in model.named_parameters()
                 if n.startswith("decoder.refine.") and ".skip." in n}
        assert skips
        curve = train_toy(model, synth_moving_shapes(8, 4, 64, 1), 2, lr=1e-3, seed=0)
        assert len(curve) == 2 and np.all(np.isfinite(curve))
        params = dict(model.named_parameters())
        for name, value in skips.items():
            assert params[name].value.tobytes() == value.tobytes(), name

    def test_missing_gradient_names_the_parameter(self):
        model = init_model(NANO, seed=0)
        assert all(p.name == name for name, p in model.named_parameters())
        param = dict(model.named_parameters())["decoder.refine.0.skip.weight"]
        with pytest.raises(UsageError, match=r"decoder\.refine\.0\.skip\.weight"):
            engine.adam_step([param], lr=1e-3)

    def test_stalled_step_is_a_numeric_error(self):
        # a head biased to +-60 saturates every object probability beyond
        # the soft-aggregation clamp, so no touched parameter gets a gradient
        model = init_model(NANO, seed=0)
        params = dict(model.named_parameters())
        params["decoder.head.bias"].value[:] = (-60, 60)
        before = {n: p.value.copy() for n, p in params.items()}
        sample = synth_moving_shapes(1, 3, 64, 2)
        with pytest.raises(NumericError, match="soft aggregation clamps"):
            train_step(model, sample.frames, sample.masks, lr=1e-3)
        for name, p in params.items():
            assert p.value.tobytes() == before[name].tobytes(), name

    def test_mixed_frame_extents_name_the_sizes(self, nano_model):
        small, large = synth_moving_shapes(0, 3, 64, 1), synth_moving_shapes(0, 3, 96, 1)
        frames = [small.frames[0], large.frames[1], small.frames[2]]
        masks = [small.masks[0], large.masks[1], small.masks[2]]
        with pytest.raises(DimensionError,
                           match=r"frame extents \(96, 96\) differ from memory \(64, 64\)"):
            train_step(nano_model, frames, masks, lr=1e-3)

    def test_wrong_triplet_size(self, nano_model):
        with pytest.raises(UsageError):
            train_step(nano_model, [np.zeros((64, 64, 3))] * 2,
                       [np.zeros((64, 64), np.int64)] * 2, lr=1e-3)


def _stamped(body):
    """A checkpoint file image around ``body`` with a valid CRC."""
    return b"HSTC" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _checkpoint_body(config_text, records, version=checkpoint_module.VERSION):
    """records: (name bytes, extents, dtype tag, payload bytes)."""
    body = struct.pack("<II", version, len(config_text)) + config_text
    for name, extents, tag, payload in records:
        body += struct.pack("<I", len(name)) + name + struct.pack("<I", len(extents))
        body += b"".join(struct.pack("<Q", e) for e in extents)
        body += bytes([tag]) + payload
    return body


@st.composite
def _checkpoint_bodies(draw):
    """Checkpoint bodies: mostly well-formed records with fuzzed fields,
    sometimes cut, extended or given a lying config length; or raw bytes."""
    def rarely():
        return draw(st.integers(0, 3)) == 3

    if rarely():
        return draw(st.binary(max_size=96))
    config = NANO.canonical().encode()
    if rarely():
        config = draw(st.sampled_from([b"variant=nano\n\xff\xfe\n", b""]))
    extent = st.one_of(st.integers(0, 3), st.sampled_from([2**62, 2**63 + 5, 2**64 - 1]))
    records = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.one_of(st.just(b"w"), st.binary(max_size=6)))
        extents = draw(st.lists(extent, max_size=3))
        tag = draw(st.sampled_from([0, 1, 2, 255]))
        count = int(np.prod(extents)) if all(e < 4 for e in extents) else 0
        payload = draw(st.one_of(st.just(bytes(count * 8 if tag == 1 else count * 4)),
                                 st.binary(max_size=16)))
        records.append((name, extents, tag, payload))
    version = checkpoint_module.VERSION
    body = _checkpoint_body(config, records, version + 1 if rarely() else version)
    if rarely():
        body = body[:draw(st.integers(0, len(body)))]
    if rarely():
        body += draw(st.binary(max_size=12))
    if rarely() and len(body) >= 8:  # a config length that lies
        body = body[:4] + struct.pack("<I", draw(st.integers(0, 2**32 - 1))) + body[8:]
    return body


class TestCheckpoint:
    def test_save_load_bitwise_and_identical_forward(self, tmp_path, nano_model):
        path = tmp_path / "m.hst"
        save_checkpoint(nano_model, path)
        loaded = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(nano_model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb and pb.value.dtype == np.float32
            np.testing.assert_array_equal(pa.value, pb.value)
        sample = synth_moving_shapes(3, 2, 64, 1)
        out_a, _ = run_sequence(nano_model, sample.frames, sample.masks[0])
        out_b, _ = run_sequence(loaded, sample.frames, sample.masks[0])
        np.testing.assert_array_equal(out_a[1], out_b[1])

    def test_load_adopts_saved_values_without_weight_draws(self, tmp_path, monkeypatch):
        model = init_model(ModelConfig(variant="nano"), seed=3)
        path = tmp_path / "m.hst"
        save_checkpoint(model, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("a checkpoint load drew initial weights")

        monkeypatch.setattr(engine, "trunc_normal", no_draws)
        loaded = load_checkpoint(path)
        _, saved = read_checkpoint(path)
        for (name, p), (_, q) in zip(model.named_parameters(), loaded.named_parameters()):
            assert q.value.tobytes() == p.value.tobytes() == saved[name].tobytes()
            assert q.value.dtype == p.value.dtype and q.value.flags.writeable

    def test_checkpoint_matches_loop_reference_draws(self, tmp_path, monkeypatch):
        chunked, reference = tmp_path / "a.hst", tmp_path / "b.hst"
        save_checkpoint(init_model(NANO, seed=3), chunked)
        monkeypatch.setattr(engine, "trunc_normal", trunc_normal_loop)
        save_checkpoint(init_model(NANO, seed=3), reference)
        assert chunked.read_bytes() == reference.read_bytes()

    def test_save_refuses_a_float64_parameter(self, tmp_path):
        model = init_model(NANO, seed=4).astype(np.float64)
        with pytest.raises(UsageError, match="float32"):
            save_checkpoint(model, tmp_path / "m.hst")
        assert os.listdir(tmp_path) == []

    def test_f64_records_are_data_error(self, tmp_path):
        # records are float32 only; tag 1 is refused like any unknown tag
        path = tmp_path / "m.hst"
        write_f64_checkpoint(init_model(NANO, seed=4), path)
        with pytest.raises(DataError, match="unknown dtype tag 1 "):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.pop("decoder.head.bias"), "parameter set mismatch"),
        (lambda params: params.update(extra=np.zeros(2, np.float32)), "parameter set mismatch"),
        (lambda params: params.update({"decoder.head.bias": np.zeros(3, np.float32)}),
         "shape mismatch"),
    ], ids=["missing", "extra", "shape"])
    def test_load_rejects_parameter_set_and_shape_mismatch(self, tmp_path, monkeypatch,
                                                           nano_model, edit, message):
        path = tmp_path / "m.hst"
        save_checkpoint(nano_model, path)
        config, params = read_checkpoint(path)
        edit(params)
        monkeypatch.setattr(checkpoint_module, "read_checkpoint", lambda _: (config, params))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_save_load_save_byte_identical(self, tmp_path, nano_model):
        p1, p2 = tmp_path / "a.hst", tmp_path / "b.hst"
        save_checkpoint(nano_model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path, nano_model):
        path = tmp_path / "m.hst"
        save_checkpoint(nano_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataError, match="checksum|truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.hst"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            read_checkpoint(path)

    def test_version_bump_rejected(self, tmp_path, nano_model):
        import struct, zlib
        path = tmp_path / "m.hst"
        save_checkpoint(nano_model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", checkpoint_module.VERSION + 1)
        body = bytes(blob[4:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            read_checkpoint(path)

    def test_version_1_file_is_data_error(self, tmp_path, nano_model):
        path = tmp_path / "m.hst"
        write_version_1_checkpoint(nano_model, path)
        with pytest.raises(DataError, match="unsupported format version 1,"):
            load_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path, nano_model):
        path = tmp_path / "m.hst"
        save_checkpoint(nano_model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            read_checkpoint(path)

    @pytest.mark.parametrize("config, name, extents", [
        (b"variant=nano\n\xff\n", b"w", [1]),
        (NANO.canonical().encode(), b"\xc3\x28", [1]),
        (NANO.canonical().encode(), b"w", [2**62, 2**62]),
        (NANO.canonical().encode(), b"w", [0, 2**63 + 5]),
        (NANO.canonical().encode(), b"w", [1] * 70),
    ], ids=["config-not-utf8", "name-not-utf8", "extent-product-overflows",
            "extent-past-intp", "rank-past-numpy"])
    def test_malformed_body_with_valid_crc_is_data_error(self, tmp_path, config,
                                                         name, extents):
        path = tmp_path / "m.hst"
        payload = bytes(4 * int(np.prod(extents))) if max(extents) < 2 else b""
        path.write_bytes(_stamped(_checkpoint_body(config, [(name, extents, 0, payload)])))
        with pytest.raises(DataError):
            read_checkpoint(path)

    @given(_checkpoint_bodies())
    @settings(max_examples=300, deadline=None)
    def test_any_body_parses_or_raises_taxonomy_error(self, body):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.hst")
            with open(path, "wb") as fh:
                fh.write(_stamped(body))
            try:
                config, params = read_checkpoint(path)
            except (DataError, ConfigError):
                return
        assert isinstance(config, ModelConfig)
        assert all(isinstance(v, np.ndarray) for v in params.values())


class TestAblationModes:
    def test_image_only_model_runs(self):
        cfg = ModelConfig(variant="nano", k=4, encoder_mode="image_only")
        model = init_model(cfg, seed=6)
        sample = synth_moving_shapes(6, 2, 64, 1)
        labels, _ = run_sequence(model, sample.frames, sample.masks[0])
        assert labels[1].shape == (64, 64)

    def test_last_stage_only_model_runs(self):
        cfg = ModelConfig(variant="nano", k=4, read_mode="last_stage_only")
        model = init_model(cfg, seed=6)
        sample = synth_moving_shapes(6, 2, 64, 1)
        labels, _ = run_sequence(model, sample.frames, sample.masks[0])
        assert labels[1].shape == (64, 64)

    def test_no_other_mask_model_trains(self):
        cfg = ModelConfig(variant="nano", k=4, other_mask_enabled=False)
        model = init_model(cfg, seed=6)
        sample = synth_moving_shapes(7, 3, 64, 2)
        loss = train_step(model, sample.frames, sample.masks, lr=1e-4)
        assert np.isfinite(loss)


def test_digest_tool_runs_one_configuration(capsys):
    # the tool that compares the outputs of two trees, on its smallest nano item
    import digests

    lines = digests.main(["infer/nano_80"])
    assert [line.split()[0] for line in lines] == ["infer/nano_80/labels", "infer/nano_80/probs"]
    assert capsys.readouterr().out.splitlines() == lines
    size, n_frames, n_objects, _ = digests.INFERENCE["nano_80"]
    sample = synth_moving_shapes(digests.DATA_SEED, n_frames, size, n_objects)
    labels, _ = run_sequence(init_model(ModelConfig(), digests.INIT_SEED),
                             sample.frames, sample.masks[0])
    expect = hashlib.sha256(b"".join(m.astype(np.int64).tobytes() for m in labels[1:]))
    assert lines[0].split()[1] == expect.hexdigest()
