import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _mask_from_grid,
    pad_roll_partition,
    padded_swin_block,
    swin_geometry,
    take_chain_relative_bias,
    unfused_window_msa,
)

from swinvos import attention, engine
from swinvos.attention import (
    MASK_VALUE,
    PatchEmbedImage,
    PatchEmbedVideo,
    PatchMerge,
    RelativePositionBias,
    SwinBlock,
    attention_mask,
    relative_position_index,
    window_layout,
    window_msa,
)
from swinvos.engine import Tape, Tensor
from swinvos.errors import ConfigError, DimensionError


def zero_output_projections(block):
    block.attn.proj.weight.data[:] = 0
    block.attn.proj.bias.data[:] = 0
    block.mlp.fc2.weight.data[:] = 0
    block.mlp.fc2.bias.data[:] = 0


def to_windows(x, layout, fill=None):
    length = int(np.prod(layout.window))
    return engine.gather_rows(x, layout.slots, layout.tokens,
                              (layout.slots.size // length, length, x.shape[-1]), fill=fill)


def to_grid(windows, layout, dims):
    return engine.gather_rows(windows, layout.tokens, layout.slots,
                              tuple(dims) + (windows.shape[-1],))


class TestWindowPartition:
    """An unshifted layout tiles the grid into row-major windows."""

    def test_4x4_window2_counts_and_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((4, 4, 1)).astype(np.float32))
        layout = window_layout((4, 4), (2, 2), False)
        wins = to_windows(x, layout)
        assert wins.shape == (4, 4, 1)
        np.testing.assert_array_equal(to_grid(wins, layout, (4, 4)).data, x.data)

    def test_single_window_row_major(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2, 1))
        wins = to_windows(x, window_layout((2, 2), (2, 2), False))
        assert wins.shape == (1, 4, 1)
        np.testing.assert_array_equal(wins.data[0, :, 0], [0, 1, 2, 3])

    def test_3d_window_count(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 4, 3)).astype(np.float32))
        layout = window_layout((2, 4, 4), (2, 2, 2), False)
        wins = to_windows(x, layout)
        # T/P * H/M * W/M = 1 * 2 * 2
        assert wins.shape == (4, 8, 3)
        np.testing.assert_array_equal(to_grid(wins, layout, (2, 4, 4)).data, x.data)

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            window_layout((4, 4), (0, 2), False)
        with pytest.raises(DimensionError):
            window_layout((4, 4), (2, 2, 2), False)

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_bitwise(self, bh, bw):
        rng = np.random.default_rng(bh * 7 + bw)
        x = Tensor(rng.standard_normal((bh * 3, bw * 2, 2)).astype(np.float32))
        layout = window_layout(x.shape[:-1], (3, 2), False)
        np.testing.assert_array_equal(to_grid(to_windows(x, layout), layout, x.shape[:-1]).data,
                                      x.data)


class TestCyclicShift:
    """A shifted layout rolls the grid by -shift before tiling it."""

    def test_zero_offsets_identity(self):
        # a grid no larger than its window does not shift
        layout = window_layout((3, 3), (3, 3), True)
        assert layout.shift == (0, 0)
        np.testing.assert_array_equal(layout.slots, np.arange(9))

    def test_1d_roll(self):
        layout = window_layout((4,), (2,), True)
        assert layout.shift == (1,)
        np.testing.assert_array_equal(layout.slots, [1, 2, 3, 0])

    def test_inverse_restores(self, rng):
        x = Tensor(rng.standard_normal((4, 6, 2)).astype(np.float32))
        layout = window_layout((4, 6), (2, 3), True)
        assert layout.shift == (1, 1)
        np.testing.assert_array_equal(to_grid(to_windows(x, layout), layout, (4, 6)).data,
                                      x.data)


# (grid, window, shifted): padded on both axes, a 3-D grid padded and
# shifted on T, and one whose window clamps on T
_LAYOUT_CASES = [((6, 10), (4, 4), True), ((9, 8, 8), (8, 7, 7), True),
                 ((2, 8, 8), (8, 7, 7), True)]


class TestWindowLayout:
    @pytest.mark.parametrize("dims, window, shifted", _LAYOUT_CASES)
    def test_slots_are_padded_rolled_windows_and_round_trip(self, dims, window, shifted):
        layout = window_layout(dims, window, shifted)
        win, shift, pad_to = swin_geometry(dims, window, shifted)
        assert (layout.window, layout.shift, layout.padded) == (win, shift, pad_to)
        grid = np.arange(np.prod(dims)).reshape(dims)
        expect = pad_roll_partition(grid, win, shift, pad_to, fill=-1).reshape(-1)
        np.testing.assert_array_equal(layout.slots, expect)

        rng = np.random.default_rng(len(dims) + sum(dims))
        x = Tensor(rng.standard_normal(dims + (3,)).astype(np.float32))
        fill = Tensor(rng.standard_normal(3).astype(np.float32))
        wins = to_windows(x, layout, fill)
        padded = np.array(pad_roll_partition(x.data, win, shift, pad_to))
        padded[(expect < 0).reshape(padded.shape[:2])] = fill.data
        np.testing.assert_array_equal(wins.data, padded)
        np.testing.assert_array_equal(to_grid(wins, layout, dims).data, x.data)

    def test_cached_read_only(self):
        layout = window_layout((6, 10), (4, 4), True)
        assert window_layout((6, 10), (4, 4), True) is layout
        for arr in (layout.slots, layout.tokens):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestRelativePositionBias:
    def test_translation_invariance(self):
        idx = relative_position_index((3, 3), (3, 3))
        coords = [(y, x) for y in range(3) for x in range(3)]
        seen = {}
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                disp = (a[0] - b[0], a[1] - b[1])
                if disp in seen:
                    assert seen[disp] == idx[i, j]
                else:
                    seen[disp] = idx[i, j]

    def test_index_range(self):
        idx = relative_position_index((2, 4, 4), (2, 4, 4))
        rows = (2 * 2 - 1) * (2 * 4 - 1) ** 2
        assert idx.min() >= 0 and idx.max() < rows

    def test_clamped_window_uses_full_table(self, rng):
        bias = RelativePositionBias((4, 4), heads=2, rng=rng)
        out = bias((2, 2))
        assert out.shape == (2, 4, 4)

    @pytest.mark.parametrize("window, table_window", [
        ((4, 4), (4, 4)), ((7, 7), (7, 7)), ((2, 7, 7), (2, 7, 7)), ((2, 3), (4, 4))])
    def test_one_gather_keeps_the_take_chain_bytes(self, rng, window, table_window):
        bias = RelativePositionBias(table_window, heads=3, rng=rng)
        length = int(np.prod(window))
        probe = Tensor(rng.standard_normal((3, length, length)).astype(np.float32))
        results = []
        for build in (lambda: bias(window), lambda: take_chain_relative_bias(bias, window)):
            with Tape() as tape:
                out = build()
                loss = engine.tsum(engine.mul(out, probe))
            engine.backward(loss, tape)
            results.append((out, bias.table.grad.copy(), len(tape.nodes)))
        (out, grad, nodes), (expect, expect_grad, expect_nodes) = results
        assert out.data.flags.c_contiguous and out.shape == (3, length, length)
        assert out.data.tobytes() == expect.data.tobytes()
        assert grad.tobytes() == expect_grad.tobytes()
        assert nodes == expect_nodes - 2


def _mask_and_oracle(dims, window, shifted, extents):
    """attention_mask as a SwinBlock calls it, and the pair-by-pair oracle."""
    win, shift, pad_to = swin_geometry(dims, window, shifted)
    valid = np.zeros(pad_to, dtype=bool)
    valid[tuple(slice(0, e) for e in extents)] = True
    expect = _mask_from_grid(pad_to, win, shift, valid)
    return (attention_mask(pad_to, win, shift, extents),
            None if expect is None else expect.astype(np.float32))


@st.composite
def _mask_geometries(draw):
    rank = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 8 - rank), min_size=rank, max_size=rank)))
    window = tuple(draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank)))
    extents = tuple(draw(st.integers(1, d)) for d in dims)
    return dims, window, draw(st.booleans()), extents


class TestAttentionMask:
    def test_unshifted_no_mask(self):
        assert attention_mask((4, 4), (2, 2), (0, 0), (4, 4)) is None

    def test_shifted_2d_blocks_cross_origin(self):
        mask = attention_mask((4, 4), (2, 2), (1, 1), (4, 4))
        assert mask.shape == (4, 1, 4, 4) and mask.dtype == np.float32
        vals = np.unique(mask)
        assert set(vals.tolist()) <= {MASK_VALUE, 0.0}
        assert (mask == MASK_VALUE).any()

    def test_3d_mask_matches_bruteforce_origins(self):
        # oracle: a post-roll position p holds pre-roll content r=(p+s)%d; its
        # origin window in the displaced tiling, in unwrapped coordinates, is
        # (r+s)//w per axis. Pairs from different origins must be masked.
        dims, window, shift = (2, 4, 4), (2, 2, 2), (1, 1, 1)
        mask = attention_mask(dims, window, shift, dims)
        coords = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), -1)
        pre = (coords + np.array(shift)) % np.array(dims)
        origin = (pre + np.array(shift)) // np.array(window)
        origin_id = origin[..., 0] * 100 + origin[..., 1] * 10 + origin[..., 2]
        win_ids = attention._partition_flat(origin_id, window)
        expect = np.where(win_ids[:, :, None] != win_ids[:, None, :], MASK_VALUE, 0.0)
        np.testing.assert_array_equal(mask[:, 0], expect)

    def test_2d_mask_matches_bruteforce_origins(self):
        dims, window, shift = (8, 6), (4, 2), (2, 1)
        mask = attention_mask(dims, window, shift, dims)
        coords = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), -1)
        pre = (coords + np.array(shift)) % np.array(dims)
        origin = (pre + np.array(shift)) // np.array(window)
        origin_id = origin[..., 0] * 10 + origin[..., 1]
        win_ids = attention._partition_flat(origin_id, window)
        expect = np.where(win_ids[:, :, None] != win_ids[:, None, :], MASK_VALUE, 0.0)
        np.testing.assert_array_equal(mask[:, 0], expect)

    # odd windows, padded and shifted on every axis; the last clamps on T
    @example(((32, 32), (7, 7), True, (30, 29)))
    @example(((9, 8, 8), (4, 3, 3), True, (7, 6, 5)))
    @example(((2, 8, 8), (8, 7, 7), True, (2, 6, 6)))
    @given(_mask_geometries())
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_by_pair_oracle(self, geometry):
        mask, expect = _mask_and_oracle(*geometry)
        assert (mask is None) == (expect is None)
        if mask is not None:
            assert mask.dtype == np.float32
            np.testing.assert_array_equal(mask, expect)

    def test_cached_read_only_per_geometry(self):
        mask = attention_mask((6, 6), (3, 3), (1, 1), (4, 5))
        assert attention_mask((6, 6), (3, 3), (1, 1), (4, 5)) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0, 0, 0] = 0.0
        # the valid extents are part of the key
        assert not np.array_equal(attention_mask((6, 6), (3, 3), (1, 1), (4, 4)), mask)

    def test_keys_outside_valid_extents_blocked(self):
        mask = attention_mask((4, 4), (4, 4), (0, 0), (3, 4))
        keys_blocked = (mask[0, 0] == MASK_VALUE).all(axis=0)
        np.testing.assert_array_equal(keys_blocked, np.arange(16) >= 12)
        assert attention_mask((4, 4), (4, 4), (0, 0), (4, 4)) is None

    def test_masked_pair_weight_tiny(self, rng):
        qkv = engine.Linear(4, 12, rng)
        proj = engine.Linear(4, 4, rng)
        tokens = Tensor(rng.standard_normal((1, 2, 4)).astype(np.float32))
        mask = np.array([[[0.0, MASK_VALUE], [0.0, 0.0]]])
        logits_probe = []

        # recompute weights directly to observe them
        h = engine.reshape(qkv(tokens), (1, 2, 3, 1, 4))
        h = engine.transpose(h, (2, 0, 3, 1, 4))
        q, k = h[0], h[1]
        logits = engine.mul(engine.matmul(q, engine.transpose(k, (0, 1, 3, 2))), 0.5)
        logits = engine.add(logits, Tensor(mask.reshape(1, 1, 2, 2), dtype=np.float32))
        w = engine.softmax(logits, axis=-1)
        assert w.data[0, 0, 0, 1] < 1e-8
        np.testing.assert_allclose(w.data.sum(-1), 1.0, atol=1e-6)


class TestWindowMsa:
    def test_single_token_is_projected_value(self, rng):
        dim, heads = 6, 2
        qkv = rng.standard_normal((3, 1, 3 * dim)).astype(np.float32)
        bias = Tensor(rng.standard_normal((heads, 1, 1)).astype(np.float32))
        out = window_msa(Tensor(qkv), heads, bias=bias, mask=None)
        np.testing.assert_allclose(out.data, qkv[:, :, 2 * dim:], atol=1e-6)

    def test_hand_two_token_attention(self):
        # q = k = v = x, one window of two 2-dim tokens, one head
        x = np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32)
        out = window_msa(Tensor(np.concatenate([x, x, x], axis=-1)), 1,
                         bias=Tensor(np.zeros((1, 2, 2), np.float32)), mask=None)
        # logits row 0: [1,0]/sqrt(2) -> softmax; value rows are x
        s = np.array([1.0, 0.0]) / np.sqrt(2)
        w = np.exp(s - s.max())
        w = w / w.sum()
        expect0 = w[0] * x[0, 0] + w[1] * x[0, 1]
        np.testing.assert_allclose(out.data[0, 0], expect0, atol=1e-6)

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            window_msa(Tensor(np.zeros((1, 2, 15))), heads=2,
                       bias=Tensor(np.zeros((2, 2, 2))), mask=None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_equals_unfused_composition(self, dtype):
        rng = np.random.default_rng(3)
        heads, length, dim = 3, 9, 12
        mask = attention_mask((6, 6), (3, 3), (1, 1), (4, 5))
        qkv = rng.standard_normal((4, length, 3 * dim)).astype(dtype)
        bias = rng.standard_normal((heads, length, length)).astype(dtype)
        probe = Tensor(rng.standard_normal((4, length, dim)).astype(dtype))
        outs, grads = [], []
        for op in (window_msa, unfused_window_msa):
            params = [engine.Parameter(qkv.copy()), engine.Parameter(bias.copy())]
            with Tape() as tape:
                out = op(params[0], heads, bias=params[1], mask=mask)
                loss = engine.tsum(engine.mul(out, probe))
            engine.backward(loss, tape)
            outs.append(out.data)
            grads.append([p.grad for p in params])
        np.testing.assert_array_equal(outs[0], outs[1])
        for fused, unfused in zip(*grads):
            np.testing.assert_allclose(fused, unfused, rtol=1e-5, atol=1e-5)

    def test_one_tape_node(self, rng):
        qkv = engine.Parameter(rng.standard_normal((2, 4, 12)).astype(np.float32))
        with Tape() as tape:
            window_msa(qkv, 2, bias=Tensor(np.zeros((2, 4, 4), np.float32)), mask=None)
        assert len(tape.nodes) == 1

    # windows per group: one, within a mask period, one period, whole
    # periods with a remainder, and all windows at once
    @pytest.mark.parametrize("fit", [1, 2, 4, 5, 9, 12])
    def test_window_groups_keep_forward_and_backward_bytes(self, monkeypatch, fit):
        rng = np.random.default_rng(8)
        heads, length, dim = 2, 9, 8
        # two objects share one object's 4-window mask
        mask = attention_mask((6, 6), (3, 3), (1, 1), (4, 5))
        qkv = rng.standard_normal((8, length, 3 * dim)).astype(np.float32)
        bias = rng.standard_normal((heads, length, length)).astype(np.float32)
        probe = Tensor(rng.standard_normal((8, length, dim)).astype(np.float32))
        runs = []
        for budget in (fit * heads * length * length * 4, 1 << 40):
            monkeypatch.setattr(attention, "_LOGITS_BYTES", budget)
            params = [engine.Parameter(qkv.copy()), engine.Parameter(bias.copy())]
            with Tape() as tape:
                out = window_msa(params[0], heads, bias=params[1], mask=mask)
                engine.backward(engine.tsum(engine.mul(out, probe)), tape)
            assert len(tape.nodes) == 3
            plain = window_msa(Tensor(qkv), heads, bias=Tensor(bias), mask=mask)
            runs.append([out.data, plain.data] + [p.grad for p in params])
        for grouped, whole in zip(*runs):
            assert grouped.tobytes() == whole.tobytes()

    def test_mask_windows_must_tile(self):
        mask = attention_mask((6, 6), (3, 3), (1, 1), (6, 6))
        with pytest.raises(DimensionError):
            window_msa(Tensor(np.zeros((6, 9, 6))), 1, bias=Tensor(np.zeros((1, 9, 9))),
                       mask=mask)


def _random_biases(block, rng):
    for name, p in block.named_parameters():
        if name.endswith((".bias", ".beta")):
            p.data[...] = rng.normal(0.0, 0.05, p.shape)


# (grid, window, valid extents): a 2-D grid that pads 32 -> 35, a 3-D grid
# whose window clamps on T, a grid with invalid in-grid tokens that pads
# 24 -> 28, where whole windows hold only padding and invalid tokens, a 3-D
# grid that pads and shifts T (9 -> 16), and a small grid whose valid
# extents leave windows with every key masked; None declares every token valid
_ORACLE_CASES = [((32, 32), (7, 7), None), ((2, 8, 8), (8, 7, 7), None),
                 ((24, 24), (7, 7), (20, 20)), ((9, 8, 8), (8, 7, 7), None),
                 ((5, 6), (3, 3), (2, 4))]


class TestSwinBlockOracle:
    @pytest.mark.parametrize("dims, window, valid", _ORACLE_CASES)
    @pytest.mark.parametrize("shifted", [False, True])
    def test_equals_pad_then_project_block(self, dims, window, valid, shifted):
        rng = np.random.default_rng(17)
        block = SwinBlock(12, 3, window, shifted=shifted, rng=rng)
        _random_biases(block, rng)
        x = Tensor(rng.standard_normal(dims + (12,)).astype(np.float32))
        valid = dims if valid is None else valid
        out = block(x, valid=valid)
        np.testing.assert_array_equal(out.data, padded_swin_block(block, x, valid).data)


class TestSwinBlock:
    def test_zeroed_projections_identity(self, rng):
        block = SwinBlock(8, 2, (2, 2), shifted=False, rng=rng)
        zero_output_projections(block)
        x = Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32))
        out = block(x, valid=x.shape[:-1])
        np.testing.assert_array_equal(out.data, x.data)

    def test_output_shape_preserved(self, rng):
        for shifted in (False, True):
            block = SwinBlock(4, 2, (2, 2), shifted=shifted, rng=rng)
            x = Tensor(rng.standard_normal((6, 8, 4)).astype(np.float32))
            assert block(x, valid=x.shape[:-1]).shape == x.shape

    def test_shifted_equals_unshifted_on_constant_input(self, rng):
        # H=W=M: the shift is a pure permutation, constant input sees no change
        blk_a = SwinBlock(4, 2, (4, 4), shifted=False, rng=np.random.default_rng(5))
        blk_b = SwinBlock(4, 2, (4, 4), shifted=True, rng=np.random.default_rng(5))
        x = Tensor(np.full((4, 4, 4), 0.7, dtype=np.float32))
        np.testing.assert_allclose(blk_a(x, valid=(4, 4)).data, blk_b(x, valid=(4, 4)).data,
                                   atol=1e-6)

    def test_indivisible_input_padded_and_cropped(self, rng):
        block = SwinBlock(4, 2, (4, 4), shifted=True, rng=rng)
        x = Tensor(rng.standard_normal((6, 10, 4)).astype(np.float32))
        out = block(x, valid=(6, 10))
        assert out.shape == (6, 10, 4)
        assert np.isfinite(out.data).all()

    def test_astype_casts_every_parameter(self, rng):
        block = SwinBlock(4, 2, (2, 2), shifted=True, rng=rng)
        before = [(name, p.shape, p.data.copy()) for name, p in block.named_parameters()]
        assert all(value.dtype == np.float32 for _, _, value in before)
        assert block.astype(np.float64) is block
        after = block.named_parameters()
        assert [(name, shape) for name, shape, _ in before] == [(n, p.shape) for n, p in after]
        for (_, _, value), (_, p) in zip(before, after):
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, value.astype(np.float64))
        assert block(Tensor(rng.standard_normal((4, 6, 4))), valid=(4, 6)).dtype == np.float64

    def test_padding_does_not_leak_into_valid_tokens(self, rng):
        # growing the pad region must not change outputs at valid positions
        block = SwinBlock(4, 1, (4, 4), shifted=False, rng=rng)
        x = rng.standard_normal((6, 6, 4)).astype(np.float32)
        out_direct = block(Tensor(x), valid=(6, 6))
        # same content declared valid inside a larger zero canvas
        canvas = np.zeros((8, 8, 4), dtype=np.float32)
        canvas[:6, :6] = x
        out_padded = block(Tensor(canvas), valid=(6, 6))
        np.testing.assert_allclose(out_padded.data[:6, :6], out_direct.data, atol=1e-5)


class TestVideoSwinBlock:
    def test_t1_p1_matches_2d_block(self, rng):
        seed_rng = np.random.default_rng(21)
        b2 = SwinBlock(8, 2, (4, 4), shifted=True, rng=seed_rng)
        b3 = SwinBlock(8, 2, (1, 4, 4), shifted=True, rng=np.random.default_rng(0))
        # tie weights: identical shapes when P=1
        for (_, p2), (_, p3) in zip(b2.named_parameters(), b3.named_parameters()):
            p3.data[:] = p2.data.reshape(p3.data.shape)
        x = rng.standard_normal((8, 8, 8)).astype(np.float32)
        out2 = b2(Tensor(x), valid=(8, 8))
        out3 = b3(Tensor(x[None]), valid=(1, 8, 8))
        np.testing.assert_allclose(out3.data[0], out2.data, atol=1e-6)

    def test_zeroed_projections_identity_3d(self, rng):
        block = SwinBlock(4, 2, (2, 2, 2), shifted=True, rng=rng)
        zero_output_projections(block)
        x = Tensor(rng.standard_normal((2, 4, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(block(x, valid=(2, 4, 4)).data, x.data)

    def test_3d_shape_preserved(self, rng):
        block = SwinBlock(4, 2, (2, 4, 4), shifted=True, rng=rng)
        x = Tensor(rng.standard_normal((3, 8, 8, 4)).astype(np.float32))
        assert block(x, valid=(3, 8, 8)).shape == x.shape


class TestObjectAxis:
    """A leading object axis batches the grids of several objects."""

    # valid extents of one object's grid; None declares every token valid
    @pytest.mark.parametrize("dims, window, valid", [
        ((3, 9, 8, 8), (8, 7, 7), None), ((2, 24, 24), (7, 7), (20, 20)),
        ((3, 2, 5, 6), (2, 3, 3), (2, 2, 4))])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_block_equals_each_object_alone(self, dims, window, valid, shifted):
        rng = np.random.default_rng(23)
        block = SwinBlock(12, 3, window, shifted=shifted, rng=rng)
        _random_biases(block, rng)
        x = rng.standard_normal(dims + (12,)).astype(np.float32)
        valid = dims[1:] if valid is None else valid
        out = block(Tensor(x), valid=(dims[0],) + valid)
        for m in range(dims[0]):
            alone = block(Tensor(x[m]), valid=valid)
            assert out.data[m].tobytes() == alone.data.tobytes()

    def test_mask_cache_does_not_grow_with_objects(self, rng):
        block = SwinBlock(4, 2, (2, 3, 3), shifted=True, rng=rng)
        attention_mask.cache_clear()
        block(Tensor(rng.standard_normal((2, 5, 6, 4)).astype(np.float32)), valid=(2, 4, 5))
        masks = attention_mask.cache_info().currsize
        for n_objects in (2, 3):
            x = rng.standard_normal((n_objects, 2, 5, 6, 4)).astype(np.float32)
            block(Tensor(x), valid=(n_objects, 2, 4, 5))
        assert attention_mask.cache_info().currsize == masks

    def test_video_embedding_broadcasts_frames_over_objects(self, rng):
        embed = PatchEmbedVideo(4, rng, use_other_mask=True)
        frames = rng.random((2, 8, 8, 3)).astype(np.float32)
        target = rng.random((3, 2, 8, 8, 1)).astype(np.float32)
        other = rng.random((3, 2, 8, 8, 1)).astype(np.float32)
        out = embed(Tensor(frames), Tensor(target), Tensor(other))
        assert out.shape == (3, 2, 2, 2, 4)
        for m in range(3):
            alone = embed(Tensor(frames), Tensor(target[m]), Tensor(other[m]))
            assert out.data[m].tobytes() == alone.data.tobytes()


class TestPatchEmbed:
    def test_image_shape_law(self, rng):
        embed = PatchEmbedImage(8, rng)
        out = embed(Tensor(rng.random((16, 24, 3)).astype(np.float32)))
        assert out.shape == (4, 6, 8)

    def test_zero_frame_zero_tokens_prenorm(self, rng):
        embed = PatchEmbedImage(8, rng)
        pre = embed.embed(Tensor(np.zeros((4, 4, 48), dtype=np.float32)))
        np.testing.assert_array_equal(pre.data, 0.0)

    def test_patch_locality(self, rng):
        embed = PatchEmbedImage(8, rng)
        a = rng.random((8, 8, 3)).astype(np.float32)
        b = a.copy()
        b[5, 6, 1] += 0.25  # inside patch (1, 1)
        da = embed(Tensor(a)).data
        db = embed(Tensor(b)).data
        diff = np.abs(da - db).sum(axis=-1)
        assert diff[1, 1] > 0
        diff[1, 1] = 0
        np.testing.assert_array_equal(diff, 0.0)

    def test_video_zero_masks_match_image_only(self, rng):
        embed = PatchEmbedVideo(8, rng, use_other_mask=True)
        frames = rng.random((2, 8, 8, 3)).astype(np.float32)
        zeros = np.zeros((2, 8, 8, 1), dtype=np.float32)
        out = embed(Tensor(frames), Tensor(zeros), Tensor(zeros))
        rgb_only = embed.norm(embed.embed_rgb(attention._patchify(Tensor(frames), 4)))
        np.testing.assert_allclose(out.data, rgb_only.data, atol=1e-6)

    def test_video_temporal_extent_kept(self, rng):
        embed = PatchEmbedVideo(4, rng, use_other_mask=True)
        t = 3
        out = embed(Tensor(rng.random((t, 8, 8, 3)).astype(np.float32)),
                    Tensor(np.zeros((t, 8, 8, 1), np.float32)),
                    Tensor(np.zeros((t, 8, 8, 1), np.float32)))
        assert out.shape == (t, 2, 2, 4)

    def test_video_mask_pixel_touches_one_token(self, rng):
        embed = PatchEmbedVideo(4, rng, use_other_mask=True)
        frames = rng.random((1, 8, 8, 3)).astype(np.float32)
        m0 = np.zeros((1, 8, 8, 1), dtype=np.float32)
        m1 = m0.copy()
        m1[0, 2, 5, 0] = 1.0  # patch (0, 1)
        other = np.zeros_like(m0)
        a = embed(Tensor(frames), Tensor(m0), Tensor(other)).data
        b = embed(Tensor(frames), Tensor(m1), Tensor(other)).data
        diff = np.abs(a - b).sum(axis=-1)
        assert diff[0, 0, 1] > 0
        diff[0, 0, 1] = 0
        np.testing.assert_array_equal(diff, 0.0)

    def test_other_mask_disabled_is_independent(self, rng):
        embed = PatchEmbedVideo(4, rng, use_other_mask=False)
        frames = rng.random((1, 4, 4, 3)).astype(np.float32)
        target = np.zeros((1, 4, 4, 1), dtype=np.float32)
        o1 = np.zeros_like(target)
        o2 = np.ones_like(target)
        a = embed(Tensor(frames), Tensor(target), Tensor(o1)).data
        b = embed(Tensor(frames), Tensor(target), Tensor(o2)).data
        np.testing.assert_array_equal(a, b)

    def test_mismatched_mask_shape(self, rng):
        embed = PatchEmbedVideo(4, rng, use_other_mask=True)
        with pytest.raises(DimensionError):
            embed(Tensor(np.zeros((1, 8, 8, 3))), Tensor(np.zeros((1, 4, 8, 1))),
                  Tensor(np.zeros((1, 8, 8, 1))))


class TestPatchMerge:
    def test_shape_law(self, rng):
        merge = PatchMerge(3, rng)
        out = merge(Tensor(rng.standard_normal((4, 4, 3)).astype(np.float32)))
        assert out.shape == (2, 2, 6)

    def test_temporal_axis_untouched(self, rng):
        merge = PatchMerge(3, rng)
        out = merge(Tensor(rng.standard_normal((5, 4, 6, 3)).astype(np.float32)))
        assert out.shape == (5, 2, 3, 6)

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(DimensionError):
            PatchMerge(3, rng)(Tensor(np.zeros((3, 4, 3))))

    def test_concat_order_matters(self, rng):
        # permuting the 2x2 concat order must change the output
        merge = PatchMerge(2, rng)
        x = rng.standard_normal((2, 2, 2)).astype(np.float32)
        out = merge(Tensor(x)).data
        swapped = x[::-1, :, :].copy()  # swap the two rows of the neighborhood
        out_swapped = merge(Tensor(swapped)).data
        assert np.abs(out - out_swapped).max() > 0


def test_effective_window_clamps_and_zeroes_shift():
    layout = window_layout((2, 9), (4, 4), True)
    assert layout.window == (2, 4)
    assert layout.shift == (0, 2)
