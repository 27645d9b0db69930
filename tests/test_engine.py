import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import conv2d_taps, trunc_normal_loop

from swinvos import engine
from swinvos.engine import Parameter, Tape, Tensor
from swinvos.errors import ConfigError, DimensionError, NumericError, UsageError


def matmul_loops(a, b):
    """Triple-loop reference matrix product."""
    m, p = a.shape
    p2, n = b.shape
    assert p == p2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(p):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def conv2d_loops(x, w, b):
    """Six-loop reference for 3x3 stride-1 pad-1 cross-correlation."""
    cin, h, wd = x.shape
    cout = w.shape[0]
    out = np.zeros((cout, h, wd), dtype=x.dtype)
    for co in range(cout):
        for y in range(h):
            for xx in range(wd):
                acc = b[co]
                for ci in range(cin):
                    for dy in range(3):
                        for dx in range(3):
                            sy, sx = y + dy - 1, xx + dx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc += w[co, ci, dy, dx] * x[ci, sy, sx]
                out[co, y, xx] = acc
    return out


def conv2d_grads_loops(x, w, g):
    """Six-loop reference of the conv2d backward for output gradient ``g``,
    accumulated in float64: (gx, gw, gb)."""
    cin, h, wd = x.shape
    cout = w.shape[0]
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for co in range(cout):
        for y in range(h):
            for xx in range(wd):
                for ci in range(cin):
                    for dy in range(3):
                        for dx in range(3):
                            sy, sx = y + dy - 1, xx + dx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                gx[ci, sy, sx] += float(w[co, ci, dy, dx]) * float(g[co, y, xx])
                                gw[co, ci, dy, dx] += float(x[ci, sy, sx]) * float(g[co, y, xx])
    return gx, gw, g.astype(np.float64).sum(axis=(1, 2))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = engine.matmul(a, Tensor(np.eye(2, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = engine.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matches_loop_oracle(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = engine.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_loops(a, b), atol=1e-6)

    def test_batched_broadcast(self, rng):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        out = engine.matmul(Tensor(a), Tensor(b))
        assert out.shape == (5, 3, 2)
        np.testing.assert_allclose(out.data[2], a[2] @ b, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((64, 1), (1, 300)), ((4, 16, 1), (4, 1, 9)), ((4, 16, 1), (1, 9)),
        ((2, 1, 5, 1), (3, 1, 7))])
    def test_unit_inner_extent_keeps_matmul_bytes(self, rng, dtype, a_shape, b_shape):
        a = rng.standard_normal(a_shape).astype(dtype)
        b = rng.standard_normal(b_shape).astype(dtype)
        # every pairing of +-0, +-inf, NaN and a finite value appears
        a.reshape(-1)[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 2.5]
        b.reshape(-1)[:6] = [-0.0, 0.0, -np.inf, np.inf, np.nan, -1.5]
        with np.errstate(invalid="ignore"):
            expect = np.matmul(a, b)
            out = engine.array_matmul(a, b)
            bare = a * b
        assert out.dtype == expect.dtype and out.shape == expect.shape
        assert out.tobytes() == expect.tobytes()
        # a bare product keeps -0 where the GEMM's sum from +0 does not
        assert np.signbit(bare).sum() > np.signbit(expect).sum()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            engine.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    @pytest.mark.parametrize("lead", [(6,), (3, 2, 5)])
    def test_folded_forward_is_one_gemm(self, rng, lead):
        a = rng.standard_normal(lead + (7, 16)).astype(np.float32)
        b = rng.standard_normal((16, 9)).astype(np.float32)
        out = engine.matmul(Tensor(a), Tensor(b))
        expect = np.matmul(a.reshape(-1, 16), b).reshape(lead + (7, 9))
        assert out.shape == expect.shape
        assert out.data.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("watch", ["both", "left", "right"])
    def test_folded_gradients(self, rng, watch):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        probe = rng.standard_normal((2, 3, 5))

        def loss(x, w):
            return engine.tsum(engine.mul(engine.matmul(x, w), Tensor(probe)))

        if watch == "both":
            worst = engine.gradcheck(loss, [a, b])
        elif watch == "left":
            worst = engine.gradcheck(lambda x: loss(x, Tensor(b)), [a])
        else:
            worst = engine.gradcheck(lambda w: loss(Tensor(a), w), [b])
        assert worst <= 1e-5, f"worst rel err {worst:.2e}"

    def test_folded_backward_memory_is_bounded(self, rng):
        # the weight gradient must not build a [*lead, K, N] temporary
        x = Parameter(rng.standard_normal((256, 8, 64)).astype(np.float32))
        w = Parameter(rng.standard_normal((64, 256)).astype(np.float32))
        with Tape() as tape:
            out = engine.matmul(x.tensor(), w.tensor())
            loss = engine.tsum(out)
        budget = 2 * (x.value.nbytes + w.value.nbytes + out.data.nbytes)
        tracemalloc.start()
        try:
            engine.backward(loss, tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert peak < budget, f"peak {peak / 2**20:.1f} MB, budget {budget / 2**20:.1f} MB"


class TestSoftmax:
    def test_symmetry(self):
        out = engine.softmax(Tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_direct_evaluation(self):
        # oracle: plain exp-normalize computed with math.exp
        exps = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        expect = [e / sum(exps) for e in exps]
        np.testing.assert_allclose(expect, [0.09003, 0.24473, 0.66524], atol=1e-4)
        out = engine.softmax(Tensor([1.0, 2.0, 3.0]), axis=0)
        np.testing.assert_allclose(out.data, expect, atol=1e-6)

    def test_no_overflow(self):
        out = engine.softmax(Tensor([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            engine.softmax(Tensor(np.zeros((2, 0))), axis=1)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, values):
        out = engine.softmax(Tensor(np.array(values, dtype=np.float64)), axis=0)
        assert abs(out.data.sum() - 1.0) < 1e-6

    @given(st.lists(st.floats(-350, 350), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_strictly_positive(self, values):
        # spreads beyond ~745 underflow exp() to exactly 0 in f64; strict
        # positivity is only meaningful inside the representable range
        out = engine.softmax(Tensor(np.array(values, dtype=np.float64)), axis=0)
        assert (out.data > 0).all()


class TestLayerNorm:
    def test_constant_rows_zero(self):
        x = Tensor(np.full((3, 4), 7.0))
        out = engine.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_hand_two_values(self):
        # mean 2, var 1 for x=[1,3]: [-1, 1] / sqrt(1 + eps)
        out = engine.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                                Tensor(np.zeros(2)))
        expected = 1.0 / np.sqrt(1.0 + engine.LN_EPS)
        np.testing.assert_allclose(out.data, [[-expected, expected]], atol=1e-6)

    def test_output_mean_near_zero(self, rng):
        x = Tensor(rng.standard_normal((5, 8)))
        out = engine.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_mean_var_form(self, dtype):
        rng = np.random.default_rng(12)
        for width in (8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768):
            x = (rng.standard_normal((3, 5, width)) * rng.uniform(0.1, 10)
                 + rng.uniform(-5, 5)).astype(dtype)
            gamma = rng.standard_normal(width).astype(dtype)
            beta = rng.standard_normal(width).astype(dtype)
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + engine.LN_EPS)
            expected = (x - x.mean(axis=-1, keepdims=True)) * inv * gamma + beta
            out = engine.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
            assert out.dtype == expected.dtype
            assert out.tobytes() == expected.tobytes(), f"width {width}"


class TestGelu:
    def test_zero(self):
        assert float(engine.gelu(Tensor(0.0)).data) == 0.0

    def test_asymptote(self):
        x = 25.0
        out = float(engine.gelu(Tensor(x)).data)
        assert abs(out - x) / x < 1e-4

    def test_at_one(self):
        assert abs(float(engine.gelu(Tensor(1.0)).data) - 0.8412) < 1e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("recorded", [False, True])
    def test_chunked_forward_matches_whole_tensor_formula(self, rng, dtype, recorded):
        # three chunks and a ragged tail: the bytes of the formula run once
        # over the whole tensor, recorded (full-size tanh argument) or not
        x = (3 * rng.standard_normal(3 * engine._CHUNK + 7)).astype(dtype).reshape(-1, 1)
        t = np.tanh(engine._GELU_C * (x + 0.044715 * (x * x * x)))
        want = np.multiply(x, 0.5)
        want *= 1.0 + t
        p = Parameter(x)
        with Tape() as tape:
            got = engine.gelu(p.tensor() if recorded else Tensor(x))
            loss = engine.tsum(got)
        assert got.watched == recorded
        assert got.data.dtype == want.dtype and got.data.shape == want.shape
        assert got.data.tobytes() == want.tobytes()
        if recorded:  # the backward reads every chunk's tanh argument
            engine.backward(loss, tape)
            d_inner = engine._GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
            d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
            assert p.grad.tobytes() == (np.ones_like(x) * d).tobytes()


class TestLinear:
    def test_bias_added_in_the_gemm_op(self, rng):
        lin = engine.Linear(4, 3, rng)
        lin.bias.value[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 5, 4)).astype(np.float32)
        with Tape() as tape:
            out = lin(Tensor(x))
        assert len(tape.nodes) == 1
        expect = (x.reshape(10, 4) @ lin.weight.value).reshape(2, 5, 3) + lin.bias.value
        np.testing.assert_array_equal(out.data, expect)

    def test_bias_dtype_must_match(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(DimensionError):
            engine.matmul(a, a, Tensor(np.ones(2)))


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((2, 4, 5)).astype(np.float32)
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = engine.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(2, dtype=np.float32)))
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_ones_kernel_overlap_counts(self):
        x = Tensor(np.ones((1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = engine.conv2d(x, w, Tensor(np.zeros(1)))
        assert out.data[0, 2, 2] == 9.0
        assert out.data[0, 0, 0] == 4.0

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out = engine.conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b), atol=1e-6)

    def test_non_square_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out = engine.conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b), atol=1e-12)

    def test_one_gemm_matches_tap_gemms(self, rng):
        # only the summation order differs from nine per-tap GEMMs
        x = rng.standard_normal((16, 6, 9)).astype(np.float32)
        w = (rng.standard_normal((5, 16, 3, 3)) * 0.1).astype(np.float32)
        out = engine.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(5, dtype=np.float32)))
        np.testing.assert_allclose(out.data, conv2d_taps(x, w).data, rtol=1e-5, atol=1e-5)

    # (C_in, H, W, C_out): non-square, H=1, W=1, C_in=1, and a 2-logit head
    @pytest.mark.parametrize("cin,h,wd,cout", [(2, 3, 5, 3), (2, 1, 4, 3), (3, 4, 1, 2),
                                               (1, 4, 3, 3), (4, 3, 3, 2)])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_forward_and_grads_match_loops(self, rng, cin, h, wd, cout, dtype, tol):
        x = rng.standard_normal((cin, h, wd)).astype(dtype)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        g = rng.standard_normal((cout, h, wd)).astype(dtype)
        params = [Parameter(a.copy()) for a in (x, w, b)]
        with Tape() as tape:
            out = engine.conv2d(*[p.tensor() for p in params])
            loss = engine.tsum(engine.mul(out, Tensor(g)))
        engine.backward(loss, tape)
        assert out.dtype == dtype and out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, conv2d_loops(x.astype(np.float64), w, b),
                                   rtol=tol, atol=tol)
        for p, expect in zip(params, conv2d_grads_loops(x, w, g)):
            assert p.grad.dtype == dtype and p.grad.shape == expect.shape
            np.testing.assert_allclose(p.grad, expect, rtol=tol, atol=tol)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            engine.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                          Tensor(np.zeros(1)))


class TestBilinearUpsample:
    def test_identity_target(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 3)))
        out = engine.bilinear_upsample(x, (3, 3))
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 2), 3.5))
        out = engine.bilinear_upsample(x, (5, 7))
        np.testing.assert_allclose(out.data, 3.5, rtol=1e-6)

    def test_hand_weights_2_to_4(self):
        x = Tensor(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
        out = engine.bilinear_upsample(x, (4, 4))
        expect_cols = [0.0, 0.25, 0.75, 1.0]
        for r in range(4):
            np.testing.assert_allclose(out.data[0, r], expect_cols, atol=1e-6)

    def test_zero_target_rejected(self):
        with pytest.raises(DimensionError):
            engine.bilinear_upsample(Tensor(np.zeros((1, 2, 2))), (0, 4))

    def test_cached_matrix_is_read_only(self):
        m = engine._interp_matrix(3, 7, np.float32)
        assert engine._interp_matrix(3, 7, np.float32) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_cache_matches_rebuild_bytewise(self, rng, monkeypatch):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        probe = rng.standard_normal((2, 7, 9)).astype(np.float32)

        def run():
            p = Parameter(x.copy())
            with Tape() as tape:
                out = engine.bilinear_upsample(p.tensor(), (7, 9))
                loss = engine.tsum(engine.mul(out, Tensor(probe)))
            engine.backward(loss, tape)
            return out.data, p.grad

        cached = [run(), run()]
        monkeypatch.setattr(engine, "_interp_matrix", engine._interp_matrix.__wrapped__)
        rebuilt = run()
        for out, grad in cached:
            assert out.tobytes() == rebuilt[0].tobytes()
            assert grad.tobytes() == rebuilt[1].tobytes()

    def test_second_geometry_gets_its_own_matrices(self):
        first = engine.bilinear_upsample(Tensor(np.full((1, 2, 3), 2.0)), (4, 6))
        second = engine.bilinear_upsample(Tensor(np.full((2, 3, 2), 2.0)), (5, 8))
        assert first.shape == (1, 4, 6) and second.shape == (2, 5, 8)
        np.testing.assert_allclose(second.data, 2.0, rtol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter(np.array([1.0, 2.0, 3.0]))
        with Tape() as tape:
            loss = engine.tsum(p.tensor())
        engine.backward(loss, tape)
        np.testing.assert_array_equal(p.grad, np.ones(3))

    def test_quadratic(self):
        p = Parameter(np.array([1.0, 2.0]))
        with Tape() as tape:
            t = p.tensor()
            loss = engine.tsum(engine.mul(t, t))
        engine.backward(loss, tape)
        np.testing.assert_allclose(p.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        p = Parameter(np.array([1.0, 2.0]))
        with Tape() as tape:
            out = engine.mul(p.tensor(), 2.0)
        with pytest.raises(UsageError):
            engine.backward(out, tape)

    def test_bare_parameter_loss_is_unrecorded(self):
        p = Parameter(np.array(2.0))
        with Tape() as tape:
            loss = p.tensor()
        with pytest.raises(UsageError, match="not recorded"):
            engine.backward(loss, tape)

    def test_grad_slots_reset_between_passes(self):
        p = Parameter(np.array([3.0]))
        for _ in range(2):
            with Tape() as tape:
                t = p.tensor()
                loss = engine.tsum(engine.mul(t, t))
            engine.backward(loss, tape)
        np.testing.assert_allclose(p.grad, [6.0])

    def test_producer_sums_in_place_without_touching_a_shared_gradient(self):
        # x receives three contributions: the outer add hands one array to
        # the inner add and to x, and the inner add hands it to x twice
        p = Parameter(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            x = engine.mul(p.tensor(), 2.0)
            loss = engine.tsum(engine.add(engine.add(x, x), x))
        engine.backward(loss, tape)
        np.testing.assert_array_equal(p.grad, np.full((2, 3), 6.0))

    def test_gradient_sums_keep_their_order(self, rng):
        probe = rng.standard_normal((4, 5)).astype(np.float32)
        w = rng.standard_normal((4, 5)).astype(np.float32)
        p = Parameter(rng.standard_normal((4, 5)).astype(np.float32))
        with Tape() as tape:
            x = engine.mul(p.tensor(), 2.0)
            both = engine.add(engine.add(x, x), engine.mul(x, Tensor(w)))
            loss = engine.tsum(engine.mul(both, Tensor(probe)))
        engine.backward(loss, tape)
        # reverse tape order: mul(x, w) first, then the inner add twice
        expected = ((probe * w) + probe) + probe
        assert p.grad.tobytes() == (np.zeros_like(expected) + expected * 2.0).tobytes()

    def test_shared_parameter_accumulates(self):
        p = Parameter(np.array([2.0]))
        with Tape() as tape:
            a = p.tensor()
            b = p.tensor()
            loss = engine.tsum(engine.mul(a, b))
        engine.backward(loss, tape)
        np.testing.assert_allclose(p.grad, [4.0])


class TestAdam:
    def test_zero_gradient_keeps_value(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        engine.adam_step([p], lr=0.1)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])
        assert p.step_count == 1

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes mhat/sqrt(vhat) == sign(g) on step 1
        p = Parameter(np.array([0.5]))
        p.grad = np.array([0.3])
        engine.adam_step([p], lr=0.01)
        np.testing.assert_allclose(p.value, [0.5 - 0.01], rtol=1e-4)

    def test_two_steps_decrease_quadratic(self):
        p = Parameter(np.array([1.0]))
        for _ in range(2):
            p.grad = 2.0 * p.value
            engine.adam_step([p], lr=0.1)
        assert p.value[0] ** 2 < 1.0

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            engine.adam_step([], lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_lr_leaves_parameters(self, lr):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        with pytest.raises(ConfigError, match="learning rate"):
            engine.adam_step([p], lr=lr)
        assert p.value[0] == 1.0 and p.step_count == 0

    def test_missing_grad(self):
        with pytest.raises(UsageError):
            engine.adam_step([Parameter(np.zeros(2))], lr=0.1)


class TestStructuralOps:
    def test_take_scatter_grad(self):
        p = Parameter(np.array([1.0, 2.0, 3.0]))
        with Tape() as tape:
            picked = engine.take(p.tensor(), np.array([0, 0, 2]))
            loss = engine.tsum(picked)
        engine.backward(loss, tape)
        np.testing.assert_array_equal(p.grad, [2.0, 0.0, 1.0])

    def test_unstack_keeps_layout_and_scatters_grads(self, rng):
        p = Parameter(rng.standard_normal((3, 5, 4)))
        probe = rng.standard_normal((3, 4, 5))
        with Tape() as tape:
            pieces = engine.unstack(engine.transpose(p.tensor(), (0, 2, 1)))
            loss = engine.tsum(engine.mul(pieces[0], Tensor(probe[0])))
            for piece, weights in zip(pieces[1:], probe[1:]):
                loss = engine.add(loss, engine.tsum(engine.mul(piece, Tensor(weights))))
        assert len(pieces) == 3
        for i, piece in enumerate(pieces):
            assert piece.data.flags.f_contiguous and not piece.data.flags.c_contiguous
            np.testing.assert_array_equal(piece.data, p.value[i].T)
        engine.backward(loss, tape)
        np.testing.assert_array_equal(p.grad, probe.transpose(0, 2, 1))

    def test_take_out_of_range(self):
        with pytest.raises(DimensionError):
            engine.take(Tensor(np.zeros(3)), np.array([3]))

    def test_concat_split_grads(self):
        p = Parameter(np.arange(4, dtype=np.float64))
        q = Parameter(np.arange(2, dtype=np.float64))
        with Tape() as tape:
            joined = engine.concat([p.tensor(), q.tensor()], axis=0)
            loss = engine.tsum(engine.mul(joined, joined))
        engine.backward(loss, tape)
        np.testing.assert_allclose(p.grad, 2 * p.value)
        np.testing.assert_allclose(q.grad, 2 * q.value)

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            engine.add(Tensor(np.zeros(2, np.float32)), Tensor(np.zeros(2, np.float64)))


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
)
@settings(max_examples=40, deadline=None)
def test_ops_keep_finite_inputs_finite(m, p, n, lo, hi):
    rng = np.random.default_rng(7)
    a = Tensor(np.clip(rng.standard_normal((m, p)) * max(abs(lo), 1.0), -1e3, 1e3))
    b = Tensor(np.clip(rng.standard_normal((p, n)) * max(abs(hi), 1.0), -1e3, 1e3))
    out = engine.matmul(a, b)
    out = engine.softmax(out, axis=-1)
    out = engine.gelu(out)
    out = engine.layer_norm(out, Tensor(np.ones(n)), Tensor(np.zeros(n)))
    assert np.isfinite(out.data).all()


def test_finite_check_raises_on_overflow():
    big = Tensor(np.full(2, 1e300))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        engine.mul(big, big)


def test_trunc_normal_bounded(rng):
    vals = engine.trunc_normal(rng, (1000,))
    assert np.abs(vals).max() <= 0.04 + 1e-9


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", [
    (0,), (1,), (7, 3), (3 * engine._CHUNK + 5,), (768, 3072), (256, 256, 3, 3),
])
def test_trunc_normal_matches_loop_reference(shape, seed):
    # same bytes and the same generator stream as one whole-tensor draw
    # with boolean-mask redraw rounds; (3 * chunk + 5,) has a ragged tail
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = engine.trunc_normal(rng, shape), trunc_normal_loop(ref_rng, shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()


class TestModulePlumbing:
    def test_named_parameters_nested(self, rng):
        class Inner(engine.Module):
            def __init__(self):
                self.lin = engine.Linear(2, 3, rng)

        class Outer(engine.Module):
            def __init__(self):
                self.blocks = [Inner(), Inner()]
                self.norm = engine.LayerNorm(3)

        names = [n for n, _ in Outer().named_parameters()]
        assert "blocks.0.lin.weight" in names
        assert "blocks.1.lin.bias" in names
        assert "norm.gamma" in names
