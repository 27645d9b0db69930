"""Central finite-difference checks for every differentiable engine op.

All checks run in f64 with h=1e-5 and relative tolerance 1e-5
(|analytic - numeric| / max(1, |numeric|), elementwise max).
"""

import numpy as np
import pytest

from swinvos import engine
from swinvos.engine import Tensor, gradcheck

RNG = np.random.default_rng(99)


def check(fn, *arrays):
    worst = gradcheck(fn, list(arrays))
    assert worst <= 1e-5, f"gradient mismatch, worst rel err {worst:.3e}"


def test_add():
    check(lambda a, b: engine.tsum(engine.mul(engine.add(a, b), engine.add(a, b))),
          RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4)))


def test_add_broadcast():
    check(lambda a, b: engine.tsum(engine.mul(engine.add(a, b), engine.add(a, b))),
          RNG.standard_normal((3, 4)), RNG.standard_normal((4,)))


def test_mul_div():
    b = RNG.standard_normal((3, 3)) + 3.0
    check(lambda x, y: engine.tsum(engine.div(engine.mul(x, x), y)),
          RNG.standard_normal((3, 3)), b)


def test_matmul():
    check(lambda a, b: engine.tsum(engine.mul(engine.matmul(a, b), 0.5)),
          RNG.standard_normal((3, 4)), RNG.standard_normal((4, 2)))


def test_matmul_batched():
    check(lambda a, b: engine.tsum(engine.mul(engine.matmul(a, b), engine.matmul(a, b))),
          RNG.standard_normal((2, 3, 4)), RNG.standard_normal((4, 5)))


def test_softmax():
    weights = RNG.standard_normal((4, 5))

    def fn(x):
        return engine.tsum(engine.mul(engine.softmax(x, axis=-1), Tensor(weights)))

    check(fn, RNG.standard_normal((4, 5)))


def test_layer_norm():
    probe = RNG.standard_normal((3, 6))

    def fn(x, g, b):
        return engine.tsum(engine.mul(engine.layer_norm(x, g, b), Tensor(probe)))

    check(fn, RNG.standard_normal((3, 6)), RNG.standard_normal(6) + 1.0,
          RNG.standard_normal(6))


def test_gelu():
    check(lambda x: engine.tsum(engine.gelu(x)), RNG.standard_normal((4, 4)))


def test_conv2d():
    probe = RNG.standard_normal((3, 4, 4))

    def fn(x, w, b):
        return engine.tsum(engine.mul(engine.conv2d(x, w, b), Tensor(probe)))

    check(fn, RNG.standard_normal((2, 4, 4)), RNG.standard_normal((3, 2, 3, 3)),
          RNG.standard_normal(3))


def test_bilinear_upsample():
    probe = RNG.standard_normal((2, 5, 6))

    def fn(x):
        return engine.tsum(engine.mul(engine.bilinear_upsample(x, (5, 6)), Tensor(probe)))

    check(fn, RNG.standard_normal((2, 3, 3)))


def test_exp_log():
    check(lambda x: engine.tsum(engine.log(engine.add(engine.mul(x, x), 1.0))),
          RNG.standard_normal((3, 3)))


def test_reshape_transpose_concat():
    def fn(a, b):
        j = engine.concat([engine.reshape(a, (2, 6)), engine.transpose(b, (1, 0))], axis=0)
        return engine.tsum(engine.mul(j, j))

    check(fn, RNG.standard_normal((3, 4)), RNG.standard_normal((6, 2)))


def test_roll_pad_slice():
    rows = np.roll(np.arange(4), 1)  # a roll of the rows as a one-to-one gather

    def fn(x):
        r = engine.gather_rows(x, rows, np.argsort(rows), (4, 4))
        p = engine.pad(r, ((1, 1), (0, 2)))
        return engine.tsum(engine.mul(p[1:3, :4], p[1:3, :4]))

    check(fn, RNG.standard_normal((4, 4)))


def test_take_and_fancy_getitem():
    # distinct positions, one per column: the gather cross_entropy makes
    rows, cols = np.array([2, 0, 1]), np.arange(3)

    def fn(x):
        g1 = engine.take(x, np.array([2, 0]))
        g2 = engine.getitem(x, (rows, cols))
        return engine.add(engine.tsum(engine.mul(g1, g1)), engine.tsum(engine.mul(g2, g2)))

    check(fn, RNG.standard_normal((3, 3)))


def test_clamp_interior():
    # keep all samples away from the clamp kinks
    x = np.clip(RNG.standard_normal((4, 4)) * 0.3, -0.8, 0.8)
    check(lambda t: engine.tsum(engine.mul(engine.clamp(t, -1.0, 1.0), 2.0)), x)


@pytest.mark.parametrize("seed", range(3))
def test_composed_mlp_block(seed):
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal((4, 3))

    def fn(x, w1, b1, w2, b2, g, be):
        h = engine.layer_norm(x, g, be)
        h = engine.gelu(engine.add(engine.matmul(h, w1), b1))
        h = engine.add(engine.matmul(h, w2), b2)
        out = engine.add(x, h)
        return engine.tsum(engine.mul(out, Tensor(probe)))

    check(fn, rng.standard_normal((4, 3)), rng.standard_normal((3, 8)),
          rng.standard_normal(8), rng.standard_normal((8, 3)),
          rng.standard_normal(3), rng.standard_normal(3) + 1.0,
          rng.standard_normal(3))


def test_nan_gradient_reads_infinite():
    # finite checks watch forward outputs only; a NaN backward must still fail
    def doubled(x):
        return engine.record_op(x.data * 2.0, (x,), lambda g: (np.full(x.shape, np.nan),))

    assert gradcheck(lambda x: engine.tsum(doubled(x)), [RNG.standard_normal(3)]) == np.inf


def test_suite_checks_project_objects():
    from swinvos.gradsuite import PRIMITIVE_TOL, SUITE

    rows = {name: (check, tol) for name, check, tol in SUITE}
    assert len(SUITE) == 17
    check, tol = rows["project_objects"]
    assert tol == PRIMITIVE_TOL
    assert check(np.random.default_rng(0)) <= tol
