"""Finite-difference verification of every differentiable operation.

Each entry builds a small f64 instance, compares taped gradients against
central differences (h = 1e-5), and reports the worst relative error
|analytic - numeric| / max(1, |numeric|). Primitive ops must come in under
1e-5; composed blocks (windowed attention, a refinement stage) under 1e-3.
"""

import numpy as np

from . import engine
from .decoder import RefinementStage, soft_aggregate
from .engine import Tensor
from .memread import ReadGeometry, dense_read, map_indices, topk_read
from .model import cross_entropy

PRIMITIVE_TOL = 1e-5
COMPOSED_TOL = 1e-3


def _probe(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def _scalarized(builder, probe):
    def fn(*tensors):
        out = builder(*tensors)
        return engine.tsum(engine.mul(out, Tensor(probe)))
    return fn


def _check_matmul(rng):
    return engine.gradcheck(
        _scalarized(engine.matmul, _probe((3, 2), 0)),
        [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])


def _check_matmul_batched(rng):
    # rank-3 left operand with a 2-D right one: the folded single-GEMM path
    return engine.gradcheck(
        _scalarized(engine.matmul, _probe((2, 3, 5), 11)),
        [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))])


def _check_softmax(rng):
    return engine.gradcheck(
        _scalarized(lambda x: engine.softmax(x, axis=-1), _probe((4, 5), 1)),
        [rng.standard_normal((4, 5))])


def _check_layer_norm(rng):
    return engine.gradcheck(
        _scalarized(engine.layer_norm, _probe((3, 6), 2)),
        [rng.standard_normal((3, 6)), rng.standard_normal(6) + 1.0,
         rng.standard_normal(6)])


def _check_gelu(rng):
    return engine.gradcheck(
        _scalarized(engine.gelu, _probe((4, 4), 3)), [rng.standard_normal((4, 4))])


def _check_conv2d(rng):
    return engine.gradcheck(
        _scalarized(engine.conv2d, _probe((3, 4, 4), 4)),
        [rng.standard_normal((2, 4, 4)), rng.standard_normal((3, 2, 3, 3)),
         rng.standard_normal(3)])


def _check_bilinear_upsample(rng):
    return engine.gradcheck(
        _scalarized(lambda x: engine.bilinear_upsample(x, (5, 6)), _probe((2, 5, 6), 5)),
        [rng.standard_normal((2, 3, 3))])


def _check_window_msa(rng):
    from .attention import window_msa

    dim, heads, length = 4, 2, 4
    probe = _probe((2, length, dim), 6)
    mask = np.zeros((2, length, length))
    mask[0, 0, 3] = -1e9

    def fn(tokens, wq, bq, wp, bp, bias):
        class _Lin:
            def __init__(self, w, b):
                self.w, self.b = w, b

            def __call__(self, x):
                return engine.add(engine.matmul(x, self.w), self.b)

        out = window_msa(tokens, _Lin(wq, bq), _Lin(wp, bp), heads,
                         bias=bias, mask=mask)
        return engine.tsum(engine.mul(out, Tensor(probe)))

    return engine.gradcheck(fn, [
        rng.standard_normal((2, length, dim)),
        rng.standard_normal((dim, 3 * dim)), rng.standard_normal(3 * dim),
        rng.standard_normal((dim, dim)), rng.standard_normal(dim),
        rng.standard_normal((heads, length, length)) * 0.1,
    ])


_GEOM = ReadGeometry(t=2, h4=2, w4=2)


def _check_dense_read(rng):
    probe = _probe((6, 4), 7)

    def fn(kq, vq, km, vm):
        return engine.tsum(engine.mul(dense_read(kq, vq, km, vm), Tensor(probe)))

    return engine.gradcheck(fn, [
        rng.standard_normal((1, 4)), rng.standard_normal((3, 4)),
        rng.standard_normal((1, 8)), rng.standard_normal((3, 8))])


def _check_topk_read(rng):
    stage = 3
    omega = map_indices(np.array([[0, 5], [1, 4], [2, 3], [6, 7]]), stage, _GEOM)
    hi, wi = _GEOM.stage_hw(stage)
    probe = _probe((16, hi * wi), 8)

    def fn(kq, vq, km, vm):
        y = topk_read(kq, vq, km, vm, omega, stage, _GEOM)
        return engine.tsum(engine.mul(y, Tensor(probe)))

    nm = _GEOM.t * hi * wi
    return engine.gradcheck(fn, [
        rng.standard_normal((4, hi * wi)), rng.standard_normal((8, hi * wi)),
        rng.standard_normal((4, nm)), rng.standard_normal((8, nm))])


def _check_soft_aggregate(rng):
    probe = _probe((3, 2, 2), 9)

    def fn(p0, p1):
        return engine.tsum(engine.mul(soft_aggregate([p0, p1]), Tensor(probe)))

    return engine.gradcheck(fn, [rng.uniform(0.2, 0.8, (2, 2)),
                                 rng.uniform(0.2, 0.8, (2, 2))])


def _check_cross_entropy(rng):
    labels = rng.integers(0, 3, size=(3, 3))

    def fn(dist):
        return cross_entropy(dist, labels)

    return engine.gradcheck(fn, [rng.uniform(0.1, 0.9, (3, 3, 3))])


def _check_refinement_stage(rng):
    stage = RefinementStage(4, 6, np.random.default_rng(12), dtype=np.float64)
    probe = _probe((6, 4, 4), 10)

    def fn(coarse, skip):
        out = stage(coarse, skip, (4, 4))
        return engine.tsum(engine.mul(out, Tensor(probe)))

    return engine.gradcheck(fn, [rng.standard_normal((6, 2, 2)),
                                 rng.standard_normal((4, 16))], tol=COMPOSED_TOL)


SUITE = [
    ("matmul", _check_matmul, PRIMITIVE_TOL),
    ("matmul_batched", _check_matmul_batched, PRIMITIVE_TOL),
    ("softmax", _check_softmax, PRIMITIVE_TOL),
    ("layer_norm", _check_layer_norm, PRIMITIVE_TOL),
    ("gelu", _check_gelu, PRIMITIVE_TOL),
    ("conv2d", _check_conv2d, PRIMITIVE_TOL),
    ("bilinear_upsample", _check_bilinear_upsample, PRIMITIVE_TOL),
    ("window_msa", _check_window_msa, COMPOSED_TOL),
    ("dense_read", _check_dense_read, PRIMITIVE_TOL),
    ("topk_read", _check_topk_read, PRIMITIVE_TOL),
    ("soft_aggregate", _check_soft_aggregate, PRIMITIVE_TOL),
    ("cross_entropy", _check_cross_entropy, PRIMITIVE_TOL),
    ("refinement_stage", _check_refinement_stage, COMPOSED_TOL),
]


def run_suite(seed=1234):
    """Returns [(op, passed, worst_rel_err, tolerance)]."""
    results = []
    for name, check, tol in SUITE:
        rng = np.random.default_rng(seed)
        _, worst = check(rng)
        results.append((name, worst <= tol, worst, tol))
    return results
