"""Finite-difference verification of every differentiable operation.

Each entry builds a small f64 instance, compares taped gradients against
central differences (h = 1e-5), and reports the worst relative error
|analytic - numeric| / max(1, |numeric|). Primitive ops must come in under
1e-5; composed blocks (windowed attention, a refinement stage) under 1e-3.
"""

import numpy as np

from . import engine
from .attention import SwinBlock, window_msa
from .decoder import RefinementStage, soft_aggregate
from .encoders import _project_objects
from .engine import Tensor
from .memread import ReadGeometry, TopKIndexSet, dense_read, topk_read
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
    # rank-3 left operand with a 2-D right one and a bias: a Linear on a grid
    return engine.gradcheck(
        _scalarized(engine.matmul, _probe((2, 3, 5), 11)),
        [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)),
         rng.standard_normal(5)])


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
    # non-square extents, so an h/w mix-up in the column layout shows
    return engine.gradcheck(
        _scalarized(engine.conv2d, _probe((3, 3, 5), 4)),
        [rng.standard_normal((2, 3, 5)), rng.standard_normal((3, 2, 3, 3)),
         rng.standard_normal(3)])


def _check_bilinear_upsample(rng):
    return engine.gradcheck(
        _scalarized(lambda x: engine.bilinear_upsample(x, (5, 6)), _probe((2, 5, 6), 5)),
        [rng.standard_normal((2, 3, 3))])


def _check_gather_rows(rng):
    # a 2x3 grid into two windows of four slots, two of them fill
    rows = np.array([4, -1, 0, 2, 1, 3, -1, 5])
    inverse = np.array([2, 4, 3, 5, 0, 7])
    return engine.gradcheck(
        _scalarized(lambda x, fill: engine.gather_rows(x, rows, inverse, (2, 4, 3), fill),
                    _probe((2, 4, 3), 15)),
        [rng.standard_normal((2, 3, 3)), rng.standard_normal(3)])


def _check_project_objects(rng):
    # three objects, each piece taken with unstack, as the k/v projection does
    probe = _probe((3, 2, 4), 16)

    def fn(x, weight):
        pieces = engine.unstack(_project_objects(x, weight))
        sums = [engine.tsum(engine.mul(piece, Tensor(p))) for piece, p in zip(pieces, probe)]
        return engine.add(engine.add(sums[0], sums[1]), sums[2])

    return engine.gradcheck(fn, [rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 2))])


def _check_window_msa(rng):
    heads, length, dim = 2, 4, 4
    mask = np.zeros((2, 1, length, length))
    mask[0, 0, :, 3] = -1e9  # key 3 of window 0 is blocked for every query
    mask[1, 0, 0, 1] = -1e9

    def fn(qkv, bias):
        return engine.tsum(engine.mul(window_msa(qkv, heads, bias=bias, mask=mask),
                                      Tensor(_probe((2, length, dim), 6))))

    return engine.gradcheck(fn, [rng.standard_normal((2, length, 3 * dim)),
                                 rng.standard_normal((heads, length, length)) * 0.1])


class _Bound:
    """Stands in for a Parameter, handing the block a gradcheck input."""

    def __init__(self, tensor):
        self._tensor = tensor

    def tensor(self):
        return self._tensor


def _check_swin_block(rng, objects=()):
    # shifted 2-D block on a 5x6 grid that pads to 6x6 for 3x3 windows, with
    # valid extents (2, 4), so some windows hold padding and invalid tokens
    # only; their all-masked logits sit near -1e9, where central differences
    # resolve about 1e-4 (2e-4 at the default seed). ``objects`` puts
    # leading object axes in front of the grid.
    block = SwinBlock(4, 2, (3, 3), shifted=True, rng=np.random.default_rng(13)).astype(np.float64)
    bound = [(block.attn.qkv, "weight"), (block.attn.qkv, "bias"),
             (block.attn.bias, "table")]
    probe = _probe(objects + (5, 6, 4), 14)

    def fn(x, *params):
        for (owner, attr), value in zip(bound, params):
            setattr(owner, attr, _Bound(value))
        out = block(x, valid=objects + (2, 4))
        return engine.tsum(engine.mul(out, Tensor(probe)))

    return engine.gradcheck(fn, [rng.standard_normal(objects + (5, 6, 4))]
                            + [rng.standard_normal(getattr(owner, attr).shape) * 0.5
                               for owner, attr in bound])


def _check_swin_block_objects(rng):
    # two objects share the block's windows, mask and bias table
    return _check_swin_block(rng, objects=(2,))


_GEOM = ReadGeometry(t=2, h4=2, w4=2)


def _check_dense_read(rng):
    probe = _probe((6, 4), 7)

    def fn(kq, vq, km, vm):
        return engine.tsum(engine.mul(dense_read(kq, vq, km, vm), Tensor(probe)))

    return engine.gradcheck(fn, [
        rng.standard_normal((1, 4)), rng.standard_normal((3, 4)),
        rng.standard_normal((1, 8)), rng.standard_normal((3, 8))])


def _check_topk_read(rng, key_width=4):
    stage = 3
    omega = TopKIndexSet(np.array([[0, 5], [1, 4], [2, 3], [6, 7]]), _GEOM).expand(stage)
    hi, wi = _GEOM.stage_hw(stage)
    probe = _probe((16, hi * wi), 8)

    def fn(kq, vq, km, vm):
        y = topk_read(kq, vq, km, vm, omega, stage, _GEOM)
        return engine.tsum(engine.mul(y, Tensor(probe)))

    nm = _GEOM.t * hi * wi
    return engine.gradcheck(fn, [
        rng.standard_normal((key_width, hi * wi)), rng.standard_normal((8, hi * wi)),
        rng.standard_normal((key_width, nm)), rng.standard_normal((8, nm))])


def _check_topk_read_unit_key(rng):
    # one-channel keys, as at nano stage 1: the scores are a broadcast product
    return _check_topk_read(rng, key_width=1)


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
    stage = RefinementStage(4, 6, np.random.default_rng(12)).astype(np.float64)
    probe = _probe((6, 4, 4), 10)

    def fn(coarse, skip):
        out = stage(coarse, skip, (4, 4))
        return engine.tsum(engine.mul(out, Tensor(probe)))

    return engine.gradcheck(fn, [rng.standard_normal((6, 2, 2)),
                                 rng.standard_normal((4, 16))])


SUITE = [
    ("matmul", _check_matmul, PRIMITIVE_TOL),
    ("matmul_batched", _check_matmul_batched, PRIMITIVE_TOL),
    ("softmax", _check_softmax, PRIMITIVE_TOL),
    ("layer_norm", _check_layer_norm, PRIMITIVE_TOL),
    ("gelu", _check_gelu, PRIMITIVE_TOL),
    ("conv2d", _check_conv2d, PRIMITIVE_TOL),
    ("bilinear_upsample", _check_bilinear_upsample, PRIMITIVE_TOL),
    ("gather_rows", _check_gather_rows, PRIMITIVE_TOL),
    ("project_objects", _check_project_objects, PRIMITIVE_TOL),
    ("window_msa", _check_window_msa, COMPOSED_TOL),
    ("swin_block", _check_swin_block, COMPOSED_TOL),
    ("swin_block_objects", _check_swin_block_objects, COMPOSED_TOL),
    ("dense_read", _check_dense_read, PRIMITIVE_TOL),
    ("topk_read", _check_topk_read, PRIMITIVE_TOL),
    ("topk_read_unit_key", _check_topk_read_unit_key, PRIMITIVE_TOL),
    ("soft_aggregate", _check_soft_aggregate, PRIMITIVE_TOL),
    ("cross_entropy", _check_cross_entropy, PRIMITIVE_TOL),
    ("refinement_stage", _check_refinement_stage, COMPOSED_TOL),
]


def run_suite(seed):
    """Returns [(op, passed, worst_rel_err, tolerance)]."""
    results = []
    for name, check, tol in SUITE:
        rng = np.random.default_rng(seed)
        worst = check(rng)
        results.append((name, worst <= tol, worst, tol))
    return results
