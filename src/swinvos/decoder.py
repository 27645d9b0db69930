"""Refinement decoder and multi-object soft aggregation.

The coarsest read output is compressed to a fixed width D and upsampled
x2 three times; each refinement stage adds a 1x1-projected skip from the
read output at its scale, then applies two residual 3x3 conv blocks. A
final 3x3 conv produces 2 logits (background/foreground) at quarter
resolution; the softmaxed foreground probability is bilinearly upsampled
x4 and cropped to the input size. Multiple objects are merged by odds
normalization of their per-object probability maps.
"""

import numpy as np

from . import engine
from .engine import Conv3x3, Linear, Module, Tensor
from .errors import UsageError

CLAMP_EPS = 1e-5


class ResidualConvBlock(Module):
    def __init__(self, dim, rng):
        self.conv1 = Conv3x3(dim, dim, rng)
        self.conv2 = Conv3x3(dim, dim, rng)

    def __call__(self, x):
        h = self.conv1(engine.gelu(x))
        h = self.conv2(engine.gelu(h))
        return engine.add(x, h)


class RefinementStage(Module):
    """Upsample the coarse path x2, add a 1x1-projected skip, refine."""

    def __init__(self, skip_dim, dim, rng):
        self.skip = Linear(skip_dim, dim, rng, bias=False)
        self.block1 = ResidualConvBlock(dim, rng)
        self.block2 = ResidualConvBlock(dim, rng)

    def __call__(self, coarse, skip_flat, hw):
        """coarse: [D, H/2, W/2]; skip_flat: [C_i, H*W] or None (zeros)."""
        h, w = hw
        x = engine.bilinear_upsample(coarse, (h, w))
        if skip_flat is not None:
            s = self.skip(engine.transpose(skip_flat, (1, 0)))
            s = engine.reshape(engine.transpose(s, (1, 0)), x.shape)
            x = engine.add(x, s)
        return self.block2(self.block1(x))


class Decoder(Module):
    """Reconstruct a foreground probability map from read outputs y1..y4."""

    def __init__(self, base_dim, width, rng):
        dims = [base_dim * 2 ** i for i in range(4)]
        self.compress = Linear(dims[3], width, rng, bias=False)
        self.refine = [RefinementStage(dims[2], width, rng),
                       RefinementStage(dims[1], width, rng),
                       RefinementStage(dims[0], width, rng)]
        self.head = Conv3x3(width, 2, rng)
        self.width = width

    def __call__(self, ys, grid_hw, out_hw):
        """ys: [y1, y2, y3, y4] ([C_i, H_i*W_i]; finer entries may be None);
        grid_hw: stage-4 grid (h4, w4); out_hw: output pixel extents."""
        if ys[3] is None:
            raise UsageError("decoder requires the coarsest read output y4")
        h4, w4 = grid_hw
        x = self.compress(engine.transpose(ys[3], (1, 0)))
        x = engine.reshape(engine.transpose(x, (1, 0)), (self.width, h4, w4))
        for stage, refine in zip((3, 2, 1), self.refine):
            r = 2 ** (4 - stage)
            x = refine(x, ys[stage - 1], (h4 * r, w4 * r))
        logits = self.head(x)  # [2, Hp/4, Wp/4]
        probs = engine.softmax(logits, axis=0)
        fg = probs[1:2]
        full = engine.bilinear_upsample(fg, (fg.shape[1] * 4, fg.shape[2] * 4))
        oh, ow = out_hw
        return engine.reshape(full[:, :oh, :ow], (oh, ow))


def soft_aggregate(probs):
    """Merge per-object foreground maps into an (M+1)-class distribution.

    Each probability is clamped to [eps, 1-eps] and converted to odds
    p/(1-p); the background odds come from the product of complements.
    Output [M+1, H, W] columns sum to 1.
    """
    if not probs:
        raise UsageError("soft aggregation needs at least one object map")
    clamped = [engine.clamp(p, CLAMP_EPS, 1.0 - CLAMP_EPS) for p in probs]
    hw = clamped[0].shape
    complement_prod = None
    odds = []
    for p in clamped:
        comp = engine.sub(1.0, p)
        complement_prod = comp if complement_prod is None \
            else engine.mul(complement_prod, comp)
        odds.append(engine.div(p, comp))
    bg = engine.clamp(complement_prod, CLAMP_EPS, 1.0 - CLAMP_EPS)
    bg_odds = engine.div(bg, engine.sub(1.0, bg))
    stacked = engine.concat(
        [engine.reshape(o, (1,) + hw) for o in [bg_odds] + odds], axis=0)
    total = engine.tsum(stacked, axis=0)
    return engine.div(stacked, total)


def predict_labels(class_dist):
    """Pointwise argmax over the class axis; ties go to the lowest class."""
    data = class_dist.data if isinstance(class_dist, Tensor) else np.asarray(class_dist)
    return np.argmax(data, axis=0).astype(np.int64)
