"""Query (image) and memory (video) encoders.

Both encoders are four-stage pyramids of windowed-attention blocks joined
by patch merging, sized by a ``ModelConfig``: counting from 0, stage i has
``depths[i]`` blocks of width ``dim * 2**i`` and ``heads_for(dim)[i]``
heads. Each stage halves the spatial resolution of the one before and
doubles its channels; the memory encoder keeps the temporal extent fixed
across stages. An encoder returns its four stage feature maps as a list.
The memory encoders take every object's masks at once: their maps carry a
leading object axis, and no window spans it. Inputs are zero-padded to a
multiple of 32 on the right and bottom, and every block masks the padded
tokens out of attention using the valid extents of its stage.
"""

from dataclasses import dataclass

import numpy as np

from . import engine
from .attention import PATCH, PatchEmbedImage, PatchEmbedVideo, PatchMerge, SwinBlock, _patchify
from .engine import Linear, Module, Tensor
from .errors import DimensionError, UsageError

N_STAGES = 4


def _pad_inputs(*inputs):
    """Right/bottom zero-pad [.., H, W, C] inputs to a multiple of 32 (a
    patch, then three 2x merges). Returns the valid token extents of the
    unpadded H, W and the padded inputs."""
    multiple = PATCH * 2 ** (N_STAGES - 1)
    padded = []
    for x in inputs:
        ph, pw = (-e % multiple for e in x.shape[-3:-1])
        padded.append(engine.pad(x, ((0, 0),) * (x.ndim - 3) + ((0, ph), (0, pw), (0, 0)))
                      if ph or pw else x)
    h, w = inputs[0].shape[-3:-1]
    return (-(-h // PATCH), -(-w // PATCH)), padded


def _memory_inputs(frames, target_masks, other_masks):
    """Check and pad a memory clip, frames [T, H, W, 3] and masks
    [*lead, T, H, W, 1]: (valid token extents, padded inputs)."""
    if frames.ndim != 4 or frames.shape[0] == 0:
        raise UsageError(f"need at least one memory frame, got shape {frames.shape}")
    return _pad_inputs(frames, target_masks, other_masks)


class _StageStack(Module):
    """The shared four-stage pyramid over embedded tokens.

    Returns the stage maps [*lead, H_i, W_i, C_i], H_i = H/2^(i+1) of the
    padded input, as a list of four; ``lead`` is the tokens' (M,) (T,).
    """

    def __init__(self, config, window, rng):
        self.stages = []
        self.merges = []
        heads = heads_for(config.dim)
        for i in range(N_STAGES):
            dim = config.dim * 2 ** i
            blocks = [SwinBlock(dim, heads[i], window, shifted=(j % 2 == 1), rng=rng)
                      for j in range(config.depths[i])]
            self.stages.append(blocks)
            if i < N_STAGES - 1:
                self.merges.append(PatchMerge(dim, rng))

    def __call__(self, tokens, valid):
        features = []
        vh, vw = valid
        x = tokens
        for i in range(N_STAGES):
            # object and temporal extents are the token grid's, never padded
            extents = x.shape[:-3] + (vh, vw)
            for block in self.stages[i]:
                x = block(x, valid=extents)
            features.append(x)
            if i < N_STAGES - 1:
                x = self.merges[i](x)
                vh = -(-vh // 2)
                vw = -(-vw // 2)
        return features


class ImageEncoder(Module):
    """Spatial feature pyramid over a single frame."""

    def __init__(self, config, rng):
        self.patch_embed = PatchEmbedImage(config.dim, rng)
        self.stack = _StageStack(config, (config.window, config.window), rng)

    def __call__(self, frame):
        _, _, c = frame.shape
        if c != 3:
            raise DimensionError(f"expected an RGB frame, got shape {frame.shape}")
        valid, (frame,) = _pad_inputs(frame)
        return self.stack(self.patch_embed(frame), valid)


class VideoEncoder(Module):
    """Spatiotemporal feature pyramid over past frames and their masks.

    Frames [T, H, W, 3]; masks [M, T, H, W, 1] give stage maps
    [M, T, H_i, W_i, C_i], one pyramid per object from one pass (masks
    without the object axis give [T, H_i, W_i, C_i]).
    """

    def __init__(self, config, rng):
        self.patch_embed = PatchEmbedVideo(config.dim, rng,
                                           use_other_mask=config.other_mask_enabled)
        window = (config.temporal_window, config.window, config.window)
        self.stack = _StageStack(config, window, rng)

    def __call__(self, frames, target_masks, other_masks):
        valid, padded = _memory_inputs(frames, target_masks, other_masks)
        return self.stack(self.patch_embed(*padded), valid)


class ImageOnlyMemoryEncoder(Module):
    """Ablation memory path: the query encoder applied per past frame.

    Masks are fused at the embedding by learned linear projections of the
    mask patches, added before its norm; RGB patches are embedded once.
    Masks [M, T, H, W, 1] give stage maps [M, T, H_i, W_i, C_i] from one
    call of the query stack, whose 2-D windows batch the object and time axes.
    """

    def __init__(self, config, rng):
        p2 = PATCH * PATCH
        self.embed_target = Linear(p2, config.dim, rng)
        self.embed_other = Linear(p2, config.dim, rng) if config.other_mask_enabled else None

    def __call__(self, image_encoder, frames, target_masks, other_masks):
        valid, (frames, target_masks, other_masks) = _memory_inputs(
            frames, target_masks, other_masks)
        embed = image_encoder.patch_embed
        tokens = engine.add(embed.embed(_patchify(frames, PATCH)),
                            self.embed_target(_patchify(target_masks, PATCH)))
        if self.embed_other is not None:
            tokens = engine.add(tokens, self.embed_other(_patchify(other_masks, PATCH)))
        return image_encoder.stack(embed.norm(tokens), valid)


@dataclass
class KeyValueMaps:
    """key: [C_i/8, N]; value: [C_i/2, N] with positions flattened row-major
    (time-major for memory: (t, x, y) -> t*H_i*W_i + x*W_i + y)."""
    key: Tensor
    value: Tensor


class KeyValueProjector(Module):
    """Per-stage linear (1x1, no bias) projections to key and value maps."""

    def __init__(self, base_dim, rng):
        self.keys = []
        self.values = []
        for i in range(N_STAGES):
            dim = base_dim * 2 ** i
            self.keys.append(Linear(dim, dim // 8, rng, bias=False))
            self.values.append(Linear(dim, dim // 2, rng, bias=False))

    def __call__(self, features):
        """Project an encoder's four stage maps.

        A memory map [M, T, H_i, W_i, C] leads with an object axis; a query
        map [H_i, W_i, C] counts as one object. Returns, per object, the
        list of its four stages' KeyValueMaps.
        """
        per_stage = []
        for f, keys, values in zip(features, self.keys, self.values):
            flat = engine.reshape(f, (f.shape[0] if f.ndim == 5 else 1, -1, f.shape[-1]))
            per_stage.append(zip(engine.unstack(_project_objects(flat, keys.weight)),
                                 engine.unstack(_project_objects(flat, values.weight))))
        return [[KeyValueMaps(k, v) for k, v in maps] for maps in zip(*per_stage)]


def _project_objects(x, weight):
    """[M, N, C] @ [C, n] as one op of M GEMMs, one per object: a GEMM's
    bytes can depend on its row count, and an object's must not depend on
    M. Returns [M, n, N], each object's map the transposed view of its
    contiguous [N, n] product: ``dense_read``'s bytes depend on that layout.
    The input gradient is an ``engine.array_matmul`` product, whose inner
    extent is 1 for a one-channel key map."""
    out = np.matmul(x.data, weight.data)  # numpy runs one GEMM per object

    def bwd(g):
        g = g.transpose(0, 2, 1)
        gx = engine.array_matmul(g, weight.data.T) if x.watched else None
        gw = np.matmul(x.data.transpose(0, 2, 1), g).sum(axis=0) if weight.watched else None
        return gx, gw

    return engine.record_op(out.transpose(0, 2, 1), (x, weight), bwd)


def heads_for(dim):
    """Stage head counts {h, 2h, 4h, 8h} with h = max(dim/32, 1)."""
    base = max(dim // 32, 1)
    return tuple(base * 2 ** i for i in range(N_STAGES))
