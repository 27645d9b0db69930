"""Shifted-window multi-head self-attention blocks, 2D and 3D.

Token grids are [*spatial_dims, C] tensors (a leading T axis makes a block
3D). Windows tile the spatial axes; the shifted variant rolls the grid by
half a window first and suppresses attention between tokens that originate
from different pre-shift windows via an additive -1e9 mask. Grids whose
extents are not window multiples are padded on the right/bottom, and the
padded tokens are masked out of attention as keys.

A block projects only in-grid tokens: qkv runs on the unpadded grid, the
padding is added to its output, and only then is the qkv bias added, so a
padded position holds exactly the bias (a window whose keys are all
masked averages its values over every position, padding included). The
output projection runs after the padding is cropped away.
"""

import functools
import math

import numpy as np

from . import engine
from .engine import Linear, Module, Parameter
from .errors import ConfigError, DimensionError

MASK_VALUE = -1e9  # finite so gradients stay finite


def _prod(xs):
    out = 1
    for x in xs:
        out *= int(x)
    return out


def window_partition(x, window):
    """Tile [*dims, C] into non-overlapping windows: [nW, prod(window), C]."""
    if any(w <= 0 for w in window):
        raise ConfigError(f"window extents must be positive, got {window}")
    dims = x.shape[:-1]
    if len(dims) != len(window):
        raise DimensionError(f"window rank {len(window)} does not match grid {x.shape}")
    if any(d % w for d, w in zip(dims, window)):
        raise DimensionError(f"grid {dims} not divisible by window {window}")
    c = x.shape[-1]
    split = []
    for d, w in zip(dims, window):
        split += [d // w, w]
    y = engine.reshape(x, tuple(split) + (c,))
    n = len(window)
    perm = tuple(2 * i for i in range(n)) + tuple(2 * i + 1 for i in range(n)) + (2 * n,)
    y = engine.transpose(y, perm)
    n_windows = _prod(d // w for d, w in zip(dims, window))
    return engine.reshape(y, (n_windows, _prod(window), c))


def window_reverse(windows, window, dims):
    """Invert window_partition back to [*dims, C]."""
    c = windows.shape[-1]
    blocks = tuple(d // w for d, w in zip(dims, window))
    y = engine.reshape(windows, blocks + tuple(window) + (c,))
    n = len(window)
    perm = []
    for i in range(n):
        perm += [i, n + i]
    perm.append(2 * n)
    y = engine.transpose(y, tuple(perm))
    return engine.reshape(y, tuple(dims) + (c,))


def cyclic_shift(x, offsets):
    """Toroidal roll by -offset along the first len(offsets) axes."""
    if all(o == 0 for o in offsets):
        return x
    axes = tuple(range(len(offsets)))
    return engine.roll(x, tuple(-o for o in offsets), axes)


def inverse_cyclic_shift(x, offsets):
    if all(o == 0 for o in offsets):
        return x
    axes = tuple(range(len(offsets)))
    return engine.roll(x, tuple(offsets), axes)


def effective_window(dims, window):
    """Clamp window extents to the grid and zero the shift on clamped axes.

    Returns (window, shift) actually used; matches the usual Swin handling
    of grids smaller than the configured window.
    """
    win, shift = [], []
    for d, w in zip(dims, window):
        if d <= w:
            win.append(int(d))
            shift.append(0)
        else:
            win.append(int(w))
            shift.append(w // 2)
    return tuple(win), tuple(shift)


@functools.lru_cache(maxsize=64)
def relative_position_index(window, table_window):
    """Map each token pair of a window to a row of the bias table.

    The table is sized for ``table_window``; ``window`` may be clamped
    smaller, in which case the displacement range is a strict subset.
    Index depends only on the relative displacement of the pair.
    """
    coords = np.stack(np.meshgrid(*[np.arange(w) for w in window], indexing="ij"))
    coords = coords.reshape(len(window), -1)  # [rank, L]
    diff = coords[:, :, None] - coords[:, None, :]  # [rank, L, L]
    index = np.zeros(diff.shape[1:], dtype=np.int64)
    for axis, (w_eff, w_tab) in enumerate(zip(window, table_window)):
        if w_eff > w_tab:
            raise ConfigError(f"effective window {window} exceeds table window {table_window}")
        index = index * (2 * w_tab - 1) + (diff[axis] + w_tab - 1)
    return index


class RelativePositionBias(Module):
    """Learned per-head bias over relative token displacements in a window."""

    def __init__(self, table_window, heads, rng, dtype=engine.DEFAULT_DTYPE):
        rows = _prod(2 * w - 1 for w in table_window)
        self.table = Parameter(engine.trunc_normal(rng, (rows, heads), dtype=dtype))
        self.table_window = tuple(table_window)
        self.heads = heads

    def __call__(self, window):
        index = relative_position_index(tuple(window), self.table_window)
        length = index.shape[0]
        bias = engine.take(self.table.tensor(), index.reshape(-1), axis=0)
        bias = engine.reshape(bias, (length, length, self.heads))
        return engine.transpose(bias, (2, 0, 1))  # [heads, L, L]


@functools.lru_cache(maxsize=128)
def _origin_map(dims, window, shift):
    """Region ids marking pre-shift window origins on the post-shift grid."""
    region = np.zeros(dims, dtype=np.int64)
    axis_slices = []
    for d, w, s in zip(dims, window, shift):
        if s > 0:
            axis_slices.append((slice(0, d - w), slice(d - w, d - s), slice(d - s, d)))
        else:
            axis_slices.append((slice(0, d),))
    count = 0
    def fill(prefix, rest):
        nonlocal count
        if not rest:
            region[tuple(prefix)] = count
            count += 1
            return
        for sl in rest[0]:
            fill(prefix + [sl], rest[1:])
    fill([], axis_slices)
    return region


def _partition_flat(arr, window):
    """numpy window partition of [*dims] -> [nW, L]."""
    dims = arr.shape
    split = []
    for d, w in zip(dims, window):
        split += [d // w, w]
    y = arr.reshape(split)
    n = len(window)
    perm = tuple(2 * i for i in range(n)) + tuple(2 * i + 1 for i in range(n))
    return y.transpose(perm).reshape(-1, _prod(window))


@functools.lru_cache(maxsize=16)
def attention_mask(dims, window, shift, extents=None):
    """Additive mask [nW, 1, L, L]: exactly -1e9 on forbidden pairs, else 0.

    A pair is forbidden when the tokens come from different pre-shift
    windows, or when the key token lies outside ``extents``, the valid
    token extents (a box at the origin of the pre-shift grid ``dims``;
    None means all of it). Returns None when nothing is masked. Masks are
    cached per geometry as read-only float32 arrays. A T frame at one bank
    size uses 14 geometries (7 in each encoder); a small cache keeps the
    masks of earlier bank sizes from staying resident.
    """
    need_shift = any(s > 0 for s in shift)
    valid = np.zeros(dims, dtype=bool)
    valid[tuple(slice(0, int(e)) for e in (extents or dims))] = True
    need_valid = not valid.all()
    if not need_shift and not need_valid:
        return None
    regions = _origin_map(tuple(dims), tuple(window), tuple(shift))
    win_regions = _partition_flat(regions, window)  # [nW, L]
    forbidden = win_regions[:, :, None] != win_regions[:, None, :]
    if need_valid:
        if need_shift:
            valid = np.roll(valid, tuple(-s for s in shift), axis=tuple(range(len(shift))))
        win_valid = _partition_flat(valid, window)
        forbidden = forbidden | ~win_valid[:, None, :]
    if not forbidden.any():
        return None
    mask = np.where(forbidden[:, None], np.float32(MASK_VALUE), np.float32(0.0))
    mask.flags.writeable = False
    return mask


def window_msa(qkv, heads, bias=None, mask=None):
    """Multi-head self-attention within each window, over projected tokens.

    qkv: [nW, L, 3C] (queries, keys and values side by side, each split
    into ``heads`` slices of C/heads); ``bias`` is a [heads, L, L] tensor,
    ``mask`` a [nW, 1, L, L] additive array or None. Returns [nW, L, C].
    Logits are scaled by 1/sqrt(C/heads).

    One op and one tape node: q, k and v are views of ``qkv``; the scale,
    bias, mask and softmax run in place on one logits buffer, and the
    value product writes straight into the [nW, L, C] layout. The backward
    is written out for ``qkv`` and ``bias``.
    """
    qkv = engine.as_tensor(qkv)
    n_windows, length, width = qkv.shape
    if width % (3 * heads):
        raise ConfigError(f"qkv width {width} is not 3 x a multiple of heads {heads}")
    c = width // 3
    head_dim = c // heads
    scale = qkv.dtype.type(1.0 / math.sqrt(head_dim))
    split = (n_windows, length, 3, heads, head_dim)
    q, k, v = qkv.data.reshape(split).transpose(2, 0, 3, 1, 4)  # [nW, heads, L, hd]
    weights = np.matmul(q, k.swapaxes(-1, -2))
    weights *= scale
    if bias is not None:
        weights += bias.data  # broadcast over nW
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = np.empty((n_windows, length, heads, head_dim), dtype=qkv.dtype)
    np.matmul(weights, v, out=out.transpose(0, 2, 1, 3))

    def bwd(g):
        g_out = g.reshape(n_windows, length, heads, head_dim).transpose(0, 2, 1, 3)
        g_qkv = np.empty(split, dtype=g.dtype)
        g_q, g_k, g_v = g_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(weights.swapaxes(-1, -2), g_out, out=g_v)
        g_logits = np.matmul(g_out, v.swapaxes(-1, -2))
        g_logits -= (g_logits * weights).sum(axis=-1, keepdims=True)
        g_logits *= weights
        g_bias = g_logits.sum(axis=0) if bias is not None and bias.watched else None
        g_logits *= scale
        np.matmul(g_logits, k, out=g_q)
        np.matmul(g_logits.swapaxes(-1, -2), q, out=g_k)
        return g_qkv.reshape(qkv.shape), g_bias

    inputs = (qkv,) if bias is None else (qkv, bias)
    return engine.record_op(out.reshape(n_windows, length, c), inputs, bwd)


class WindowAttention(Module):
    """Holder of a block's attention weights; ``SwinBlock`` applies them."""

    def __init__(self, dim, heads, table_window, rng, dtype=engine.DEFAULT_DTYPE):
        if dim % heads:
            raise ConfigError(f"channels {dim} not divisible by heads {heads}")
        self.qkv = Linear(dim, 3 * dim, rng, dtype=dtype)
        self.proj = Linear(dim, dim, rng, dtype=dtype)
        self.bias = RelativePositionBias(table_window, heads, rng, dtype=dtype)
        self.heads = heads


class Mlp(Module):
    def __init__(self, dim, rng, ratio=4, dtype=engine.DEFAULT_DTYPE):
        self.fc1 = Linear(dim, ratio * dim, rng, dtype=dtype)
        self.fc2 = Linear(ratio * dim, dim, rng, dtype=dtype)

    def __call__(self, x):
        return self.fc2(engine.gelu(self.fc1(x)))


class SwinBlock(Module):
    """One pre-norm windowed-attention block over [*dims, C].

    ``window`` is the configured window per spatial axis; ``shifted`` rolls
    by half a window (on axes where the grid is larger than the window).
    """

    def __init__(self, dim, heads, window, shifted, rng, dtype=engine.DEFAULT_DTYPE):
        self.norm1 = engine.LayerNorm(dim, dtype=dtype)
        self.attn = WindowAttention(dim, heads, window, rng, dtype=dtype)
        self.norm2 = engine.LayerNorm(dim, dtype=dtype)
        self.mlp = Mlp(dim, rng, dtype=dtype)
        self.window = tuple(window)
        self.shifted = shifted

    def __call__(self, x, valid=None):
        dims = tuple(x.shape[:-1])
        win, shift = effective_window(dims, self.window)
        if not self.shifted:
            shift = tuple(0 for _ in shift)
        pad_to = tuple(-(-d // w) * w for d, w in zip(dims, win))
        extents = dims if valid is None else tuple(int(e) for e in valid)
        attn = self.attn

        h = self.norm1(x)
        if pad_to != dims:
            widths = tuple((0, p - d) for p, d in zip(pad_to, dims)) + ((0, 0),)
            h = engine.pad(engine.matmul(h, attn.qkv.weight.tensor()), widths)
            h = engine.add(h, attn.qkv.bias.tensor())
        else:
            h = attn.qkv(h)
        h = cyclic_shift(h, shift)
        mask = attention_mask(pad_to, win, shift, extents)
        h = window_msa(window_partition(h, win), attn.heads, bias=attn.bias(win), mask=mask)
        h = inverse_cyclic_shift(window_reverse(h, win, pad_to), shift)
        if pad_to != dims:
            h = h[tuple(slice(0, d) for d in dims) + (slice(None),)]
        x = engine.add(x, attn.proj(h))
        x = engine.add(x, self.mlp(self.norm2(x)))
        return x


class PatchEmbedImage(Module):
    """Flatten 4x4x3 patches, linearly embed to C, layer-norm."""

    PATCH = 4

    def __init__(self, dim, rng, dtype=engine.DEFAULT_DTYPE):
        self.embed = Linear(self.PATCH * self.PATCH * 3, dim, rng, dtype=dtype)
        self.norm = engine.LayerNorm(dim, dtype=dtype)

    def __call__(self, frame):
        h, w, c = frame.shape
        if c != 3:
            raise DimensionError(f"expected RGB frame, got {frame.shape}")
        if h % self.PATCH or w % self.PATCH:
            raise DimensionError(f"frame extents {h}x{w} not divisible by {self.PATCH}")
        tokens = _patchify(frame, self.PATCH)
        return self.norm(self.embed(tokens))


class PatchEmbedVideo(Module):
    """Per-frame 4x4 patches of RGB plus target/other mask channels.

    The three patch streams pass through their own linear embeddings and
    are summed before the norm; the other-mask stream can be disabled.
    """

    PATCH = 4

    def __init__(self, dim, rng, use_other_mask=True, dtype=engine.DEFAULT_DTYPE):
        p2 = self.PATCH * self.PATCH
        self.embed_rgb = Linear(p2 * 3, dim, rng, dtype=dtype)
        self.embed_target = Linear(p2, dim, rng, dtype=dtype)
        self.embed_other = Linear(p2, dim, rng, dtype=dtype) if use_other_mask else None
        self.norm = engine.LayerNorm(dim, dtype=dtype)
        self.use_other_mask = use_other_mask

    def __call__(self, frames, target_masks, other_masks):
        if frames.shape[:3] != target_masks.shape[:3] or \
                frames.shape[:3] != other_masks.shape[:3]:
            raise DimensionError(
                f"frame/mask extents differ: {frames.shape} vs {target_masks.shape}"
                f" vs {other_masks.shape}")
        t, h, w, _ = frames.shape
        if h % self.PATCH or w % self.PATCH:
            raise DimensionError(f"frame extents {h}x{w} not divisible by {self.PATCH}")
        tokens = self.embed_rgb(_patchify(frames, self.PATCH))
        tokens = engine.add(tokens, self.embed_target(_patchify(target_masks, self.PATCH)))
        if self.use_other_mask:
            tokens = engine.add(tokens, self.embed_other(_patchify(other_masks, self.PATCH)))
        return self.norm(tokens)


def _patchify(x, p):
    """[.., H, W, C] -> [.., H/p, W/p, p*p*C] in row-major patch order."""
    *lead, h, w, c = x.shape
    y = engine.reshape(x, tuple(lead) + (h // p, p, w // p, p, c))
    n = len(lead)
    perm = tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4)
    y = engine.transpose(y, perm)
    return engine.reshape(y, tuple(lead) + (h // p, w // p, p * p * c))


class PatchMerge(Module):
    """Concatenate 2x2 spatial neighborhoods (4C), norm, project to 2C.

    The temporal axis, when present, is untouched.
    """

    def __init__(self, dim, rng, dtype=engine.DEFAULT_DTYPE):
        self.norm = engine.LayerNorm(4 * dim, dtype=dtype)
        self.reduce = Linear(4 * dim, 2 * dim, rng, bias=False, dtype=dtype)

    def __call__(self, x):
        h, w = x.shape[-3:-1]
        if h % 2 or w % 2:
            raise DimensionError(f"patch_merge requires even extents, got {h}x{w}")
        return self.reduce(self.norm(_patchify(x, 2)))
