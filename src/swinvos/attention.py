"""Shifted-window multi-head self-attention blocks, 2D and 3D.

Token grids are [*spatial_dims, C] tensors (a leading T axis makes a block
3D). Windows tile the spatial axes; the shifted variant rolls the grid by
half a window first and suppresses attention between tokens that originate
from different pre-shift windows via an additive -1e9 mask. Inputs whose
extents are not window multiples are zero-padded on the right/bottom and
the padded tokens are masked out of attention.
"""

import functools
import math

import numpy as np

from . import engine
from .engine import Linear, Module, Parameter, Tensor
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


def attention_mask(dims, window, shift, valid=None):
    """Additive mask [nW, L, L]: exactly -1e9 on forbidden pairs, else 0.

    A pair is forbidden when the tokens come from different pre-shift
    windows, or when the key token is padding (``valid`` False). ``valid``
    is a boolean grid over ``dims`` in pre-shift layout. Returns None when
    nothing is masked.
    """
    need_shift = any(s > 0 for s in shift)
    need_valid = valid is not None and not valid.all()
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
    return np.where(forbidden, MASK_VALUE, 0.0)


def window_msa(tokens, qkv, proj, heads, bias=None, mask=None):
    """Multi-head self-attention within each window.

    tokens: [nW, L, C]; ``qkv``/``proj`` are Linear modules; ``bias`` is a
    [heads, L, L] tensor, ``mask`` a [nW, L, L] additive array or None.
    Logits are scaled by 1/sqrt(C/heads).
    """
    n_windows, length, c = tokens.shape
    if c % heads:
        raise ConfigError(f"channels {c} not divisible by heads {heads}")
    head_dim = c // heads
    three = engine.reshape(qkv(tokens), (n_windows, length, 3, heads, head_dim))
    three = engine.transpose(three, (2, 0, 3, 1, 4))  # [3, nW, heads, L, hd]
    q, k, v = three[0], three[1], three[2]
    logits = engine.matmul(q, engine.transpose(k, (0, 1, 3, 2)))
    logits = engine.mul(logits, 1.0 / math.sqrt(head_dim))
    if bias is not None:
        logits = engine.add(logits, bias)  # broadcast over nW
    if mask is not None:
        logits = engine.add(logits, Tensor(mask.reshape(n_windows, 1, length, length),
                                           dtype=tokens.dtype))
    weights = engine.softmax(logits, axis=-1)
    out = engine.matmul(weights, v)  # [nW, heads, L, hd]
    out = engine.transpose(out, (0, 2, 1, 3))
    out = engine.reshape(out, (n_windows, length, c))
    return proj(out)


class WindowAttention(Module):
    def __init__(self, dim, heads, table_window, rng, dtype=engine.DEFAULT_DTYPE):
        if dim % heads:
            raise ConfigError(f"channels {dim} not divisible by heads {heads}")
        self.qkv = Linear(dim, 3 * dim, rng, dtype=dtype)
        self.proj = Linear(dim, dim, rng, dtype=dtype)
        self.bias = RelativePositionBias(table_window, heads, rng, dtype=dtype)
        self.heads = heads

    def __call__(self, tokens, window, mask=None):
        return window_msa(tokens, self.qkv, self.proj, self.heads,
                          bias=self.bias(window), mask=mask)


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
        dims = x.shape[:-1]
        c = x.shape[-1]
        win, shift = effective_window(dims, self.window)
        if not self.shifted:
            shift = tuple(0 for _ in shift)

        h = self.norm1(x)
        pad_to = tuple(-(-d // w) * w for d, w in zip(dims, win))
        padded = pad_to != tuple(dims)
        valid_grid = None
        if padded or valid is not None:
            valid_grid = np.zeros(pad_to, dtype=bool)
            extents = valid if valid is not None else dims
            valid_grid[tuple(slice(0, int(e)) for e in extents)] = True
        if padded:
            widths = tuple((0, p - d) for p, d in zip(pad_to, dims)) + ((0, 0),)
            h = engine.pad(h, widths)
        h = cyclic_shift(h, shift)
        mask = attention_mask(pad_to, win, shift, valid=valid_grid)
        windows = window_partition(h, win)
        windows = self.attn(windows, win, mask=mask)
        h = window_reverse(windows, win, pad_to)
        h = inverse_cyclic_shift(h, shift)
        if padded:
            h = h[tuple(slice(0, d) for d in dims) + (slice(None),)]
        x = engine.add(x, h)
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
