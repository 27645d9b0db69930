"""Shifted-window multi-head self-attention blocks, 2D and 3D.

Token grids are [*spatial_dims, C] tensors (a leading T axis makes a block
3D); axes in front of the window's rank are batch axes (objects), which no
window spans. Windows tile the spatial axes; the shifted variant rolls the
grid by half a window first and suppresses attention between tokens that
originate from different pre-shift windows via an additive -1e9 mask.
Grids whose extents are not window multiples are padded on the
right/bottom, and the padded tokens are masked out of attention as keys.

Padding, roll and tiling are one cached index map per geometry
(``window_layout``): the grid token at each window slot, and the slot of
each grid token. A block runs qkv on the grid, enters the windows with one
row gather (a padded slot holds exactly the qkv bias, so a window whose
keys are all masked averages its values over every slot, padding
included), attends, and leaves them with the inverse gather before the
output projection, so both projections touch only in-grid tokens.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import engine
from .engine import Linear, Module, Parameter
from .errors import ConfigError, DimensionError

MASK_VALUE = -1e9  # finite so gradients stay finite
PATCH = 4  # spatial patch extent of the embeddings; temporal extent is 1


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
    """Learned per-head bias over relative token displacements in a window.

    The table holds one [heads] row per displacement. Called with a window,
    it returns the contiguous [heads, L, L] bias map, gathered in one op
    (one tape node) from the table's transposed view. The backward adds the
    gradient's [L*L, heads] rows into the table rows with ``np.add.at`` in
    index order, as the gradient of a row ``take`` would.
    """

    def __init__(self, table_window, heads, rng):
        rows = math.prod(2 * w - 1 for w in table_window)
        self.table = Parameter(engine.init_weight(rng, (rows, heads)))
        self.table_window = tuple(table_window)
        self.heads = heads

    def __call__(self, window):
        index = relative_position_index(tuple(window), self.table_window)
        table = self.table.tensor()
        out = np.take(table.data.T, index, axis=1)  # [heads, L, L]

        def bwd(g):
            full = np.zeros(table.shape, dtype=g.dtype)
            np.add.at(full, index.reshape(-1), g.transpose(1, 2, 0).reshape(-1, self.heads))
            return (full,)

        return engine.record_op(out, (table,), bwd)


def _partition_flat(arr, window):
    """numpy window partition of [*dims] -> [nW, L]."""
    dims = arr.shape
    split = []
    for d, w in zip(dims, window):
        split += [d // w, w]
    y = arr.reshape(split)
    n = len(window)
    perm = tuple(2 * i for i in range(n)) + tuple(2 * i + 1 for i in range(n))
    return y.transpose(perm).reshape(-1, math.prod(window))


class WindowLayout(NamedTuple):
    window: tuple  # effective window per axis
    shift: tuple  # roll per axis (0 when unshifted or clamped)
    padded: tuple  # grid extents padded to window multiples
    slots: np.ndarray  # [nW * L] grid token (row-major) at each slot, -1 on padding
    tokens: np.ndarray  # [prod(dims)] slot of each grid token


@functools.lru_cache(maxsize=64)
def window_layout(dims, window, shifted):
    """Where each token of a [*dims] grid sits in the (shifted) windows.

    Windows clamp to the grid, and a clamped axis does not shift (the usual
    Swin handling of grids smaller than the window); ``shifted`` rolls the
    other axes by half a window. The grid is padded on the right/bottom to
    window multiples, rolled by -shift and tiled into windows, slots in
    row-major order within each window. Cached per geometry; the index
    arrays are read-only.
    """
    if len(dims) != len(window):
        raise DimensionError(f"window rank {len(window)} does not match grid {dims}")
    if any(w <= 0 for w in window):
        raise ConfigError(f"window extents must be positive, got {window}")
    win = tuple(int(min(d, w)) for d, w in zip(dims, window))
    shift = tuple(w // 2 if shifted and d > w else 0 for d, w in zip(dims, window))
    padded = tuple(-(-d // w) * w for d, w in zip(dims, win))
    grid = np.arange(math.prod(dims)).reshape(dims)
    grid = np.pad(grid, [(0, p - d) for p, d in zip(padded, dims)], constant_values=-1)
    grid = np.roll(grid, tuple(-s for s in shift), axis=tuple(range(len(dims))))
    slots = _partition_flat(grid, win).reshape(-1)
    # slots ordered by token: the padding (-1) first, then tokens 0, 1, ...
    tokens = np.argsort(slots)[slots.size - math.prod(dims):]
    slots.flags.writeable = False
    tokens.flags.writeable = False
    return WindowLayout(win, shift, padded, slots, tokens)


@functools.lru_cache(maxsize=16)
def attention_mask(dims, window, shift, extents):
    """Additive mask [nW, 1, L, L]: exactly -1e9 on forbidden pairs, else 0.

    ``dims`` is the padded grid, rolled by -``shift``, so the token at slot
    position p came from pre-roll coordinate o = (p + s) % d on each axis.
    A pair is forbidden when the two tokens disagree on any axis about
    o < s (they come from different pre-shift windows), or when the key's
    o lies outside ``extents``, the valid token extents. One bit per axis
    is enough: windows start at multiples of w, so on a shifted axis only
    the last window mixes regions, the wrapped tokens (o < s) and those
    from [d - w + s, d); every other window holds one region. Returns None
    when nothing is masked. Masks are cached per geometry as read-only
    float32 arrays. A T frame at one bank size uses 14 geometries (7 in
    each encoder); a small cache keeps the masks of earlier bank sizes
    from staying resident.
    """
    origin = np.stack(np.meshgrid(*[(np.arange(d) + s) % d for d, s in zip(dims, shift)],
                                  indexing="ij"), axis=-1)  # [*dims, rank]
    wrapped = _partition_flat((origin < shift) @ (1 << np.arange(len(dims))), window)
    inside = _partition_flat((origin < extents).all(axis=-1), window)
    forbidden = (wrapped[:, :, None] != wrapped[:, None, :]) | ~inside[:, None, :]
    if not forbidden.any():
        return None
    mask = np.where(forbidden[:, None], np.float32(MASK_VALUE), np.float32(0.0))
    mask.flags.writeable = False
    return mask


# bytes of attention logits a window_msa group holds at once (~4 MB)
_LOGITS_BYTES = 4 * 1024 * 1024


def _window_groups(n_windows, period, fit):
    """(start, stop) ranges of at most ``fit`` windows (at least one) that
    each hold whole mask periods or lie inside one period."""
    if fit >= period:
        step = fit - fit % period
        return [(s, min(s + step, n_windows)) for s in range(0, n_windows, step)]
    return [(s, min(s + fit, p + period))
            for p in range(0, n_windows, period) for s in range(p, p + period, fit)]


def window_msa(qkv, heads, bias, mask):
    """Multi-head self-attention within each window, over projected tokens.

    qkv: [nW, L, 3C] (queries, keys and values side by side, each split
    into ``heads`` slices of C/heads); ``bias`` is a [heads, L, L] tensor,
    added as it is to every window's logits (``RelativePositionBias``
    returns it contiguous, so no copy is made here);
    ``mask`` a [P, 1, L, L] additive array or None, where P divides nW and
    window i takes mask row i % P (the windows of several objects share one
    object's mask). Returns [nW, L, C]. Logits are scaled by
    1/sqrt(C/heads).

    One op and one tape node: q, k and v are views of ``qkv``. Windows run
    in groups whose logits fit ``_LOGITS_BYTES``; in each group the scale,
    bias, mask and softmax run in place on one logits buffer, and the value
    product writes straight into the [nW, L, C] layout. Groups only split
    windows, so results do not depend on their size. Unless the op is
    recorded, one group's buffer serves every group; a recorded op keeps
    each group's weights for the backward, which is written out for ``qkv``
    and ``bias``.
    """
    qkv = engine.as_tensor(qkv)
    n_windows, length, width = qkv.shape
    if width % (3 * heads):
        raise ConfigError(f"qkv width {width} is not 3 x a multiple of heads {heads}")
    period = n_windows if mask is None else mask.shape[0]
    if n_windows % period:
        raise DimensionError(f"{period} mask windows do not tile {n_windows} windows")
    c = width // 3
    head_dim = c // heads
    scale = qkv.dtype.type(1.0 / math.sqrt(head_dim))
    split = (n_windows, length, 3, heads, head_dim)
    q, k, v = qkv.data.reshape(split).transpose(2, 0, 3, 1, 4)  # [nW, heads, L, hd]
    keep = engine.recording((qkv, bias))
    fit = max(1, _LOGITS_BYTES // (heads * length * length * qkv.dtype.itemsize))
    groups = _window_groups(n_windows, period, fit)
    out = np.empty((n_windows, length, heads, head_dim), dtype=qkv.dtype)
    saved = []
    buf = None
    for start, stop in groups:
        # the first group is the largest, so later ones fit in its buffer
        weights = np.matmul(q[start:stop], k[start:stop].swapaxes(-1, -2),
                            out=None if buf is None else buf[:stop - start])
        weights *= scale
        weights += bias.data  # broadcast over windows
        if mask is not None:
            if stop - start > period:  # whole periods
                periods = weights.reshape((-1, period) + weights.shape[1:])
                periods += mask
            else:
                weights += mask[start % period:start % period + stop - start]
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        np.matmul(weights, v[start:stop], out=out[start:stop].transpose(0, 2, 1, 3))
        if keep:
            saved.append(weights)
        elif buf is None:
            buf = weights

    def bwd(g):
        g_out = g.reshape(n_windows, length, heads, head_dim).transpose(0, 2, 1, 3)
        g_qkv = np.empty(split, dtype=g.dtype)
        g_q, g_k, g_v = g_qkv.transpose(2, 0, 3, 1, 4)
        g_bias = None
        for (start, stop), weights in zip(groups, saved):
            window = slice(start, stop)
            np.matmul(weights.swapaxes(-1, -2), g_out[window], out=g_v[window])
            g_logits = np.matmul(g_out[window], v[window].swapaxes(-1, -2))
            g_logits -= (g_logits * weights).sum(axis=-1, keepdims=True)
            g_logits *= weights
            if bias.watched:
                # numpy sums the window axis in order; continue that order
                if g_bias is None:
                    g_bias = g_logits.sum(axis=0)
                else:
                    for term in g_logits:
                        g_bias += term
            g_logits *= scale
            np.matmul(g_logits, k[window], out=g_q[window])
            np.matmul(g_logits.swapaxes(-1, -2), q[window], out=g_k[window])
        return g_qkv.reshape(qkv.shape), g_bias

    return engine.record_op(out.reshape(n_windows, length, c), (qkv, bias), bwd)


class WindowAttention(Module):
    """Holder of a block's attention weights; ``SwinBlock`` applies them."""

    def __init__(self, dim, heads, table_window, rng):
        if dim % heads:
            raise ConfigError(f"channels {dim} not divisible by heads {heads}")
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self.bias = RelativePositionBias(table_window, heads, rng)
        self.heads = heads


class Mlp(Module):
    def __init__(self, dim, rng):
        self.fc1 = Linear(dim, 4 * dim, rng)
        self.fc2 = Linear(4 * dim, dim, rng)

    def __call__(self, x):
        return self.fc2(engine.gelu(self.fc1(x)))


class SwinBlock(Module):
    """One pre-norm windowed-attention block over [*batch, *dims, C].

    ``window`` is the configured window per grid axis; ``shifted`` rolls
    by half a window (on axes where the grid is larger than the window).
    Axes in front of the window's rank are batch axes (objects): a window
    never spans them, and the window layout's mask and relative bias are
    those of one grid, shared by every batch index.
    """

    def __init__(self, dim, heads, window, shifted, rng):
        self.norm1 = engine.LayerNorm(dim)
        self.attn = WindowAttention(dim, heads, window, rng)
        self.norm2 = engine.LayerNorm(dim)
        self.mlp = Mlp(dim, rng)
        self.window = tuple(window)
        self.shifted = shifted

    def __call__(self, x, valid):
        """``valid``: the valid extents of every axis of x but the last."""
        dims = tuple(x.shape[:-1])
        c = x.shape[-1]
        lead = len(dims) - len(self.window)
        # a one-token window on a batch axis: windows tile each grid alone
        layout = window_layout(dims, (1,) * lead + self.window, self.shifted)
        window = layout.window[lead:]
        length = math.prod(window)
        mask = attention_mask(layout.padded[lead:], window, layout.shift[lead:],
                              tuple(valid)[lead:])
        attn = self.attn
        h = engine.gather_rows(attn.qkv(self.norm1(x)), layout.slots, layout.tokens,
                               (layout.slots.size // length, length, 3 * c),
                               fill=attn.qkv.bias.tensor())
        h = window_msa(h, attn.heads, bias=attn.bias(window), mask=mask)
        h = engine.gather_rows(h, layout.tokens, layout.slots, dims + (c,))
        x = engine.add(x, attn.proj(h))
        x = engine.add(x, self.mlp(self.norm2(x)))
        return x


class PatchEmbedImage(Module):
    """Flatten 4x4x3 patches, linearly embed to C, layer-norm."""

    def __init__(self, dim, rng):
        self.embed = Linear(PATCH * PATCH * 3, dim, rng)
        self.norm = engine.LayerNorm(dim)

    def __call__(self, frame):
        h, w, c = frame.shape
        if c != 3:
            raise DimensionError(f"expected RGB frame, got {frame.shape}")
        if h % PATCH or w % PATCH:
            raise DimensionError(f"frame extents {h}x{w} not divisible by {PATCH}")
        tokens = _patchify(frame, PATCH)
        return self.norm(self.embed(tokens))


class PatchEmbedVideo(Module):
    """Per-frame 4x4 patches of RGB plus target/other mask channels.

    The three patch streams pass through their own linear embeddings and
    are summed before the norm; the other-mask stream can be disabled.
    Frames are [T, H, W, 3]; masks are [*lead, T, H, W, 1], where a leading
    object axis gives each object its own tokens [*lead, T, H/4, W/4, C]:
    the RGB patches are embedded once and broadcast over the objects.
    """

    def __init__(self, dim, rng, use_other_mask):
        p2 = PATCH * PATCH
        self.embed_rgb = Linear(p2 * 3, dim, rng)
        self.embed_target = Linear(p2, dim, rng)
        self.embed_other = Linear(p2, dim, rng) if use_other_mask else None
        self.norm = engine.LayerNorm(dim)

    def __call__(self, frames, target_masks, other_masks):
        if frames.shape[:3] != target_masks.shape[-4:-1] or \
                target_masks.shape != other_masks.shape:
            raise DimensionError(
                f"frame/mask extents differ: {frames.shape} vs {target_masks.shape}"
                f" vs {other_masks.shape}")
        t, h, w, _ = frames.shape
        if h % PATCH or w % PATCH:
            raise DimensionError(f"frame extents {h}x{w} not divisible by {PATCH}")
        tokens = self.embed_rgb(_patchify(frames, PATCH))
        tokens = engine.add(tokens, self.embed_target(_patchify(target_masks, PATCH)))
        if self.embed_other is not None:
            tokens = engine.add(tokens, self.embed_other(_patchify(other_masks, PATCH)))
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

    def __init__(self, dim, rng):
        self.norm = engine.LayerNorm(4 * dim)
        self.reduce = Linear(4 * dim, 2 * dim, rng, bias=False)

    def __call__(self, x):
        h, w = x.shape[-3:-1]
        if h % 2 or w % 2:
            raise DimensionError(f"patch_merge requires even extents, got {h}x{w}")
        return self.reduce(self.norm(_patchify(x, 2)))
