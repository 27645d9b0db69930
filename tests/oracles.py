"""Independent reference implementations shared by the test modules.

The numeric references deliberately use plain Python loops and math.exp
so they share no code path with the implementations they check. The
segmenter reference reuses the model's layers but none of the inference
plumbing (bank, key/value cache, mask-pair builder).
"""

import functools
import itertools
import math
import struct
import zlib

import numpy as np

from swinvos import engine, memread
from swinvos.attention import relative_position_index
from swinvos.checkpoint import save_checkpoint
from swinvos.decoder import predict_labels, soft_aggregate
from swinvos.encoders import KeyValueMaps
from swinvos.engine import Tensor
from swinvos.memread import ReadGeometry, random_kv, read_all


def matmul_loops(a, b):
    m, p = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(p):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def dense_read_loops(kq, vq, km, vm):
    """Per-query softmax-weighted memory mix, walked elementwise."""
    ck, nq = kq.shape
    cv, nm = vm.shape[0], km.shape[1]
    read = np.zeros((cv, nq), dtype=kq.dtype)
    for q in range(nq):
        s = []
        for p in range(nm):
            acc = 0.0
            for c in range(ck):
                acc += kq[c, q] * km[c, p]
            s.append(acc)
        mx = max(s)
        e = [math.exp(v - mx) for v in s]
        z = sum(e)
        for p in range(nm):
            for c in range(cv):
                read[c, q] += (e[p] / z) * vm[c, p]
    return np.concatenate([vq, read], axis=0)


def topk_read_loops(kq, vq, km, vm, omega, stage, geom):
    """Gather-softmax reference walked per query pixel."""
    r = 2 ** (4 - stage)
    hi, wi = geom.stage_hw(stage)
    cv = vm.shape[0]
    read = np.zeros((cv, hi * wi), dtype=kq.dtype)
    for x in range(hi):
        for y in range(wi):
            q = x * wi + y
            cell = (x // r) * geom.w4 + (y // r)
            idx = omega[cell]
            s = [float(kq[:, q] @ km[:, p]) for p in idx]
            mx = max(s)
            e = [math.exp(v - mx) for v in s]
            z = sum(e)
            for weight, p in zip(e, idx):
                read[:, q] += (weight / z) * vm[:, p]
    return np.concatenate([vq, read], axis=0)


def topk_set_for_query(index_set, stage, qx, qy):
    """The expanded index set of the stage-``stage`` query pixel (qx, qy):
    the set of the stage-4 cell that contains it."""
    r = 2 ** (4 - stage)
    cell = (qx // r) * index_set.geom.w4 + (qy // r)
    return index_set.expand(stage)[cell]


def membership_law(t, policy="every8"):
    """Reference predicate: which frame indices are in memory at time t."""
    members = {0}
    if t >= 1:
        members.add(t - 1)
    if policy == "every8":
        members.update(i for i in range(0, t, 8))
    return sorted(members)


def parameter_count(model):
    return sum(p.value.size for _, p in model.named_parameters())


def encoder_parameter_count(model):
    """Parameters of the two encoders plus their key/value projectors."""
    prefixes = ("query_encoder", "memory_encoder", "image_only_memory",
                "query_proj", "memory_proj")
    return sum(p.value.size for name, p in model.named_parameters()
               if name.startswith(prefixes))


def linear_query_kv(projector, features):
    """Reference query projection: per stage, the bias-free ``Linear`` on
    the [H_i*W_i, C] rows, then a transpose of each product, giving
    KeyValueMaps of [C_i/8, N] and [C_i/2, N] views."""
    maps = []
    for f, keys, values in zip(features, projector.keys, projector.values):
        flat = engine.reshape(f, (-1, f.shape[-1]))
        maps.append(KeyValueMaps(engine.transpose(keys(flat), (1, 0)),
                                 engine.transpose(values(flat), (1, 0))))
    return maps


def joint_reencode_segment(model, frames, first_mask):
    """Reference inference: on every frame, each object's memory is the
    whole retained set re-encoded in one joint encoder call of its own,
    with an object axis of 1; the other mask is a numpy maximum.

    Returns (label maps, per-frame [M, H, W] object probabilities for
    frames 1..n-1).
    """
    cfg = model.config
    dtype = engine.DEFAULT_DTYPE
    n_objects = int(first_mask.max())
    probs = {0: np.stack([(first_mask == m + 1).astype(np.float32)
                          for m in range(n_objects)])}
    labels, object_probs = [first_mask], []
    for t in range(1, len(frames)):
        members = membership_law(t, cfg.memory_policy)
        mem_frames = Tensor(np.stack([frames[i] for i in members]).astype(dtype))
        mem_probs = np.stack([probs[i] for i in members]).astype(dtype)
        query = model.query_encoder(Tensor(frames[t].astype(dtype)))
        (query_kv,) = model.query_proj(query)
        h4, w4 = query[3].shape[:2]
        geom = ReadGeometry(len(members), h4, w4)
        per_object = []
        for m in range(n_objects):
            target = mem_probs[:, m]
            rest = np.delete(mem_probs, m, axis=1)
            if rest.shape[1] and cfg.other_mask_enabled:
                other = rest.max(axis=1)
            else:
                other = np.zeros_like(target)
            feats = model.encode_memory(mem_frames, Tensor(target[None, ..., None]),
                                        Tensor(other[None, ..., None]))
            (memory_kv,) = model.memory_proj(feats)
            ys, _ = read_all(query_kv, memory_kv, geom, cfg.k, cfg.read_mode)
            per_object.append(model.decoder(ys, (h4, w4), frames[t].shape[:2]))
        dist = soft_aggregate(per_object)
        labels.append(predict_labels(dist))
        probs[t] = dist.data[1:]
        object_probs.append(dist.data[1:])
    return labels, object_probs


def chained_mask_pairs(probs, other_enabled):
    """Reference mask assembly, object by object: the target is the
    object's slice, the other mask a maximum chained over the remaining
    objects in ascending order. Returns [M, T, H, W, 1] tensors."""
    n_objects = probs.shape[1]
    targets, others = [], []
    for m in range(n_objects):
        target = probs[:, m]
        rest = None
        for j in range(n_objects):
            if j != m and other_enabled:
                rest = probs[:, j] if rest is None else engine.maximum(rest, probs[:, j])
        other = Tensor(np.zeros(target.shape, dtype=target.dtype)) if rest is None else rest
        targets.append(engine.reshape(target, (1,) + target.shape + (1,)))
        others.append(engine.reshape(other, (1,) + other.shape + (1,)))
    return engine.concat(targets, axis=0), engine.concat(others, axis=0)


@functools.lru_cache(maxsize=1)
def _listed_triples(n_frames, cap):
    """Every valid (a, b, c) in lexicographic order, one per row."""
    triples = ((a, b, c)
               for a in range(n_frames - 2)
               for b in range(a + 1, min(a + cap, n_frames - 1) + 1)
               for c in range(b + 1, min(b + cap, n_frames - 1) + 1)
               if b - a <= cap and c - b <= cap)
    return np.fromiter(itertools.chain.from_iterable(triples), np.int64).reshape(-1, 3)


def listed_training_triplet(n_frames, max_interval, rng):
    """Reference triplet draw: list every valid (a, b, c) in lexicographic
    order, then index it with one ``rng.integers(0, count)`` draw."""
    triples = _listed_triples(n_frames, max(1, int(max_interval)))
    return tuple(int(i) for i in triples[int(rng.integers(0, len(triples)))])


def dilate_chebyshev_loops(mask, radius):
    """Reference Chebyshev dilation: OR of the (2r+1)² shifted copies of the
    mask, padded by r; memory grows with r², so keep r small."""
    if radius <= 0:
        return mask.copy()
    padded = np.pad(mask, radius)
    out = np.zeros_like(mask)
    h, w = mask.shape
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= padded[dy:dy + h, dx:dx + w]
    return out


def trunc_normal_loop(rng, shape):
    """Reference truncated-normal draw: one ``rng.normal`` over the whole
    float64 shape, then boolean-mask rounds that redraw every rejected
    position until none is outside +-2 std, then one cast to float32."""
    out = rng.normal(0.0, engine.INIT_STD, size=shape)
    bad = np.abs(out) > 2 * engine.INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, engine.INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2 * engine.INIT_STD
    return out.astype(engine.DEFAULT_DTYPE)


def conv2d_taps(x, w, b=None):
    """Reference 3x3 conv as nine tap GEMMs, each on its own patch copy,
    accumulated in (dy, dx) order; forward only."""
    x = engine.as_tensor(x)
    w = engine.as_tensor(w)
    cin, h, wd = x.shape
    cout = w.shape[0]
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((cout, h * wd), dtype=x.dtype)
    for dy in range(3):
        for dx in range(3):
            patch = xp[:, dy:dy + h, dx:dx + wd].reshape(cin, h * wd)
            out += w.data[:, :, dy, dx] @ patch
    if b is not None:
        b = engine.as_tensor(b)
        out += b.data[:, None]
    return Tensor(out.reshape(cout, h, wd))


def unfused_window_msa(qkv, heads, bias=None, mask=None):
    """Window attention as separate taped ops on copied q/k/v slices."""
    n_windows, length, width = qkv.shape
    c = width // 3
    head_dim = c // heads
    three = engine.reshape(qkv, (n_windows, length, 3, heads, head_dim))
    three = engine.transpose(three, (2, 0, 3, 1, 4))  # [3, nW, heads, L, hd]
    q, k, v = three[0], three[1], three[2]
    logits = engine.matmul(q, engine.transpose(k, (0, 1, 3, 2)))
    logits = engine.mul(logits, 1.0 / math.sqrt(head_dim))
    if bias is not None:
        logits = engine.add(logits, bias)
    if mask is not None:
        logits = engine.add(logits, Tensor(mask, dtype=qkv.dtype))
    weights = engine.softmax(logits, axis=-1)
    out = engine.transpose(engine.matmul(weights, v), (0, 2, 1, 3))
    return engine.reshape(out, (n_windows, length, c))


def take_chain_relative_bias(bias, window):
    """A ``RelativePositionBias`` map as three taped ops: a row take from
    the table, a reshape to [L, L, heads] and a transpose to [heads, L, L]."""
    index = relative_position_index(tuple(window), bias.table_window)
    length = index.shape[0]
    out = engine.take(bias.table.tensor(), index.reshape(-1))
    out = engine.reshape(out, (length, length, bias.heads))
    return engine.transpose(out, (2, 0, 1))


def swin_geometry(dims, window, shifted):
    """(window, shift, padded extents) of a Swin block on a [*dims] grid:
    windows clamp to the grid, and clamped axes do not shift."""
    win = tuple(min(d, w) for d, w in zip(dims, window))
    shift = tuple(w // 2 if shifted and d > w else 0 for d, w in zip(dims, window))
    return win, shift, tuple(-(-d // w) * w for d, w in zip(dims, win))


def pad_roll_partition(a, win, shift, pad_to, fill=0):
    """Pad [*dims, ...] on the right/bottom to ``pad_to`` with ``fill``,
    roll by -shift and tile into windows: [nW, L, ...], row-major slots."""
    rank = len(win)
    a = np.pad(a, [(0, p - d) for p, d in zip(pad_to, a.shape)] + [(0, 0)] * (a.ndim - rank),
               constant_values=fill)
    a = np.roll(a, tuple(-s for s in shift), axis=tuple(range(rank)))
    blocks = tuple(p // w for p, w in zip(pad_to, win))
    order = tuple(range(0, 2 * rank, 2)) + tuple(range(1, 2 * rank, 2))
    order += tuple(range(2 * rank, 2 * rank + a.ndim - rank))
    a = a.reshape(sum(zip(blocks, win), ()) + a.shape[rank:]).transpose(order)
    return a.reshape((math.prod(blocks), math.prod(win)) + a.shape[2 * rank:])


def padded_swin_block(block, x, valid):
    """Reference SwinBlock: zero-pad the normed grid to window multiples,
    then run qkv, attention and proj on every padded token, and crop.

    The windows are cut and reassembled with plain numpy (pad, roll,
    reshape/transpose), and the mask is rebuilt from scratch (float64, from
    a boolean valid grid) rather than taken from the cached one.
    """
    dims = tuple(x.shape[:-1])
    rank, c = len(dims), x.shape[-1]
    win, shift, pad_to = swin_geometry(dims, block.window, block.shifted)
    valid_grid = np.zeros(pad_to, dtype=bool)
    valid_grid[tuple(slice(0, int(e)) for e in valid)] = True
    mask = _mask_from_grid(pad_to, win, shift, valid_grid)
    windows = pad_roll_partition(block.norm1(x).data, win, shift, pad_to)
    windows = block.attn.qkv(Tensor(windows))
    windows = unfused_window_msa(windows, block.attn.heads, bias=block.attn.bias(win),
                                 mask=mask)
    windows = block.attn.proj(windows).data
    blocks = tuple(p // w for p, w in zip(pad_to, win))
    order = tuple(range(0, 2 * rank, 2)) + tuple(range(1, 2 * rank, 2)) + (2 * rank,)
    h = windows.reshape(blocks + win + (c,)).transpose(np.argsort(order))
    h = np.roll(h.reshape(pad_to + (c,)), shift, axis=tuple(range(rank)))
    x = engine.add(x, Tensor(np.ascontiguousarray(h[tuple(slice(0, d) for d in dims)])))
    return engine.add(x, block.mlp(block.norm2(x)))


def _mask_from_grid(dims, window, shift, valid):
    """[nW, 1, L, L] additive mask walked pair by pair over window slots.

    On a shifted axis the post-shift grid holds three regions, as in Swin:
    [0, d - w), [d - w, d - s) and the wrapped-around [d - s, d). Tokens of
    different regions, or a key outside ``valid``, are a forbidden pair.
    """
    def region(pos):
        return tuple(0 if s == 0 or p < d - w else (1 if p < d - s else 2)
                     for p, d, w, s in zip(pos, dims, window, shift))

    key_ok = np.roll(valid, tuple(-s for s in shift), axis=tuple(range(len(dims))))
    blocks = [d // w for d, w in zip(dims, window)]
    length = math.prod(window)
    mask = np.zeros((math.prod(blocks), 1, length, length))
    for wi, block in enumerate(np.ndindex(*blocks)):
        slots = [tuple(b * w + o for b, w, o in zip(block, window, offs))
                 for offs in np.ndindex(*window)]
        for i, pi in enumerate(slots):
            for j, pj in enumerate(slots):
                if region(pi) != region(pj) or not key_ok[pj]:
                    mask[wi, 0, i, j] = -1e9
    return mask if (mask != 0).any() else None


def random_kv64(geom, base_dim, seed):
    """``random_kv``'s float32 maps widened to float64, for reads compared
    at float64 precision."""
    def widen(maps):
        return [KeyValueMaps(Tensor(m.key.data.astype(np.float64)),
                             Tensor(m.value.data.astype(np.float64))) for m in maps]

    query, memory = random_kv(geom, base_dim, seed)
    return widen(query), widen(memory)


def composed_topk_read(kq, vq, km, vm, omega, stage, geom):
    """The sparse read as separate taped ops per cell group: two row
    gathers, a transpose, a matmul, a softmax and a matmul."""
    r = 2 ** (4 - stage)
    cv = vq.shape[0]
    km_t = engine.getitem(engine.transpose(km, (1, 0)), slice(None))
    vm_t = engine.getitem(engine.transpose(vm, (1, 0)), slice(None))
    q_blocks = memread._to_cell_blocks(kq, geom, r)
    n_cells, n = omega.shape
    group = max(1, memread._GROUP_ELEMS // (n * max(r * r, kq.shape[0], cv)))
    outs = []
    for start in range(0, n_cells, group):
        idx = omega[start:start + group]
        kg = engine.take(km_t, idx)
        vg = engine.take(vm_t, idx)
        s = engine.matmul(q_blocks[start:start + group], engine.transpose(kg, (0, 2, 1)))
        outs.append(engine.matmul(engine.softmax(s, axis=-1), vg))
    readout = memread._from_cell_blocks(engine.concat(outs, axis=0), geom, r, cv)
    return engine.concat([vq, readout], axis=0)


def write_version_1_checkpoint(model, path):
    """Write ``model`` as format version 1 did: the records of today's
    format after a config block with the ``memory_stride=8`` line that
    version's canonical text had."""
    save_checkpoint(model, path)
    blob = path.read_bytes()
    n = struct.unpack("<I", blob[8:12])[0]
    config = blob[12:12 + n].replace(b"\nother_mask", b"\nmemory_stride=8\nother_mask")
    body = struct.pack("<II", 1, len(config)) + config + blob[12 + n:-4]
    path.write_bytes(b"HSTC" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def write_f64_checkpoint(model, path):
    """Write ``model`` in today's layout with every record tagged 1 (f64), as
    the writer did while records could be float64."""
    config = model.config.canonical().encode("utf-8")
    body = struct.pack("<II", 2, len(config)) + config
    for name, param in model.named_parameters():
        value = param.value.astype("<f8")
        body += struct.pack("<I", len(name)) + name.encode("utf-8")
        body += struct.pack("<I", value.ndim) + b"".join(struct.pack("<Q", e) for e in value.shape)
        body += bytes([1]) + value.tobytes()
    path.write_bytes(b"HSTC" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
