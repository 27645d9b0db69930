"""Multi-scale memory read: dense matching at the coarsest stage, top-k
sparse matching at the finer stages.

One stage sequence, ``_read_stages``, runs a read in execution order
(stage 4, then 3, 2, 1) for every read mode; ``read_all`` (the model's
read) collects its outputs and ``bench`` times the gaps between them.

Stage-4 affinities are plain key dot products (no sqrt-d scaling), softmaxed
along the memory axis; the read output concatenates the query value map with
the affinity-weighted memory values along the feature axis. Each finer stage
reads only the memory positions obtained by expanding the stage-4 top-k
cells into r x r spatial blocks (r = 2^(4-i), same frame), so a query pixel
at stage i attends to 4^(4-i) * k positions. All query pixels inside one
stage-4 cell share that cell's index set, which lets the sparse read run as
batched per-cell matmuls.

The dense read splits big instances into row chunks to bound peak memory.
The sparse read makes one contiguous [Nm, C] row copy of the memory maps
per call and gathers from it in cache-sized groups of stage-4 cells, so a
group's score and gathered blocks stay in L2. Each group is one op and one
tape node (``_gather_attend``): gather, scores, an in-place softmax on that
one score buffer, and the value mix. Chunks and groups only split rows,
never a softmax, so results do not depend on their size.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .config import READ_MODES
from .engine import Tensor
from .errors import ConfigError, DimensionError, UsageError

# elements per intermediate before a read falls back to row chunks (~128 MB f32)
_CHUNK_ELEMS = 32 * 1024 * 1024
# elements per sparse-read cell group (score or gathered block, ~1 MB f32)
_GROUP_ELEMS = 256 * 1024


@dataclass(frozen=True)
class ReadGeometry:
    """Grid geometry shared by all four stages: stage i is (h4, w4) * 2^(4-i)."""
    t: int
    h4: int
    w4: int

    def stage_hw(self, stage):
        r = 2 ** (4 - stage)
        return self.h4 * r, self.w4 * r

    def memory_cells(self, stage):
        h, w = self.stage_hw(stage)
        return self.t * h * w


@dataclass
class TopKIndexSet:
    """Per stage-4 query cell: the k best memory cells, as linear indices
    t * h4 * w4 grid order. ``indices[q]`` is rank-ordered, ties broken by
    the lower linear index."""
    indices: np.ndarray  # [h4*w4, k_eff]
    geom: ReadGeometry

    def expand(self, stage):
        """Map the stage-4 sets to stage ``stage``: each (t, x4, y4) becomes
        the r x r spatial block {t} x [x4*r, x4*r+r) x [y4*r, y4*r+r)."""
        if stage not in (1, 2, 3):
            raise UsageError(f"index expansion targets stages 1..3, got {stage}")
        r = 2 ** (4 - stage)
        hi, wi = self.geom.stage_hw(stage)
        cells4 = self.geom.h4 * self.geom.w4
        t4 = self.indices // cells4
        rem = self.indices % cells4
        x4 = rem // self.geom.w4
        y4 = rem % self.geom.w4
        base = t4 * (hi * wi) + (x4 * r) * wi + (y4 * r)  # [Nq4, k]
        out = base[:, :, None] + _block_offsets(r, wi)[None, None, :]
        return out.reshape(self.indices.shape[0], -1)


@functools.lru_cache(maxsize=16)
def _block_offsets(r, wi):
    """[r*r] linear offsets of an r x r block in a grid of row length ``wi``,
    in row-major block order; cached, read-only."""
    block = (np.arange(r)[:, None] * wi + np.arange(r)).reshape(-1)
    block.flags.writeable = False
    return block


def _check_kv(kq, vq, km, vm):
    if kq.shape[0] != km.shape[0]:
        raise DimensionError(f"key rows differ: query {kq.shape} vs memory {km.shape}")
    if vq.shape[0] != vm.shape[0]:
        raise DimensionError(f"value rows differ: query {vq.shape} vs memory {vm.shape}")
    if kq.shape[1] != vq.shape[1]:
        raise DimensionError(f"query key/value columns differ: {kq.shape} vs {vq.shape}")
    if km.shape[1] != vm.shape[1]:
        raise DimensionError(f"memory key/value columns differ: {km.shape} vs {vm.shape}")


def dense_read(kq, vq, km, vm):
    """Dense space-time read: y = [vq ; vm @ softmax(kq^T km)^T].

    Affinities are raw dot products between C/8-dim keys at every
    query/memory location pair. Returns y of shape [C, Nq].
    """
    y, _ = _dense_read_impl(kq, vq, km, vm, want_raw=False)
    return y


def dense_read_stage4(kq, vq, km, vm):
    """Stage-4 dense read; also returns the raw (pre-softmax) affinities
    as an ndarray [Nq, Nm] for top-k selection."""
    return _dense_read_impl(kq, vq, km, vm, want_raw=True)


def _dense_read_impl(kq, vq, km, vm, want_raw):
    _check_kv(kq, vq, km, vm)
    nq = kq.shape[1]
    kq_t = engine.transpose(kq, (1, 0))
    chunk = max(1, _CHUNK_ELEMS // max(km.shape[1], 1))
    if want_raw or nq <= chunk:
        chunk = max(nq, 1)  # one chunk; an empty query still takes one pass
    parts = []
    for start in range(0, max(nq, 1), chunk):
        rows = kq_t if chunk >= nq else kq_t[start:start + chunk]
        s = engine.matmul(rows, km)  # [rows, Nm]
        w = engine.softmax(s, axis=1)
        parts.append(engine.matmul(w, engine.transpose(vm, (1, 0))))
    readout = engine.transpose(engine.concat(parts, axis=0), (1, 0))
    return engine.concat([vq, readout], axis=0), (s.data if want_raw else None)


def select_topk(s_raw, k):
    """Per query row, the k largest raw affinities; ties pick the lower
    memory index; k is clamped to the row length."""
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    s_raw = np.asarray(s_raw)
    nm = s_raw.shape[1]
    k_eff = min(k, nm)
    # stable sort on negated values keeps equal entries in index order
    order = np.argsort(-s_raw, axis=1, kind="stable")
    return order[:, :k_eff]


def topk_read(kq, vq, km, vm, omega, stage, geom):
    """Sparse read at a finer stage.

    ``omega``: [h4*w4, n] linear memory indices (row-major stage-4 cells),
    shared by the r x r query pixels inside each cell. Affinities are
    computed only over omega, softmaxed over that set, and used to mix the
    gathered value columns. Selection indices are constants of the forward
    pass; gradients reach the gathered positions by scatter-add.
    """
    _check_kv(kq, vq, km, vm)
    omega = np.asarray(omega)
    if omega.ndim != 2 or omega.size == 0:
        raise UsageError(f"empty or malformed index set with shape {omega.shape}")
    r = 2 ** (4 - stage)
    hi, wi = geom.stage_hw(stage)
    n_cells, n = omega.shape
    if n_cells != geom.h4 * geom.w4:
        raise DimensionError(
            f"index set has {n_cells} cells, geometry expects {geom.h4 * geom.w4}")
    if kq.shape[1] != hi * wi:
        raise DimensionError(f"query columns {kq.shape[1]} != stage grid {hi}x{wi}")
    if km.shape[1] != geom.t * hi * wi:
        raise DimensionError(
            f"memory columns {km.shape[1]} != {geom.t}x{hi}x{wi}")
    if omega.min() < 0 or omega.max() >= km.shape[1]:
        raise DimensionError(f"index set out of range for {km.shape[1]} memory positions")
    if kq.dtype != km.dtype or km.dtype != vm.dtype:
        raise DimensionError(f"dtype mismatch: {kq.dtype}, {km.dtype}, {vm.dtype}")
    ck, cv = kq.shape[0], vq.shape[0]

    # contiguous rows, copied once: gathering from a transposed view would
    # copy the whole map again on every group
    km_t = engine.getitem(engine.transpose(km, (1, 0)), slice(None))  # [Nm, Ck]
    vm_t = engine.getitem(engine.transpose(vm, (1, 0)), slice(None))  # [Nm, Cv]
    q_blocks = _to_cell_blocks(kq, geom, r)  # [n_cells, r*r, Ck]

    group = max(1, _GROUP_ELEMS // (n * max(r * r, ck, cv)))
    outs = [_gather_attend(q_blocks, km_t, vm_t, omega, slice(start, start + group))
            for start in range(0, n_cells, group)]
    readout = _from_cell_blocks(engine.concat(outs, axis=0), geom, r, cv)
    return engine.concat([vq, readout], axis=0)


def _gather_attend(q_blocks, km_t, vm_t, omega, cells):
    """One cell group of the sparse read as one op and one tape node.

    ``cells`` slices the stage-4 cells of ``q_blocks`` [n_cells, r*r, Ck]
    and ``omega`` [n_cells, n]; the group's keys and values are gathered
    from the memory rows ``km_t`` [Nm, Ck] and ``vm_t`` [Nm, Cv]. The
    scores are ``engine.array_matmul`` products, so one-channel keys (nano
    stage 1) make them a broadcast product of the query and key columns.
    The softmax runs in place on the one score buffer, with the steps of
    ``engine.softmax``; the backward is written out with the arithmetic of
    the composed take/matmul/softmax/matmul ops, so results keep their bytes.
    Returns [cells, r*r, Cv].
    """
    idx = omega[cells]
    qb = q_blocks.data[cells]
    kg = np.take(km_t.data, idx, axis=0)  # [cells, n, Ck]
    vg = np.take(vm_t.data, idx, axis=0)  # [cells, n, Cv]
    w = engine.array_matmul(qb, kg.transpose(0, 2, 1))  # [cells, r*r, n]
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = np.matmul(w, vg)

    def bwd(g):
        gv = _scatter_add(vm_t.shape, idx, np.matmul(w.swapaxes(-1, -2), g))
        gs = np.matmul(g, vg.swapaxes(-1, -2))  # softmax backward, in place
        gs -= (gs * w).sum(axis=-1, keepdims=True)
        gs *= w
        gq = np.zeros(q_blocks.shape, dtype=g.dtype)
        gq[cells] = np.matmul(gs, kg)
        gk = _scatter_add(km_t.shape, idx, np.matmul(gs.swapaxes(-1, -2), qb))
        return gq, gk, gv

    return engine.record_op(out, (q_blocks, km_t, vm_t), bwd)


def _scatter_add(shape, idx, parts):
    """Zeros of ``shape`` with row ``idx[c, j]`` summing ``parts[c, j]``.

    The rows of one cell are distinct, so each cell is one fancy-index add,
    and the cells are added in order: the sums and their order, and so the
    bytes, are those of ``np.add.at(out, idx, parts)``.
    """
    out = np.zeros(shape, dtype=parts.dtype)
    for rows, part in zip(idx, parts):
        out[rows] += part
    return out


def _to_cell_blocks(kq, geom, r):
    """[C, Hi*Wi] -> [h4*w4, r*r, C]: group stage-i pixels by stage-4 cell."""
    c = kq.shape[0]
    h4, w4 = geom.h4, geom.w4
    x = engine.reshape(kq, (c, h4, r, w4, r))
    x = engine.transpose(x, (1, 3, 2, 4, 0))  # [h4, w4, r, r, C]
    return engine.reshape(x, (h4 * w4, r * r, c))


def _from_cell_blocks(x, geom, r, c):
    """[h4*w4, r*r, C] -> [C, Hi*Wi]: inverse of _to_cell_blocks."""
    h4, w4 = geom.h4, geom.w4
    y = engine.reshape(x, (h4, w4, r, r, c))
    y = engine.transpose(y, (4, 0, 2, 1, 3))  # [C, h4, r, w4, r]
    return engine.reshape(y, (c, h4 * r * w4 * r))


def _read_stages(query_kv, memory_kv, geom, k, mode):
    """The stages of one read in execution order: stage 4, then 3, 2, 1.

    Yields (stage, y, omega4) after each stage; omega4 is the stage-4
    index set (None unless top-k). Top-k selection runs with stage 4 and
    each index expansion with the stage it feeds.
    """
    if mode not in READ_MODES:
        raise UsageError(f"unknown read mode {mode!r}, expected one of {READ_MODES}")
    if mode == "dense_all":
        for stage in (4, 3, 2, 1):
            q, m = query_kv[stage - 1], memory_kv[stage - 1]
            yield stage, dense_read(q.key, q.value, m.key, m.value), None
        return
    q4, m4 = query_kv[3], memory_kv[3]
    y4, s4 = dense_read_stage4(q4.key, q4.value, m4.key, m4.value)
    if mode == "last_stage_only":
        yield 4, y4, None
        return
    omega4 = TopKIndexSet(select_topk(s4, k), geom)
    yield 4, y4, omega4
    for stage in (3, 2, 1):
        q, m = query_kv[stage - 1], memory_kv[stage - 1]
        omega = omega4.expand(stage)
        yield stage, topk_read(q.key, q.value, m.key, m.value, omega, stage, geom), omega4


def read_all(query_kv, memory_kv, geom, k, mode):
    """Run the full multi-scale read.

    query_kv / memory_kv: stage-indexed lists (index 0 = stage 1) of
    KeyValueMaps. Returns [y1, y2, y3, y4] (finer stages None in
    last_stage_only mode) plus the stage-4 index set (None unless top-k).
    """
    ys = [None, None, None, None]
    for stage, y, omega4 in _read_stages(query_kv, memory_kv, geom, k, mode):
        ys[stage - 1] = y
    return ys, omega4


def _kv_channels(stage, base_dim):
    """Key and value channels of one stage's maps: C_i/8 and C_i/2."""
    c = base_dim * 2 ** (stage - 1)
    return c // 8, c // 2


def random_kv(geom, base_dim, seed):
    """Seeded random float32 key/value maps for all four stages (query and memory)."""
    from .encoders import KeyValueMaps

    rng = np.random.default_rng(seed)
    query, memory = [], []
    for stage in (1, 2, 3, 4):
        h, w = geom.stage_hw(stage)
        ck, cv = _kv_channels(stage, base_dim)
        nq = h * w
        nm = geom.t * nq
        query.append(KeyValueMaps(
            Tensor(rng.standard_normal((ck, nq)).astype(np.float32)),
            Tensor(rng.standard_normal((cv, nq)).astype(np.float32))))
        memory.append(KeyValueMaps(
            Tensor(rng.standard_normal((ck, nm)).astype(np.float32)),
            Tensor(rng.standard_normal((cv, nm)).astype(np.float32))))
    return query, memory


def bench(geom, base_dim, k, modes, seed):
    """Time each read stage per mode on seeded random key/value maps.

    Returns rows of (stage, mode, k, T, H, W, flops, wall_ns); stage "all"
    sums the mode. A stage's wall time is the gap between the stage
    sequence's yields, so selection is charged to the stage-4 row and index
    expansion to the stage it feeds. H and W are input pixel extents.
    """
    query, memory = random_kv(geom, base_dim, seed)
    h_px, w_px = geom.h4 * 32, geom.w4 * 32
    rows = []
    for mode in modes:
        model = flops_mode(mode, geom, base_dim, k)
        stage_rows = []
        t0 = time.perf_counter_ns()
        for stage, _, _ in _read_stages(query, memory, geom, k, mode):
            wall = time.perf_counter_ns() - t0
            stage_rows.append((stage, mode, k, geom.t, h_px, w_px, model[stage], wall))
            t0 = time.perf_counter_ns()
        total_ns = sum(r[-1] for r in stage_rows)
        total_fl = sum(r[-2] for r in stage_rows)
        rows.extend(sorted(stage_rows))
        rows.append(("all", mode, k, geom.t, h_px, w_px, total_fl, total_ns))
    return rows


def flops_mode(mode, geom, base_dim, k):
    """Per-stage analytic flop count of a read mode: two matmuls and a
    softmax over the n memory cells one query pixel reads (gathers and
    top-k selection are excluded). Stage 4 is always dense; a stage the
    mode skips counts 0."""
    per_stage = {}
    for stage in (1, 2, 3, 4):
        h, w = geom.stage_hw(stage)
        nq = h * w
        if stage == 4 or mode == "dense_all":
            n = geom.memory_cells(stage)
        elif mode == "hierarchical_topk":
            n = 4 ** (4 - stage) * min(k, geom.memory_cells(4))
        else:
            n = 0
        ck, cv = _kv_channels(stage, base_dim)
        per_stage[stage] = 2 * nq * n * (ck + cv) + 5 * nq * n
    return per_stage
