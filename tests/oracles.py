"""Independent reference implementations shared by the test modules.

The numeric references deliberately use plain Python loops and math.exp
so they share no code path with the implementations they check. The
segmenter reference reuses the model's layers but none of the inference
plumbing (bank, key/value cache, mask-pair builder).
"""

import math

import numpy as np

from swinvos.decoder import predict_labels, soft_aggregate
from swinvos.engine import Tensor
from swinvos.memread import ReadGeometry, read_all


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


def membership_law(t, policy="every8", stride=8):
    """Reference predicate: which frame indices are in memory at time t."""
    members = {0}
    if t >= 1:
        members.add(t - 1)
    if policy == "every8":
        members.update(i for i in range(0, t, stride))
    return sorted(members)


def parameter_count(model):
    return sum(p.value.size for _, p in model.named_parameters())


def encoder_parameter_count(model):
    """Parameters of the two encoders plus their key/value projectors."""
    prefixes = ("query_encoder", "memory_encoder", "image_only_memory",
                "query_proj", "memory_proj")
    return sum(p.value.size for name, p in model.named_parameters()
               if name.startswith(prefixes))


def joint_reencode_segment(model, frames, first_mask):
    """Reference inference: on every frame, each object's memory is the
    whole retained set re-encoded in one joint encoder call.

    Returns (label maps, per-frame [M, H, W] object probabilities for
    frames 1..n-1).
    """
    cfg = model.config
    dtype = model.dtype
    n_objects = int(first_mask.max())
    probs = {0: np.stack([(first_mask == m + 1).astype(np.float32)
                          for m in range(n_objects)])}
    labels, object_probs = [first_mask], []
    for t in range(1, len(frames)):
        members = membership_law(t, cfg.memory_policy, cfg.memory_stride)
        mem_frames = Tensor(np.stack([frames[i] for i in members]).astype(dtype))
        mem_probs = np.stack([probs[i] for i in members]).astype(dtype)
        query = model.query_encoder(Tensor(frames[t].astype(dtype)))
        query_kv = [model.query_proj(query, s) for s in (1, 2, 3, 4)]
        h4, w4 = query.stage(4).shape[:2]
        geom = ReadGeometry(len(members), h4, w4)
        per_object = []
        for m in range(n_objects):
            target = mem_probs[:, m]
            rest = np.delete(mem_probs, m, axis=1)
            if rest.shape[1] and cfg.other_mask_enabled:
                other = rest.max(axis=1)
            else:
                other = np.zeros_like(target)
            feats = model.encode_memory(mem_frames, Tensor(target[..., None]),
                                        Tensor(other[..., None]))
            memory_kv = [model.memory_proj(feats, s) for s in (1, 2, 3, 4)]
            ys, _ = read_all(query_kv, memory_kv, geom, cfg.k, cfg.read_mode)
            per_object.append(model.decoder(ys, (h4, w4), frames[t].shape[:2]))
        dist = soft_aggregate(per_object)
        labels.append(predict_labels(dist))
        probs[t] = dist.data[1:]
        object_probs.append(dist.data[1:])
    return labels, object_probs
