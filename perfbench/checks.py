"""Output checks that do not trust the code they check.

The read check recomputes sampled query pixels of a ``read_all`` result
directly in float64 numpy: a dense softmax over all memory cells at stage
4, and at the finer stages a softmax over the r x r blocks that expand the
stage-4 top-k set the program selected. It also checks that the selected
set holds the k highest stage-4 affinities, up to float32 rounding.
"""

import numpy as np

# float32 program against float64 reference, on unit-normal keys/values
_ATOL = 1e-4
_RTOL = 1e-3


def _mix(kq_col, km, vm):
    """Softmax(kq . km) over the columns of km, applied to vm."""
    s = kq_col @ km
    w = np.exp(s - s.max())
    return vm @ (w / w.sum())


def _expand(cells, stage, geom):
    """Stage-``stage`` memory positions of the r x r blocks under the given
    stage-4 linear cell indices (t * h4 * w4 + x4 * w4 + y4)."""
    r = 2 ** (4 - stage)
    hi, wi = geom.h4 * r, geom.w4 * r
    t, rem = np.divmod(cells, geom.h4 * geom.w4)
    x4, y4 = np.divmod(rem, geom.w4)
    dx, dy = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    base = t * hi * wi + x4 * r * wi + y4 * r
    return (base[:, None] + (dx * wi + dy).reshape(-1)[None, :]).reshape(-1)


def check_read(query_kv, memory_kv, geom, k, ys, omega4, rng, samples):
    """Failures found at ``samples`` random query pixels per stage."""
    arrays = [tuple(np.asarray(t.data, dtype=np.float64) for t in (q.key, q.value, m.key, m.value))
              for q, m in zip(query_kv, memory_kv)]
    indices = np.asarray(getattr(omega4, "indices", omega4))
    cells4 = geom.h4 * geom.w4
    k_eff = min(k, geom.t * cells4)
    failures = []
    if indices.shape != (cells4, k_eff):
        return [f"top-k index set has shape {indices.shape}, expected {(cells4, k_eff)}"]
    for stage in (4, 3, 2, 1):
        kq, vq, km, vm = arrays[stage - 1]
        y = np.asarray(ys[stage - 1].data, dtype=np.float64)
        cv = vq.shape[0]
        if y.shape != (2 * cv, kq.shape[1]):
            failures.append(f"stage {stage}: output shape {y.shape}")
            continue
        r = 2 ** (4 - stage)
        wi = geom.w4 * r
        for p in rng.choice(kq.shape[1], size=min(samples, kq.shape[1]), replace=False):
            cell = (p // wi // r) * geom.w4 + (p % wi) // r
            if stage == 4:
                scores = kq[:, p] @ km
                chosen = indices[cell]
                if len(set(chosen.tolist())) != k_eff:
                    failures.append(f"stage 4 cell {cell}: repeated top-k indices")
                rest = np.delete(scores, chosen)
                slack = 1e-5 * (1.0 + np.abs(scores).max())
                if rest.size and scores[chosen].min() < rest.max() - slack:
                    failures.append(f"stage 4 cell {cell}: top-k set misses a higher affinity")
                ref = _mix(kq[:, p], km, vm)
            else:
                cols = _expand(indices[cell], stage, geom)
                ref = _mix(kq[:, p], km[:, cols], vm[:, cols])
            if not np.array_equal(y[:cv, p], vq[:, p]):
                failures.append(f"stage {stage} pixel {p}: query values not passed through")
            if not np.allclose(y[cv:, p], ref, rtol=_RTOL, atol=_ATOL):
                err = float(np.abs(y[cv:, p] - ref).max())
                failures.append(f"stage {stage} pixel {p}: read differs by {err:.3g}")
    return failures


def check_labels(label_maps, shape, n_objects):
    """Indices of predicted frames whose label map is malformed."""
    bad = []
    for t, labels in enumerate(label_maps):
        labels = np.asarray(labels)
        if (labels.shape != shape or not np.issubdtype(labels.dtype, np.integer)
                or labels.min(initial=0) < 0 or labels.max(initial=0) > n_objects):
            bad.append(t)
    return bad
