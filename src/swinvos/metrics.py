"""Segmentation quality: region similarity J, contour accuracy F.

J is intersection-over-union of binary masks. F is the boundary
precision/recall F-measure: boundary pixels are mask pixels with a
4-connected neighbor outside the mask (the canvas edge counts as outside),
and a boundary pixel matches when a counterpart lies within ``tolerance_px``
in Chebyshev distance. Frame 0 is excluded from sequence averages because
its mask is given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError


def region_similarity(pred, gt):
    """|pred & gt| / |pred | gt|; defined as 1 when both masks are empty."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise DimensionError(f"mask extents differ: {pred.shape} vs {gt.shape}")
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gt).sum() / union)


def boundary_pixels(mask):
    """4-connected boundary: mask pixels with a neighbor outside the mask."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return mask & ~interior


def _dilate_chebyshev(mask, radius):
    """OR over the (2r+1)² square around each pixel, rows then columns (a square is
    separable); a radius past the larger extent reaches no further, so is clamped."""
    radius = min(max(radius, 0), max(mask.shape))
    out = mask
    for axis in (0, 1):
        lines = np.pad(np.moveaxis(out, axis, 0), ((radius, radius), (0, 0)))
        n = out.shape[axis]
        out = np.zeros_like(lines[:n])
        for d in range(2 * radius + 1):
            out |= lines[d:d + n]
        out = np.moveaxis(out, 0, axis)
    return out


def default_tolerance(shape):
    """DAVIS-style bound: ceil(0.0075 * image diagonal)."""
    return math.ceil(0.0075 * math.hypot(*shape))


def contour_accuracy(pred, gt, tolerance_px):
    """Boundary F-measure 2PR/(P+R); 1 when both boundaries are empty,
    0 when P + R == 0. ``tolerance_px`` None takes ``default_tolerance``."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise DimensionError(f"mask extents differ: {pred.shape} vs {gt.shape}")
    if tolerance_px is None:
        tolerance_px = default_tolerance(pred.shape)
    pb = boundary_pixels(pred)
    gb = boundary_pixels(gt)
    n_pb, n_gb = int(pb.sum()), int(gb.sum())
    if n_pb == 0 and n_gb == 0:
        return 1.0
    gb_reach = _dilate_chebyshev(gb, tolerance_px)
    pb_reach = _dilate_chebyshev(pb, tolerance_px)
    precision = float((pb & gb_reach).sum() / n_pb) if n_pb else 0.0
    recall = float((gb & pb_reach).sum() / n_gb) if n_gb else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass
class EvalReport:
    """Per-object, per-frame J and F plus sequence-level means."""
    per_object: dict  # obj -> [(frame, J, F)]
    mean_j: float
    mean_f: float

    @property
    def j_and_f(self):
        return (self.mean_j + self.mean_f) / 2.0

    def rows(self):
        """TSV rows: (object, frame, J, F) then footer means."""
        out = []
        for obj in sorted(self.per_object):
            for frame, j, f in self.per_object[obj]:
                out.append((str(obj), str(frame), f"{j:.6f}", f"{f:.6f}"))
        out.append(("mean", "-", f"{self.mean_j:.6f}", f"{self.mean_f:.6f}"))
        out.append(("J&F", "-", f"{self.j_and_f:.6f}", ""))
        return out


def evaluate_sequence(pred_masks, gt_masks, n_objects, tolerance_px=None):
    """Score frames 1..N-1 of predicted label maps against ground truth."""
    if len(pred_masks) != len(gt_masks):
        raise DimensionError(
            f"{len(pred_masks)} predictions vs {len(gt_masks)} ground-truth masks")
    if len(gt_masks) < 2:
        raise DataError("need at least two frames to evaluate (frame 0 is given)")
    if n_objects < 1:
        raise DataError(f"ground truth labels no object (object count {n_objects})")
    per_object = {}
    js, fs = [], []
    for frame in range(1, len(gt_masks)):
        pred, gt = np.asarray(pred_masks[frame]), np.asarray(gt_masks[frame])
        if pred.shape != gt.shape:
            raise DimensionError(f"frame {frame}: {pred.shape} vs {gt.shape}")
        if pred.max(initial=0) > n_objects or gt.max(initial=0) > n_objects:
            raise DataError(
                f"frame {frame}: label exceeds declared object count {n_objects}")
        for obj in range(1, n_objects + 1):
            j = region_similarity(pred == obj, gt == obj)
            f = contour_accuracy(pred == obj, gt == obj, tolerance_px)
            per_object.setdefault(obj, []).append((frame, j, f))
            js.append(j)
            fs.append(f)
    return EvalReport(per_object, float(np.mean(js)), float(np.mean(fs)))
