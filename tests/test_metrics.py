import numpy as np
import pytest
from oracles import dilate_chebyshev_loops

from swinvos.errors import DataError, DimensionError
from swinvos.metrics import (
    _dilate_chebyshev,
    boundary_pixels,
    contour_accuracy,
    default_tolerance,
    evaluate_sequence,
    region_similarity,
)


def box(h, w, y0, y1, x0, x1):
    m = np.zeros((h, w), dtype=bool)
    m[y0:y1, x0:x1] = True
    return m


def oracle_boundary_f(pred, gt, tol):
    """Exact nearest-boundary Chebyshev distance reference."""
    pb = np.argwhere(boundary_pixels(pred))
    gb = np.argwhere(boundary_pixels(gt))
    if len(pb) == 0 and len(gb) == 0:
        return 1.0

    def frac_within(src, dst):
        if len(src) == 0:
            return 0.0
        hits = 0
        for p in src:
            d = np.abs(dst - p).max(axis=1).min() if len(dst) else np.inf
            if d <= tol:
                hits += 1
        return hits / len(src)

    precision = frac_within(pb, gb)
    recall = frac_within(gb, pb)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class TestRegionSimilarity:
    def test_perfect(self):
        m = box(8, 8, 2, 5, 2, 5)
        assert region_similarity(m, m) == 1.0

    def test_disjoint(self):
        assert region_similarity(box(8, 8, 0, 2, 0, 2), box(8, 8, 4, 6, 4, 6)) == 0.0

    def test_hand_counted_overlap(self):
        # two 2x4 rectangles overlapping in a 2x2 region: J = 4/12
        a = box(8, 8, 2, 4, 0, 4)
        b = box(8, 8, 2, 4, 2, 6)
        assert abs(region_similarity(a, b) - 4 / 12) < 1e-12

    def test_both_empty(self):
        assert region_similarity(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 1.0

    def test_extent_mismatch(self):
        with pytest.raises(DimensionError):
            region_similarity(np.zeros((4, 4), bool), np.zeros((4, 5), bool))

    def test_symmetric(self, rng):
        a = rng.random((16, 16)) > 0.5
        b = rng.random((16, 16)) > 0.5
        assert region_similarity(a, b) == region_similarity(b, a)


class TestContourAccuracy:
    def test_perfect(self):
        m = box(16, 16, 4, 10, 5, 12)
        assert contour_accuracy(m, m, 1) == 1.0

    def test_one_pixel_shift_absorbed(self):
        a = box(16, 16, 4, 10, 4, 10)
        b = box(16, 16, 5, 11, 4, 10)
        assert contour_accuracy(a, b, 1) == 1.0

    def test_three_pixel_shift_matches_oracle(self):
        a = box(24, 24, 8, 12, 4, 20)
        b = box(24, 24, 11, 15, 4, 20)
        got = contour_accuracy(a, b, 1)
        expect = oracle_boundary_f(a, b, 1)
        assert abs(got - expect) < 1e-6
        assert got < 1.0

    def test_random_masks_match_oracle(self, rng):
        for tol in (0, 1, 2):
            a = rng.random((20, 20)) > 0.6
            b = rng.random((20, 20)) > 0.6
            assert abs(contour_accuracy(a, b, tol) - oracle_boundary_f(a, b, tol)) < 1e-9

    def test_separable_dilation_matches_nested_loops(self, rng):
        for radius in range(6):
            mask = rng.random((13, 9)) > 0.85
            np.testing.assert_array_equal(_dilate_chebyshev(mask, radius),
                                          dilate_chebyshev_loops(mask, radius))

    def test_tolerance_beyond_the_frame_is_clamped(self, rng):
        # 10**9 unclamped would pad the mask to ~4e18 pixels
        a = rng.random((12, 20)) > 0.5
        b = box(12, 20, 2, 5, 14, 18)
        assert contour_accuracy(a, b, 10**9) == contour_accuracy(a, b, 20)

    def test_monotone_in_tolerance(self, rng):
        a = rng.random((24, 24)) > 0.5
        b = rng.random((24, 24)) > 0.5
        values = [contour_accuracy(a, b, t) for t in range(5)]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_swap_invariant(self, rng):
        a = rng.random((16, 16)) > 0.5
        b = rng.random((16, 16)) > 0.5
        assert abs(contour_accuracy(a, b, 1) - contour_accuracy(b, a, 1)) < 1e-12

    def test_empty_cases(self):
        empty = np.zeros((8, 8), bool)
        full = box(8, 8, 2, 5, 2, 5)
        assert contour_accuracy(empty, empty, 1) == 1.0
        assert contour_accuracy(full, empty, 1) == 0.0

    def test_default_tolerance_davis_convention(self):
        assert default_tolerance((64, 64)) == 1
        assert default_tolerance((480, 854)) == 8


class TestBoundary:
    def test_interior_removed(self):
        m = box(8, 8, 1, 6, 1, 6)
        b = boundary_pixels(m)
        assert not b[3, 3]
        assert b[1, 1] and b[5, 5]

    def test_canvas_edge_counts_as_outside(self):
        m = np.ones((4, 4), dtype=bool)
        b = boundary_pixels(m)
        assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
        assert not b[1:3, 1:3].any()


class TestEvaluateSequence:
    def test_perfect_prediction(self):
        masks = [np.zeros((16, 16), np.int64) for _ in range(3)]
        for i, m in enumerate(masks):
            m[4:9, 4 + i:9 + i] = 1
        report = evaluate_sequence(masks, masks, 1)
        assert report.mean_j == 1.0 and report.mean_f == 1.0
        assert report.j_and_f == 1.0

    def test_single_frame_matches_scalar_ops(self):
        gt = [np.zeros((16, 16), np.int64), np.zeros((16, 16), np.int64)]
        pred = [g.copy() for g in gt]
        gt[1][4:10, 4:10] = 1
        pred[1][5:11, 4:10] = 1
        report = evaluate_sequence(pred, gt, 1)
        j = region_similarity(pred[1] == 1, gt[1] == 1)
        f = contour_accuracy(pred[1] == 1, gt[1] == 1, None)
        assert abs(report.mean_j - j) < 1e-12
        assert abs(report.mean_f - f) < 1e-12

    def test_two_object_toy_matches_hand_computation(self):
        gt = [np.zeros((12, 12), np.int64) for _ in range(2)]
        pred = [np.zeros((12, 12), np.int64) for _ in range(2)]
        gt[1][2:6, 2:6] = 1    # object 1: 4x4
        gt[1][8:11, 8:11] = 2  # object 2: 3x3
        pred[1][2:6, 2:6] = 1          # perfect
        pred[1][8:11, 7:10] = 2        # shifted left by 1
        report = evaluate_sequence(pred, gt, 2)
        j1 = 1.0
        j2 = 6 / 12  # 3x2 overlap over union 3x4
        assert abs(report.mean_j - (j1 + j2) / 2) < 1e-12
        f2 = contour_accuracy(pred[1] == 2, gt[1] == 2, None)
        assert abs(report.mean_f - (1.0 + f2) / 2) < 1e-12
        assert abs(report.j_and_f - (report.mean_j + report.mean_f) / 2) < 1e-12

    def test_label_exceeding_m_rejected(self):
        gt = [np.zeros((8, 8), np.int64), np.zeros((8, 8), np.int64)]
        pred = [g.copy() for g in gt]
        pred[1][0, 0] = 3
        with pytest.raises(DataError):
            evaluate_sequence(pred, gt, n_objects=2)

    @pytest.mark.parametrize("n_objects", [0, -1])
    def test_ground_truth_without_objects_rejected(self, n_objects):
        # a declared object count below 1 leaves nothing to score
        gt = [np.zeros((8, 8), np.int64) for _ in range(3)]
        with pytest.raises(DataError, match="no object"):
            evaluate_sequence(gt, gt, n_objects=n_objects)

    def test_rows_layout(self):
        gt = [np.zeros((8, 8), np.int64), np.zeros((8, 8), np.int64)]
        gt[1][2:4, 2:4] = 1
        report = evaluate_sequence(gt, gt, 1)
        rows = report.rows()
        assert rows[0][0] == "1" and rows[0][1] == "1"
        assert rows[-2][0] == "mean"
        assert rows[-1][0] == "J&F"

    def test_outputs_in_unit_interval(self, rng):
        gt = [rng.integers(0, 3, (16, 16)) for _ in range(4)]
        pred = [rng.integers(0, 3, (16, 16)) for _ in range(4)]
        report = evaluate_sequence(pred, gt, n_objects=2)
        for rowlist in report.per_object.values():
            for _, j, f in rowlist:
                assert 0.0 <= j <= 1.0 and 0.0 <= f <= 1.0
