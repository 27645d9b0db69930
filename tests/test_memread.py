import math
import tracemalloc

import numpy as np
import pytest
from oracles import composed_topk_read
from oracles import dense_read_loops as oracle_dense
from oracles import random_kv64
from oracles import topk_read_loops as oracle_topk
from oracles import topk_set_for_query

from swinvos import engine, memread
from swinvos.engine import Parameter, Tape, Tensor
from swinvos.errors import DimensionError, UsageError
from swinvos.gradsuite import PRIMITIVE_TOL
from swinvos.memread import (
    ReadGeometry,
    TopKIndexSet,
    bench,
    dense_read,
    dense_read_stage4,
    flops_mode,
    random_kv,
    read_all,
    select_topk,
    topk_read,
)

GEOM = ReadGeometry(t=2, h4=2, w4=2)


def small_kv(seed, stage, geom=GEOM, base_dim=8, dtype=np.float64):
    rng = np.random.default_rng(seed)
    h, w = geom.stage_hw(stage)
    ck = base_dim * 2 ** (stage - 1) // 8
    cv = base_dim * 2 ** (stage - 1) // 2
    nq, nm = h * w, geom.t * h * w
    return (rng.standard_normal((ck, nq)).astype(dtype),
            rng.standard_normal((cv, nq)).astype(dtype),
            rng.standard_normal((ck, nm)).astype(dtype),
            rng.standard_normal((cv, nm)).astype(dtype))


class TestDenseRead:
    def test_single_memory_cell(self, rng):
        kq = rng.standard_normal((2, 1))
        vq = rng.standard_normal((3, 1))
        km = rng.standard_normal((2, 1))
        vm = rng.standard_normal((3, 1))
        y, s = dense_read_stage4(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        np.testing.assert_allclose(y.data, np.concatenate([vq, vm]), rtol=1e-6)
        assert s.shape == (1, 1)

    def test_identical_keys_average_values(self, rng):
        kq = rng.standard_normal((2, 1))
        vq = rng.standard_normal((2, 1))
        km = np.repeat(rng.standard_normal((2, 1)), 2, axis=1)
        vm = rng.standard_normal((2, 2))
        y = dense_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        np.testing.assert_allclose(y.data[2:, 0], vm.mean(axis=1), rtol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        kq, vq, km, vm = small_kv(seed, stage=4)
        y, _ = dense_read_stage4(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        expect = oracle_dense(kq, vq, km, vm)
        err = np.abs(y.data - expect) / np.maximum(1.0, np.abs(expect))
        assert err.max() < 1e-5

    def test_softmax_rows_sum_to_one(self, rng):
        # with a single all-ones value row, the readout equals the row sums
        kq, vq, km, vm = small_kv(3, stage=4)
        vm1 = np.ones((1, vm.shape[1]))
        vq1 = np.zeros((1, vq.shape[1]))
        y = dense_read(Tensor(kq), Tensor(vq1), Tensor(km), Tensor(vm1))
        np.testing.assert_allclose(y.data[1], 1.0, atol=1e-6)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            dense_read(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                       Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 8))))

    def test_chunked_equals_unchunked(self, rng, monkeypatch):
        kq, vq, km, vm = small_kv(9, stage=2)
        full = dense_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        monkeypatch.setattr(memread, "_CHUNK_ELEMS", 64)
        chunked = dense_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        np.testing.assert_allclose(chunked.data, full.data, atol=1e-12)

    @pytest.mark.parametrize("chunk_elems", [1, 64, memread._CHUNK_ELEMS])
    def test_query_without_columns_reads_empty(self, monkeypatch, chunk_elems):
        kq, vq, km, vm = small_kv(9, stage=2)
        monkeypatch.setattr(memread, "_CHUNK_ELEMS", chunk_elems)
        y = dense_read(Tensor(kq[:, :0]), Tensor(vq[:, :0]), Tensor(km), Tensor(vm))
        assert y.shape == (vq.shape[0] + vm.shape[0], 0)

    def test_stage4_reads_in_one_chunk(self, monkeypatch):
        # the raw affinities cover every query row whatever the chunk size
        kq, vq, km, vm = small_kv(9, stage=2)
        full, s_full = dense_read_stage4(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        monkeypatch.setattr(memread, "_CHUNK_ELEMS", 64)
        y, s = dense_read_stage4(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        assert s.shape == (kq.shape[1], km.shape[1])
        assert s.tobytes() == s_full.tobytes() and y.data.tobytes() == full.data.tobytes()


class TestSelectTopk:
    def test_clamp_to_row_length(self, rng):
        s = rng.standard_normal((3, 4))
        idx = select_topk(s, 99)
        assert idx.shape == (3, 4)
        assert sorted(idx[0].tolist()) == [0, 1, 2, 3]

    def test_tie_breaks_to_lower_index(self):
        idx = select_topk(np.array([[5.0, 1.0, 5.0, 0.0]]), 2)
        assert set(idx[0].tolist()) == {0, 2}

    def test_matches_full_sort_oracle(self, rng):
        s = rng.standard_normal((10, 20))
        idx = select_topk(s, 7)
        for row in range(10):
            expect = sorted(range(20), key=lambda p: (-s[row, p], p))[:7]
            assert idx[row].tolist() == expect

    def test_monotone_supersets(self, rng):
        s = rng.standard_normal((6, 30))
        prev = None
        for k in range(1, 31):
            cur = [set(r.tolist()) for r in select_topk(s, k)]
            if prev is not None:
                for a, b in zip(prev, cur):
                    assert a <= b
            prev = cur


class TestMapIndices:
    def test_stage3_block_expansion(self):
        # one set containing (t=0, x4=1, y4=0) on a 2x2 stage-4 grid
        omega4 = np.array([[1 * GEOM.w4 + 0]] * 4)
        out = TopKIndexSet(omega4, GEOM).expand(3)
        w3 = GEOM.stage_hw(3)[1]
        expect = sorted([2 * w3 + 0, 2 * w3 + 1, 3 * w3 + 0, 3 * w3 + 1])
        assert sorted(out[0].tolist()) == expect

    def test_sizes_4k_16k_64k(self):
        geom = ReadGeometry(t=1, h4=3, w4=3)
        k = 2
        omega4 = np.tile(np.arange(k), (9, 1))
        for stage, factor in ((3, 4), (2, 16), (1, 64)):
            assert TopKIndexSet(omega4, geom).expand(stage).shape == (9, factor * k)

    def test_blocks_disjoint_for_distinct_cells(self):
        omega4 = np.array([[0, 3]] * 4)
        out = TopKIndexSet(omega4, GEOM).expand(2)
        assert len(set(out[0].tolist())) == out.shape[1]

    def test_bad_stage(self):
        with pytest.raises(UsageError):
            TopKIndexSet(np.zeros((4, 1), dtype=int), GEOM).expand(4)

    def test_for_query_uses_containing_cell(self):
        omega4 = np.arange(8).reshape(4, 2) % (GEOM.t * 4)
        idxset = TopKIndexSet(omega4, GEOM)
        # stage-1 pixel (9, 3) lies in stage-4 cell (1, 0)
        got = topk_set_for_query(idxset, 1, 9, 3)
        np.testing.assert_array_equal(got, idxset.expand(1)[2])


class TestTopkRead:
    def test_full_coverage_equals_dense(self):
        for stage in (1, 2, 3):
            kq, vq, km, vm = small_kv(stage, stage=stage)
            nm4 = GEOM.memory_cells(4)
            omega4 = np.tile(np.arange(nm4), (GEOM.h4 * GEOM.w4, 1))
            omega = TopKIndexSet(omega4, GEOM).expand(stage)
            y_sparse = topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm),
                                 omega, stage, GEOM)
            y_dense = dense_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
            err = np.abs(y_sparse.data - y_dense.data)
            assert err.max() < 1e-5

    def test_single_index_returns_gathered_column(self):
        kq, vq, km, vm = small_kv(4, stage=3)
        omega = np.full((4, 1), 5)
        y = topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm), omega, 3, GEOM)
        cv = vq.shape[0]
        for q in range(kq.shape[1]):
            np.testing.assert_allclose(y.data[cv:, q], vm[:, 5], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gather_softmax_oracle(self, seed):
        stage = 2
        kq, vq, km, vm = small_kv(seed + 20, stage=stage)
        rng = np.random.default_rng(seed)
        omega4 = np.stack([rng.choice(GEOM.memory_cells(4), size=3, replace=False)
                           for _ in range(GEOM.h4 * GEOM.w4)])
        omega = TopKIndexSet(omega4, GEOM).expand(stage)
        y = topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm), omega, stage, GEOM)
        expect = oracle_topk(kq, vq, km, vm, omega, stage, GEOM)
        err = np.abs(y.data - expect) / np.maximum(1.0, np.abs(expect))
        assert err.max() < 1e-5

    def test_softmax_rows_sum_to_one(self):
        kq, _, km, _ = small_kv(8, stage=1)
        nq, nm = kq.shape[1], km.shape[1]
        omega = np.tile(np.arange(0, nm, 2)[:64], (4, 1))
        y = topk_read(Tensor(kq), Tensor(np.zeros((1, nq))), Tensor(km),
                      Tensor(np.ones((1, nm))), omega, 1, GEOM)
        np.testing.assert_allclose(y.data[1], 1.0, atol=1e-6)

    def test_empty_omega_rejected(self):
        kq, vq, km, vm = small_kv(0, stage=3)
        with pytest.raises(UsageError):
            topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm),
                      np.zeros((4, 0), dtype=int), 3, GEOM)

    @pytest.mark.parametrize("stage", (1, 2, 3))
    def test_group_size_does_not_change_output(self, stage, monkeypatch):
        geom = ReadGeometry(t=2, h4=3, w4=2)
        kq, vq, km, vm = small_kv(stage + 30, stage=stage, geom=geom)
        rng = np.random.default_rng(stage)
        omega4 = np.stack([rng.choice(geom.memory_cells(4), size=3, replace=False)
                           for _ in range(geom.h4 * geom.w4)])
        omega = TopKIndexSet(omega4, geom).expand(stage)

        def read():
            return topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm),
                             omega, stage, geom).data.tobytes()

        default = read()
        monkeypatch.setattr(memread, "_GROUP_ELEMS", 1)  # one cell per group
        one_cell = read()
        monkeypatch.setattr(memread, "_GROUP_ELEMS", 2 ** 62)  # all cells in one group
        all_cells = read()
        assert one_cell == default
        assert all_cells == default

    def test_stage1_working_set_is_bounded(self):
        # paper-scale channels on a 6x6 stage-4 grid; whole-grid score and
        # gather blocks would peak near 400 MB here
        geom = ReadGeometry(t=8, h4=6, w4=6)
        query, memory = random_kv(geom, 128, 0)
        q, m = query[0], memory[0]
        rng = np.random.default_rng(0)
        omega4 = np.stack([rng.choice(geom.memory_cells(4), size=128, replace=False)
                           for _ in range(geom.h4 * geom.w4)])
        omega = TopKIndexSet(omega4, geom).expand(1)
        out_bytes = (q.value.shape[0] + m.value.shape[0]) * q.key.shape[1] * 4
        budget = 4 * (m.key.data.nbytes + m.value.data.nbytes + omega.nbytes + out_bytes)
        tracemalloc.start()
        try:
            y = topk_read(q.key, q.value, m.key, m.value, omega, 1, geom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.data.nbytes == out_bytes
        assert peak < budget, f"peak {peak / 2**20:.1f} MB, budget {budget / 2**20:.1f} MB"

    @pytest.mark.parametrize("bad", ("negative", "past_end"))
    def test_out_of_range_index_rejected(self, bad):
        # np.take would wrap -1 round to the last row without a complaint
        kq, vq, km, vm = small_kv(0, stage=3)
        omega = np.zeros((4, 2), dtype=int)
        omega[2, 1] = -1 if bad == "negative" else km.shape[1]
        with pytest.raises(DimensionError):
            topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm), omega, 3, GEOM)

    def test_mixed_dtypes_rejected(self):
        kq, vq, km, vm = small_kv(0, stage=3)
        with pytest.raises(DimensionError):
            topk_read(Tensor(kq), Tensor(vq), Tensor(km.astype(np.float32)), Tensor(vm),
                      np.zeros((4, 2), dtype=int), 3, GEOM)

    def test_gradients_flow_through_gather(self):
        geom = ReadGeometry(t=1, h4=1, w4=1)
        stage = 3
        rng = np.random.default_rng(0)
        omega = np.array([[0, 2]])
        probe = rng.standard_normal((4, 4))

        def fn(kq, vq, km, vm):
            y = topk_read(kq, vq, km, vm, omega, stage, geom)
            return engine.tsum(engine.mul(y, Tensor(probe)))

        worst = engine.gradcheck(
            fn, [rng.standard_normal((1, 4)), rng.standard_normal((2, 4)),
                 rng.standard_normal((1, 4)), rng.standard_normal((2, 4))])
        assert worst <= 1e-5, f"worst rel err {worst:.2e}"


class TestGatherAttend:
    """The fused per-cell-group op against the composed engine ops."""

    GEOM = ReadGeometry(t=2, h4=3, w4=2)  # 6 cells: groups of 4 leave a short one

    def case(self, stage, dtype):
        kq, vq, km, vm = small_kv(stage + 40, stage=stage, geom=self.GEOM, dtype=dtype)
        rng = np.random.default_rng(stage)
        omega4 = np.stack([rng.choice(self.GEOM.memory_cells(4), size=3, replace=False)
                           for _ in range(self.GEOM.h4 * self.GEOM.w4)])
        omega = TopKIndexSet(omega4, self.GEOM).expand(stage)
        probe = rng.standard_normal((vq.shape[0] * 2, kq.shape[1])).astype(dtype)
        return [kq, vq, km, vm], omega, probe

    def set_cells_per_group(self, monkeypatch, cells, arrays, omega, stage):
        r2 = 4 ** (4 - stage)
        width = max(r2, arrays[0].shape[0], arrays[1].shape[0])
        monkeypatch.setattr(memread, "_GROUP_ELEMS", cells * omega.shape[1] * width)

    def run(self, read, arrays, omega, stage, probe):
        params = [Parameter(a.copy()) for a in arrays]
        with Tape() as tape:
            y = read(*[p.tensor() for p in params], omega, stage, self.GEOM)
            loss = engine.tsum(engine.mul(y, Tensor(probe)))
        engine.backward(loss, tape)
        return y.data.tobytes(), [p.grad.tobytes() for p in params], tape

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("cells", (1, 4))
    @pytest.mark.parametrize("stage", (1, 3))
    def test_bytes_equal_composed_ops(self, stage, cells, dtype, monkeypatch):
        arrays, omega, probe = self.case(stage, dtype)
        self.set_cells_per_group(monkeypatch, cells, arrays, omega, stage)
        y, grads, _ = self.run(topk_read, arrays, omega, stage, probe)
        y_ref, grads_ref, _ = self.run(composed_topk_read, arrays, omega, stage, probe)
        assert y == y_ref
        assert grads == grads_ref

    @pytest.mark.parametrize("cells, groups", ((1, 6), (4, 2)))
    def test_one_tape_node_per_cell_group(self, cells, groups, monkeypatch):
        stage = 2
        arrays, omega, probe = self.case(stage, np.float64)
        self.set_cells_per_group(monkeypatch, cells, arrays, omega, stage)
        *_, tape = self.run(topk_read, arrays, omega, stage, probe)
        ops = [n.backward_fn.__qualname__.split(".")[0] for n in tape.nodes]
        assert ops.count("_gather_attend") == groups
        assert not {"take", "matmul", "softmax"} & set(ops)

    def test_gradcheck_one_cell_groups(self, monkeypatch):
        stage = 3
        arrays, omega, probe = self.case(stage, np.float64)
        monkeypatch.setattr(memread, "_GROUP_ELEMS", 1)

        def fn(kq, vq, km, vm):
            y = topk_read(kq, vq, km, vm, omega, stage, self.GEOM)
            return engine.tsum(engine.mul(y, Tensor(probe)))

        worst = engine.gradcheck(fn, arrays)
        assert worst <= PRIMITIVE_TOL, f"worst rel err {worst:.2e}"


class TestReadAll:
    def make_kv(self, seed):
        return random_kv64(GEOM, 8, seed)

    def test_full_coverage_matches_dense_all(self):
        query, memory = self.make_kv(1)
        k_all = GEOM.memory_cells(4)
        ys_topk, omega = read_all(query, memory, GEOM, k_all, "hierarchical_topk")
        ys_dense, _ = read_all(query, memory, GEOM, k_all, "dense_all")
        assert omega.indices.shape[1] == k_all
        for yt, yd in zip(ys_topk, ys_dense):
            err = np.abs(yt.data - yd.data) / np.maximum(1.0, np.abs(yd.data))
            assert err.max() < 1e-5

    def test_last_stage_only_omits_fine_stages(self):
        query, memory = self.make_kv(2)
        ys, omega = read_all(query, memory, GEOM, 4, "last_stage_only")
        assert ys[3] is not None
        assert ys[0] is None and ys[1] is None and ys[2] is None
        assert omega is None

    def test_unknown_mode(self):
        query, memory = self.make_kv(3)
        with pytest.raises(UsageError):
            read_all(query, memory, GEOM, 4, "sparse")

    def test_flop_model_favors_topk_when_sparse(self):
        geom = ReadGeometry(t=8, h4=12, w4=12)
        dense = flops_mode("dense_all", geom, 128, 128)
        topk = flops_mode("hierarchical_topk", geom, 128, 128)
        assert dense[4] == topk[4]
        for stage in (1, 2, 3):
            n = 4 ** (4 - stage) * 128
            if n < geom.memory_cells(stage):
                assert topk[stage] < dense[stage]

    def test_flop_model_matches_operation_counter(self, monkeypatch):
        # count the multiply-adds of every numpy matmul actually executed
        # (engine ops and fused ops alike), and of every unit-inner-extent
        # product that engine.array_matmul runs as a multiply plus + 0.0
        # (2 flops per output, as the GEMM's), and compare with the model's
        # matmul term (model minus 5/elem softmax)
        counted = {"flops": 0}
        real_matmul = np.matmul
        real_array_matmul = engine.array_matmul

        def count(a, b):
            m, p = np.shape(a)[-2:]
            n = np.shape(b)[-1]
            batch = math.prod(np.broadcast_shapes(np.shape(a)[:-2], np.shape(b)[:-2]))
            counted["flops"] += 2 * batch * m * p * n

        def counting_matmul(a, b, *args, **kw):
            count(a, b)
            return real_matmul(a, b, *args, **kw)

        def counting_array_matmul(a, b):
            if np.shape(a)[-1] == 1:  # other products reach np.matmul
                count(a, b)
            return real_array_matmul(a, b)

        monkeypatch.setattr(np, "matmul", counting_matmul)
        monkeypatch.setattr(engine, "array_matmul", counting_array_matmul)
        geom = ReadGeometry(t=2, h4=2, w4=2)
        query, memory = random_kv(geom, 8, 0)
        for mode in ("dense_all", "hierarchical_topk"):
            counted["flops"] = 0
            read_all(query, memory, geom, 3, mode)
            model = flops_mode(mode, geom, 8, 3)
            softmax_part = 0
            for stage in (1, 2, 3, 4):
                h, w = geom.stage_hw(stage)
                nq = h * w
                if mode == "dense_all" or stage == 4:
                    cols = geom.t * nq
                else:
                    cols = 4 ** (4 - stage) * 3
                softmax_part += 5 * nq * cols
            expect = sum(model.values()) - softmax_part
            assert counted["flops"] == expect, f"{mode}: {counted['flops']} != {expect}"


class TestBench:
    def test_rows_shape_and_modes(self):
        geom = ReadGeometry(t=2, h4=2, w4=2)
        rows = bench(geom, 8, 4, ["dense_all", "hierarchical_topk"], seed=0)
        modes = {r[1] for r in rows}
        assert modes == {"dense_all", "hierarchical_topk"}
        all_rows = [r for r in rows if r[0] == "all"]
        assert len(all_rows) == 2
        for r in rows:
            assert r[-1] >= 0 and r[-2] >= 0

    @pytest.mark.parametrize("mode, stages", [
        ("dense_all", [1, 2, 3, 4]),
        ("hierarchical_topk", [1, 2, 3, 4]),
        ("last_stage_only", [4]),
    ])
    def test_rows_follow_the_stages_the_mode_runs(self, mode, stages):
        geom = ReadGeometry(t=2, h4=2, w4=2)
        rows = bench(geom, 8, 3, [mode], seed=0)
        *stage_rows, total = rows
        assert [r[0] for r in stage_rows] == stages
        model = flops_mode(mode, geom, 8, 3)
        for r in stage_rows:
            assert r[1:6] == (mode, 3, 2, 64, 64)
            assert r[6] == model[r[0]]
        assert total[:6] == ("all", mode, 3, 2, 64, 64)
        assert total[6] == sum(r[6] for r in stage_rows)
        assert total[7] == sum(r[7] for r in stage_rows)
