"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure). Expensive artifacts (the overfit training
runs, the full-scale benchmark) are module-scoped fixtures so each runs
once. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest
from oracles import dense_read_loops, membership_law, random_kv64, topk_read_loops

from swinvos import engine
from swinvos.attention import window_layout
from swinvos.checkpoint import load_checkpoint, save_checkpoint
from swinvos.config import GRADCHECK_SEED
from swinvos.data import read_pgm, synth_moving_shapes, write_pgm
from swinvos.decoder import soft_aggregate
from swinvos.encoders import ImageEncoder, VideoEncoder
from swinvos.engine import Tensor
from swinvos.gradsuite import run_suite
from swinvos.memread import (
    ReadGeometry,
    TopKIndexSet,
    bench,
    dense_read_stage4,
    read_all,
    select_topk,
    topk_read,
)
from swinvos.metrics import contour_accuracy, evaluate_sequence, region_similarity
from swinvos.model import (
    MemoryBank,
    ModelConfig,
    init_model,
    run_sequence,
    train_toy,
)

SEED_DATA = 11
SEED_MODEL = 0


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def toy_sample():
    return synth_moving_shapes(seed=SEED_DATA, n_frames=8, size=64, n_objects=1)


@pytest.fixture(scope="module")
def overfit(toy_sample):
    """Criterion 5 training run, shared with criterion 6."""
    model = init_model(ModelConfig(variant="nano", k=128), seed=SEED_MODEL)
    t0 = time.perf_counter()
    curve = train_toy(model, toy_sample, steps=500, lr=1e-3, seed=SEED_MODEL)
    elapsed = time.perf_counter() - t0
    labels, _ = run_sequence(model, toy_sample.frames, toy_sample.masks[0])
    rep = evaluate_sequence(labels, toy_sample.masks, toy_sample.n_objects)
    return model, curve, rep, elapsed


def test_criterion_1_oracle_equivalence():
    """dense/top-k reads match loop oracles on >=100 random nano instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for instance in range(100):
        geom = ReadGeometry(t=int(rng.integers(1, 3)),
                            h4=int(rng.integers(1, 3)),
                            w4=int(rng.integers(1, 3)))
        h4w4 = geom.h4 * geom.w4
        nm4 = geom.memory_cells(4)
        kv = {}
        for stage in (2, 4):
            h, w = geom.stage_hw(stage)
            ck = 2 ** (stage - 1)  # base_dim 8
            cv = 4 * 2 ** (stage - 1)
            kv[stage] = (rng.standard_normal((ck, h * w)),
                         rng.standard_normal((cv, h * w)),
                         rng.standard_normal((ck, geom.t * h * w)),
                         rng.standard_normal((cv, geom.t * h * w)))
        kq, vq, km, vm = kv[4]
        y4, s4 = dense_read_stage4(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm))
        expect4 = dense_read_loops(kq, vq, km, vm)
        worst = max(worst, float((np.abs(y4.data - expect4)
                                  / np.maximum(1.0, np.abs(expect4))).max()))
        k = int(rng.integers(1, nm4 + 1))
        omega = TopKIndexSet(select_topk(s4, k)[:h4w4], geom).expand(2)
        kq, vq, km, vm = kv[2]
        y2 = topk_read(Tensor(kq), Tensor(vq), Tensor(km), Tensor(vm), omega, 2, geom)
        expect2 = topk_read_loops(kq, vq, km, vm, omega, 2, geom)
        worst = max(worst, float((np.abs(y2.data - expect2)
                                  / np.maximum(1.0, np.abs(expect2))).max()))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-5 and elapsed < 60,
           f"oracle equivalence on 100 instances, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_full_coverage_equivalence():
    """k = T*H4*W4 makes hierarchical_topk equal dense_all at every stage."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        geom = ReadGeometry(t=2, h4=2, w4=2)
        query, memory = random_kv64(geom, 8, seed)
        k_all = geom.memory_cells(4)
        ys_topk, _ = read_all(query, memory, geom, k_all, "hierarchical_topk")
        ys_dense, _ = read_all(query, memory, geom, k_all, "dense_all")
        for yt, yd in zip(ys_topk, ys_dense):
            rel = np.abs(yt.data - yd.data) / np.maximum(1.0, np.abs(yd.data))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-5 and elapsed < 60,
           f"full-coverage equivalence, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_suite():
    """Every differentiable op passes central finite differences (f64)."""
    t0 = time.perf_counter()
    results = run_suite(GRADCHECK_SEED)
    elapsed = time.perf_counter() - t0
    failed = [(n, w) for n, ok, w, _ in results if not ok]
    detail = ", ".join(f"{n}={w:.1e}" for n, _, w, _ in results)
    report(3, not failed and elapsed < 300,
           f"gradient suite ({len(results)} ops, {elapsed:.1f}s): {detail}")


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(7)
    ok = True
    notes = []

    # shifted window layout roundtrips, bitwise
    for _ in range(10):
        dims = (int(rng.integers(1, 3)) * 2, int(rng.integers(1, 4)) * 3, 2)
        x = Tensor(rng.standard_normal(dims).astype(np.float32))
        layout = window_layout(dims[:2], (2, 3), True)
        windows = engine.gather_rows(x, layout.slots, layout.tokens, (-1, 6, 2))
        back = engine.gather_rows(windows, layout.tokens, layout.slots, dims)
        ok &= bool((back.data == x.data).all())
    notes.append("roundtrips bitwise")

    # extent laws on randomized valid sizes, image and video encoders
    cfg = ModelConfig(variant="nano")
    image = ImageEncoder(cfg, rng)
    video = VideoEncoder(cfg, rng)
    for _ in range(3):
        h = 32 * int(rng.integers(1, 4))
        w = 32 * int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        fi = image(Tensor(rng.random((h, w, 3)).astype(np.float32)))
        fv = video(Tensor(rng.random((t, h, w, 3)).astype(np.float32)),
                   Tensor(np.zeros((t, h, w, 1), np.float32)),
                   Tensor(np.zeros((t, h, w, 1), np.float32)))
        for i in range(1, 5):
            hi, wi, ci = h // 2 ** (i + 1), w // 2 ** (i + 1), 8 * 2 ** (i - 1)
            ok &= fi[i - 1].shape == (hi, wi, ci)
            ok &= fv[i - 1].shape == (t, hi, wi, ci)
    notes.append("extent laws H/2^(i+1), C*2^(i-1), T_i=T")

    # softmax rows sum to 1 +- 1e-6
    s = engine.softmax(Tensor(rng.standard_normal((40, 17))), axis=1)
    ok &= bool(np.abs(s.data.sum(axis=1) - 1.0).max() < 1e-6)
    notes.append("softmax sums")

    # expansion sizes 4k/16k/64k
    geom = ReadGeometry(t=2, h4=3, w4=2)
    k = 5
    omega4 = np.tile(np.arange(k), (6, 1))
    sizes = tuple(TopKIndexSet(omega4, geom).expand(stage).shape[1] for stage in (3, 2, 1))
    ok &= sizes == (4 * k, 16 * k, 64 * k)
    notes.append("index expansion 4k/16k/64k")

    report(4, ok, "; ".join(notes))


def test_criterion_5_toy_overfit(overfit, toy_sample):
    model, curve, rep, elapsed = overfit
    # determinism under the seed: two fresh short runs agree bitwise, and
    # step 0 (whose curriculum cap is shared) matches the main run exactly
    twins = []
    for _ in range(2):
        twin = init_model(ModelConfig(variant="nano", k=128), seed=SEED_MODEL)
        twins.append(train_toy(twin, toy_sample, steps=5, lr=1e-3, seed=SEED_MODEL))
    deterministic = twins[0] == twins[1] and twins[0][0] == curve[0]
    ok = rep.mean_j >= 0.90 and elapsed < 600 and deterministic
    report(5, ok,
           f"nano overfit: J={rep.mean_j:.4f} (need >= 0.90) in 500 steps, "
           f"{elapsed:.0f}s, deterministic={deterministic}")


def test_criterion_6_ablation_directions(overfit, toy_sample):
    from dataclasses import replace

    model, _, rep_full, _ = overfit

    # (a) last-stage-only read on the same weights
    saved = model.config
    model.config = replace(saved, read_mode="last_stage_only")
    labels, _ = run_sequence(model, toy_sample.frames, toy_sample.masks[0])
    rep_last = evaluate_sequence(labels, toy_sample.masks, toy_sample.n_objects)
    model.config = saved

    # (b) image-only encoder trained with the same budget
    img_model = init_model(ModelConfig(variant="nano", k=128,
                                       encoder_mode="image_only"), seed=SEED_MODEL)
    train_toy(img_model, toy_sample, steps=500, lr=1e-3, seed=SEED_MODEL)
    labels, _ = run_sequence(img_model, toy_sample.frames, toy_sample.masks[0])
    rep_img = evaluate_sequence(labels, toy_sample.masks, toy_sample.n_objects)

    ok = (rep_last.j_and_f < rep_full.j_and_f) and (rep_img.j_and_f <= rep_full.j_and_f)
    report(6, ok,
           f"ablations: last_stage_only J&F={rep_last.j_and_f:.4f} < "
           f"full {rep_full.j_and_f:.4f}; image_only {rep_img.j_and_f:.4f} <= full")


def test_criterion_7_memory_read_performance():
    t0 = time.perf_counter()
    geom = ReadGeometry(t=8, h4=12, w4=12)
    walls = {}
    flops = {}
    for attempt in range(2):  # best-of-two to damp scheduler noise
        rows = bench(geom, 128, 128, ["dense_all", "hierarchical_topk"], seed=0)
        for row in rows:
            if row[0] != "all":
                continue
            mode = row[1]
            flops[mode] = row[6]
            walls[mode] = min(walls.get(mode, float("inf")), row[7])
    wall_ratio = walls["dense_all"] / walls["hierarchical_topk"]
    flop_ratio = flops["dense_all"] / flops["hierarchical_topk"]
    model_vs_measured = flop_ratio / wall_ratio
    elapsed = time.perf_counter() - t0
    ok = (wall_ratio >= 2.0 and 0.5 <= model_vs_measured <= 2.0 and elapsed < 300)
    report(7, ok,
           f"topk wall = {1 / wall_ratio:.3f}x dense (need <= 0.5); flop-model "
           f"ratio {flop_ratio:.1f} vs measured {wall_ratio:.1f} "
           f"({model_vs_measured:.2f}x, need within 2x); {elapsed:.0f}s")


def test_criterion_8_metrics_oracle():
    ok = True
    # J on hand-counted toy masks, exact
    a = np.zeros((8, 8), bool)
    b = np.zeros((8, 8), bool)
    a[2:4, 0:4] = True
    b[2:4, 2:6] = True
    ok &= region_similarity(a, a) == 1.0
    ok &= region_similarity(a, b) == 4 / 12
    ok &= region_similarity(~a & False, ~b & False) == 1.0

    # F: perfect and 1-px shifted cases within 1e-6; monotone in tolerance
    base = np.zeros((16, 16), bool)
    base[4:10, 4:10] = True
    shifted = np.roll(base, 1, axis=0)
    ok &= abs(contour_accuracy(base, base, 1) - 1.0) < 1e-6
    ok &= abs(contour_accuracy(base, shifted, 1) - 1.0) < 1e-6
    rng = np.random.default_rng(3)
    p = rng.random((24, 24)) > 0.5
    g = rng.random((24, 24)) > 0.5
    values = [contour_accuracy(p, g, t) for t in range(4)]
    ok &= all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    # soft aggregation: hand-derived 0.9412 and unit column sums
    agg = soft_aggregate([Tensor(np.full((1, 1), 0.8))])
    ok &= abs(agg.data[1, 0, 0] - 0.9412) < 1e-4
    for m in range(1, 5):
        dist = soft_aggregate([Tensor(rng.random((4, 4)).astype(np.float32))
                               for _ in range(m)])
        ok &= bool(np.abs(dist.data.sum(axis=0) - 1.0).max() < 1e-6)
    report(8, ok, "J exact on hand masks; F cases within 1e-6 and monotone; "
                  "soft aggregation sums to 1 and hits 0.9412")


def test_criterion_9_roundtrips(tmp_path):
    ok = True
    # checkpoint: bitwise weights and identical forward outputs
    model = init_model(ModelConfig(variant="nano", k=8), seed=3)
    path = tmp_path / "model.hst"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                  loaded.named_parameters()):
        ok &= na == nb and bool((pa.data == pb.data).all())
    sample = synth_moving_shapes(2, 2, 64, 1)
    out_a, _ = run_sequence(model, sample.frames, sample.masks[0])
    out_b, _ = run_sequence(loaded, sample.frames, sample.masks[0])
    ok &= bool((out_a[1] == out_b[1]).all())

    # PGM write -> read identity
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=(33, 17)).astype(np.int64)
    pgm = tmp_path / "labels.pgm"
    write_pgm(labels, pgm)
    ok &= bool((read_pgm(pgm) == labels).all())

    # memory bank membership law, exhaustive to t = 100
    for policy in ("every8", "firstprev"):
        first = np.zeros((8, 8), np.int64)
        first[0, 0] = 1
        bank = MemoryBank(policy, np.zeros((8, 8, 3), np.float32), first, 1)
        probs = Tensor(np.zeros((1, 8, 8), np.float32))
        for t in range(1, 101):
            ok &= bank.frame_indices() == membership_law(t, policy)
            bank.admit(t, np.zeros((8, 8, 3), np.float32), probs)
    report(9, ok, "checkpoint save/load bitwise + identical forward; PGM "
                  "write/read identity; bank membership law to t=100")
