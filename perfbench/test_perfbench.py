"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Covers the metric plumbing (every declared metric reported, with its unit),
the output checks (they pass on the program's output and catch corrupted
output and raised errors), and the tracer (nesting, op ids, restoring the
patched names).
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import workloads  # noqa: E402
from checks import check_read  # noqa: E402
from swinvos import memread, model  # noqa: E402
from swinvos.engine import Tensor  # noqa: E402
from swinvos.errors import DimensionError  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

TINY = {
    "infer": lambda: workloads.InferWorkload(workloads.InferSpec(
        variant="nano", size=64, objects=2, frames=3, warmup_frames=2, train_steps=2)),
    "train": lambda: workloads.TrainWorkload(workloads.TrainSpec(
        size=64, frames=8, episode_steps=2)),
    "read": lambda: workloads.ReadWorkload(workloads.ReadSpec(t=2, size=128, dim=16, k=4)),
}


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_MIN_S", 0.0)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (unit, _) in bench.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    for factory in workloads.WORKLOADS.values():
        factory()


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric_and_passes_checks(kind, trace, tmp_path):
    result = bench.run(TINY[kind](), seed=3, seconds=0.01, trace=trace, title=kind,
                       trace_path=str(tmp_path / "spans.json"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        with open(tmp_path / "spans.json") as fh:
            dump = json.load(fh)
        assert dump["missing"] == [] and dump["ops"] >= 1
    if trace and kind == "infer":
        # the layer spans account for the frame time (acceptance: >= 90%)
        assert result["metrics"]["trace_coverage_pct"]["value"] > 90.0


def test_read_check_passes_program_output_and_catches_corruption():
    w = TINY["read"]()
    state = w.setup(5)
    ys, omega4 = w._read(state)
    rng = np.random.default_rng(0)
    args = (state["query"], state["memory"], w.geom, w.spec.k)
    assert check_read(*args, ys, omega4, rng, samples=64) == []

    bad_values = [y.data.copy() for y in ys]
    bad_values[0][bad_values[0].shape[0] // 2:] += 0.1
    assert check_read(*args, [Tensor(v) for v in bad_values[:1]] + ys[1:],
                      omega4, rng, samples=64)

    # swap a selected stage-4 cell for the lowest-scoring one of its row
    s4 = state["query"][3].key.data.T @ state["memory"][3].key.data
    bad_idx = omega4.indices.copy()
    bad_idx[:, 0] = np.argmin(s4, axis=1)
    assert any("top-k" in f for f in check_read(*args, ys, bad_idx, rng, samples=64))


def test_raised_errors_and_failed_checks_count_as_failures(monkeypatch):
    def broken(*args, **kwargs):
        raise DimensionError("injected")

    w = TINY["read"]()
    state = w.setup(1)
    monkeypatch.setattr(memread, "read_all", broken)
    unit = w.unit(state)
    assert (unit.attempted, unit.failed) == (1, 1)

    w = workloads.InferWorkload(workloads.InferSpec(
        variant="nano", size=64, objects=1, frames=3, warmup_frames=2,
        train_steps=1, j_and_f_floor=1.01))
    unit = w.unit(w.setup(1))
    assert unit.failed == unit.attempted == 2 and "floor" in unit.problems[0]


def test_tracer_nests_spans_by_op_and_restores_patched_names():
    originals = (model.read_all, memread.read_all, model.Model.encode_memory)
    w = TINY["infer"]()
    state = w.setup(2)
    tracer = Tracer(w.op_span)
    with tracer.patched():
        assert model.read_all is not originals[0]
        w.unit(state)
    assert (model.read_all, memread.read_all, model.Model.encode_memory) == originals
    assert tracer.ops == 2 and tracer.missing == []
    frames = [i for i, s in enumerate(tracer.spans) if s[0] == w.op_span]
    assert [tracer.spans[i][4] for i in frames] == [1, 2]
    for name, start, end, parent, op in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == op
    metrics = tracer.per_layer(0.0)
    assert metrics["model.bank_frames"] == 1.5          # banks of 1 then 2 frames
    assert metrics["encoders.memory_frames"] == 3.0     # 2 objects x 1.5 frames
    assert metrics["memread.topk_mass"] == pytest.approx(1.0)   # k covers all cells


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_384", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_traced_run_alternates_plain_and_traced_units():
    seen = []

    class Probe:
        def unit(self, state):
            seen.append(memread.read_all is not original)
            return workloads.Unit([1e-3], 1e-3, 1, 0)

    original = memread.read_all
    plain, traced = bench.measure_paired(Probe(), None, Tracer("memread.read_all"), 0.01)
    assert len(plain) == len(traced) >= 1
    assert seen[:4] == [False, True, True, False][:len(seen)]
    assert memread.read_all is original
