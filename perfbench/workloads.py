"""The benchmark workloads.

Each workload builds its inputs from the seed alone and calls only the
stable entry points of the program: ``init_model``, ``run_sequence``,
``train_toy``, ``read_all`` and ``KeyValueMaps``. Work is measured in
*units*: one unit is a whole inference sequence, a training episode, or a
single read, and yields one latency per op (frame, step or read).
"""

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from swinvos import memread
from swinvos.data import synth_moving_shapes
from swinvos.encoders import KeyValueMaps
from swinvos.engine import Tensor
from swinvos.errors import SwinVosError
from swinvos.metrics import evaluate_sequence
from swinvos.model import ModelConfig, init_model, run_sequence, train_toy

from checks import check_labels, check_read

# learning rate of all training, set-up and measured; 3e-3 collapsed the
# trained nano model on some seeds
LR = 2e-3
# query pixels per stage recomputed by the read check
READ_SAMPLES = 6


@dataclass
class Unit:
    """Outcome of one unit: per-op latencies (s), timed wall (s), ops."""
    latencies: list
    wall: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class InferSpec:
    variant: str
    size: int
    objects: int
    frames: int
    warmup_frames: int
    object_extent: int = None
    train_steps: int = 0
    j_and_f_floor: float = 0.0


class InferWorkload:
    """``run_sequence`` over one synthetic sequence per unit (every8 memory).

    With ``train_steps`` the model is first overfit on the same sequence
    with ``train_toy`` during set-up, and J&F is checked against a floor.
    """
    op = "frame"
    op_span = "model.segment_frame"

    def __init__(self, spec):
        self.spec = spec
        self.reference = None
        self.j_and_f = None

    def setup(self, seed):
        s = self.spec
        sample = synth_moving_shapes(seed, s.frames, s.size, s.objects, s.object_extent)
        model = init_model(ModelConfig(variant=s.variant, memory_policy="every8"), seed)
        curve = train_toy(model, sample, s.train_steps, LR, seed=seed)
        return dict(sample=sample, model=model, curve=curve)

    def check_setup(self, state, other):
        if state["curve"] != other["curve"]:
            return ["set-up training is not reproducible from the seed"]
        return []

    def warmup(self, state):
        sample = state["sample"]
        run_sequence(state["model"], sample.frames[:self.spec.warmup_frames], sample.masks[0])

    def unit(self, state):
        sample = state["sample"]
        n_ops = len(sample.frames) - 1
        t0 = time.perf_counter()
        try:
            labels, timings = run_sequence(state["model"], sample.frames, sample.masks[0])
        except SwinVosError as err:  # includes a non-finite class distribution
            return Unit([], time.perf_counter() - t0, n_ops, n_ops, [repr(err)])
        wall = time.perf_counter() - t0
        problems = [f"frame {t + 1}: malformed label map"
                    for t in check_labels(labels[1:], sample.masks[0].shape, sample.n_objects)]
        if self.reference is None:
            self.reference = labels
        elif any(not np.array_equal(a, b) for a, b in zip(labels, self.reference)):
            problems.append("labels differ between runs of the same sequence")
        if self.spec.train_steps:
            self.j_and_f = evaluate_sequence(labels, sample.masks, sample.n_objects).j_and_f
            if not self.j_and_f >= self.spec.j_and_f_floor:
                problems.append(f"J&F {self.j_and_f:.4f} below floor {self.spec.j_and_f_floor}")
        failed = n_ops if problems else 0
        return Unit(list(timings[1:]), wall, n_ops, failed, problems)

    def quality(self):
        if self.j_and_f is None:
            return {}
        return {"j_and_f": (self.j_and_f, "score")}


@dataclass(frozen=True)
class TrainSpec:
    size: int
    frames: int
    episode_steps: int


class TrainWorkload:
    """``train_step`` driven one step at a time through ``train_toy``.

    A unit is an episode of fixed length from a fresh copy of the seeded
    initial model, so the loss curve, and with it the final loss, is the
    same in every episode whatever the run length.
    """
    op = "step"
    op_span = "model.train_step"

    def __init__(self, spec):
        self.spec = spec
        self.reference = None

    def setup(self, seed):
        sample = synth_moving_shapes(seed, self.spec.frames, self.spec.size, 1)
        model = init_model(ModelConfig(variant="nano"), seed)
        return dict(sample=sample, model=model, seed=seed)

    def _step(self, state, model, i):
        seed = state["seed"] * self.spec.episode_steps + i
        return train_toy(model, state["sample"], 1, LR, seed=seed)[0]

    def check_setup(self, state, other):
        """Fresh models from the same seed give the same step-0 loss."""
        losses = [self._step(st, copy.deepcopy(st["model"]), 0) for st in (state, other)]
        if losses[0] != losses[1]:
            return [f"step-0 loss differs between fresh models: {losses}"]
        return []

    def warmup(self, state):
        model = copy.deepcopy(state["model"])
        for i in range(2):
            self._step(state, model, i)

    def unit(self, state):
        model = copy.deepcopy(state["model"])
        n_ops = self.spec.episode_steps
        latencies, losses, problems = [], [], []
        for i in range(n_ops):
            t0 = time.perf_counter()
            try:
                loss = self._step(state, model, i)
            except SwinVosError as err:
                # the model is left mid-update, so the rest of the episode is lost
                latencies.append(time.perf_counter() - t0)
                return Unit(latencies, sum(latencies), n_ops, n_ops - i, [repr(err)])
            latencies.append(time.perf_counter() - t0)
            losses.append(loss)
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite training loss")
        if self.reference is None:
            self.reference = losses
        elif losses != self.reference:
            problems.append("episode loss curve differs from the first episode")
        return Unit(latencies, sum(latencies), n_ops, n_ops if problems else 0, problems)

    def quality(self):
        if self.reference is None:
            return {}
        return {"train_loss_final": (self.reference[-1], "loss")}


@dataclass(frozen=True)
class ReadSpec:
    t: int
    size: int
    dim: int
    k: int = 128


class ReadWorkload:
    """``read_all`` in hierarchical_topk mode on seeded key/value maps."""
    op = "read"
    op_span = "memread.read_all"

    def __init__(self, spec):
        self.spec = spec
        self.geom = memread.ReadGeometry(spec.t, spec.size // 32, spec.size // 32)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        query, memory = [], []
        for stage in (1, 2, 3, 4):
            h, w = self.geom.stage_hw(stage)
            c = self.spec.dim * 2 ** (stage - 1)
            for maps, n in ((query, h * w), (memory, self.spec.t * h * w)):
                maps.append(KeyValueMaps(
                    Tensor(rng.standard_normal((c // 8, n), dtype=np.float32)),
                    Tensor(rng.standard_normal((c // 2, n), dtype=np.float32))))
        return dict(query=query, memory=memory, rng=np.random.default_rng([seed, 1]))

    def check_setup(self, state, other):
        return []

    def _read(self, state):
        # looked up on the module at call time, so the traced run sees its wrapper
        return memread.read_all(state["query"], state["memory"], self.geom, self.spec.k,
                                "hierarchical_topk")

    def warmup(self, state):
        self._read(state)

    def unit(self, state):
        t0 = time.perf_counter()
        try:
            ys, omega4 = self._read(state)
        except SwinVosError as err:
            return Unit([], time.perf_counter() - t0, 1, 1, [repr(err)])
        wall = time.perf_counter() - t0
        problems = check_read(state["query"], state["memory"], self.geom, self.spec.k, ys, omega4,
                              state["rng"], READ_SAMPLES)
        return Unit([wall], wall, 1, 1 if problems else 0, problems)

    def quality(self):
        return {}


# name -> factory of a fresh workload object for one run
WORKLOADS = {
    # paper-sized model, untrained; joint 3D memory windows, two objects.
    # The generator's default extent (48 px) cannot place two objects for
    # ~2.5% of seeds; at 32 px no seed of 5000 failed.
    "infer_T128": lambda: InferWorkload(InferSpec(
        variant="T", size=128, objects=2, frames=6, warmup_frames=3, object_extent=32)),
    # trained nano model on a long clip: the every8 bank grows to 9 frames
    "infer_nano_long": lambda: InferWorkload(InferSpec(
        variant="nano", size=64, objects=1, frames=64, warmup_frames=10,
        train_steps=50, j_and_f_floor=0.6)),
    "train_nano": lambda: TrainWorkload(TrainSpec(size=64, frames=32, episode_steps=25)),
    # paper-scale read: 384x384, T=8, C=128, k=128
    "read_384": lambda: ReadWorkload(ReadSpec(t=8, size=384, dim=128)),
}
