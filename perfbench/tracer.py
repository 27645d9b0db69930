"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of the swinvos modules from outside the
package: each wrapper records a span (name, start, end, parent, op id)
around the call, and some also add to counters (frames encoded, GELU
elements, tape nodes, analytic read FLOPs and gathered bytes, top-k mass).
A name is patched where it is looked up, so ``read_all`` is replaced both
in ``swinvos.memread`` and in ``swinvos.model``, which imports it by name.
Engine ops are looked up as module globals of ``swinvos.engine`` even from
inside the engine, so one patch there covers every caller.

Spans stay in memory and are written out when the run ends.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import json
import time

import numpy as np

# Counters kept per op and reported as they are.
_COUNTERS = ("encoders.memory_frames", "model.bank_frames",
             "engine.gelu_melems", "engine.tape_nodes")


def _bank_frames(tracer, args):
    tracer.count("model.bank_frames", len(args["bank"].frame_indices()))


def _memory_frames(tracer, args):
    tracer.count("encoders.memory_frames", args["frames"].shape[0])


def _gelu_elems(tracer, args):
    tracer.count("engine.gelu_melems", np.size(getattr(args["a"], "data", args["a"])) / 1e6)


def _tape_nodes(tracer, args):
    tracer.count("engine.tape_nodes", len(args["tape"].nodes))


def _topk_read_name(args):
    return f"memread.topk_s{args['stage']}"


def _topk_read_work(tracer, args):
    """Analytic cost of one sparse read, from the shapes of its arguments:
    the ``flops_topk`` model (two matmuls and a softmax over the index set)
    and the bytes of the gathered key and value rows."""
    kq, vq, omega = args["kq"], args["vq"], np.asarray(args["omega"])
    nq, n = kq.shape[1], omega.shape[1]
    ck, cv = kq.shape[0], vq.shape[0]
    if args["stage"] == 1:
        tracer.count("memread.s1_flops", 2 * nq * n * (ck + cv) + 5 * nq * n)
    tracer.count("memread.gather_bytes", omega.size * (ck + cv) * kq.data.itemsize)


def _topk_mass(tracer, args, out):
    """Stage-4 softmax mass inside the selected top-k set, per query row."""
    s = np.asarray(args["s_raw"], dtype=np.float64)
    w = np.exp(s - s.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mass = np.take_along_axis(w, np.asarray(out), axis=1).sum(axis=1)
    tracer.count("memread.topk_mass_sum", float(mass.sum()))
    tracer.count("memread.topk_mass_rows", mass.size)


# (module, attribute, span name, hook before the call, hook after the call)
TARGETS = (
    ("swinvos.model", "segment_frame", "model.segment_frame", _bank_frames, None),
    ("swinvos.model", "train_step", "model.train_step", None, None),
    ("swinvos.model", "Model.encode_memory", "encoders.memory", _memory_frames, None),
    ("swinvos.model", "read_all", "memread.read_all", None, None),
    ("swinvos.model", "soft_aggregate", "decoder.aggregate", None, None),
    ("swinvos.model", "predict_labels", "decoder.predict_labels", None, None),
    ("swinvos.encoders", "ImageEncoder.__call__", "encoders.query", None, None),
    ("swinvos.encoders", "KeyValueProjector.__call__", "encoders.kv_proj", None, None),
    ("swinvos.attention", "window_msa", "attention.window_msa", None, None),
    ("swinvos.attention", "Mlp.__call__", "attention.mlp", None, None),
    ("swinvos.decoder", "Decoder.__call__", "decoder.decode", None, None),
    ("swinvos.memread", "read_all", "memread.read_all", None, None),
    ("swinvos.memread", "dense_read_stage4", "memread.dense_read_stage4", None, None),
    ("swinvos.memread", "select_topk", "memread.select_topk", None, _topk_mass),
    ("swinvos.memread", "topk_read", _topk_read_name, _topk_read_work, None),
    ("swinvos.engine", "gelu", "engine.gelu", _gelu_elems, None),
    ("swinvos.engine", "matmul", "engine.matmul", None, None),
    ("swinvos.engine", "conv2d", "engine.conv2d", None, None),
    ("swinvos.engine", "softmax", "engine.softmax", None, None),
    ("swinvos.engine", "layer_norm", "engine.layer_norm", None, None),
    ("swinvos.engine", "backward", "engine.backward", _tape_nodes, None),
    ("swinvos.engine", "adam_step", "engine.adam", None, None),
)

# per-layer metric -> (unit, better); every one is reported per op
PER_LAYER = {
    "encoders.query_ms": ("ms/op", "lower"),
    "encoders.memory_ms": ("ms/op", "lower"),
    "encoders.memory_frames": ("count/op", "lower"),
    "encoders.kv_proj_ms": ("ms/op", "lower"),
    "model.bank_frames": ("count/op", "lower"),
    "model.forward_ms": ("ms/op", "lower"),
    "attention.window_msa_ms": ("ms/op", "lower"),
    "attention.mlp_ms": ("ms/op", "lower"),
    "engine.gelu_ms": ("ms/op", "lower"),
    "engine.gelu_melems": ("Melem/op", "lower"),
    "engine.matmul_ms": ("ms/op", "lower"),
    "engine.conv2d_ms": ("ms/op", "lower"),
    "engine.softmax_ms": ("ms/op", "lower"),
    "engine.layer_norm_ms": ("ms/op", "lower"),
    "engine.backward_ms": ("ms/op", "lower"),
    "engine.tape_nodes": ("count/op", "lower"),
    "engine.adam_ms": ("ms/op", "lower"),
    "memread.read_ms": ("ms/op", "lower"),
    "memread.stage4_ms": ("ms/op", "lower"),
    "memread.topk_s3_ms": ("ms/op", "lower"),
    "memread.topk_s2_ms": ("ms/op", "lower"),
    "memread.topk_s1_ms": ("ms/op", "lower"),
    "memread.s1_gflops": ("GFLOP/s", "higher"),
    "memread.gather_mb": ("MB/op", "lower"),
    "memread.topk_mass": ("share", "higher"),
    "decoder.decode_ms": ("ms/op", "lower"),
    "decoder.aggregate_ms": ("ms/op", "lower"),
    "trace_coverage_pct": ("%", "higher"),
    "trace_overhead_pct": ("%", "lower"),
}

# derived from the analytic cost model over measured time, not counted
COMPUTED = ("memread.s1_gflops", "memread.gather_mb")

# time metrics that are one span's inclusive time per op
_SPAN_TIMERS = {
    "encoders.query_ms": "encoders.query",
    "encoders.memory_ms": "encoders.memory",
    "encoders.kv_proj_ms": "encoders.kv_proj",
    "attention.window_msa_ms": "attention.window_msa",
    "attention.mlp_ms": "attention.mlp",
    "engine.gelu_ms": "engine.gelu",
    "engine.matmul_ms": "engine.matmul",
    "engine.conv2d_ms": "engine.conv2d",
    "engine.softmax_ms": "engine.softmax",
    "engine.layer_norm_ms": "engine.layer_norm",
    "engine.backward_ms": "engine.backward",
    "engine.adam_ms": "engine.adam",
    "memread.read_ms": "memread.read_all",
    "memread.topk_s3_ms": "memread.topk_s3",
    "memread.topk_s2_ms": "memread.topk_s2",
    "memread.topk_s1_ms": "memread.topk_s1",
    "decoder.decode_ms": "decoder.decode",
    "decoder.aggregate_ms": "decoder.aggregate",
}


class Tracer:
    """In-memory span recorder.

    ``op_span`` names the span that delimits one operation of the workload
    (a segmented frame, a training step or a read); every span started
    inside it carries its op id.
    """

    def __init__(self, op_span):
        self.op_span = op_span
        self.spans = []                 # [name, start_ns, end_ns, parent, op]
        self.missing = []               # patch targets absent from the program
        self.ops = 0
        self._stack = []
        self._open = collections.Counter()
        self._ns = collections.Counter()       # name -> outermost inclusive ns
        self._counts = collections.Counter()
        self._origin = time.perf_counter_ns()

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        if name == self.op_span and not self._open[name]:
            self.ops += 1
        op = self.ops if (self._open[self.op_span] or name == self.op_span) else 0
        self.spans.append([name, time.perf_counter_ns() - self._origin, None, parent, op])
        self._stack.append(len(self.spans) - 1)
        self._open[name] += 1
        return len(self.spans) - 1

    def end(self, index):
        span = self.spans[index]
        span[2] = time.perf_counter_ns() - self._origin
        self._stack.pop()
        self._open[span[0]] -= 1
        if not self._open[span[0]]:
            self._ns[span[0]] += span[2] - span[1]

    def count(self, name, amount):
        self._counts[name] += amount

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording a span per call; hooks and a callable ``name``
        see the call's arguments as a dict keyed by parameter name."""
        params = list(inspect.signature(fn).parameters)
        needs_args = before is not None or after is not None or callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = dict(zip(params, args), **kwargs) if needs_args else None
            if before is not None:
                before(self, bound)
            index = self.begin(name(bound) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, bound, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets=TARGETS):
        """Install a wrapper at every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, before, after in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(leaf) if owner is not None else None
                if original is None:
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf, self.wrap(original, name, before, after))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def self_ms(self, name):
        return self._ns[name] / 1e6

    def coverage(self):
        """Share of op-span time covered by the op span's direct children."""
        total = covered = 0
        for name, start, end, parent, _ in self.spans:
            if name == self.op_span:
                total += end - start
            elif parent >= 0 and self.spans[parent][0] == self.op_span:
                covered += end - start
        return covered / total if total else 0.0

    def per_layer(self, overhead_pct):
        """Every per-layer metric, normalised per op."""
        ops = max(self.ops, 1)
        per_op = {m: self._ns[span] / 1e6 / ops for m, span in _SPAN_TIMERS.items()}
        values = dict(per_op)
        for name in _COUNTERS:
            values[name] = self._counts[name] / ops
        values["memread.stage4_ms"] = (self._ns["memread.dense_read_stage4"]
                                       + self._ns["memread.select_topk"]) / 1e6 / ops
        step_ns = self._ns["model.train_step"]
        values["model.forward_ms"] = (
            (step_ns - self._ns["engine.backward"] - self._ns["engine.adam"]) / 1e6 / ops
            if step_ns else 0.0)
        s1_ns = self._ns["memread.topk_s1"]
        values["memread.s1_gflops"] = self._counts["memread.s1_flops"] / s1_ns if s1_ns else 0.0
        values["memread.gather_mb"] = self._counts["memread.gather_bytes"] / 1e6 / ops
        rows = self._counts["memread.topk_mass_rows"]
        values["memread.topk_mass"] = (self._counts["memread.topk_mass_sum"] / rows
                                       if rows else 0.0)
        values["trace_coverage_pct"] = 100.0 * self.coverage()
        values["trace_overhead_pct"] = overhead_pct
        return {name: values[name] for name in PER_LAYER}

    def dump(self, path, header):
        """Write every span as one JSON document: header fields plus
        ``spans`` rows of [name, start_ns, end_ns, parent, op]."""
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["name", "start_ns", "end_ns", "parent", "op"],
                           spans=self.spans), fh, separators=(",", ":"))
