"""Model assembly, the inference memory-retention policy, and training.

A ``Model`` bundles the query encoder, the memory path (video encoder or
the image-only ablation path), per-path key/value projectors, and the
decoder. ``_forward`` is the one forward pass that inference and training
share: it encodes the query frame, assembles each object's memory
key/value maps, reads, decodes per object over the shared query features
and merges by soft aggregation. One memory-encoder pass serves all the
objects: their masks ride a leading object axis through the encoder and
the k/v projection, and no attention window spans two objects; reads and
decoding stay per object. When memory features are per-frame
(one-frame temporal windows, or the image-only path), each memory frame is
encoded once and its key/value maps are cached by frame index; 3D-window
encoders encode the memory frames jointly. Inference walks a sequence
frame by frame: the ``MemoryBank`` keeps the given first frame, the
previous frame and (every8) every 8th frame, and holds the cache across frames.
Training follows the three-frame protocol: ground truth seeds a bank as in
inference, frame 1's prediction is both a loss term and the memory for frame 2.
``ModelConfig`` and ``VARIANTS`` live in ``config`` and are re-exported here.
"""

import math
import time

import numpy as np

from . import engine
from .config import MEMORY_POLICIES, MEMORY_STRIDE, VARIANTS, ModelConfig
from .decoder import CLAMP_EPS, Decoder, predict_labels, soft_aggregate
from .encoders import (
    ImageEncoder,
    ImageOnlyMemoryEncoder,
    KeyValueMaps,
    KeyValueProjector,
    VideoEncoder,
)
from .engine import Module, Tape, Tensor
from .errors import ConfigError, DimensionError, NumericError, UsageError
from .memread import ReadGeometry, read_all
from .data import sample_training_triplet

MAX_INTERVAL = 25  # largest triplet-sampling interval cap of train_toy

class Model(Module):
    """The full model; its parameters are views of one ``buffer``. ``rng``
    None leaves the weights zero, for a caller that sets every parameter
    (``load_checkpoint``)."""

    def __init__(self, config, rng):
        with engine.flat_parameters() as self.buffer:
            self.query_encoder = ImageEncoder(config, rng)
            if config.encoder_mode == "full":
                self.memory_encoder = VideoEncoder(config, rng)
            else:
                self.image_only_memory = ImageOnlyMemoryEncoder(config, rng)
            self.query_proj = KeyValueProjector(config.dim, rng)
            self.memory_proj = KeyValueProjector(config.dim, rng)
            self.decoder = Decoder(config.dim, config.decoder_width, rng)
        self.config = config
        for name, param in self.named_parameters():
            param.name = name

    @property
    def dtype(self):
        """The parameter dtype, which the forward pass computes in."""
        return self.buffer.values.dtype

    @property
    def per_frame_memory(self):
        """True when each memory frame's features depend on that frame alone,
        so they can be encoded once and reused while the frame is retained."""
        return self.config.temporal_window == 1 or self.config.encoder_mode == "image_only"

    def encode_memory(self, frames, targets, others):
        """Stage maps [M, T, H_i, W_i, C_i] of frames [T, H, W, 3] under the
        target and other masks [M, T, H, W, 1] of M objects, in one pass."""
        if self.config.encoder_mode == "full":
            return self.memory_encoder(frames, targets, others)
        return self.image_only_memory(self.query_encoder, frames, targets, others)


def init_model(config, seed):
    """Deterministic initialization: truncated normal sigma 0.02 for weights,
    ones for norm gains, zeros for biases, all drawn from one seeded RNG."""
    return Model(config, np.random.default_rng(seed))


class MemoryBank:
    """Past frames and their per-object masks, kept by the retention policy.

    The bank starts with frame 0 and the one-hot maps of labels
    1..``n_objects`` of its mask. After frame t is admitted it holds frame
    0, frame t and, under every8, each admitted multiple of
    ``MEMORY_STRIDE``. ``cache`` maps a retained index to its per-object
    memory key/value maps when the memory encoder is per-frame: ``_forward``
    fills it and ``admit`` prunes it. A bank serves one model.
    """

    def __init__(self, policy, frame, first_mask, n_objects):
        if policy not in MEMORY_POLICIES:
            raise ConfigError(f"memory policy must be one of {MEMORY_POLICIES}")
        if n_objects < 1:
            raise UsageError(f"a memory bank needs at least one object, got {n_objects}")
        self.policy = policy
        labels = np.arange(1, n_objects + 1)[:, None, None]
        self._entries = {0: (np.asarray(frame), Tensor(np.asarray(first_mask) == labels))}
        self.cache = {}

    def admit(self, index, frame, probs):
        """Record segmented frame ``index`` (1 or more) and its per-object
        probabilities, an [M, H, W] Tensor; frames that leave the bank lose
        their cached maps, and so does ``index``, whose masks are new."""
        _check_index(index)
        self._entries[index] = (np.asarray(frame), probs)
        self._entries = {i: e for i, e in self._entries.items() if i in (0, index)
                         or (self.policy == "every8" and i % MEMORY_STRIDE == 0)}
        self.cache = {i: kv for i, kv in self.cache.items() if i in self._entries and i != index}

    def entries(self):
        """(index, frame, probs Tensor) of each retained frame, sorted by index."""
        return [(i,) + self._entries[i] for i in sorted(self._entries)]

    def frame_indices(self):
        return [i for i, _, _ in self.entries()]


def _check_index(index):
    if index < 1:
        raise UsageError(f"frame index {index} is below 1: frame 0 is the given mask")


def _mask_pairs(probs, other_enabled):
    """Target and other masks [M, T, H, W, 1] of every object from a
    [T, M, H, W] probability tensor. Object m's other mask is the maximum
    over the remaining objects, chained in ascending object order (ties
    route the gradient to the earlier ones), or zeros."""
    n_objects = probs.shape[1]
    by_object = engine.transpose(probs, (1, 0, 2, 3))
    target = engine.reshape(by_object, by_object.shape + (1,))
    if n_objects == 1 or not other_enabled:
        return target, Tensor(np.zeros(target.shape, dtype=target.dtype))
    # row m: the objects other than m, ascending
    step = np.arange(n_objects - 1)
    rest = step + (step >= np.arange(n_objects)[:, None])
    other = engine.take(by_object, rest[:, 0])
    for i in range(1, n_objects - 1):
        other = engine.maximum(other, engine.take(by_object, rest[:, i]))
    return target, engine.reshape(other, other.shape + (1,))


def _encode_memory_kv(model, memory):
    """Per-object memory k/v maps of stages 1..4 from one joint encoder call
    for all objects over the (key, frame, probs) entries of ``memory``."""
    dtype = model.dtype
    frames = Tensor(np.stack([f for _, f, _ in memory]).astype(dtype))
    # the bank's seed maps are float32 zeros and ones: exact in any dtype
    probs = engine.concat([engine.reshape(p if p.dtype == dtype else Tensor(p.data, dtype),
                                          (1,) + p.shape) for _, _, p in memory], axis=0)
    feats = model.encode_memory(frames, *_mask_pairs(probs, model.config.other_mask_enabled))
    return model.memory_proj(feats)


def _forward(model, frame, bank):
    """The forward pass shared by inference and training.

    ``frame`` is the query [H, W, 3], read against the retained entries of
    the ``MemoryBank``. Per-frame memory encoders encode a memory frame
    only when its index is missing from ``bank.cache``, and store the
    result there; 3D-window encoders encode the memory frames jointly.
    Reads and decodes each object over the shared query features and
    returns the soft-aggregated class distribution [M+1, H, W].
    """
    hw = frame.shape[:2]
    memory = bank.entries()
    for _, f, _ in memory:
        if f.shape[:2] != hw:
            raise DimensionError(f"frame extents {hw} differ from memory {f.shape[:2]}")
    query_feats = model.query_encoder(Tensor(frame.astype(model.dtype)))
    if model.per_frame_memory:
        for i, f, p in memory:
            if i not in bank.cache:
                bank.cache[i] = _encode_memory_kv(model, [(i, f, p)])
        per_frame = [bank.cache[i] for i, _, _ in memory]
        # each object's time-major maps over all the frames
        memory_kv = [[KeyValueMaps(engine.concat([f[m][s].key for f in per_frame], axis=1),
                                   engine.concat([f[m][s].value for f in per_frame], axis=1))
                      for s in range(4)]
                     for m in range(len(per_frame[0]))]
    else:
        memory_kv = _encode_memory_kv(model, memory)
    (query_kv,) = model.query_proj(query_feats)
    h4, w4 = query_feats[3].shape[:2]
    geom = ReadGeometry(len(memory), h4, w4)
    per_object = []
    for kv in memory_kv:
        ys, _ = read_all(query_kv, kv, geom, model.config.k, model.config.read_mode)
        per_object.append(model.decoder(ys, (h4, w4), hw))
    return soft_aggregate(per_object)


def segment_frame(model, bank, frame, index):
    """Segment frame ``index`` (1 or more) against the bank; admit the prediction.

    Per-frame memory encoders reuse the maps the bank caches for each
    retained frame, so each call encodes only the newly retained frame;
    3D-window encoders re-encode all retained frames jointly.
    Returns (label map [H, W], per-object aggregated probabilities
    [M, H, W]).
    """
    _check_index(index)
    frame = np.asarray(frame)
    dist = _forward(model, frame, bank)
    if not np.isfinite(dist.data).all():
        raise NumericError(f"non-finite class distribution at frame {index}")
    bank.admit(index, frame, Tensor(dist.data[1:]))
    return predict_labels(dist), dist.data[1:]


def run_sequence(model, frames, first_mask):
    """Propagate the first mask through a sequence.

    Frame 0's output is the given mask verbatim; later frames are predicted
    and fed back into the bank. Returns (label maps, per-frame seconds);
    the timing for frame 0 is 0.0.
    """
    if len(frames) == 0:
        raise UsageError("empty sequence")
    first_mask = np.asarray(first_mask)
    if frames[0].shape[:2] != first_mask.shape:
        raise DimensionError(
            f"first frame {frames[0].shape[:2]} vs mask {first_mask.shape}")
    bank = MemoryBank(model.config.memory_policy, frames[0], first_mask, int(first_mask.max()))
    labels = [first_mask.astype(np.int64)]
    timings = [0.0]
    for t in range(1, len(frames)):
        if frames[t].shape != frames[0].shape:
            raise DimensionError(
                f"frame {t} extents {frames[t].shape} differ from frame 0")
        t0 = time.perf_counter()
        out, _ = segment_frame(model, bank, frames[t], t)
        timings.append(time.perf_counter() - t0)
        labels.append(out)
    return labels, timings


def cross_entropy(class_dist, labels):
    """Mean pixel-wise negative log-likelihood of an (M+1)-class map."""
    n_classes = class_dist.shape[0]
    labels = np.asarray(labels)
    if labels.max(initial=0) >= n_classes:
        raise DimensionError(
            f"label {labels.max()} out of range for {n_classes} classes")
    flat = engine.reshape(class_dist, (n_classes, -1))
    n = flat.shape[1]
    picked = engine.getitem(flat, (labels.reshape(-1), np.arange(n)))
    return engine.mul(engine.tsum(engine.log(picked)), -1.0 / n)


def train_step(model, frames, masks, lr):
    """One optimization step on a temporally ordered triplet.

    Frame 0's ground truth seeds a ``MemoryBank`` with every object the
    triplet labels; frames 1 and 2 are predicted in turn, and frame 1's
    prediction is admitted to the bank (gradients flow through it). Per-frame
    memory encoders encode frame 0 once for both predictions. Returns the
    scalar loss; raises NumericError, leaving the parameters as they were,
    when the loss is not finite or when no touched parameter has a non-zero
    gradient.
    """
    if len(frames) != 3 or len(masks) != 3:
        raise UsageError("training consumes exactly three frames and masks")
    bank = MemoryBank(model.config.memory_policy, frames[0], masks[0],
                      int(max(np.max(m) for m in masks)))
    with Tape() as tape:
        losses = []
        for step in (1, 2):
            dist = _forward(model, frames[step], bank)
            losses.append(cross_entropy(dist, masks[step]))
            if step == 1:
                # feed the aggregated per-object maps back, as inference does
                bank.admit(step, frames[step], dist[1:])
        loss = engine.mul(engine.add(losses[0], losses[1]), 0.5)
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericError(f"training loss diverged: {value}")
    engine.backward(loss, tape)
    if not any(p.grad.any() for p in tape.parameters):
        raise NumericError(
            f"training stalled: all {len(tape.parameters)} touched parameters have an "
            f"all-zero gradient (soft aggregation clamps every object probability to "
            f"[{CLAMP_EPS}, 1 - {CLAMP_EPS}] and passes no gradient beyond it)")
    # only what the tape touched: a read mode that skips the finer stages
    # leaves their decoder skip weights out of the forward pass
    engine.adam_step(tape.parameters, lr=lr)
    return value


def train_toy(model, sample, steps, lr, seed):
    """Overfit on one synthetic video; returns the loss curve.

    The triplet-sampling interval cap grows linearly from 1 to
    ``MAX_INTERVAL`` (clamped to the sequence length) over the schedule,
    so early steps sample nearby frames; a one-step run uses the final
    cap. A triplet whose three masks label no object is redrawn, so a
    sample must label an object in some frame.
    """
    if steps < 0:
        raise UsageError(f"step count must not be negative, got {steps}")
    if not 0 < lr < math.inf:
        raise ConfigError(f"learning rate must be finite and positive, got {lr}")
    if steps == 0:
        return []
    labelled = [bool(np.any(m)) for m in sample.masks]
    if not any(labelled):
        raise UsageError("training needs a sample that labels an object")
    rng = np.random.default_rng(seed)
    n = len(sample.frames)
    final_cap = max(1, min(MAX_INTERVAL, n - 1))
    curve = []
    for step in range(steps):
        cap = max(1, round(final_cap * step / (steps - 1))) if steps > 1 else final_cap
        triplet = sample_training_triplet(n, cap, rng)
        while not any(labelled[i] for i in triplet):
            triplet = sample_training_triplet(n, cap, rng)
        frames = [sample.frames[i] for i in triplet]
        masks = [sample.masks[i] for i in triplet]
        curve.append(train_step(model, frames, masks, lr))
    return curve
