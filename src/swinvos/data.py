"""Synthetic video generation, training-triplet sampling and frame/mask I/O.

Frames are [H, W, 3] float arrays in [0, 1]; masks are [H, W] integer label
maps with 0 = background. Sequences live on disk as binary PPM (P6) frames
and PGM (P5) masks under ``<seq>/frames/%05d.ppm`` and
``<seq>/masks/%05d.pgm``. All generators are deterministic under a seed.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, UsageError

_PALETTE = np.array([
    [0.85, 0.25, 0.20],
    [0.20, 0.55, 0.90],
    [0.95, 0.80, 0.25],
    [0.45, 0.85, 0.35],
], dtype=np.float32)

_LAYOUTS = 20  # whole-layout placement attempts before giving up
_VELOCITY_CAP = 3  # largest sampled step per axis, px/frame


@dataclass
class VideoSample:
    frames: list  # [H, W, 3] float32 in [0, 1]
    masks: list   # [H, W] int64 labels in {0..n_objects}
    n_objects: int

    def __post_init__(self):
        if len(self.frames) != len(self.masks):
            raise DimensionError(
                f"{len(self.frames)} frames vs {len(self.masks)} masks")
        for f, m in zip(self.frames, self.masks):
            if f.shape[:2] != m.shape:
                raise DimensionError(f"frame {f.shape} vs mask {m.shape}")
            if m.max(initial=0) > self.n_objects:
                raise DataError(f"mask label {m.max()} exceeds object count")


def _smooth_noise(rng, size):
    """Low-frequency background texture: coarse noise, bilinear upsizing."""
    cells = 8  # per side
    coarse = rng.uniform(0.25, 0.75, size=(cells, cells, 3)).astype(np.float32)
    idx = (np.arange(size) + 0.5) * cells / size - 0.5
    lo = np.clip(np.floor(idx).astype(int), 0, cells - 1)
    hi = np.clip(lo + 1, 0, cells - 1)
    frac = (idx - np.floor(idx)).astype(np.float32)
    rows = coarse[lo] * (1 - frac)[:, None, None] + coarse[hi] * frac[:, None, None]
    out = (rows[:, lo] * (1 - frac)[None, :, None]
           + rows[:, hi] * frac[None, :, None])
    return out


def _object_stamp(kind, extent):
    """Boolean footprint of a shape inside an extent x extent box."""
    if kind == "disk":
        yy, xx = np.mgrid[0:extent, 0:extent]
        r = (extent - 1) / 2
        return (yy - r) ** 2 + (xx - r) ** 2 <= r * r
    return np.ones((extent, extent), dtype=bool)


def synth_moving_shapes(seed, n_frames, size, n_objects, object_extent=None):
    """Distinctly colored shapes translating over a textured background.

    Objects bounce off the canvas edges, so their true footprints never
    leave the frame; crossings occlude lower-numbered objects. Masks are
    exact by construction. Every object moves: a sampled (0, 0) step
    becomes (1, 0).
    """
    if n_frames < 1:
        raise UsageError(f"a sequence needs at least 1 frame, got {n_frames}")
    if n_objects < 1 or n_objects > 4:
        raise UsageError(f"supported object counts are 1..4, got {n_objects}")
    if size < 32:
        raise UsageError(f"canvas must be at least 32 px, got {size}")
    rng = np.random.default_rng(seed)
    background = _smooth_noise(rng, size)
    if object_extent is None:
        object_extent = max(8, size * 3 // 8)
    if object_extent > size // 2 and n_objects > 1:
        raise DataError(
            f"objects of extent {object_extent} cannot be placed disjointly on {size} px")

    stamps = [_object_stamp("disk" if m % 2 else "rect",
                            max(6, object_extent - 2 * m)) for m in range(n_objects)]
    # a failed layout restarts from the first object on the same stream, so
    # every seed whose first layout fits keeps its bytes
    for _ in range(_LAYOUTS):
        positions = _place_disjoint(stamps, size, rng)
        if positions is not None:
            break
    else:
        raise DataError(
            f"could not place {n_objects} objects of extent {object_extent} "
            f"disjointly on a {size} px canvas")
    vel = [rng.integers(-_VELOCITY_CAP, _VELOCITY_CAP + 1, size=2)
           for _ in range(n_objects)]
    for v in vel:
        if v[0] == 0 and v[1] == 0:
            v[0] = 1

    frames, masks = [], []
    pos = [p.copy() for p in positions]
    for _ in range(n_frames):
        frame = background.copy()
        mask = np.zeros((size, size), dtype=np.int64)
        for m in range(n_objects):
            e = stamps[m].shape[0]
            y, x = int(pos[m][0]), int(pos[m][1])
            stamp = stamps[m]
            frame[y:y + e, x:x + e][stamp] = _PALETTE[m]
            mask[y:y + e, x:x + e][stamp] = m + 1
            for axis in (0, 1):
                pos[m][axis] += vel[m][axis]
                limit = size - e
                if pos[m][axis] < 0:
                    pos[m][axis] = -pos[m][axis]
                    vel[m][axis] = -vel[m][axis]
                elif pos[m][axis] > limit:
                    pos[m][axis] = 2 * limit - pos[m][axis]
                    vel[m][axis] = -vel[m][axis]
        frames.append(frame)
        masks.append(mask)
    return VideoSample(frames, masks, n_objects)


def _place_disjoint(stamps, size, rng):
    """Top-left corners for the stamps, drawn in order by rejection sampling
    against the ones already placed; None when a stamp finds no room."""
    positions = []
    for stamp in stamps:
        e = stamp.shape[0]
        for _ in range(200):
            pos = rng.integers(0, size - e, size=2)
            if all(not _boxes_overlap((pos[0], pos[1], e), (q[0], q[1], s.shape[0]))
                   for q, s in zip(positions, stamps)):
                positions.append(pos.astype(np.int64))
                break
        else:
            return None
    return positions


def _boxes_overlap(a, b):
    return not (a[0] + a[2] <= b[0] or b[0] + b[2] <= a[0]
                or a[1] + a[2] <= b[1] or b[1] + b[2] <= a[1])


def sample_training_triplet(n_frames, max_interval, rng):
    """Three ordered frame indices with consecutive gaps <= max(1, cap),
    uniform over all valid triples."""
    if n_frames < 3:
        raise UsageError(f"triplet sampling needs >= 3 frames, got {n_frames}")
    # a gap above n_frames - 2 leaves no room for the other one
    g = min(max(1, int(max_interval)), n_frames - 2)
    gaps = np.arange(1, g + 1)
    # the first values of a take all g² gap pairs; the tail rows are listed as
    # valid[a - full, gap 1, gap 2], whose row-major order is lexicographic
    full = max(0, n_frames - 2 * g)
    tail = (np.arange(full, n_frames - 2)[:, None, None] + gaps[:, None] + gaps) < n_frames
    drawn = int(rng.integers(0, full * g * g + np.count_nonzero(tail)))
    if drawn < full * g * g:
        a, pair = divmod(drawn, g * g)
        g1, g2 = divmod(pair, g)
    else:
        chosen = np.flatnonzero(tail)[drawn - full * g * g]
        a, g1, g2 = (int(i) for i in np.unravel_index(chosen, tail.shape))
        a += full
    return a, a + g1 + 1, a + g1 + g2 + 2


# ---------------------------------------------------------------------------
# PPM / PGM

def _read_header(blob, magic, path):
    if blob[:2] != magic:
        raise DataError(f"{path}: bad magic {blob[:2]!r}, expected {magic!r}")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated header")
        token = blob[start:pos]
        if not token.isdigit():
            raise DataError(f"{path}: non-numeric header field {token!r}")
        try:
            fields.append(int(token))
        except ValueError as err:  # past Python's integer digit limit
            raise DataError(f"{path}: header field of {len(token)} digits") from err
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: non-positive extent {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}, expected 255")
    return width, height, blob[pos:]


def read_ppm(path):
    """Binary P6 -> [H, W, 3] float32 scaled to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, payload = _read_header(blob, b"P6", path)
    need = width * height * 3
    if len(payload) < need:
        raise DataError(f"{path}: short payload, {len(payload)} < {need} bytes")
    data = np.frombuffer(payload[:need], dtype=np.uint8)
    return (data.reshape(height, width, 3).astype(np.float32)) / 255.0


def write_ppm(frame, path):
    arr = np.clip(np.rint(np.asarray(frame) * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def read_pgm(path):
    """Binary P5 -> [H, W] int64 label map."""
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, payload = _read_header(blob, b"P5", path)
    need = width * height
    if len(payload) < need:
        raise DataError(f"{path}: short payload, {len(payload)} < {need} bytes")
    data = np.frombuffer(payload[:need], dtype=np.uint8)
    return data.reshape(height, width).astype(np.int64)


def write_pgm(labels, path):
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise DataError(f"labels outside [0, 255] cannot be written: "
                        f"[{labels.min()}, {labels.max()}]")
    arr = labels.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


# ---------------------------------------------------------------------------
# sequence directories: <seq>/frames/%05d.ppm + <seq>/masks/%05d.pgm

def write_sequence(sample, root):
    frames_dir = os.path.join(root, "frames")
    masks_dir = os.path.join(root, "masks")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(masks_dir, exist_ok=True)
    for i, (frame, mask) in enumerate(zip(sample.frames, sample.masks)):
        write_ppm(frame, os.path.join(frames_dir, f"{i:05d}.ppm"))
        write_pgm(mask, os.path.join(masks_dir, f"{i:05d}.pgm"))


def load_sequence(root, need_all_masks=False):
    """Load a sequence directory; at minimum frame 0 must have a mask."""
    frames_dir = os.path.join(root, "frames")
    masks_dir = os.path.join(root, "masks")
    if not os.path.isdir(frames_dir):
        raise DataError(f"{root}: missing frames/ directory")
    names = sorted(n for n in os.listdir(frames_dir) if n.endswith(".ppm"))
    if not names:
        raise DataError(f"{root}: no .ppm frames found")
    frames = [read_ppm(os.path.join(frames_dir, n)) for n in names]
    masks = []
    for n in names:
        mask_path = os.path.join(masks_dir, n.replace(".ppm", ".pgm"))
        if os.path.exists(mask_path):
            masks.append(read_pgm(mask_path))
        elif need_all_masks or not masks:
            raise DataError(f"{root}: missing mask {mask_path}")
        else:
            masks.append(None)
    n_objects = int(max(m.max() for m in masks if m is not None))
    return frames, masks, n_objects
