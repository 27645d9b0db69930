"""Print one sha256 digest per output of the program, to compare two trees.

Each line is ``<item> <sha256>``. The items:

- ``infer/<config>/labels`` and ``infer/<config>/probs``: the label maps
  and per-object probabilities of every predicted frame, for each
  inference configuration in ``INFERENCE`` (init seed 7, synthetic seed 3);
- ``train/<run>/curve`` and ``train/<run>/params``: the loss curve and
  parameters of a 10-step nano, a 10-step nano ``dense_all`` and a 2-step
  T ``train_toy`` (lr 1e-3, seed 7), and ``train/nano/checkpoint``, the
  bytes of the saved nano model;
- ``train/nano_deepcopy/params``: the parameters of the nano run trained
  on a ``copy.deepcopy`` of the initial model, which must equal
  ``train/nano/params``.

The script imports whichever ``swinvos`` is on the path, so one copy of it
serves both trees. Run it against each tree's ``src`` and diff the outputs:

    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
    PYTHONPATH=OLD/src python tests/digests.py > old.txt
    PYTHONPATH=NEW/src python tests/digests.py > new.txt
    diff old.txt new.txt

Name item prefixes (such as ``infer/nano_80`` or ``train``) to run only
the configurations they select.
Nothing here records expected digests: the bytes depend on the BLAS build
and its thread count, so both runs need the same BLAS settings.
"""

import copy
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import swinvos
from swinvos.checkpoint import save_checkpoint
from swinvos.data import synth_moving_shapes
from swinvos.model import MemoryBank, ModelConfig, init_model, segment_frame, train_toy

INIT_SEED = 7
DATA_SEED = 3

# name: (frame extent px, frames, objects, ModelConfig fields). The first
# eight are the configurations CHANGES.md reports bytes on; the rest reach
# the other memory policy and read modes, a top-k that drops cells (16
# stage-4 cells per frame against k=4) and three objects.
INFERENCE = {
    "T_128": (128, 4, 2, {"variant": "T"}),
    "nano_96": (96, 6, 2, {}),
    "nano_image_only": (64, 6, 2, {"encoder_mode": "image_only"}),
    "nano_80": (80, 6, 2, {}),
    "T_firstprev": (64, 5, 2, {"variant": "T", "memory_policy": "firstprev"}),
    "T_64_11": (64, 11, 2, {"variant": "T"}),
    "T_80": (80, 4, 2, {"variant": "T"}),
    "T_100": (100, 4, 2, {"variant": "T"}),
    "nano_firstprev": (64, 6, 2, {"memory_policy": "firstprev"}),
    "nano_dense_all": (64, 6, 2, {"read_mode": "dense_all"}),
    "nano_last_stage_only": (64, 6, 2, {"read_mode": "last_stage_only"}),
    "nano_k4_128": (128, 6, 2, {"k": 4}),
    "nano_3_objects_80": (80, 6, 3, {}),
}

# run: (steps, frame extent px, frames, ModelConfig fields). Nano
# dense_all reads stage 1 densely with one-channel keys under training.
TRAINING = {
    "nano": (10, 64, 8, {"variant": "nano"}),
    "nano_dense_all": (10, 64, 8, {"variant": "nano", "read_mode": "dense_all"}),
    "T": (2, 64, 4, {"variant": "T"}),
}
LR = 1e-3


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def infer_digests(name):
    """(item, digest) of one inference configuration's labels and probabilities."""
    size, n_frames, n_objects, fields = INFERENCE[name]
    model = init_model(ModelConfig(**fields), INIT_SEED)
    sample = synth_moving_shapes(DATA_SEED, n_frames, size, n_objects)
    bank = MemoryBank(model.config.memory_policy, sample.frames[0], sample.masks[0],
                      sample.n_objects)
    labels, probs = [], []
    for t in range(1, n_frames):
        out, p = segment_frame(model, bank, sample.frames[t], t)
        labels.append(np.asarray(out, np.int64).tobytes())
        probs.append(np.ascontiguousarray(p).tobytes())
    return [(f"infer/{name}/labels", _sha(labels)), (f"infer/{name}/probs", _sha(probs))]


def _train(run, deep_copy=False):
    """The model and loss curve of one ``train_toy`` run, trained on a
    ``copy.deepcopy`` of the initial model when ``deep_copy`` is set."""
    steps, size, n_frames, fields = TRAINING[run]
    model = init_model(ModelConfig(**fields), INIT_SEED)
    if deep_copy:
        model = copy.deepcopy(model)
    sample = synth_moving_shapes(DATA_SEED, n_frames, size, 1)
    return model, train_toy(model, sample, steps, LR, seed=INIT_SEED)


def _params_digest(model):
    return _sha([name.encode() + p.data.tobytes() for name, p in model.named_parameters()])


def train_digests(run):
    """(item, digest) of one ``train_toy`` run's curve and parameters, and
    for the nano run the saved checkpoint's bytes."""
    model, curve = _train(run)
    out = [(f"train/{run}/curve", _sha([np.asarray(curve, np.float64).tobytes()])),
           (f"train/{run}/params", _params_digest(model))]
    if run == "nano":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "nano.hst"
            save_checkpoint(model, path)
            out.append(("train/nano/checkpoint", _sha([path.read_bytes()])))
    return out


def deepcopy_digests(run):
    """(item, digest) of the parameters of ``run`` trained on a deep copy."""
    model, _ = _train(run, deep_copy=True)
    return [(f"train/{run}_deepcopy/params", _params_digest(model))]


# (item prefix, function returning the group's digests, its argument)
GROUPS = ([(f"infer/{name}/", infer_digests, name) for name in INFERENCE]
          + [(f"train/{run}/", train_digests, run) for run in TRAINING]
          + [("train/nano_deepcopy/", deepcopy_digests, "nano")])


def main(argv):
    """Print the digests of the groups that the names in ``argv`` select
    (all of them without names); returns the printed lines."""
    print(f"# swinvos from {Path(swinvos.__file__).parent}", file=sys.stderr)
    lines = []
    for prefix, digests, arg in GROUPS:
        if argv and not any(prefix.startswith(a) or a.startswith(prefix) for a in argv):
            continue
        for item, digest in digests(arg):
            lines.append(f"{item} {digest}")
            print(lines[-1], flush=True)
    return lines


if __name__ == "__main__":
    main(sys.argv[1:])
