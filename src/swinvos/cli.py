"""Command-line entry point.

Subcommands: gen, train-toy, infer, eval, gradcheck, bench-memread. Exit
codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
Every run prints its resolved configuration, with the seed when the command
takes one; identical flags and seed reproduce identical output bytes
(timing columns exempted). ``train-toy`` fixes the model's structure
(variant, encoder mode, other-objects mask) and ``infer`` builds the model
its checkpoint describes, replacing only the read: ``--k``, ``--memory``
and ``--read-mode``.

Heavy imports happen after argument parsing so that ``--threads`` can cap
the BLAS worker count before numpy loads.
"""

import argparse
import os
import sys

from .config import (ENCODER_MODES, GRADCHECK_SEED, MEMORY_POLICIES, READ_MODES, VARIANTS,
                     ModelConfig)
from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swinvos",
        description="windowed-attention video object segmentation harness")
    parser.add_argument("--threads", type=int, default=0,
                        help="cap BLAS worker threads (0 = library default)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic sequence directory")
    gen.add_argument("--out", required=True, help="sequence directory to create")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--frames", type=int, default=8)
    gen.add_argument("--size", type=int, default=64)
    gen.add_argument("--objects", type=int, default=1)

    def add_read_flags(p):
        p.add_argument("--k", type=int, default=128)
        p.add_argument("--read-mode", default="hierarchical_topk", choices=READ_MODES)
        p.add_argument("--dump-config", action="store_true",
                       help="print the canonical resolved config and exit (needs no output path)")

    train = sub.add_parser("train-toy", help="overfit on one synthetic sequence")
    train.add_argument("--variant", default="nano", choices=list(VARIANTS))
    train.add_argument("--encoder-mode", default="full", choices=ENCODER_MODES)
    train.add_argument("--no-other-mask", action="store_true",
                       help="drop the other-objects mask input")
    train.add_argument("--seed", type=int, default=0)
    add_read_flags(train)
    train.add_argument("--seq", help="sequence directory (default: generated)")
    train.add_argument("--data-seed", type=int, default=0)
    train.add_argument("--steps", type=int, default=500)
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--ckpt", help="checkpoint output path (required)")
    train.add_argument("--loss-csv", help="loss curve output (default: <ckpt>.loss.csv)")

    infer = sub.add_parser("infer", help="propagate the first mask through a sequence")
    add_read_flags(infer)
    infer.add_argument("--memory", default="every8",
                       choices=MEMORY_POLICIES, dest="memory_policy")
    infer.add_argument("--ckpt", required=True)
    infer.add_argument("--seq", help="sequence directory (required)")
    infer.add_argument("--out", help="directory for predicted masks (required)")

    evalp = sub.add_parser("eval", help="score predictions against ground truth")
    evalp.add_argument("--pred", required=True, help="directory of predicted PGMs")
    evalp.add_argument("--gt", required=True, help="ground-truth sequence directory")
    evalp.add_argument("--tolerance", type=int, default=0,
                       help="contour tolerance in px (0 = DAVIS default)")
    evalp.add_argument("--out", help="TSV output path (default: stdout)")

    grad = sub.add_parser("gradcheck", help="finite-difference check of every op")
    grad.add_argument("--seed", type=int, default=GRADCHECK_SEED)

    benchp = sub.add_parser("bench-memread", help="time the memory-read modes")
    benchp.add_argument("--modes", default="dense_all,hierarchical_topk")
    benchp.add_argument("--k", type=int, default=128)
    benchp.add_argument("--height", type=int, default=384)
    benchp.add_argument("--width", type=int, default=384)
    benchp.add_argument("--t", type=int, default=8)
    benchp.add_argument("--dim", type=int, default=128)
    benchp.add_argument("--seed", type=int, default=0)
    benchp.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def _print_config(args, extra=()):
    print(f"command={args.command}")
    if "seed" in args:
        print(f"seed={args.seed}")
    for key in extra:
        print(f"{key}={getattr(args, key.replace('-', '_'))}")


def _require_paths(args, flags):
    """Output paths are required unless the run only prints its config."""
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing and not args.dump_config:
        raise UsageError(f"{args.command} requires {' and '.join(missing)}")


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args):
    from .data import synth_moving_shapes, write_sequence

    _print_config(args, ("out", "frames", "size", "objects"))
    sample = synth_moving_shapes(args.seed, args.frames, args.size, args.objects)
    write_sequence(sample, args.out)
    print(f"wrote {args.frames} frames to {args.out}")
    return 0


def _load_or_generate(args):
    from .data import VideoSample, load_sequence, synth_moving_shapes

    if args.seq:
        frames, masks, n_objects = load_sequence(args.seq, need_all_masks=True)
        if args.steps >= 1 and (n_objects < 1 or len(frames) < 3):  # no triplet to sample
            raise DataError(f"{args.seq}: training needs 3 or more frames and an object, "
                            f"got {len(frames)} frames and {n_objects} objects")
        return VideoSample(frames, masks, n_objects)
    return synth_moving_shapes(args.data_seed, 8, 64, 1)


def cmd_train_toy(args):
    from .checkpoint import save_checkpoint
    from .model import init_model, train_toy

    _require_paths(args, ("ckpt",))
    # memory_policy stays at its default: training never reads it
    config = ModelConfig(variant=args.variant, k=args.k,
                         other_mask_enabled=not args.no_other_mask,
                         encoder_mode=args.encoder_mode, read_mode=args.read_mode)
    if args.dump_config:
        sys.stdout.write(config.canonical())
        return 0
    loss_csv = args.loss_csv or f"{args.ckpt}.loss.csv"
    for path in (args.ckpt, loss_csv):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"no directory to write {path} into")
    sample = _load_or_generate(args)
    _print_config(args, ("steps", "lr"))
    sys.stdout.write(config.canonical())
    model = init_model(config, args.seed)
    curve = train_toy(model, sample, args.steps, args.lr, seed=args.seed)
    save_checkpoint(model, args.ckpt)
    _write_lines(loss_csv, ["step,loss"]
                 + [f"{i},{v:.6f}" for i, v in enumerate(curve)])
    final = curve[-1] if curve else float("nan")
    print(f"trained {args.steps} steps, final loss {final:.6f}")
    print(f"checkpoint: {args.ckpt}")
    print(f"loss curve: {loss_csv}")
    return 0


def cmd_infer(args):
    from dataclasses import replace

    from .checkpoint import load_checkpoint
    from .data import load_sequence, write_pgm
    from .model import run_sequence

    _require_paths(args, ("seq", "out"))
    if not args.dump_config:
        frames, masks, _ = load_sequence(args.seq)
        if masks[0].max() < 1:
            raise DataError(f"{args.seq}: the first mask labels no objects")
    model = load_checkpoint(args.ckpt)
    # the checkpoint fixes the structure; the read is chosen here
    model.config = replace(model.config, k=args.k, memory_policy=args.memory_policy,
                           read_mode=args.read_mode)
    if args.dump_config:
        sys.stdout.write(model.config.canonical())
        return 0
    _print_config(args, ("ckpt", "seq", "out"))
    sys.stdout.write(model.config.canonical())
    labels, timings = run_sequence(model, frames, masks[0])
    os.makedirs(args.out, exist_ok=True)
    for i in range(1, len(labels)):
        write_pgm(labels[i], os.path.join(args.out, f"{i:05d}.pgm"))
    _write_lines(os.path.join(args.out, "timing.csv"),
                 ["frame,wall_s"]
                 + [f"{i},{t:.6f}" for i, t in enumerate(timings)])
    print(f"wrote masks for frames 1..{len(labels) - 1} to {args.out}")
    return 0


def cmd_eval(args):
    from .data import load_sequence, read_pgm
    from .metrics import evaluate_sequence

    _print_config(args, ("pred", "gt"))
    if args.tolerance < 0:
        raise UsageError(f"--tolerance must be at least 0, got {args.tolerance}")
    _, gt_masks, n_objects = load_sequence(args.gt, need_all_masks=True)
    preds = [gt_masks[0]]
    for i in range(1, len(gt_masks)):
        path = os.path.join(args.pred, f"{i:05d}.pgm")
        preds.append(read_pgm(path))
    report = evaluate_sequence(preds, gt_masks, n_objects=n_objects,
                               tolerance_px=args.tolerance or None)
    lines = ["object\tframe\tJ\tF"]
    lines += ["\t".join(row) for row in report.rows()]
    _write_lines(args.out, lines)
    return 0


def cmd_gradcheck(args):
    from .engine import set_finite_checks
    from .gradsuite import run_suite

    _print_config(args)
    previous = set_finite_checks(True)
    try:
        results = run_suite(seed=args.seed)
    finally:
        set_finite_checks(previous)
    print(f"{'op':>18}  {'status':>6}  {'worst rel err':>14}  tol")
    failed = False
    for name, ok, worst, tol in results:
        print(f"{name:>18}  {'pass' if ok else 'FAIL':>6}  {worst:14.3e}  {tol:.0e}")
        failed = failed or not ok
    if failed:
        raise NumericError("gradient check failed")
    return 0


def cmd_bench_memread(args):
    from .memread import ReadGeometry, bench

    _print_config(args, ("modes", "k", "height", "width", "t", "dim"))
    if min(args.height, args.width) < 32 or args.height % 32 or args.width % 32:
        raise UsageError("bench extents must be positive multiples of 32, "
                         f"got {args.height}x{args.width}")
    if args.t < 1:
        raise UsageError(f"--t must be at least 1, got {args.t}")
    if args.dim < 8 or args.dim % 8:
        raise UsageError(f"--dim must be a positive multiple of 8, got {args.dim}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes or not set(modes) <= set(READ_MODES):
        raise UsageError(f"--modes takes a comma list of {READ_MODES}, got {args.modes!r}")
    geom = ReadGeometry(t=args.t, h4=args.height // 32, w4=args.width // 32)
    rows = bench(geom, args.dim, args.k, modes, seed=args.seed)
    lines = ["stage,mode,k,T,H,W,flops,wall_ns"]
    lines += [",".join(str(v) for v in row) for row in rows]
    _write_lines(args.out, lines)
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "train-toy": cmd_train_toy,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "bench-memread": cmd_bench_memread,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for bad flags; usage errors are 1 here
        return 0 if exc.code == 0 else 1
    try:
        for flag, value in vars(args).items():
            if (flag == "threads" or flag.endswith("seed")) and value < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be at least 0, got {value}")
        if args.threads:
            # an explicit count wins over what the environment inherited
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        return COMMANDS[args.command](args)
    except (UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DataError, DimensionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
