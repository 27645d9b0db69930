"""Benchmark child process: set up, warm up, measure, check, report.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
import path. Set-up runs at least ``SETUP_REPEATS`` times (more when it is
quick) and is reported as the median; an untimed warm-up follows. The loop
is a single closed-loop client: the next unit starts when the previous one
returns.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` alternates untraced units with units run with every
layer wrapped by the tracer, and reports the per-layer metrics plus the
tracing overhead from the paired sums. A completed run always ends its
standard output with the JSON result.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import swinvos

import workloads
from tracer import COMPUTED, PER_LAYER, Tracer

# set-up is repeated at least this often, and until this much time is spent
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# generic end-to-end metric -> (unit, name the workload's op gives it)
END_TO_END = {
    "setup_s": ("s", None),
    "ops_per_s": ("1/s", "{op}s_per_s"),
    "op_ms_p50": ("ms", "{op}_ms_p50"),
    "op_ms_p90": ("ms", "{op}_ms_p90"),
    "peak_rss_mb": ("MB", None),
}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
    }


def measure(workload, state, seconds):
    """Run whole units, at least one, until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    done = [workload.unit(state)]
    while time.perf_counter() < deadline:
        done.append(workload.unit(state))
    return done


def measure_paired(workload, state, tracer, seconds):
    """Alternate untraced and traced units until ``seconds`` have passed,
    as (plain, traced). The order flips every pair (plain, traced, traced,
    plain, ...), so a drift in host speed falls on both sides alike."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while not plain or time.perf_counter() < deadline:
        for is_traced in ((False, True), (True, False))[len(plain) % 2]:
            if is_traced:
                with tracer.patched():
                    traced.append(workload.unit(state))
            else:
                plain.append(workload.unit(state))
    return plain, traced


def totals(units):
    latencies = [x for u in units for x in u.latencies]
    return dict(
        latencies=latencies,
        wall=sum(u.wall for u in units),
        attempted=sum(u.attempted for u in units),
        failed=sum(u.failed for u in units),
        problems=[p for u in units for p in u.problems],
    )


def end_to_end(setup_s, run):
    # a run whose every op failed has no latencies; it is reported incorrect
    lat_ms = np.asarray(run["latencies"] or [0.0]) * 1e3
    return {
        "setup_s": setup_s,
        "ops_per_s": run["attempted"] / run["wall"],
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(title, workload, setups, run, metrics, units_of, aliases, extra):
    """Human-readable lines, each metric under its generic and workload name."""
    print(f"# perfbench {title}")
    print(f"#   {len(run['latencies'])} {workload.op}s timed, set-up repeated {setups} times")
    for key, value in metrics.items():
        alias = aliases.get(key)
        label = f"{key} ({alias})" if alias else key
        note = " (computed)" if key in COMPUTED else ""
        print(f"#   {label:<36} {value:14.6g} {units_of[key]}{note}")
    for key, (value, unit) in extra.items():
        print(f"#   {key:<36} {value:14.6g} {unit}")
    print(f"#   {'fail_ratio':<36} {run['failed']:>7}/{run['attempted']} failed/attempted")
    for problem in run["problems"][:10]:
        print(f"#   FAIL {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(swinvos.__file__).startswith(src + os.sep):
        parser.error(f"swinvos imported from {swinvos.__file__}, not from {src}")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
    result = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
                 title=f"{args.workload} seed={args.seed} trace={args.trace}",
                 trace_path=os.path.join(TRACE_DIR, f"{args.workload}.json"))
    print(json.dumps(result))
    return 0


def run(workload, seed, seconds, trace, title, trace_path):
    """Set up, warm up, measure and check one workload; the JSON result.
    A traced run writes its spans to ``trace_path``."""
    title += " " + " ".join(f"{k}={v}" for k, v in environment().items())
    setup_times, setup_problems, state = [], [], None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        other = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        if state is None:
            state = other
        elif len(setup_times) <= SETUP_REPEATS:
            setup_problems += workload.check_setup(state, other)
        del other
    setup_s = statistics.median(setup_times)
    workload.warmup(state)

    if not trace:
        outcome = totals(measure(workload, state, seconds))
        metrics = end_to_end(setup_s, outcome)
        units_of = {k: u for k, (u, _) in END_TO_END.items()}
        aliases = {k: a.format(op=workload.op) for k, (_, a) in END_TO_END.items() if a}
    else:
        tracer = Tracer(workload.op_span)
        plain, traced = measure_paired(workload, state, tracer, seconds)
        plain_t, traced_t = totals(plain), totals(traced)
        plain_s = sum(plain_t["latencies"])
        overhead = 100.0 * (sum(traced_t["latencies"]) / plain_s - 1.0) if plain_s else 0.0
        metrics = tracer.per_layer(overhead)
        outcome = totals(plain + traced)
        units_of = {k: u for k, (u, _) in PER_LAYER.items()}
        aliases = {}
        tracer.dump(trace_path, dict(title=title, ops=tracer.ops, missing=tracer.missing))
        if tracer.missing:
            print("# tracer: not found in the program: " + ", ".join(tracer.missing))

    outcome["problems"] = setup_problems + outcome["problems"]
    report(title, workload, len(setup_times), outcome, metrics, units_of, aliases,
           workload.quality())
    return {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
