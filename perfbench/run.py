"""swinvos benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ``src/`` as
checked out; nothing is installed. The measurement runs in a child
process whose environment pins OpenBLAS/OpenMP/MKL to one thread before
numpy is first imported (the CLI's ``--threads`` flag is not relied on).
Workloads: infer_T128, infer_nano_long, train_nano, read_384 (see
``BENCHMARK.json`` for why each exists). Self-test:
``python3 -m pytest perfbench -q``.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# a run is allowed 180 s; stop the child before that
TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def main(argv):
    if not os.path.isfile(os.path.join(SRC, "swinvos", "__init__.py")):
        print(f"perfbench: no swinvos package under {SRC}", file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(HERE, "bench.py")] + argv
    try:
        return subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
