"""Self-test: the benchmark's work counts repeat exactly.

Runs the traced pass of each workload three times on one seed -- twice
under one ``PYTHONHASHSEED`` and once under another -- and fails unless
``seqspec.delta_calls``, ``sim.steps`` and ``sim.base_steps_per_op`` are
identical across all three, and every output check passed::

    python3 bench/selftest.py [--seed N] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("seqspec.delta_calls", "sim.steps", "sim.base_steps_per_op")


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, env=env, stdout=subprocess.PIPE, text=True,
        check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} outputs failed")
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args(argv)
    if not args.workload:
        sys.path.insert(0, str(RUN.parent))
        from run import import_program
        import_program()
        from workloads import WORKLOADS
        args.workload = list(WORKLOADS)
    bad = 0
    for workload in args.workload:
        runs = [traced_counts(workload, args.seed, h) for h in ("0", "0", "1")]
        same = all(r == runs[0] for r in runs)
        bad += not same
        print(f"{workload:17s} {'ok' if same else 'MISMATCH'} {runs}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
