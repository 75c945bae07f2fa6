"""The repository benchmark: three client workloads through the front door.

Run from the repository root::

    python3 perfbench/run.py --workload session_mix --seed 1 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload per process: a closed loop of one client thread on one
``repro.connect()`` session, issuing the next statement when the previous
one returns.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced replay; the last line of standard output
is one JSON object.  ``--workload all`` runs every workload in its own
process and prints each metric by name and unit.  See README.md for the
metric definitions and the choice of workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_environment() -> None:
    """Engine only where a workload configures it; BLAS capped at nproc.

    Must run before numpy is imported: BLAS reads its thread count once.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_PARALLEL"):
            del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = str(_nproc())


def _import_library() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {source}; run from a "
                 "full checkout of the repository")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="trips_ols, matrix_large, session_mix or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_environment()
    _import_library()
    from perfbench.bench import run_all, run_workload
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
