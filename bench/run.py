"""Benchmark of the infomarket simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from the
checkout's ``src/``, never from an installed copy.  The run prints one line
per metric with its unit, then, as the last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  Output
files go under ``.bench_out/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PROGRAM = 2


def load_program(root: Path):
    """Import infomarket from `root`/src; raise ImportError if it is not there."""
    src = root / "src"
    if not (src / "infomarket" / "__init__.py").is_file():
        raise ImportError(f"no infomarket package under {src}")
    sys.path.insert(0, str(src))
    import infomarket

    if Path(infomarket.__file__).resolve().parent != (src / "infomarket").resolve():
        raise ImportError(f"infomarket imported from {infomarket.__file__}, not {src}")
    return infomarket


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program(ROOT)
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    if not (ROOT / workloads.GOLDEN_CSV).is_file():
        print(f"bench: golden record {workloads.GOLDEN_CSV} missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    print(f"machine: {platform.machine()}, {len(os.sched_getaffinity(0))} cpus, "
          f"python {platform.python_version()}, numpy {numpy.__version__}")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"correct = {result.correct}, failed {result.failed} of {result.attempted}")
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
