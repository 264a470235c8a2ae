"""gptdf benchmark: historical-fit, target-regular and target-irregular.

    python3 perfbench/run.py --workload target-regular --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Each workload is a closed loop of edge-node operations from one
process against a loopback ``serve_registry`` thread. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0 when
every node passed the checks, 1 when any failed and 2 on a usage error or
when the library sources are missing. See perfbench/README.md.
"""

import os

# BLAS is pinned to one thread before numpy loads: the loop is closed, so one
# compute thread is busy at a time and timings do not depend on idle cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("historical-fit", "target-regular", "target-irregular")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gptdf" / "__init__.py").is_file():
        print(f"perfbench: no gptdf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gptdf

    if Path(gptdf.__file__).resolve().parent != (SRC / "gptdf").resolve():
        print(f"perfbench: imported gptdf from {gptdf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
