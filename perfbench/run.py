"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with spans around each layer.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import sys
import time

# One BLAS thread, fixed before numpy loads: on a small shared machine
# threaded LAPACK and mat-vecs make run-to-run timings wander.
BLAS_THREADS = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("identity", "sections", "certificates", "mellin")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hankelsigma", "__init__.py")):
        print("perfbench: no src/hankelsigma under %s; run from a checkout" % ROOT,
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [src, HERE]

    t_import = time.perf_counter()
    import harness

    if args.setup_only is not None:
        result = harness.setup_only(args, t_import)
    else:
        result = harness.measure(args, t_import, BLAS_THREADS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
