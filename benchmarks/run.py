"""Benchmark of the greedyopt package: one workload per invocation.

    python3 benchmarks/run.py --workload cs_wcga --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports greedyopt from the
checkout's `src/` and nowhere else. With `--trace 0` it prints the end-to-end
metrics of BENCHMARK.json, measured with tracing off; with `--trace 1` the
per-layer metrics, from traced runs interleaved with untraced ones. Human
readable lines come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics. Samples, failures and (traced) the
spans of one run are written to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads are pinned before numpy is first imported: on a small shared
# host, threaded BLAS is slower on these sizes and adds scheduler noise.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import greedyopt
    except ImportError as exc:
        print(f"cannot import greedyopt from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(greedyopt.__file__).resolve().parent.parent != src.resolve():
        print(f"greedyopt was imported from {greedyopt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"missing {ROOT / 'BENCHMARK.json'}", file=sys.stderr)
        return 2

    import harness  # imports numpy, so only after the BLAS pin

    return harness.main(args, ROOT, BLAS_ENV)


if __name__ == "__main__":
    sys.exit(main())
