"""Benchmark of the limase explainers: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mlp-global --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; the package is imported from
src/. The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, measured with no tracing installed. With --trace 1 they
are the per-layer ones, from a traced run that also reports its own
overhead; the spans go to bench-out/. The line before the result carries
the environment, the sample counts and phi_digest, a hash of every
explanation the run checked, identical across runs of one seed.

Exit codes: 0 when every output passed the correctness gate, 1 when any
failed, 2 when the source tree or the arguments are unusable.
"""
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: with the default thread count
# on a shared machine the same run varies by almost a factor of two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "limase" / "__init__.py").is_file():
        print(f"error: no limase source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    sys.exit(harness.main(sys.argv[1:]))
