"""End-to-end and per-layer benchmark of the neighbornorm normalizer.

    python3 benchmarks/run.py --workload mixed_b64 --seed 0 --seconds 20 --trace 0

Runs one workload in-process through the public API of
`neighbornorm.harness`: set-up (train, save and load the model file, as
the CLI's `train` and `run` do), then rounds in which every normalizer
mode streams the whole workload stream once, batch after batch, on the
network read back from the model file. The stream seed is `--seed`.

With `--trace 0` it sets up several times, streams whole rounds for at
least `--seconds` seconds and prints the end-to-end metrics. With
`--trace 1` it sets up once under the tracer, streams one untraced and
one traced round, and prints the per-layer metrics of the traced round.
Either way the outputs are checked (see checks.py) and the last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation is one batch streamed in one mode. Exit code 0 when every
check passes, 1 when one fails, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from workloads import MODES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> dict:
    """Hold BLAS threads to at most nproc; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="stream seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum streaming time with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "neighbornorm", "__init__.py")):
        print(f"benchmark: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import measure  # loads numpy, so only after the thread cap

    spec = WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".benchwork")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        run = measure.per_layer if args.trace else measure.end_to_end
        metrics, attempted, failures, notes = run(spec, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still holds its directory there
            pass

    print("machine " + json.dumps(measure.machine_facts(nproc, blas_threads), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {spec['kind']} stream, B={spec['batch_size']}, "
        f"{spec['num_batches']} batches, modes {', '.join(MODES)}"
    )
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"operations: {attempted} attempted, 0 failed (one operation is one batch streamed in one mode)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"checks: {'all passed' if not failures else f'{len(failures)} failed'}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
