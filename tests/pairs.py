"""Alternating-pairs timing of two source trees on one benchmark workload.

    python tests/pairs.py path/to/tree_a path/to/tree_b --workload mixed_b64 --pairs 10 --seconds 20 --seed 400

Each tree is a whole export of the repository, for example a parent and its change, each made with `git archive`
into sibling directories whose paths have the same length (peak RSS follows the heap layout, which a longer path
shifts; two paths of different lengths are refused). Pair i streams seed `--seed` + i in both trees, each through
its own `benchmarks/run.py` in a subprocess, one after the other: tree A first in even pairs, tree B first in odd
ones. Per end-to-end metric of A's `BENCHMARK.json` but the accuracies, and per wall-clock note (the rates before
scaling to the reference speed), it prints both medians and quartiles, the change from A to B, the pairs B won,
whether the medians differ by more than A's interquartile range and, for a metric with a `bound`, whether B's median
stays within it of A's in the worse direction (lower-is-better: B <= A * (1 + bound); higher: B >= A * (1 - bound)).
It exits 1 if any accuracy differs within a pair, an operation failed, a run's checks failed or a median left its
bound, and 0 otherwise. pytest does not collect it: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# The first note line of `benchmarks/run.py`: set-up seconds and both rates on the wall clock.
WALL_NOTE = re.compile(r"wall clock before scaling.*?: setup ([\d.]+) s, find ([\d.]+) samples/s, bn ([\d.]+) samples/s")
WALL_METRICS = (("wall.setup_s", "lower"), ("wall.find_samples_per_s", "higher"), ("wall.bn_samples_per_s", "higher"))


def run_tree(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmarks/run.py` run in `tree`: metric name -> value, wall-clock notes included, and its verdict."""
    proc = subprocess.run([sys.executable, os.path.join(tree, "benchmarks", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{tree}: benchmarks/run.py exited {proc.returncode} without its JSON line\n{proc.stderr}")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    wall = next((m for m in map(WALL_NOTE.search, lines) if m), None)
    if wall:
        values.update({name: float(v) for (name, _), v in zip(WALL_METRICS, wall.groups())})
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return {"values": values, "ok": ok, "attempted": result["attempted"], "failed": result["failed"]}


def number(value: float) -> str:
    """Thousands separators from 1,000 up, else four significant digits."""
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def spread(values: list) -> tuple:
    """Median and quartiles (inclusive method; a single value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", help="the baseline tree, for example the parent")
    parser.add_argument("tree_b", help="the tree compared with it, for example the change")
    parser.add_argument("--workload", required=True, help="a workload of benchmarks/workloads.py")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=20.0, help="each run's --seconds (default 20)")
    parser.add_argument("--seed", type=int, required=True, help="the first pair's stream seed; pair i runs seed + i")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.tree_a, args.tree_b)]
    if len(trees[0]) != len(trees[1]):
        parser.error(f"tree paths differ in length ({len(trees[0])} and {len(trees[1])} characters): {trees}")
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "benchmarks", "run.py")):
            parser.error(f"{tree} holds no benchmarks/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be 1 or more")
    with open(os.path.join(trees[0], "BENCHMARK.json")) as fh:
        metrics = [m for m in json.load(fh)["end_to_end"] if not m["name"].endswith("_accuracy")]
    better, bounds = {m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics}
    better.update(WALL_METRICS)

    runs, problems = [], []  # runs: one (A's, B's) per pair
    for i in range(args.pairs):
        seed, order = args.seed + i, (0, 1) if i % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = run_tree(trees[side], args.workload, seed, args.seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {'AB'[side]}: " + ", ".join(
                f"{name} {pair[side]['values'].get(name, float('nan')):.6g}" for name in better), flush=True)
        runs.append(pair)
        for side in (0, 1):
            if not pair[side]["ok"]:
                problems.append(f"pair {i + 1} {'AB'[side]}: {pair[side]['failed']} failed operations or a failed check")
        a, b = (pair[side]["values"] for side in (0, 1))
        moved = [name for name in a if name.endswith("_accuracy") and a[name] != b.get(name)]
        problems += [f"pair {i + 1} seed {seed}: {name} {a[name]} in A, {b.get(name)} in B" for name in moved]

    print(f"\nworkload {args.workload}: {args.pairs} alternating pairs, --seconds {args.seconds:g}, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}\nA {trees[0]}\nB {trees[1]}")
    print(f"{'metric':<26} {'A median [q1-q3]':>28} {'B median [q1-q3]':>28} {'change':>8} {'B won':>7}  "
          f"beyond A's IQR  within bound")
    for name, direction in better.items():
        a, b = ([pair[side]["values"][name] for pair in runs if name in pair[side]["values"]] for side in (0, 1))
        if len(a) != args.pairs or len(b) != args.pairs:
            continue
        (ma, qa1, qa3), (mb, qb1, qb3) = spread(a), spread(b)
        won = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
        change = (mb - ma) / ma * 100 if ma else float("nan")
        a_text, b_text = (f"{number(m)} [{number(q1)}-{number(q3)}]" for m, q1, q3 in ((ma, qa1, qa3), (mb, qb1, qb3)))
        within = "-"  # a wall-clock note has no bound
        if name in bounds:
            bound = bounds[name]
            held = mb <= ma * (1 + bound) if direction == "lower" else mb >= ma * (1 - bound)
            within = "yes" if held else "NO"
            if not held:
                problems.append(f"{name}: B's median {number(mb)} is more than {bound:.0%} worse than A's {number(ma)}")
        print(f"{name:<26} {a_text:>28} {b_text:>28} {change:>+7.1f}% {f'{won}/{args.pairs}':>7}  "
              f"{'yes' if abs(mb - ma) > qa3 - qa1 else 'no':<14}  {within}")
    attempted = sum(pair[side]["attempted"] for pair in runs for side in (0, 1))
    print(f"operations: {attempted} attempted in {2 * args.pairs} runs; accuracies compared within each pair")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("all accuracies identical, 0 failed operations, every check passed" if not problems else
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
