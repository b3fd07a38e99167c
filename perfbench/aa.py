"""A/A check of the benchmark against its own bounds.

    python3 perfbench/aa.py [--workloads W ...] [--pairs 5] [--seconds 20]
                            [--first-seed 1]

Runs ``run.py`` of this checkout in pairs of two identical sides, A and
B, each run with a seed of its own (pair ``i``: ``first_seed + 2i`` and
``first_seed + 2i + 1``), alternating which side runs first so slow
drift of the machine's speed lands on both sides alike.  For every
(end-to-end metric, workload) it prints both medians, their ratio (B
over A), the quartile spread of all runs together (with ``--pairs 5``,
ten runs on ten seeds) and a verdict against the metric's bound in
BENCHMARK.json:

* ``ok``     -- B is no worse than A by more than the bound, and the
  spread of all runs together stays within the bound (``setup_s`` is
  exempt from the spread rule);
* ``WORSE``  -- B's median is worse than A's by more than the bound;
* ``NOISY``  -- the spread is wider than the bound.

It also checks that every run printed the same simulated digest.  Exit
status 1 when any verdict is not ``ok`` or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, iqr_share, median  # noqa: E402

WORKLOADS = ("paper-sweep", "gpu-vector", "service-mix")


def run_once(workload: str, seed: int, seconds: float) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    found = re.search(r"simulated digest (\w+)", done.stdout)
    return result, found.group(1) if found else None


def verdict(entry: dict, a: list, b: list) -> tuple:
    bound = entry["bound"]
    ratio = median(b) / median(a)
    worse = ratio - 1.0 if entry["better"] == "lower" else 1.0 - ratio
    spread = iqr_share(a + b)
    if worse > bound:
        return ratio, spread, "WORSE"
    if entry["name"] != "setup_s" and spread > bound:
        return ratio, spread, "NOISY"
    return ratio, spread, "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    failed = False
    for workload in args.workloads:
        values = {"A": {}, "B": {}}
        digests = set()
        for pair in range(args.pairs):
            for side in ("AB" if pair % 2 == 0 else "BA"):
                seed = args.first_seed + 2 * pair + (side == "B")
                result, found = run_once(workload, seed, seconds)
                digests.add(found)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed} side {side}: incorrect ({result['failed']} failed)")
                    failed = True
                for name, entry in result["metrics"].items():
                    values[side].setdefault(name, []).append(entry["value"])
                print(f"  {workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        print(f"{workload}: simulated digests {sorted(d or '-' for d in digests)}")
        if len(digests) != 1:
            failed = True
        print(f"{'metric':<14}{'median A':>12}{'median B':>12}{'B/A':>8}{'spread':>8}{'bound':>7}  verdict")
        for entry in spec["end_to_end"]:
            a, b = values["A"][entry["name"]], values["B"][entry["name"]]
            ratio, spread, word = verdict(entry, a, b)
            failed |= word != "ok"
            print(f"{entry['name']:<14}{median(a):>12.4g}{median(b):>12.4g}{ratio:>8.3f}"
                  f"{spread:>8.3f}{entry['bound']:>7.2f}  {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
