#!/usr/bin/env python3
"""Re-measure the kernel table of ROADMAP.md "Open items" with fixed inputs.

    python3 bench/baseline.py --label baseline            # about 6 minutes

Each row is timed once; rows under 2 s are timed four more times and the
median is kept. Library rows call degmatch in this process; "e2e" rows run
the CLI in a fresh interpreter. Writes bench/trajectory/<label>.json and
prints the table next to the one-shot numbers ROADMAP.md gives.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import degmatch  # noqa: E402
from degmatch import Graph  # noqa: E402

from workloads import gnm_edges, degree_list  # noqa: E402

SEED = 0


def gnm_sequence(n: int):
    rng = random.Random(f"baseline:{SEED}:{n}")
    return degmatch.make_sequence(degree_list(n, gnm_edges(n, 4 * n, rng)))


def cli(*argv: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run():
        subprocess.run([sys.executable, "-m", "degmatch.cli", *argv], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)

    return run


def seq_text(d) -> str:
    return ",".join(map(str, d))


def rows():
    """(what, size, ROADMAP one-shot seconds, callable) for every table row."""
    d800, d1600 = gnm_sequence(800), gnm_sequence(1600)
    skewed = degmatch.make_sequence([799] * 10 + [10] * 790)
    rng = random.Random(f"baseline:{SEED}:grow")
    g800 = Graph(800, frozenset(gnm_edges(800, 3200, rng)))
    return [
        ("gale_ryser_bound", "random n=800", 1.31, lambda: degmatch.gale_ryser_bound(d800)),
        ("gale_ryser_bound", "random n=1600", 10.8, lambda: degmatch.gale_ryser_bound(d1600)),
        ("degmatch bounds e2e", "5-regular n=600", 2.09, cli("bounds", "--seq", seq_text([5] * 600))),
        ("nu_star_formula", "skewed 799^10,10^790", 0.58, lambda: degmatch.nu_star_formula(skewed)),
        ("realize_hh", "random n=800", 0.25, lambda: degmatch.realize_hh(d800)),
        ("degmatch realize e2e", "5-regular n=2000", 1.65, cli("realize", "--seq", seq_text([5] * 2000))),
        ("grow 20 steps fixed:4", "gnm seed n=800, m=3200", 0.85, lambda: degmatch.grow(g800, 20, "fixed:4", 0)),
        ("conjecture_scan", "n_max=7", 2.5, lambda: degmatch.conjecture_scan(7)),
        ("conjecture_scan", "n_max=8", 205.0, lambda: degmatch.conjecture_scan(8)),
        ("tier-1 test suite", "-", 50.0, lambda: subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"], cwd=ROOT, check=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), stdout=subprocess.DEVNULL)),
    ]


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    table = []
    for what, size, roadmap, fn in rows():
        times = [timed(fn)]
        if times[0] < 2.0:
            times += [timed(fn) for _ in range(4)]
        median = statistics.median(times)
        table.append({"what": what, "size": size, "roadmap_s": roadmap, "median_s": median, "runs": times})
        print(f"{what:<24} {size:<24} roadmap {roadmap:>7.2f} s   now {median:>8.3f} s  "
              f"({len(times)} run{'s' if len(times) > 1 else ''}, x{median / roadmap:.2f})", flush=True)
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "rows": table,
    }
    out = BENCH / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
