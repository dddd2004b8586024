#!/usr/bin/env python3
"""Regenerate the stored answers the benchmark checks against.

    python3 bench/record.py universe   # data/scan_universe.json (about 5 minutes)
    python3 bench/record.py digests    # data/digests.json

``universe`` lists every positive graphic sequence with n <= 8 with its
labelled realization count, and for n = 8 the scan row (nu_bar, ell*, k*).
``digests`` stores the digest of round 0 under the reference seed for the
workloads that run a reference round, and the digest of the n = 7 scan CSV. Run these only at a commit whose outputs are the intended
reference: every later run compares against them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from degmatch.bounds import gale_ryser_bound, maximality_bound  # noqa: E402
from degmatch.enumeration import all_graphic_sequences, count_realizations, nu_bar_sequence  # noqa: E402

from workloads import SCAN_CAP  # noqa: E402


def universe() -> dict[str, list[int]]:
    out = {}
    for d in all_graphic_sequences(8):
        row = [count_realizations(d, max_n=8, max_degree_sum=SCAN_CAP)]
        if d.n == 8:
            row += [nu_bar_sequence(d, max_n=8, max_degree_sum=SCAN_CAP), gale_ryser_bound(d), maximality_bound(d)]
        out[d.to_text()] = row
    return out


def digests() -> dict[str, str]:
    from checks import sha
    from degmatch.enumeration import conjecture_scan, rows_to_csv
    from run import OUT, REFERENCE_ROUND, REFERENCE_SEED, digest, run_round
    from workloads import rounds

    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"scan7": sha(rows_to_csv(conjecture_scan(7)))}
    for workload in REFERENCE_ROUND:
        outcomes = run_round(next(rounds(workload, REFERENCE_SEED, workdir)), passes=1)
        wrong = [o.note for o in outcomes if o.status == "wrong"]
        if wrong:
            raise SystemExit(f"{workload}: reference round has wrong answers: {wrong[:3]}")
        out[workload] = digest(outcomes)
    return out


def main() -> int:
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what not in ("universe", "digests"):
        print(__doc__, file=sys.stderr)
        return 2
    data = universe() if what == "universe" else digests()
    path = BENCH / "data" / ("scan_universe.json" if what == "universe" else "digests.json")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(data)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
