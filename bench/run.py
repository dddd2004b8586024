#!/usr/bin/env python3
"""The degmatch benchmark.

    python3 bench/run.py --workload sequence-queries --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client, single-threaded: the next
query starts only after the previous one has returned and been checked.
With ``--trace 0`` nothing is wrapped and the last line of stdout carries
the end-to-end metrics; with ``--trace 1`` the same rounds run untraced and
then traced, and the last line carries the per-layer metrics. See
bench/README.md for the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from calib import NOMINAL_CAL_S, calibrated, calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sequence-queries", "growth", "scan")
# Workloads whose outputs are compared byte for byte through a reference
# round; scan compares every output with stored answers instead.
REFERENCE_ROUND = ("sequence-queries", "growth")
REFERENCE_SEED = 0
# Cold starts before each pass, so that they are spread over the run (12
# at the default 20 s) and not all taken in one few-second spell of the
# machine's speed.
SETUP_STARTS_PER_PASS = 3
# Each round runs twice and a query keeps its faster calibrated time (see
# calib.py).
PASSES = 2
# The number of rounds, max(MIN_ROUNDS, seconds // ROUND_SECONDS), depends
# on --seconds alone, never on measured speed, so two commits run the same
# seeded queries. Two rounds hold at least 128 queries on every workload,
# so at least 10 lie beyond the nearest-rank p90.
MIN_ROUNDS = 2
ROUND_SECONDS = 10


@dataclass
class Outcome:
    kind: str
    seconds: float  # wall time of the call
    cal: float  # mean of the calibration() times before and after the call
    calibrated: float  # the call's calibrated seconds (calib.calibrated)
    status: str  # "ok", "wrong" (failed check or unexpected coded error) or "uncoded"
    steps: int = 0
    canon: str | None = None
    note: str = ""


def execute(query, tracer=None) -> Outcome:
    from checks import WrongAnswer
    from degmatch.errors import DegmatchError

    before = calibration()
    if tracer is not None:
        tracer.query_id += 1
        tracer.active = True
    error = None
    t0 = perf_counter()
    try:
        result = query.call()
    except DegmatchError as exc:
        result = exc
    except Exception as exc:  # an uncoded exception is a failed query, not a crash
        error = exc
    finally:
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    after = calibration()
    times = (seconds, (before + after) / 2, calibrated(seconds, before, after))
    if error is not None:
        return Outcome(query.kind, *times, "uncoded", note=f"{type(error).__name__}: {error}")
    if isinstance(result, DegmatchError):
        return Outcome(query.kind, *times, "wrong", note=f"unexpected ERROR {result.code}: {result}")
    steps = len(result.steps) if query.per_step else 0
    try:
        canon = query.check(result)
    except WrongAnswer as exc:
        return Outcome(query.kind, *times, "wrong", steps, note=str(exc))
    except Exception as exc:  # output the check could not even read
        return Outcome(query.kind, *times, "wrong", steps, note=f"unreadable output: {type(exc).__name__}: {exc}")
    return Outcome(query.kind, *times, "ok", steps, canon)


def digest(outcomes: list[Outcome]) -> str:
    from checks import sha

    return sha("\x00".join(o.canon for o in outcomes if o.canon is not None))


SEVERITY = {"ok": 0, "uncoded": 1, "wrong": 2}


def run_round(queries, tracer=None, passes: int = PASSES, setup_times: list[float] | None = None) -> list[Outcome]:
    """Run a round ``passes`` times over; each query keeps its fastest times
    and its worst status, and must give the same output on every pass.
    Cold starts are timed into ``setup_times`` before each pass."""
    runs_by_pass = []
    for _ in range(passes):
        if setup_times is not None:
            setup_times += [cold_start() for _ in range(SETUP_STARTS_PER_PASS)]
        runs_by_pass.append([execute(q, tracer) for q in queries])
    merged = []
    for runs in zip(*runs_by_pass):
        worst = max(runs, key=lambda o: SEVERITY[o.status])
        if worst.status == "ok" and len({o.canon for o in runs}) > 1:
            worst = replace(worst, status="wrong", note="output differs between passes")
        merged.append(replace(worst, **{f: min(getattr(o, f) for o in runs) for f in ("seconds", "cal", "calibrated")}))
    return merged


def round_count(seconds: float, min_rounds: int = MIN_ROUNDS) -> int:
    return max(min_rounds, int(seconds // ROUND_SECONDS))


def cold_start() -> float:
    """Calibrated seconds a fresh interpreter takes to import degmatch and build the CLI parser."""
    out = subprocess.run([sys.executable, str(BENCH / "calib.py"), str(SRC)], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summary(outcomes: list[Outcome], secs: Callable[[Outcome], float] = lambda o: o.calibrated
            ) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric that applies to these outcomes, name -> (value, unit)."""
    def kind_p50_ms(kind: str) -> float | None:
        vals = [secs(o) * 1000 for o in outcomes if o.kind == kind]
        return statistics.median(vals) if vals else None

    lat = sorted(secs(o) * 1000 for o in outcomes)
    out = {
        "queries_per_s": (len(outcomes) / (sum(lat) / 1000), "1/s"),
        "latency_p50_ms": (nearest_rank(lat, 0.5), "ms"),
        "latency_p90_ms": (nearest_rank(lat, 0.9), "ms"),
        "failed_ratio": (sum(o.status != "ok" for o in outcomes) / len(outcomes), "ratio"),
    }
    for kind in ("check", "realize", "bounds", "nu-star", "extend", "nu_bar", "enumerate"):
        p50 = kind_p50_ms(kind)
        if p50 is not None:
            out[f"{kind.replace('-', '_')}_p50_ms"] = (p50, "ms")
    steps = [secs(o) * 1000 / o.steps for o in outcomes if o.kind == "grow" and o.steps]
    if steps:
        out["grow_step_p50_ms"] = (statistics.median(steps), "ms")
    scans = [secs(o) for o in outcomes if o.kind == "scan7"]
    if scans:
        out["scan7_s"] = (statistics.median(scans), "s")
    return out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import rounds

    spec = benchmark_spec()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference, digest_ok = [], True
        if workload in REFERENCE_ROUND:
            reference = run_round(next(rounds(workload, REFERENCE_SEED, workdir)), passes=1)
            stored = json.loads((BENCH / "data" / "digests.json").read_text())[workload]
            ref_digest = digest(reference)
            digest_ok = ref_digest == stored
        # Per-layer counts need no p90, so the traced run may use one round.
        n_rounds = round_count(seconds / 2, min_rounds=1) if trace else round_count(seconds)
        source = rounds(workload, seed, workdir)
        setup_times: list[float] = []
        outcomes = [o for _ in range(n_rounds) for o in run_round(next(source), setup_times=setup_times)]
        layer = {}
        if trace:
            untraced = sum(o.calibrated for o in outcomes)
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                source = rounds(workload, seed, workdir)
                traced = [o for _ in range(n_rounds) for o in run_round(next(source), tracer)]
            finally:
                spans.uninstall(undo)
            layer = spans.layer_metrics(tracer, len(traced) * PASSES)
            layer["trace.overhead_ratio"] = sum(o.calibrated for o in traced) / untraced
            layer["cli.uncoded_exceptions"] = sum(o.status == "uncoded" for o in traced)
            tracer.write(OUT / f"trace-{workload}-seed{seed}.json.gz")
            outcomes += traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [o for o in reference + outcomes if o.status == "wrong"]
    failed = sum(o.status != "ok" for o in outcomes)
    table = summary(outcomes)
    table["setup_s"] = (statistics.median(setup_times), "s")
    table["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"# workload {workload}, seed {seed}: {len(outcomes)} queries in {n_rounds} rounds"
          f"{' (untraced, then the same rounds traced)' if trace else ''}, "
          f"closed loop, one client, one thread")
    if reference:
        print(f"# reference round (seed {REFERENCE_SEED}) digest {ref_digest[:16]} "
              f"{'matches the stored digest' if digest_ok else f'DIFFERS from the stored {stored[:16]}'}")
    print(f"# seeded output digest {digest(outcomes)[:16]}")
    for o in wrong[:10]:
        print(f"# WRONG {o.kind}: {o.note}")
    for note in sorted({o.note for o in outcomes if o.status == 'uncoded'}):
        print(f"# uncoded exception (counted as failed): {note}")
    for name, (value, unit) in sorted(table.items()):
        print(f"{workload:>16}  {name:<22} {value:>14.6g} {unit}")
    cal = sorted(o.cal * 1000 for o in outcomes)
    print(f"# calibration loop: fastest {cal[0]:.3f} ms, median {statistics.median(cal):.3f} ms "
          f"(the timed metrics above take it as {NOMINAL_CAL_S * 1000:g} ms); wall-time metrics:")
    for name, (value, unit) in sorted(summary(outcomes, lambda o: o.seconds).items()):
        print(f"{workload:>16}  wall {name:<22} {value:>14.6g} {unit}")
    if trace:
        for name, value in sorted(layer.items()):
            if value:
                print(f"{workload:>16}  layer {name:<52} {value:.6g}")

    if trace:
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {
        "correct": not wrong and digest_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "degmatch" / "__init__.py").is_file():
        print(f"error: no degmatch sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.workload == "all":
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode:
                return 1
        return 0
    sys.path[:0] = [str(SRC), str(BENCH)]
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
