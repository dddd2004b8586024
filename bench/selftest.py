#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Checks that wrong answers are caught and counted, that the tracer's
wrappers come off without a trace, that self time is computed as stated,
and that the labelled-count identity holds at n = 6.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
import unittest
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import degmatch  # noqa: E402
from degmatch.enumeration import count_realizations  # noqa: E402
from degmatch.graphs import Graph  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from run import execute, run_round, summary  # noqa: E402


class WrongAnswersCountAsFailed(unittest.TestCase):
    def run_tampered(self, query, tamper) -> str:
        good = query.call()
        self.assertEqual(execute(query).status, "ok")
        bad = workloads.Query(query.kind, lambda: tamper(good), query.check, query.per_step)
        return execute(bad).status

    def test_realization_with_one_edge_moved(self):
        rng = random.Random(5)
        degs = workloads.gnm_degrees(30, 60, rng)
        query = workloads.sequence_query("realize", degs, rng)

        def move_one_edge(res):
            rc, out, err = res
            rec = json.loads(out)
            edges = [tuple(map(int, e.split("-"))) for e in rec["edges"].split(";")]
            present = set(edges)
            u, v = edges[0]
            w = next(x for x in range(rec["n"]) if x not in (u, v) and (min(u, x), max(u, x)) not in present)
            edges[0] = (min(u, w), max(u, w))
            rec["edges"] = ";".join(f"{a}-{b}" for a, b in edges)
            return rc, json.dumps(rec) + "\n", err

        self.assertEqual(self.run_tampered(query, move_one_edge), "wrong")

    def test_nu_star_off_by_one(self):
        rng = random.Random(6)
        query = workloads.sequence_query("nu-star", workloads.gnm_degrees(40, 80, rng), rng)

        def off_by_one(res):
            rc, out, err = res
            rec = json.loads(out)
            rec["nu_star"] -= 1
            rec["delta_star"] -= 2
            return rc, json.dumps(rec) + "\n", err

        self.assertEqual(self.run_tampered(query, off_by_one), "wrong")

    def test_growth_trace_with_a_wrong_degree(self):
        rng = random.Random(7)
        edges = workloads.gnm_edges(40, 80, rng)
        query = workloads.grow_query(Graph(40, frozenset(edges)), 40, edges, 5, "fixed:4", "first", rng)

        def wrong_degree(trace):
            step = trace.steps[2]
            degs = list(step.resulting_degree_sequence)
            degs[-1] += 1
            steps = list(trace.steps)
            steps[2] = type(step)(step.step_index, step.delta, step.removed_matching, step.new_vertex, tuple(degs))
            return type(trace)(trace.seed_vertex_count, trace.seed_edge_count, trace.seed_degree_sequence,
                               trace.requested_steps, tuple(steps), trace.final_graph)

        self.assertEqual(self.run_tampered(query, wrong_degree), "wrong")

    def test_failed_ratio_counts_every_failure(self):
        outcomes = [execute(workloads.Query("x", lambda: 1, lambda r: None))] * 3
        outcomes.append(execute(workloads.Query("x", lambda: int("abc"), lambda r: None)))
        self.assertEqual(outcomes[-1].status, "uncoded")
        self.assertEqual(summary(outcomes)["failed_ratio"][0], 0.25)

    def test_a_query_keeps_its_worst_outcome_over_the_passes(self):
        from checks import WrongAnswer

        passes = iter([lambda: int("abc"), lambda: 1])

        def wrong(result):
            raise WrongAnswer("tampered")

        query = workloads.Query("x", lambda: next(passes)(), wrong)
        (merged,) = run_round([query], passes=2)
        self.assertEqual(merged.status, "wrong")


def snapshot():
    owners = [degmatch] + [importlib.import_module(f"degmatch.{m}") for m in spans.MODULES]
    owners += [v for o in owners for v in vars(o).values() if isinstance(v, type) and v.__module__.startswith("degmatch")]
    return {id(o): (o, dict(vars(o))) for o in owners}


class WrappersComeOffCleanly(unittest.TestCase):
    def test_install_then_uninstall_restores_every_attribute(self):
        before = snapshot()
        undo = spans.install(spans.Tracer())
        self.assertIsNot(degmatch.graphs.max_matching, before[id(degmatch.graphs)][1]["max_matching"])
        self.assertIs(degmatch.dpg.max_matching, degmatch.graphs.max_matching)
        spans.uninstall(undo)
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, (owner, attrs) in before.items():
            now = after[key][1]
            self.assertEqual(attrs.keys(), now.keys(), owner)
            for name, value in attrs.items():
                self.assertIs(now[name], value, f"{owner!r}.{name}")

    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer()
        outer, inner = tracer.name_id("a.outer"), tracer.name_id("a.inner")
        tracer.active = True
        i = tracer.open(outer)
        j = tracer.open(inner)
        tracer.close(j)
        tracer.close(i)
        tracer.start[:] = spans.array("d", [0.0, 1.0])
        tracer.end[:] = spans.array("d", [4.0, 3.5])
        layer = spans.layer_metrics(tracer, 1)
        self.assertAlmostEqual(layer["a.outer.self_s"], 1.5)
        self.assertAlmostEqual(layer["a.inner.self_s"], 2.5)


class LabelledCountIdentity(unittest.TestCase):
    def test_n6_sums_to_all_labelled_graphs(self):
        n = 6
        total = 0
        for degs in combinations_with_replacement(range(n - 1, -1, -1), n):
            d = degmatch.DegreeSequence(degs)
            labellings = math.factorial(n)
            for mult in Counter(degs).values():
                labellings //= math.factorial(mult)
            total += count_realizations(d, max_degree_sum=n * (n - 1)) * labellings
        self.assertEqual(total, 2 ** (n * (n - 1) // 2))


if __name__ == "__main__":
    unittest.main()
