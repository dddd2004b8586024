"""Unit tests for degree-preserving growth."""

import hashlib
import itertools
import json
import random

import pytest

from degmatch import dpg, graphs
from degmatch import (
    CapExceededError,
    Graph,
    InfeasibleDeltaError,
    Matching,
    ValidationError,
    cycle,
    dp_step,
    feasible_deltas,
    grow,
    half_graph,
    make_sequence,
    max_matching,
    nu_star,
    pinch,
    windmill,
)


class TestFeasibleDeltas:
    def test_examples(self):
        assert feasible_deltas(cycle(3)) == {2}
        assert feasible_deltas(cycle(6)) == {2, 4, 6}
        assert feasible_deltas(Graph(5, frozenset())) == set()

    def test_subset_of_sequence_level_feasibility(self):
        for g in (cycle(3), cycle(6), windmill(2, 3), windmill(1, 4)):
            graph_level = feasible_deltas(g)
            outer = 2 * nu_star(g.degree_sequence())
            assert all(delta <= outer for delta in graph_level)


class TestDpStep:
    def test_triangle_grows_to_four_cycle(self):
        grown, record = dp_step(cycle(3), 2, policy="first", rng_seed=0)
        assert grown.degrees() == (2, 2, 2, 2)
        assert record.delta == 2 and record.new_vertex == 3

    def test_infeasible_delta_lists_alternatives(self):
        with pytest.raises(InfeasibleDeltaError) as info:
            dp_step(cycle(3), 4)
        assert info.value.feasible == (2,)

    def test_k4_pinch_one_edge(self):
        grown, _ = dp_step(windmill(1, 4), 2, policy="first", rng_seed=0)
        assert grown.degree_sequence().degrees == (3, 3, 3, 3, 2)

    def test_odd_delta_rejected(self):
        with pytest.raises(ValidationError):
            dp_step(cycle(6), 3)

    def test_unknown_policy_rejected_after_delta(self):
        with pytest.raises(ValidationError, match="unknown matching policy 'widest'"):
            dp_step(cycle(6), 2, "widest")
        with pytest.raises(ValidationError, match="delta=3 must be a positive even integer"):
            dp_step(cycle(6), 3, "widest")
        # a callable is not a policy either, and is never called
        with pytest.raises(ValidationError, match="unknown matching policy <function"):
            dp_step(cycle(6), 2, never_called)
        with pytest.raises(ValidationError, match="delta=3 must be a positive even integer"):
            dp_step(cycle(6), 3, never_called)

    @pytest.mark.parametrize("policy", ["random", "first", "max-degree"])
    def test_policies_preserve_old_degrees(self, policy):
        g = windmill(2, 3)
        for delta in sorted(feasible_deltas(g)):
            grown, record = dp_step(g, delta, policy=policy, rng_seed=5)
            assert grown.degrees()[: g.vertex_count] == g.degrees()
            assert grown.degrees()[g.vertex_count] == delta
            assert record.resulting_degree_sequence == grown.degree_sequence().degrees

    @pytest.mark.parametrize("policy", ["random", "first", "max-degree"])
    def test_record_sequence_is_the_sorted_child_degrees(self, policy):
        g = gnm_graph(40, 80, 8)
        for delta in (2, 4, 10):
            grown, record = dp_step(g, delta, policy=policy, rng_seed=delta)
            assert record.resulting_degree_sequence == make_sequence(grown.degrees()).degrees

    def test_feasibility_consistency(self):
        # dp_step succeeds exactly on the feasible set
        for g in (cycle(3), cycle(6), windmill(2, 3)):
            feas = feasible_deltas(g)
            for delta in range(2, g.vertex_count + 2, 2):
                if delta in feas:
                    dp_step(g, delta, policy="first")
                else:
                    with pytest.raises(InfeasibleDeltaError):
                        dp_step(g, delta, policy="first")


class TestGrow:
    def test_zero_steps(self):
        trace = grow(windmill(1, 4), 0)
        assert trace.steps == () and not trace.halted_early
        assert trace.final_graph == windmill(1, 4)

    def test_fixed_policy_appends_two_each_step(self):
        trace = grow(cycle(3), 3, delta_policy="fixed:2", rng_seed=42)
        assert len(trace.steps) == 3
        assert trace.final_graph.vertex_count == 6
        degrees = list(cycle(3).degrees())
        for rec in trace.steps:
            degrees = sorted(degrees + [2], reverse=True)
            assert rec.resulting_degree_sequence == tuple(degrees)

    def test_max_policy_takes_twice_nu(self):
        trace = grow(cycle(6), 10, delta_policy="max", rng_seed=7)
        g = cycle(6)
        for rec in trace.steps:
            assert rec.delta == 2 * max_matching(g).size
            g = pinch(g, Matching(frozenset(rec.removed_matching), g.vertex_count))
        assert g == trace.final_graph

    def test_reproducible(self):
        a = grow(cycle(6), 8, delta_policy="random", rng_seed=3)
        b = grow(cycle(6), 8, delta_policy="random", rng_seed=3)
        assert a.steps == b.steps and a.final_graph == b.final_graph

    def test_halts_early_without_edges(self):
        trace = grow(Graph(3, frozenset()), 5, delta_policy="max")
        assert trace.steps == () and trace.halted_early

    @pytest.mark.parametrize("delta_policy", ["random", "fixed:2"])
    def test_halts_early_without_edges_under_each_delta_policy(self, delta_policy):
        # under random, nu = 0 leaves no degree to draw: the run halts before the draw
        trace = grow(Graph(3, frozenset()), 5, delta_policy=delta_policy)
        assert trace.steps == () and trace.halted_early

    def test_unknown_matching_policy(self):
        with pytest.raises(ValidationError, match="unknown matching policy 'widest'"):
            grow(cycle(4), 1, delta_policy="fixed:2", matching_policy="widest")
        # a callable is not a policy: it is refused before any step asks it
        for delta_policy in ("fixed:2", "max", "random"):
            with pytest.raises(ValidationError, match="unknown matching policy <function"):
                grow(cycle(4), 1, delta_policy, 0, never_called)

    def test_matching_policy_checked_before_any_step(self):
        # no step runs here: the seed has no edges, or no step is asked for
        with pytest.raises(ValidationError, match="unknown matching policy 'bogus'"):
            grow(Graph(3, frozenset()), 5, "max", 0, "bogus")
        with pytest.raises(ValidationError, match="unknown matching policy 'bogus'"):
            grow(cycle(4), 0, "max", 0, "bogus")

    def test_bad_policy_string(self):
        with pytest.raises(ValidationError):
            grow(cycle(3), 1, delta_policy="every-other")
        with pytest.raises(ValidationError):
            grow(cycle(3), 1, delta_policy="fixed:3")


class TestTraceCap:
    """Each record keeps the whole grown sequence, so s steps from n0
    vertices could record s * n0 + s * (s + 1) / 2 degree entries; a run
    over ``TRACE_CAP`` of them is refused before any step."""

    # 3125 steps from 4837 vertices could record exactly the cap
    STEPS, N0 = 3125, 4837

    def test_at_cap_runs(self):
        assert self.STEPS * self.N0 + self.STEPS * (self.STEPS + 1) // 2 == dpg.TRACE_CAP
        # an edgeless seed halts at once, so a run at the cap is cheap
        trace = grow(Graph(self.N0), self.STEPS, "fixed:2", 0, "first")
        assert trace.steps == () and trace.halted_early

    @pytest.mark.parametrize("delta_policy", ["fixed:2", "max", "random"])
    def test_one_step_more_is_refused_before_any_step(self, monkeypatch, delta_policy):
        def no_step(*args, **kwargs):
            pytest.fail("a step ran")

        monkeypatch.setattr(dpg, "_select_matching", no_step)
        monkeypatch.setattr(dpg, "_index_order_blossom", no_step)
        message = "3126 steps from 4837 vertices could record 20007963 degree entries, over the trace cap 20000000"
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            grow(Graph(self.N0), self.STEPS + 1, delta_policy, 0, "first")

    def test_long_steps_are_shown_short(self):
        with pytest.raises(CapExceededError) as info:
            grow(cycle(3), 10**4000, "fixed:2", 0, "first")
        assert len(str(info.value)) < 150, str(info.value)

    def test_not_exported(self):
        assert "TRACE_CAP" not in dpg.__all__


class TestTraceSerialization:
    def test_csv_layout(self):
        trace = grow(cycle(3), 2, delta_policy="fixed:2", rng_seed=0)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "step_index,delta,new_vertex,n,m"
        first = lines[1].split(",")
        assert first == ["0", "2", "3", "4", "4"]

    def test_json_round_trip(self):
        trace = grow(cycle(6), 3, delta_policy="random", rng_seed=11)
        payload = json.loads(trace.to_json())
        assert payload["seed"]["n"] == 6 and payload["seed"]["m"] == 6
        assert len(payload["steps"]) == 3
        for rec, step in zip(payload["steps"], trace.steps):
            assert rec["delta"] == step.delta
            assert [tuple(e) for e in rec["removed_matching"]] == list(step.removed_matching)


def never_called(g, size, rng):
    """A callable in place of a matching policy, which must be refused."""
    pytest.fail("a callable matching policy was called")


def gnm_graph(n, m, seed):
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, frozenset(random.Random(seed).sample(pairs, m)))


GOLDEN_SEEDS = {"cycle": cycle(9), "windmill": windmill(3, 3), "gnm": gnm_graph(30, 60, 3)}

# sha256 of grow(seed, 12, delta_policy, 2024, matching_policy).to_json(),
# recorded when the random policy still ran blossom on a relabelled copy
GROWTH_SHA256 = {
    ("cycle", "fixed:2", "random"): "6f662e76feee9a771e5123d667c796b09497dc3e1c3fb57563613637490ed66b",
    ("cycle", "fixed:2", "first"): "fe16b0dbf51614a8f8dfafe5efb919c4a6f7f5040ccddd376fc097e9e9d295be",
    ("cycle", "fixed:2", "max-degree"): "937e3dff01956221eb8efcdf72ec689ada75a0f475b619edd8f4ffd0cb6f87ee",
    ("cycle", "fixed:4", "random"): "8059d904d7e5ad5180a648eec339a46c2f9b0db1828e84305ef60c292bd512d3",
    ("cycle", "fixed:4", "first"): "9c97f64e1884d8dca9a0272f3023dc12228a220398c4821d80fd71f8ffd1d118",
    ("cycle", "fixed:4", "max-degree"): "a6af02fccc5fc26dc72ca515f8aa61f53647d604670a1010010c593d39cf72ff",
    ("cycle", "max", "random"): "7864e0810cddb78bcf93a2d04ea2f170fb19348a64105643dded29e651c9e41e",
    ("cycle", "max", "first"): "a44f2e551b6064aa8b27a4c3a6455f57db1d9e5443dae769d6ded163c24a2c17",
    ("cycle", "max", "max-degree"): "658fe00680c96a7ba90842fb2f1b53a59f8e58f1f0602f7afd8f5eb36753c5a1",
    ("cycle", "random", "random"): "36308aa1affa41b83619b62585864f3cf7cebadd109cd1a4ea663aeaed61c936",
    ("cycle", "random", "first"): "bdd5ceb9ab4896bfe09ec85a123cfb3bbfbcdadf61bc479d7229c33b30806fe0",
    ("cycle", "random", "max-degree"): "42d9ec1f2263aea65110dfc6e02e8c63df1197a9bb74ff72b36738f156e2873e",
    ("windmill", "fixed:2", "random"): "6786e79d13b250a75ecfe4b506ec0f0d80e26174c5ad448a22a4a2d2d2f73267",
    ("windmill", "fixed:2", "first"): "8cd8ae569d12e4f9ff647a7dc480f77c65aa572f938a491ecacca63e0a4e4cfe",
    ("windmill", "fixed:2", "max-degree"): "28cee034f46daaa4d76fda6f3feadce2e93372e746237c8e6a44b6c2c8e1f423",
    ("windmill", "fixed:4", "random"): "cc9174dc3ff52b6e312f96144445408115eee159fdfbe8f303299020d755f7d4",
    ("windmill", "fixed:4", "first"): "ebd7b356d9455171efe42ef307b6b940bcc8a1cbb1dcf2b0bf37a2a6dfa982d9",
    ("windmill", "fixed:4", "max-degree"): "665372de3cfdced082cf46708aa5e7b643e885b40d2c0b6c4e7ae7f41dae4970",
    ("windmill", "max", "random"): "902a950b571c52dc977a4ee470b3bc4bf086456e50990af47ddafd997a5ca8ba",
    ("windmill", "max", "first"): "7f177ead868d79b3dab6dffab3813baa4df19b2051ff3a6410cf9fd9db863ea1",
    ("windmill", "max", "max-degree"): "7f177ead868d79b3dab6dffab3813baa4df19b2051ff3a6410cf9fd9db863ea1",
    ("windmill", "random", "random"): "2d0bbf93b493b007a77f884e768462f75ddd43f7d3bd3c802d0e83805833a67c",
    ("windmill", "random", "first"): "812df925b8620bf086e355b55df095f9cf8e5c6e55b7a21aedef68f40799afa6",
    ("windmill", "random", "max-degree"): "bdd3d19343dbe08e712a7b3a107c3cf07d1ccd77378257cd1cdd35426253ca10",
    ("gnm", "fixed:2", "random"): "8916bc9880266d6e79965466e7a48286ac864d4278d867cf037f233e75407430",
    ("gnm", "fixed:2", "first"): "c73b29ca944eacc834aa5e7f80140fd358247696776729daf128dc79b97ccb79",
    ("gnm", "fixed:2", "max-degree"): "030cea4f2ebdf58e10962a46f809c2d1808e030d7af5c18152c81fc3fe61236c",
    ("gnm", "fixed:4", "random"): "45a5cdcb0f9ff7bd7a97fcdc0ddf4a24a6d38cfa7f5d927a9b122a86ac8abadb",
    ("gnm", "fixed:4", "first"): "7040a4ef94ab97ca405c0d4b38d43102803e5043f6af9d5f8a2dfc9ddf1b9904",
    ("gnm", "fixed:4", "max-degree"): "b111a28bc941473429383248421b492def053b71aa46079f1e2fff778b150187",
    ("gnm", "max", "random"): "d98cfea756291315e4421b0d98c9e603f38a25867759b6627ff1bf480faddbe4",
    ("gnm", "max", "first"): "b4040baa00ed3a3d3549df97fdcc93009d3c6686c4c4e82ca194eb268a31d2a8",
    ("gnm", "max", "max-degree"): "b4040baa00ed3a3d3549df97fdcc93009d3c6686c4c4e82ca194eb268a31d2a8",
    ("gnm", "random", "random"): "dbb70a4d111a0aa4ad5fce4c003588fd6e842b69db295af32eadd65b10552c9b",
    ("gnm", "random", "first"): "4a0fe103f9ef87f9da465c547ed1e61459defad696ef7824567f03f44694fcf0",
    ("gnm", "random", "max-degree"): "2c2a747b1ac2e42642660e509938158339f05d9d9204232b0e49c6299c29e207",
}


class TestGoldenGrowth:
    """Seeded traces stay byte-identical under every pair of policies,
    the random matching policy included."""

    @pytest.mark.parametrize("key", sorted(GROWTH_SHA256), ids="/".join)
    def test_trace_digest(self, key):
        seed, delta_policy, matching_policy = key
        trace = grow(GOLDEN_SEEDS[seed], 12, delta_policy, 2024, matching_policy)
        assert hashlib.sha256(trace.to_json().encode()).hexdigest() == GROWTH_SHA256[key]


class TestMaxDeltaIsTwiceNu:
    """Under the max delta policy every step takes delta = 2 nu, so each
    delta must equal twice the oracle's matching number of the graph the
    step started from, replayed from the trace. Each policy takes nu from
    its own matching search."""

    @staticmethod
    def assert_delta_is_twice_nu(g, trace):
        for rec in trace.steps:
            assert rec.delta == 2 * max_matching(g).size, rec.step_index
            g = pinch(g, Matching(frozenset(rec.removed_matching), g.vertex_count))
        assert g == trace.final_graph

    @pytest.mark.parametrize("matching_policy", ["random", "max-degree"])
    @pytest.mark.parametrize(
        "seed",
        [gnm_graph(30, 60, 3), gnm_graph(61, 122, 4), cycle(9), cycle(10), half_graph(8), half_graph(14),
         windmill(3, 3)],
        ids=lambda g: f"n{g.vertex_count}m{g.m}",
    )
    def test_seeds(self, seed, matching_policy):
        for rng_seed in range(3):
            trace = grow(seed, 12, "max", rng_seed, matching_policy)
            assert len(trace.steps) == 12
            self.assert_delta_is_twice_nu(seed, trace)

    def test_c6_chain(self):
        # the greedy pass falls short at 298 of the 300 steps, so nearly
        # every step's pool is the index-order run that gave its nu
        trace = grow(cycle(6), 300, "max", 7, "max-degree")
        assert len(trace.steps) == 300
        self.assert_delta_is_twice_nu(cycle(6), trace)


class TestOneBlossomPerStep:
    """Under fixed: and max each step's own matching search gives nu: one
    index-order run under `first`, one run in the shuffled vertex order
    under `random`. `max-degree` runs the greedy pass first; under
    fixed: only a shortfall runs the index-order blossom, which both decides
    feasibility and gives the fallback pool, and under max one index-order
    run gives nu and the pool. Under the random delta policy nu must be
    known before delta is drawn, so every step runs the index-order blossom
    first and hands its partner list to the policy: `first` and
    `max-degree` run no second blossom."""

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        kernel = graphs._index_order_blossom
        ranked = graphs._ranked_blossom
        greedy = graphs._greedy_matching

        def counting_kernel(adj):
            runs.append("index")
            return kernel(adj)

        def counting_ranked(adj, rank):
            runs.append("ordered")
            return ranked(adj, rank)

        def counting_greedy(n, edges, size=None):
            pool = greedy(n, edges, size)
            runs.append("greedy" if len(pool) == size else "greedy short")
            return pool

        monkeypatch.setattr(dpg, "_index_order_blossom", counting_kernel)
        monkeypatch.setattr(dpg, "_ranked_blossom", counting_ranked)
        monkeypatch.setattr(dpg, "_greedy_matching", counting_greedy)
        return runs

    @staticmethod
    def greedy_with_fallbacks(runs, fallback):
        """For each greedy pass in ``runs``, that pass and, if it fell short,
        one ``fallback`` run."""
        passes = [run for run in runs if run.startswith("greedy")]
        return [[run] + [fallback] * (run == "greedy short") for run in passes]

    @pytest.mark.parametrize("delta_policy", ["fixed:2", "fixed:4", "max"])
    @pytest.mark.parametrize("matching_policy", ["random", "first", "max-degree"])
    def test_runs_per_step(self, runs, delta_policy, matching_policy):
        trace = grow(gnm_graph(40, 80, 5), 10, delta_policy, 1, matching_policy)
        steps = len(trace.steps)
        assert steps == 10
        if matching_policy == "first":
            assert runs == ["index"] * steps
        elif matching_policy == "random":
            assert runs == ["ordered"] * steps
        elif delta_policy == "max":
            # on this seed the greedy pass falls short of nu edges at every step
            assert runs == ["index", "greedy short"] * steps
        else:
            # and it fills delta/2 at every fixed: step, so no blossom runs
            assert runs == ["greedy"] * steps

    @pytest.mark.parametrize(
        "seed, delta_policy, shortfalls",
        [(cycle(10), "fixed:8", 5), (half_graph(8), "fixed:8", 6), (half_graph(14), "fixed:12", 7)],
        ids=["C10", "H8", "H14"],
    )
    def test_max_degree_runs_blossom_only_when_the_greedy_pass_falls_short(self, runs, seed, delta_policy,
                                                                          shortfalls):
        trace = grow(seed, 12, delta_policy, 1, "max-degree")
        assert len(trace.steps) == 12
        assert runs.count("greedy short") == shortfalls and runs.count("greedy") == 12 - shortfalls
        assert runs == [run for step in self.greedy_with_fallbacks(runs, "index") for run in step]

    def test_a_shortfall_decides_the_halt(self, runs):
        # C8's greedy pass falls short of four edges at the third step, and
        # the index-order run finds nu = 3 there
        trace = grow(cycle(8), 12, "fixed:8", 1, "max-degree")
        assert len(trace.steps) == 2 and trace.halted_early
        assert runs == ["greedy", "greedy", "greedy short", "index"]

    @pytest.mark.parametrize("matching_policy", ["random", "first", "max-degree"])
    def test_random_delta_runs_index_order_first(self, runs, matching_policy):
        trace = grow(gnm_graph(40, 80, 5), 10, "random", 2, matching_policy)
        steps = len(trace.steps)
        assert steps == 10
        if matching_policy == "random":
            assert runs == ["index", "ordered"] * steps
        elif matching_policy == "max-degree":
            # under this seed the greedy pass falls short at four of the steps,
            # and falls back to the partner list of the step's index-order run
            passes = [run for run in runs if run.startswith("greedy")]
            assert runs == [run for greedy in passes for run in ("index", greedy)]
            assert len(passes) == steps and runs.count("greedy short") == 4
        else:
            # first pinches the lowest edges of that run
            assert runs == ["index"] * steps


def graph_of_lists(adj):
    """A validated graph with these neighbor lists, which must be sorted."""
    assert all(list(nbrs) == sorted(nbrs) for nbrs in adj)
    return Graph(len(adj), frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs))


def max_degree_order(edges, deg):
    """The edges in the max-degree policy's order: higher degree sum first,
    then (u, v), which the stable sort keeps from the first one."""
    return sorted(sorted(edges), key=lambda e: -deg[e[0]] - deg[e[1]])


class TestCarriedEdgeOrder:
    """Under max-degree, grow keeps g's edges in max-degree order for the
    whole run instead of sorting them at every step. The list it hands
    each step must be exactly that order on the step's graph, and the step
    must equal a standalone dp_step, which sorts the edges itself."""

    @pytest.mark.parametrize("delta_policy", ["fixed:2", "fixed:4", "max", "random"])
    @pytest.mark.parametrize(
        "seed, steps",
        [(gnm_graph(30, 60, 3), 12), (gnm_graph(61, 122, 4), 12), (cycle(9), 12), (cycle(10), 12),
         (half_graph(8), 12), (half_graph(14), 12), (windmill(3, 3), 12), (cycle(6), 300)],
        ids=lambda x: f"n{x.vertex_count}m{x.m}" if isinstance(x, Graph) else f"{x}steps",
    )
    def test_order_at_every_step(self, monkeypatch, seed, steps, delta_policy):
        reads = []
        # the graphs of about a dozen steps, for a standalone step each
        sampled = {}
        select = dpg._select_matching

        def spy(adj, size, seed, **kwargs):
            # grow passes its state, which later steps change in place
            edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if v > u]
            deg = [len(nbrs) for nbrs in adj]
            assert [e[1:] for e in kwargs["edge_order"]] == max_degree_order(edges, deg), len(reads)
            if len(reads) % (steps // 12) == 0:
                sampled[len(reads)] = graph_of_lists(adj)
            reads.append(kwargs["edge_order"])
            return select(adj, size, seed, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dpg, "_select_matching", spy)
            trace = grow(seed, steps, delta_policy, 5, "max-degree")
        assert len(reads) == len(trace.steps) > 0
        # the list after the last step, which no step read
        final = trace.final_graph
        assert [e[1:] for e in reads[-1]] == max_degree_order(final.edges, final.degrees())
        for idx, g in sampled.items():
            rec = trace.steps[idx]
            assert dp_step(g, rec.delta, "max-degree", 0, step_index=idx)[1] == rec


class TestInPlaceState:
    """grow pinches in place on its own neighbor lists and degree lists
    and builds one graph, at the end. Replaying each trace through the
    public pinch must give every record, and the final graph must equal
    the validated rebuild, its adjacency and degrees included. Under first
    and max-degree, which draw nothing from the rng, each record must also
    equal a standalone dp_step's."""

    MATCHING_POLICIES = ["random", "first", "max-degree"]

    @staticmethod
    def assert_replays(seed, trace, matching_policy, every):
        g = seed
        for idx, rec in enumerate(trace.steps):
            assert rec.step_index == idx and rec.new_vertex == g.vertex_count
            assert rec.removed_matching == tuple(sorted(rec.removed_matching))
            grown = pinch(g, Matching(frozenset(rec.removed_matching), g.vertex_count))
            assert rec.delta == 2 * len(rec.removed_matching) == grown.degrees()[-1]
            assert rec.resulting_degree_sequence == tuple(sorted(grown.degrees(), reverse=True)), idx
            if matching_policy in ("first", "max-degree") and idx % every == 0:
                assert dp_step(g, rec.delta, matching_policy, 0, step_index=idx)[1] == rec
            g = grown
        rebuilt = Graph(g.vertex_count, g.edges)
        final = trace.final_graph
        assert final == rebuilt
        assert final.adjacency() == rebuilt.adjacency()
        assert final.degrees() == rebuilt.degrees()

    @pytest.mark.parametrize("matching_policy", MATCHING_POLICIES)
    @pytest.mark.parametrize("delta_policy", ["fixed:2", "fixed:4", "max", "random"])
    @pytest.mark.parametrize("seed", ["cycle", "windmill", "gnm", "gnm61"])
    def test_seeds(self, seed, delta_policy, matching_policy):
        g = GOLDEN_SEEDS[seed] if seed in GOLDEN_SEEDS else gnm_graph(61, 122, 4)
        trace = grow(g, 12, delta_policy, 2024, matching_policy)
        assert trace.steps
        self.assert_replays(g, trace, matching_policy, 1)

    @pytest.mark.parametrize("matching_policy", MATCHING_POLICIES)
    @pytest.mark.parametrize("delta_policy", ["fixed:2", "fixed:4", "max", "random"])
    def test_c6_chain(self, delta_policy, matching_policy):
        trace = grow(cycle(6), 300, delta_policy, 7, matching_policy)
        assert len(trace.steps) == 300
        self.assert_replays(cycle(6), trace, matching_policy, 25)
