"""The three seeded workloads.

A workload is an endless series of rounds. Round ``r`` of workload ``w``
under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{r}")``, so the same
seed always gives the same inputs. Every round has the same fixed
composition (how many queries of each kind, size and class), so the mix of
cheap and expensive queries does not depend on the seed; only the inputs
inside each class do. Each query is one closed-loop call into degmatch; its
check runs after the call, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

# Program functions are called through their modules, so that the tracer's
# wrappers (installed on the module attributes) see every call.
from degmatch import bounds, cli, dpg, enumeration, families, graphs
from degmatch.enumeration import ConjectureRow, rows_to_csv
from degmatch.graphs import Graph
from degmatch.sequences import DegreeSequence

from checks import (
    check_matching,
    check_simple_realization,
    eg_fails_at,
    eg_graphic,
    expect,
    extension_degree_max,
    greedy_maximal_size,
    hh_graphic,
    hh_realize,
    replay_growth,
    sha,
)

DATA = Path(__file__).resolve().parent / "data"
SCAN_CAP = 56  # 8 * 7, the degree-sum cap conjecture_scan derives for n_max = 8


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    # Raises WrongAnswer on a wrong answer; returns the canonical output that
    # goes into the digest, or None when the output is left out of it.
    check: Callable[[Any], str | None]
    per_step: bool = False


# ---------------------------------------------------------------- sequence-queries

COMMANDS = ("check", "realize", "bounds", "nu-star", "extend")


def gnm_degrees(n: int, m: int, rng: random.Random) -> list[int]:
    return degree_list(n, gnm_edges(n, m, rng))


def gnm_edges(n: int, m: int, rng: random.Random) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return edges


def degree_list(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def parity_flip(degs: list[int], rng: random.Random) -> list[int]:
    out = list(degs)
    i = rng.randrange(len(out))
    out[i] += 1 if out[i] < len(out) - 1 else -1
    return out


def eg_violation(degs: list[int], rng: random.Random) -> list[int]:
    """Two vertices of degree n-1 next to a vertex of degree 1: EG fails at k=2."""
    n = len(degs)
    out = sorted(degs, reverse=True)
    out[0] = out[1] = n - 1
    out[-1] = 1
    if sum(out) % 2:
        out[-2] = out[-2] - 1 if out[-2] > 1 else out[-2] + 1
    rng.shuffle(out)
    return out


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage error
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    return call


def cli_canon(res) -> str:
    rc, out, err = res
    code = err.split(":", 1)[0] if err.startswith("ERROR ") else ""
    return f"{rc}|{out}|{code}"


def expect_error(res, code: str) -> str:
    rc, _, err = res
    expect(rc == 1 and err.startswith(f"ERROR {code}:"), f"expected ERROR {code}, got rc={rc} {err[:80]!r}")
    return cli_canon(res)


def matching_number_witness(degs_desc: list[int]) -> tuple[set, int, int]:
    """Our HH realization, a verified maximum matching size from the
    program's matcher, and our greedy maximal matching size."""
    edges = hh_realize(degs_desc)
    expect(edges is not None, "HH cannot realize a sequence the program answered for")
    edge_set = set(edges)
    m = graphs.max_matching(Graph(len(degs_desc), frozenset(edges)))
    check_matching(edge_set, m.edges)
    return edge_set, m.size, greedy_maximal_size(edge_set)


def sequence_query(cmd: str, degs: list[int], rng: random.Random) -> Query:
    d = sorted(degs, reverse=True)
    argv = [cmd, "--seq=" + ",".join(map(str, degs)), "--format", "json"]
    delta = 2 * rng.randint(1, len(degs) // 2)
    if cmd == "extend":
        argv += ["--delta", str(delta)]

    def check(res):
        rc, out, _ = res
        if cmd == "check":
            rec = json.loads(out)
            graphic = hh_graphic(d)
            expect(rec["is_graphic"] is graphic and rc == (0 if graphic else 1), "EG verdict differs from HH")
            expect(rec["parity_ok"] is (sum(d) % 2 == 0), "parity flag wrong")
            if not graphic and rec["parity_ok"]:
                expect(eg_fails_at(d, rec["failing_k"]), f"EG does not fail at k={rec['failing_k']}")
            return cli_canon(res)
        if rc != 0:
            expect(not eg_graphic(d), f"{cmd} refused a graphic sequence")
            return expect_error(res, "NOT_GRAPHIC")
        rec = json.loads(out)
        if cmd == "realize":
            edges = [tuple(map(int, e.split("-"))) for e in rec["edges"].split(";") if e]
            expect(rec["n"] == len(d) and rec["m"] == len(edges), "realize size fields wrong")
            check_simple_realization(len(d), edges, d)
        elif cmd == "bounds":
            _, nu, greedy = matching_number_witness(d)
            nu_star = extension_degree_max(d) // 2
            expect(rec["n"] == len(d) and rec["m"] == sum(d) // 2, "bounds size fields wrong")
            expect(max(rec["k_star"], rec["ell_star"]) <= greedy, "k* or ell* above a maximal matching")
            expect(max(rec["noP3"], rec["posa"], rec["vizing_ceil"]) <= nu <= nu_star,
                   "noP3 <= nu(realization) <= nu* fails")
            expect(rec["zeros_stripped"] is (0 in d), "zeros_stripped wrong")
        elif cmd == "nu-star":
            _, nu, _ = matching_number_witness(d)
            expect(rec["delta_star"] == 2 * rec["nu_star"], "delta* != 2 nu*")
            expect(rec["delta_star"] == extension_degree_max(d), "delta* is not the largest graphic extension")
            expect(nu <= rec["nu_star"], "a realization has a matching larger than nu*")
        else:
            expect(rec["delta"] == delta, "extend echoed the wrong delta")
            expect(rec["feasible"] is hh_graphic(d + [delta]), "extend disagrees with HH on the augmented sequence")
        return cli_canon(res)

    return Query(cmd, cli_call(argv), check)


def malformed_query(argv: list[str]) -> Query:
    """Malformed input must end in a coded ERROR VALIDATION exit."""
    return Query("malformed", cli_call(argv), lambda res: expect_error(res, "VALIDATION"))


def sequence_round(rng: random.Random, workdir: Path, tag: str) -> list[Query]:
    """104 queries, in cost blocks (at this commit) placed so that the p50
    and p90 ranks fall inside a block of similar queries, not in a gap:

    * 40: all five commands on gnm(n, 4n) for n = 100, 200, 400, 800, on
      r-regular sequences for n = 100, 200, 400, and on a skewed
      (n-1)^k, k^(n-k) sequence with n = 800 (the 799^10,10^790 kind);
      the six slowest of these (over 100 ms) sit above p90;
    * 8: realize on further gnm(400, 1600) sequences, the block around p90;
    * 32: check and extend on further gnm sequences, four per size, which
      with the rejections below hold p50;
    * 12 non-graphic: parity flips and Erdos-Gallai violations;
    * 12 malformed: bad tokens, and bounds --graph files with a bad n header.
    """
    sizes = (100, 200, 400, 800)
    graphic = [gnm_degrees(n, 4 * n, rng) for n in sizes]
    graphic += [[rng.randint(3, 8)] * n for n in (100, 200, 400)]
    k = rng.choice((6, 8, 10, 12))
    graphic.append([799] * k + [k] * (800 - k))
    mid = [gnm_degrees(400, 1600, rng) for _ in range(8)]
    light = [gnm_degrees(n, 4 * n, rng) for n in sizes for _ in range(4)]
    for degs in graphic + mid + light:
        rng.shuffle(degs)
    queries = [sequence_query(cmd, degs, rng) for degs in graphic for cmd in COMMANDS]
    queries += [sequence_query("realize", degs, rng) for degs in mid]
    queries += [sequence_query(cmd, degs, rng) for degs in light for cmd in ("check", "extend")]
    bad = [flip(light[i], rng) for flip in (parity_flip, eg_violation) for i in range(0, 16, 3)]
    queries += [sequence_query(COMMANDS[i % 5], degs, rng) for i, degs in enumerate(bad)]
    small = [str(x) for x in gnm_degrees(12, 20, rng)]
    for i, token in enumerate(("x", "", "2.5", "-1", "1e3", "+")):
        cmd = COMMANDS[i % 5]
        toks = list(small)
        toks[rng.randrange(len(toks))] = token
        extra = ["--delta", "2"] if cmd == "extend" else []
        queries.append(malformed_query([cmd, "--seq=" + ",".join(toks), "--format", "json", *extra]))
    body = "".join(f"{u} {v}\n" for u, v in sorted(gnm_edges(10, 15, rng)))
    headers = (
        "n " + rng.choice(("abc", "x7", "ten")),  # a non-integer count
        f"n {rng.randint(10, 20)}.5",  # a non-integer count
        f"n 0x{rng.randint(10, 20):x}",  # a non-integer count
        f"n {rng.randint(10, 20)} {rng.randint(1, 9)}",  # an extra field
        f"n -{rng.randint(1, 9)}",  # a negative count
        f"n {rng.randint(3, 8)}",  # fewer vertices than the edges use
    )
    for j, header in enumerate(headers):
        path = workdir / f"{tag}-{j}.txt"
        path.write_text(f"# seeded bad header\n{header}\n{body}")
        queries.append(malformed_query(["bounds", "--graph", str(path), "--format", "json"]))
    return queries


# ---------------------------------------------------------------- growth

DELTA_POLICIES = ("fixed:2", "fixed:4", "max")
MATCHING_POLICIES = ("random", "first", "max-degree")


def cycle_edges(n: int) -> set:
    return {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}


def circulant_edges(n: int, r: int) -> set:
    edges = set()
    for i in range(n):
        for off in range(1, r // 2 + 1):
            j = (i + off) % n
            edges.add((min(i, j), max(i, j)))
    return edges


def half_graph_edges(n: int) -> set:
    half = n // 2
    return {
        (i - 1, j - 1)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i <= half and j <= half) or i + half <= j
    }


def grow_query(seed, n0: int, edges0: set, steps: int, delta_policy: str, matching_policy: str,
               rng: random.Random) -> Query:
    """``seed`` is a prebuilt Graph, or (kind, params) built with make_family inside the call."""
    rng_seed = rng.randrange(2**31)
    if isinstance(seed, Graph):
        call = lambda: dpg.grow(seed, steps, delta_policy, rng_seed, matching_policy)  # noqa: E731
    else:
        kind, params = seed
        call = lambda: dpg.grow(families.make_family(kind, **params), steps, delta_policy, rng_seed, matching_policy)  # noqa: E731

    def check(trace):
        replay_growth(n0, edges0, trace, delta_policy)
        if len(trace.steps) < steps:
            final = trace.final_graph
            m = graphs.max_matching(final)
            check_matching(set(final.edges), m.edges)
            need = int(delta_policy.split(":")[1]) if delta_policy.startswith("fixed:") else 2
            expect(2 * m.size < need, "growth halted while a feasible delta remained")
        return None if matching_policy == "random" else trace.to_json()

    return Query("grow", call, check, per_step=True)


def growth_round(rng: random.Random, workdir: Path, tag: str) -> list[Query]:
    """64 grow calls, in cost blocks (at this commit) placed so that the p50
    and p90 ranks fall inside a block of similar calls:

    * 3 above p90: gnm(800, 1600) with fixed:4, gnm(400, 800) with max, and a
      300-step fixed:4 chain from a cycle of 5 to 8 vertices;
    * 7 around p90: gnm(400, 800) with fixed:2 and fixed:4 under each
      matching policy, and a 200-step fixed:2 chain;
    * 54 below: gnm(200, 400) under each of the nine policy pairs, three
      times, and cycle, circulant and half-graph seeds built with
      make_family inside the call, under each delta policy, three times.

    Every call but the chains runs 20 steps.
    """
    combos = [(dp, mp) for dp in DELTA_POLICIES for mp in MATCHING_POLICIES]
    plan = [(200, dp, mp) for dp, mp in combos] * 3
    plan += [(400, dp, mp) for dp in ("fixed:2", "fixed:4") for mp in MATCHING_POLICIES]
    plan += [(400, "max", "max-degree"), (800, "fixed:4", "first")]
    queries = []
    for n, dp, mp in plan:
        edges = gnm_edges(n, 2 * n, rng)
        queries.append(grow_query(Graph(n, frozenset(edges)), n, edges, 20, dp, mp, rng))
    for _ in range(3):
        for i, family in enumerate(("cycle", "regular-circulant", "half-graph")):
            for j, dp in enumerate(DELTA_POLICIES):
                mp = MATCHING_POLICIES[(i + j) % 3]
                if family == "cycle":
                    n = rng.randint(30, 60)
                    params, edges = {"n": n}, cycle_edges(n)
                elif family == "regular-circulant":
                    n, r = rng.randint(100, 200), rng.choice((4, 6))
                    params, edges = {"n": n, "r": r}, circulant_edges(n, r)
                else:
                    n = 2 * rng.randint(20, 40)
                    params, edges = {"n": n}, half_graph_edges(n)
                queries.append(grow_query((family, params), n, edges, 20, dp, mp, rng))
    for steps, dp, mp in ((300, "fixed:4", "first"), (200, "fixed:2", "random")):
        n = rng.randint(5, 8)
        queries.append(grow_query(("cycle", {"n": n}), n, cycle_edges(n), steps, dp, mp, rng))
    return queries


# ---------------------------------------------------------------- scan

UNEQUAL_AT_7 = 5
F3 = (6, 2, 2, 2, 2, 2, 2)


def load_universe() -> dict[tuple[int, ...], list[int]]:
    """Every positive graphic sequence with n <= 8 -> [realization count] at
    n < 8, [count, nu_bar, ell*, k*] at n = 8, as computed at the commit that
    defined this benchmark."""
    raw = json.loads((DATA / "scan_universe.json").read_text())
    return {tuple(map(int, key.split(","))): value for key, value in raw.items()}


# Realization-count strata; a row's cost grows with its count.
STRATA = ((0, 30), (30, 300), (300, 1000), (1000, 3000))
# Seeded draws per round, chosen (at this commit) so that p50 falls among
# the 148 stratum-A rows and stratum-A/B enumerations of a 199-query run,
# and p90 among the 18 calls of 0.13-0.25 s (the fixed stratum-C rows and
# the heavy enumerations).
ROWS_PER_STRATUM = (24, 6, 0, 1)
ENUMS_PER_STRATUM = (20, 30, 6, 2)
# Stratum-C rows cost 0.07 s to 0.5 s each and hold the p90 rank; drawing
# them moved p90 by 20% between seeds, so every round runs the same ones,
# spread evenly over the stratum by realization count.
FIXED_C_ROWS = 8


def stratum_members(universe, n_only: int | None):
    out = []
    for lo, hi in STRATA:
        out.append(sorted(d for d, v in universe.items() if lo <= v[0] < hi and (n_only is None or len(d) == n_only)))
    return out


def heavy_row(universe) -> tuple[int, ...]:
    """The n = 8 row with the median realization count among those with at
    least 3000 (0.9 s to 7.4 s per row at this commit). Sampling those rows
    would let one draw outweigh the rest of a run, so every round runs this
    same one."""
    heavy = sorted((v[0], d) for d, v in universe.items() if len(d) == 8 and v[0] >= STRATA[-1][1])
    return heavy[len(heavy) // 2][1]


def count_bins(members, universe, k: int) -> list[list[tuple[int, ...]]]:
    """``members`` in k bins of equal size by realization count."""
    by_count = sorted(members, key=lambda d: (universe[d][0], d))
    return [by_count[i * len(by_count) // k:(i + 1) * len(by_count) // k] for i in range(k)]


def fixed_rows(members, universe, k: int) -> list[tuple[int, ...]]:
    return [b[len(b) // 2] for b in count_bins(members, universe, k)]


def spread_sample(members, universe, k: int, rng: random.Random) -> list[tuple[int, ...]]:
    """One draw from each of k count bins: every seed gets other sequences
    but the same spread of costs, so a percentile does not move with the
    luck of a draw (plain draws moved p50 by 20% between seeds)."""
    return [rng.choice(b) for b in count_bins(members, universe, k)]


def greedy_upper_bound(d) -> int:
    return greedy_maximal_size(hh_realize(list(d)))


def scan7_query(universe, csv_digest: str) -> Query:
    """The n = 7 scan takes no seed, so its CSV is compared with the digest
    stored at the commit that defined this benchmark on every call."""
    expected = sorted(d for d in universe if len(d) <= 7)

    def check(rows):
        seqs = [r.sequence.degrees for r in rows]
        expect(len(rows) == 341 and sorted(seqs) == expected, "scan rows are not the 341 graphic sequences with n <= 7")
        for r in rows:
            expect(r.nu_bar_d >= max(r.ell_star, r.k_star), f"nu_bar below a bound on {r.sequence}")
            expect(r.equal is (r.nu_bar_d == r.ell_star), f"equal flag wrong on {r.sequence}")
            expect(r.nu_bar_d <= greedy_upper_bound(r.sequence.degrees), f"nu_bar above a maximal matching on {r.sequence}")
        unequal = {r.sequence.degrees: r.nu_bar_d for r in rows if r.nu_bar_d > r.ell_star}
        expect(len(unequal) == UNEQUAL_AT_7 and unequal.get(F3) == 3, f"unequal rows {sorted(unequal)}")
        csv = rows_to_csv(rows)
        expect(sha(csv) == csv_digest, "scan CSV differs from the stored digest")
        return csv

    return Query("scan7", lambda: enumeration.conjecture_scan(7), check)


def row_query(d: tuple[int, ...], universe) -> Query:
    seq = DegreeSequence(d)

    def call():
        nb = enumeration.nu_bar_sequence(seq, max_n=8, max_degree_sum=SCAN_CAP)
        ell = bounds.gale_ryser_bound(seq)
        ks = bounds.maximality_bound(seq)
        return ConjectureRow(seq, nb, ell, ks, nb == ell)

    def check(row):
        got = [row.nu_bar_d, row.ell_star, row.k_star]
        expect(got == universe[d][1:], f"row {d}: got {got}, stored {universe[d][1:]}")
        expect(row.nu_bar_d <= greedy_upper_bound(d), f"row {d}: nu_bar above a maximal matching")
        return f"{seq.to_text()};{';'.join(map(str, got))}"

    return Query("nu_bar", call, check)


def enumerate_query(d: tuple[int, ...], universe) -> Query:
    seq = DegreeSequence(d)

    def check(graphs):
        keys = []
        for g in graphs:
            edges = sorted(g.edges)
            check_simple_realization(g.vertex_count, edges, d)
            keys.append(";".join(f"{u}-{v}" for u, v in edges))
        expect(len(set(keys)) == len(keys), f"{d}: repeated realization")
        expect(len(keys) == universe[d][0], f"{d}: {len(keys)} realizations, stored {universe[d][0]}")
        return "\n".join(sorted(keys))

    return Query("enumerate", lambda: list(enumeration.enumerate_realizations(seq, max_n=8, max_degree_sum=SCAN_CAP)), check)


class ScanPlan:
    def __init__(self) -> None:
        self.universe = load_universe()
        self.rows = stratum_members(self.universe, 8)
        self.enums = stratum_members(self.universe, None)
        self.heavy = heavy_row(self.universe)
        self.fixed_c = fixed_rows(self.rows[2], self.universe, FIXED_C_ROWS)
        self.scan7_digest = json.loads((DATA / "digests.json").read_text())["scan7"]
        self.scan7_due = True

    def round(self, rng: random.Random, workdir: Path, tag: str) -> list[Query]:
        """40 n = 8 rows and 59 enumerations, after one n = 7 scan in the
        first round only: the scan takes no seed, and one in every round
        would take a quarter of the run."""
        u = self.universe
        queries = [scan7_query(u, self.scan7_digest)] if self.scan7_due else []
        self.scan7_due = False
        for members, k in zip(self.rows, ROWS_PER_STRATUM):
            queries += [row_query(d, u) for d in spread_sample(members, u, k, rng)]
        queries += [row_query(d, u) for d in (*self.fixed_c, self.heavy)]
        for members, k in zip(self.enums, ENUMS_PER_STRATUM):
            queries += [enumerate_query(d, u) for d in spread_sample(members, u, k, rng)]
        queries.append(enumerate_query(self.heavy, u))
        return queries


def make_round_source(workload: str) -> Callable[[random.Random, Path, str], list[Query]]:
    if workload == "sequence-queries":
        return sequence_round
    if workload == "growth":
        return growth_round
    return ScanPlan().round


def rounds(workload: str, seed: int, workdir: Path) -> Iterator[list[Query]]:
    make = make_round_source(workload)
    r = 0
    while True:
        yield make(random.Random(f"{workload}:{seed}:{r}"), workdir, f"s{seed}r{r}")
        r += 1
