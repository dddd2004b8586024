"""The package's checks at scale: one test per check, each marked ``scale``.

These checks take seconds to minutes, so the default run leaves them out
(``addopts`` in ``pyproject.toml``); CI runs them, and so can anyone, with

    PYTHONPATH=src python -m pytest -q -m scale

Each test passes alone and in any order: its inputs are written under
pytest's temporary directory, once per session, and nothing is written into
the checkout. A command-line check runs ``python -m degmatch.cli`` in a fresh
interpreter (``cli``), killed after its time limit; a check made in process
asserts its own elapsed time (``within``). The time limits are those CI has
always held each check to. Measurements quoted below were taken on a shared
2-vCPU Xeon VM unless said otherwise.
"""

import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import degmatch
from degmatch import (
    Matching,
    all_graphic_sequences,
    conjecture_scan,
    count_realizations,
    cycle,
    extension_feasible,
    grow,
    is_graphic_eg,
    is_graphic_hh,
    make_sequence,
    max_matching,
    parse_sequence,
    pinch,
    regular_circulant,
)
from degmatch.graphs import _ranked_blossom
from oracles import (
    NINES,
    SCAN_UNIVERSE,
    _extension_witness,
    blossom_oracle,
    check_extension_witness,
    check_witness,
    garbage_left,
    gnm_degree_sequence,
    gnm_graph,
    skewed,
)

pytestmark = pytest.mark.scale

SRC = str(Path(degmatch.__file__).parents[1])


def cli(*argv, timeout, cwd=None, flags=(), preexec_fn=None):
    """``python -m degmatch.cli *argv`` in a fresh interpreter that finds this
    degmatch, killed after ``timeout`` seconds; its completed process."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "degmatch.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        preexec_fn=preexec_fn,
    )


def answer(*argv, timeout, cwd=None):
    """What a command that must succeed prints."""
    done = cli(*argv, timeout=timeout, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def written(out, *argv, timeout, cwd=None):
    """The SHA-256 of the file a command that must succeed writes with ``--out out``."""
    assert answer(*argv, "--out", out, timeout=timeout, cwd=cwd) == ""
    return hashlib.sha256(Path(out).read_bytes()).hexdigest()


@contextmanager
def within(seconds):
    """Fail when the block takes ``seconds`` or more."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{elapsed:.1f} s, over the {seconds} s limit"


def joined(values, end=""):
    return ",".join(map(str, values)) + end


# each input sequence file by name; the texts that were first written by
# print end in a newline
SEQUENCES = {
    "gnm-3200.seq": lambda: gnm_degree_sequence(3200, 12800, 0).to_text(),
    "gnm-25600.seq": lambda: gnm_degree_sequence(25600, 102400, 0).to_text(),
    "skewed-3200.seq": lambda: joined(skewed(3200, 12)),
    "skewed-25600.seq": lambda: joined(skewed(25600, 20)),
    "reg5-10000.seq": lambda: joined([5] * 10000),
    "reg5-100000.seq": lambda: joined([5] * 100000, "\n"),
    "over-50000.seq": lambda: joined([50000] * 50000, "\n"),
    "reg5-1000000.seq": lambda: joined([5] * 1000000, "\n"),
    "bad-1000000.seq": lambda: joined([3] * 1000000 + ["x"], "\n"),
    "twice-500000.seq": lambda: joined([*range(1, 500001)] * 2, "\n"),
}


@pytest.fixture(scope="session")
def seq_file(tmp_path_factory):
    """The path of a named input sequence file, written on first use."""
    folder = tmp_path_factory.mktemp("sequences")

    def path(name):
        file = folder / name
        if not file.exists():
            file.write_text(SEQUENCES[name]())
        return file

    return path


def edge_text(edges):
    """Edges sorted and written u-v, joined by ","."""
    return ",".join(f"{u}-{v}" for u, v in sorted(edges))


def witness_text(witness):
    """A split search's witness (G, M) as the text its pinned hashes read."""
    g, m = witness
    return f"{edge_text(g.edges)};{edge_text(m.edges)}"


def sha256_of_lines(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def witnessed(rows):
    """Re-check every scan row's witness (G, M) from its edge sets by
    ``check_witness``: G realizes the row, M is a maximal matching of G with
    nu_bar edges. The number of rows with nu_bar > ell*."""
    for r in rows:
        try:
            check_witness(r.sequence.degrees, r.nu_bar_d, r.witness)
        except AssertionError as exc:
            raise AssertionError(f"bad witness for {r.sequence}") from exc
    return sum(r.nu_bar_d > r.ell_star for r in rows)


def replayed(g0, trace, steps):
    """Each step's record and graph, rebuilt from ``g0`` by pinching the
    step's removed matching; the replay must end at the trace's final graph
    after ``steps`` steps."""
    g = g0
    for rec in trace.steps:
        g = pinch(g, Matching(frozenset(rec.removed_matching), g.vertex_count))
        yield rec, g
    assert g == trace.final_graph and len(trace.steps) == steps


def matches_oracle(g, oracle, rng):
    """Do ``max_matching`` and ``_ranked_blossom`` under three ranks drawn
    from ``rng`` return the edges ``blossom_oracle`` returns on ``g``? The
    unranked oracle's edges are ``oracle``."""
    same = max_matching(g).edges == oracle
    for _ in range(3):
        rank = list(range(g.vertex_count))
        rng.shuffle(rank)
        same = same and _ranked_blossom(g.adjacency(), rank) == blossom_oracle(g, rank)
    return same


# (command, None or the coded ERROR line it must end in)
FRESH_CASES = [
    ("check --seq 3,3,2,2", None),
    ("realize --seq 3,3,2,2", None),
    ("bounds --seq 3,3,2,2", None),
    ("bounds --graph no-such-file.txt", "ERROR IO:"),
    ("bounds --graph not-utf8.txt", "ERROR IO:"),
    ("bounds --graph over-cap-declared.txt", "ERROR CAP_EXCEEDED:"),
    ("bounds --graph over-cap-implied.txt", "ERROR CAP_EXCEEDED:"),
    ("bounds --graph cli-in-arabic-digit.txt", "ERROR VALIDATION:"),
    ("check --seq-file not-utf8.txt", "ERROR IO:"),
    ("delta-star --seq 3,3,2,2", None),
    ("nu-star --seq 3,3,2,2", None),
    ("nu-star --seq 3,3,1,1", "ERROR NOT_GRAPHIC:"),
    ("extend --seq 3,3,2,2 --delta 2", None),
    ("grow --seq 2,2,2 --steps 2", None),
    ("grow --graph cli-in-triangle.txt --steps 1", None),
    ("family --kind cycle --n 6", None),
    ("enumerate --seq 2,2,2", None),
    ("enumerate --seq 1,1,1,1,1,1,1,1,1,1", "ERROR CAP_EXCEEDED:"),
    ("scan-conjecture --max-n 3", None),
    ("check --seq 3,3,2,2 --format json --out cli-out-check.json", None),
    ("realize --seq 3,3,2,2 --format json --out cli-out-realize.json", None),
    ("bounds --seq 3,3,2,2 --format json --out cli-out-bounds.json", None),
    ("delta-star --seq 3,3,2,2 --format json --out cli-out-delta-star.json", None),
    ("nu-star --seq 3,3,2,2 --format json --out cli-out-nu-star.json", None),
    ("extend --seq 3,3,2,2 --delta 2 --format json --out cli-out-extend.json", None),
    ("grow --seq 2,2,2 --steps 2 --format json --out cli-out-grow.json", None),
    ("family --kind cycle --n 6 --out cli-out-family.txt", None),
    ("enumerate --seq 2,2,2 --format json --out cli-out-enumerate.json", None),
    ("scan-conjecture --max-n 3 --format json --out cli-out-scan-conjecture.json", None),
    (f"grow --seq 2,2,2 --steps=-{NINES}", "ERROR VALIDATION:"),
    (f"extend --seq 3,3,2,2 --delta={NINES}", "ERROR VALIDATION:"),
    (f"family --kind cycle --n=-{NINES}", "ERROR VALIDATION:"),
    ("family --kind cycle --n 2", "ERROR VALIDATION:"),
    (f"scan-conjecture --max-n={NINES}", "ERROR CAP_EXCEEDED:"),
    (f"enumerate --seq 2,2,2 --max-n=-{NINES}", "ERROR CAP_EXCEEDED:"),
    ("family --kind cycle --n 100000000", "ERROR CAP_EXCEEDED:"),
    ("family --kind disjoint-cliques --k 1 --l 1000000", "ERROR CAP_EXCEEDED:"),
    ("family --kind windmill --t 1 --l 1000000", "ERROR CAP_EXCEEDED:"),
    ("family --kind complete-bipartite --a 1000000 --b 1000000", "ERROR CAP_EXCEEDED:"),
    ("grow --seq 2,2,2,2,2,2 --steps 20000 --policy fixed:4 --matching-policy first", "ERROR CAP_EXCEEDED:"),
    (f"grow --seq 2,2,2 --steps={NINES} --policy fixed:2 --matching-policy first", "ERROR CAP_EXCEEDED:"),
]


def test_every_subcommand_in_a_fresh_interpreter(tmp_path):
    """Each subcommand runs once as ``python -m degmatch.cli`` on a tiny
    input and must exit 0, or exit 1 with the coded ERROR line its input is
    meant to raise.

    ``-X importtime`` lists the modules the call loaded: a command imports
    its kernels in its own body, so check, extend, nu-star and delta-star
    load only sequences and graphicality besides the parser's modules. No
    call may load pathlib, and only a ``--format json`` call may load json;
    ``-S`` skips the site module, whose .pth files may preload either. Each
    command that takes ``--out`` runs once more with it (and ``--format json``
    where it takes that): exit 0, nothing on stdout, a non-empty file.

    An int flag of 4,000 digits must end in one ERROR line, and every ERROR
    line must be at most 200 characters: a message echoes at most 32
    characters of an input. A graph file that declares or implies more than
    10^6 vertices must end in one CAP_EXCEEDED line, and so must a family of
    more than 10^6 vertices or edges and a growth run whose trace could
    record more than 2 * 10^7 degree entries. A refusal is echoed by
    ``errors`` alone, so no ``family`` call, refused or not, loads
    degmatch.sequences. Every integer in the input is read by
    ``errors._integers`` (ASCII digits, an optional sign), so a graph file's
    edge field ``٣`` ends in one VALIDATION line, and no ``grow --graph``
    call loads degmatch.sequences either.
    """
    (tmp_path / "not-utf8.txt").write_bytes(b"\xff\xfe3,2")
    (tmp_path / "over-cap-declared.txt").write_text("n 100000000\n0 1\n")
    (tmp_path / "over-cap-implied.txt").write_text(f"0 {'9' * 40}\n")
    (tmp_path / "cli-in-arabic-digit.txt").write_text("n 4\n0 ٣\n", encoding="utf-8")
    (tmp_path / "cli-in-triangle.txt").write_text("0 1\n1 2\n0 2\n")
    bad = []
    for argv, error in FRESH_CASES:
        done = cli(*argv.split(), timeout=60, cwd=tmp_path, flags=("-S", "-X", "importtime"))
        lines = done.stderr.splitlines()
        loaded = [line.split("|")[-1].strip() for line in lines if line.startswith("import time:")]
        other = [line for line in lines if not line.startswith("import time:")]
        ok = done.returncode == 0 and not other if error is None else (
            done.returncode == 1 and len(other) == 1 and other[0].startswith(error) and len(other[0]) <= 200)
        if "--out" in argv:  # main's one write goes to the file: nothing on stdout
            out = tmp_path / argv.split()[-1]
            ok = ok and done.stdout == "" and out.is_file() and out.stat().st_size > 0
        ok = ok and "pathlib" not in loaded and ("json" not in loaded or "--format json" in argv)
        ok = ok and not (argv.startswith(("family ", "grow --graph ")) and "degmatch.sequences" in loaded)
        if not ok:
            bad.append((argv[:80], done.stderr[:2000]))
    assert not bad


def limit_to_1_gb():
    """The child's address space limit: 10^6 KiB, as ``ulimit -v 1000000``."""
    resource.setrlimit(resource.RLIMIT_AS, (1000000 * 1024, 1000000 * 1024))


# each kind's parameters at 10^6 vertices or edges, or just under, and the
# SHA-256 of its text, recorded from the adjacency writer that
# tests/oracles.py keeps as the reference
FAMILIES_AT_THE_CAP = [
    ("half-graph --n 2000", "a478808cb7361fd4984aea9966d25ba29a2608a06c63e7adc1055c05e619cf58"),
    ("windmill --t 1 --l 1414", "dbb8a868ba316333a2c66a1fb59d2814cf6338440f943e24f56cbe5d46afe635"),
    ("cycle --n 1000000", "d881e43a152c80336fedd6de4a0ea3ee7fa2a88f6d4314f57c6d69ec97ad0d14"),
    ("path --n 1000000", "cdb428dac7b272d2744d19fe9cecba4f75b125b86d166a2ec3c3aa2cdd7ae6b7"),
    ("complete-bipartite --a 1000 --b 1000", "6c199317a25ef8cd335ff827374aec1d3433aa6ef89b7668b76d4c1d1fb63c5e"),
    ("disjoint-triangles --k 333333", "ff7801fac97c606bd5edf8b54389d3c6ad558d0caf78dbda2a454574c31ea33a"),
    ("disjoint-cliques --k 1 --l 1414", "dbb8a868ba316333a2c66a1fb59d2814cf6338440f943e24f56cbe5d46afe635"),
    ("regular-circulant --n 1000000 --r 2", "d881e43a152c80336fedd6de4a0ea3ee7fa2a88f6d4314f57c6d69ec97ad0d14"),
]


def test_every_family_at_the_cap_fits_in_1_gb():
    """One family of each kind at the cap, written to stdout under a 1 GB
    address-space limit on the child alone: each must exit 0 with its
    pinned text."""
    for params, digest in FAMILIES_AT_THE_CAP:
        done = cli("family", "--kind", *params.split(), timeout=60, preexec_fn=limit_to_1_gb)
        assert done.returncode == 0, (params, done.stderr)
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest, params


def test_sequence_kernels_at_3200(seq_file, tmp_path):
    """bound_report and nu_star work on the runs of equal degrees: nu-star
    answers delta*/2, each delta* probe asking Erdos-Gallai at the run ends
    of the lowered runs, and ell* checks its slack at run ends only. On a
    2-vCPU Xeon VM with ``python -c pass`` at 0.04 s, bounds on
    gnm(3200, 12800) and nu-star on 3199^12,12^3188 take 0.07 s end to end;
    the O(n^3) forms they replaced ran for minutes.

    The heap realizer, a heap of runs of equal demand, writes the 5-regular
    n = 10000 realization in 0.096 s end to end on a shared 2-vCPU Xeon VM
    with ``python -c pass`` at 0.04 s, as the per-vertex heap did
    (0.085-0.09 s on an earlier day on a 2-vCPU 2.1 GHz Xeon; 0.10 s with
    the bucket queue); the O(n^2 log n) min-and-sort form took 30-36 s, so
    the 10 s limit catches a return to it. The hashes are those of the
    min-and-sort form's output: they pin the lowest-id tie rule.
    """
    answer("bounds", "--seq-file", seq_file("gnm-3200.seq"), timeout=20)
    answer("nu-star", "--seq-file", seq_file("skewed-3200.seq"), timeout=20)
    out = tmp_path / "realize.json"
    assert written(out, "realize", "--seq-file", seq_file("gnm-3200.seq"), "--format", "json", timeout=20) == (
        "e942cf4f3ebda0b59abfc05484db4091d1d5fc1b2777206dc8029a6550437e45")
    assert written(out, "realize", "--seq-file", seq_file("reg5-10000.seq"), "--format", "json", timeout=10) == (
        "298cbfb660ae1191fe9c504ad96f33e4c2741ecf56d99ecf64721ca26f94c7aa")


def test_havel_hakimi_decides_what_erdos_gallai_decides():
    """On every arranged tuple with n <= 10 and entries <= n. is_graphic_hh
    runs the realizer's kernel and answers False exactly when a step runs
    out of targets, so this also checks the kernel's safety check on
    non-graphic input: odd sums and degrees >= n. The counts were recorded
    while is_graphic_hh ran a separate count-level reduction. 4.4-6.0 s
    on a shared 2-vCPU Xeon VM (2.4-3.6 s with the count-level form)."""
    with within(30):
        tuples = graphic = 0
        bad = []
        for n in range(11):
            for combo in itertools.combinations_with_replacement(range(n, -1, -1), n):
                d = make_sequence(list(combo))
                eg = is_graphic_eg(d).is_graphic
                tuples += 1
                graphic += eg
                if is_graphic_hh(d) != eg:
                    bad.append(combo)
    assert (tuples, graphic, bad[:5]) == (250953, 22084, [])


def test_sequence_kernels_at_25600(seq_file, tmp_path):
    """ell* is found by galloping and bisection on its monotone feasibility,
    and nu-star answers delta*/2 by a bisection whose probes cost O(r) on the
    run form, for r distinct degrees: bounds on gnm(25600, 102400) and
    nu-star on 25599^20,20^25580 take 0.07-0.08 s end to end on a 2-vCPU
    Xeon VM, with ``python -c pass`` at 0.04 s. The linear scan over ell
    took 17 s, so the 3 s limits catch a return to it. realize on
    25599^20,20^25580, where the heap of runs splits a run on almost every
    step, takes 0.19 s end to end (0.39 s with the per-vertex heap); the
    hash is the per-vertex heap's output."""
    answer("bounds", "--seq-file", seq_file("gnm-25600.seq"), timeout=3)
    answer("nu-star", "--seq-file", seq_file("skewed-25600.seq"), timeout=3)
    out = tmp_path / "realize.json"
    assert written(out, "realize", "--seq-file", seq_file("skewed-25600.seq"), "--format", "json", timeout=3) == (
        "15348ecd4d9a73da28f8b4cbc6d8efcf1b87d48b918c2847e9c525207c0f7031")


def test_hub_sequences_give_pinned_answers(seq_file, tmp_path):
    """nu-star answers delta*/2: each delta* probe lowers the top delta
    entries of the run form, which maps runs to runs, and asks Erdos-Gallai
    at O(r) run ends, so on 3199^12,12^3188 and 25599^20,20^25580 (r = 2)
    every probe takes a few steps. The pinned answers were recorded from
    the closed form nu_star_formula, which gives the same number. realize
    prints its three formats straight from the Havel-Hakimi rows; the hash
    is the JSON the command wrote while it sorted the realization's edge
    set."""
    assert answer("nu-star", "--seq-file", seq_file("skewed-3200.seq"), "--format", "json", timeout=3) == (
        '{"nu_star": 12, "delta_star": 24}\n')
    assert answer("nu-star", "--seq-file", seq_file("skewed-25600.seq"), "--format", "json", timeout=3) == (
        '{"nu_star": 20, "delta_star": 40}\n')
    out = tmp_path / "realize.json"
    assert written(out, "realize", "--seq-file", seq_file("skewed-3200.seq"), "--format", "json", timeout=10) == (
        "96d809ad5802117e1c77a3546a81e10c4443f915ecb266fb2bca52c2128af210")


def test_run_form_kernels_give_pinned_answers(seq_file):
    """The sequence kernels work on the runs of equal degrees: the delta*
    probes lower the top runs and split one, with no sort, and check
    Erdos-Gallai at run ends; ell* gallops up from k* and checks its slack
    at run ends only; k*, noP3 and Posa bisect. On a shared 2-vCPU Xeon VM,
    with ``python -c pass`` at 0.05 s, nu-star, delta-star and bounds on
    5^100000 take 0.13, 0.13 and 0.16 s end to end (0.34, 0.30 and 0.36 s
    when every probe sorted the reduced sequence and ell* stepped through
    every k), and delta-star on 25599^20,20^25580 0.09 s (0.13 s). The
    answers were recorded from the forms these replaced. The Erdos-Gallai
    guard runs on the same run form: on 50000^50000 it checks only
    k = s = 50000 by default, and with --all-k it fails first at k = 1 (both
    recorded from the flat prefix-sum guard)."""
    pinned = [  # (command, input, flags, exit code, output)
        ("check", "over-50000.seq", (), 1, '{"is_graphic": false, "parity_ok": true, "failing_k": 50000}'),
        ("check", "over-50000.seq", ("--all-k",), 1, '{"is_graphic": false, "parity_ok": true, "failing_k": 1}'),
        ("nu-star", "reg5-100000.seq", (), 0, '{"nu_star": 50000, "delta_star": 100000}'),
        ("delta-star", "reg5-100000.seq", (), 0, '{"delta_star": 100000}'),
        ("bounds", "reg5-100000.seq", (), 0,
         '{"n": 100000, "m": 250000, "k_star": 27778, "ell_star": 27778, "noP3": 33334, "posa": 5, '
         '"vizing_num": 125000, "vizing_den": 3, "vizing_ceil": 41667, "zeros_stripped": false}'),
        ("delta-star", "skewed-25600.seq", (), 0, '{"delta_star": 40}'),
    ]
    for command, name, flags, code, expected in pinned:
        done = cli(command, "--seq-file", seq_file(name), "--format", "json", *flags, timeout=3)
        assert (done.returncode, done.stdout) == (code, expected + "\n"), (command, name, flags)


def test_sequences_parse_in_bulk_at_a_million_entries(seq_file):
    """parse_sequence counts the split tokens. With at most a third of them
    distinct (5^1000000) it strips, checks and converts each distinct token
    once and builds the sequence from the counts; with more (1..500000
    written twice) it falls back to the per-entry pass, C-level calls with
    no Python step per entry. A rejected text (3^1000000 and then x) is
    searched by halving, with the same rule, for its first bad entry. On a
    shared 2-vCPU Xeon VM, three alternating runs each, check takes
    0.14-0.15 s on 5^1000000, 0.33-0.35 s on the bad text and 1.07-1.10 s on
    1..500000 twice, against 0.22-0.25, 0.30 and 0.94-0.99 s when every
    entry is converted."""
    graphic = '{"is_graphic": true, "parity_ok": true, "failing_k": null}\n'
    assert answer("check", "--seq-file", seq_file("reg5-1000000.seq"), "--format", "json", timeout=5) == graphic
    assert answer("nu-star", "--seq-file", seq_file("reg5-1000000.seq"), "--format", "json", timeout=5) == (
        '{"nu_star": 500000, "delta_star": 1000000}\n')
    assert answer("check", "--seq-file", seq_file("twice-500000.seq"), "--format", "json", timeout=5) == graphic
    done = cli("check", "--seq-file", seq_file("bad-1000000.seq"), timeout=5)
    assert (done.returncode, done.stderr) == (1, "ERROR VALIDATION: entry 1000000 is not an integer: 'x'\n")


def test_conjecture_scan_at_8(tmp_path):
    """nu_bar is a split search: the first witness of a maximal matching of
    l edges, with l rising from ell*, which is at least k*. The command takes
    0.13-0.14 s on a 2-vCPU 2.0 GHz Xeon (13-36 s walking realizations,
    about four minutes without the floor). The n = 8 rows must equal the
    stored exhaustive answers, which this test reads and never writes."""
    out = tmp_path / "scan-8.csv"
    assert answer("scan-conjecture", "--max-n", 8, "--out", out, timeout=120) == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "sequence;nu_bar;ell_star;k_star;equal"
    rows = [line.split(";") for line in lines[1:]]
    stored = json.loads(SCAN_UNIVERSE.read_text())
    at_8 = {seq: [int(x) for x in rest[:3]] for seq, *rest in rows if seq.count(",") == 7}
    expected = {seq: value[1:] for seq, value in stored.items() if seq.count(",") == 7}
    assert at_8 == expected
    assert (len(rows), len(at_8), sum(int(r[1]) > int(r[2]) for r in rows)) == (1212, 871, 29)


def test_conjecture_scan_at_9():
    """The scan up to n = 9 takes 0.44-0.45 s on a 2-vCPU 2.0 GHz Xeon;
    before the counts of its 3,148 rows with n = 9 were pinned, a seeded
    sample of 471 of them agreed with the realization walk (degree-sum cap
    72). Every row's witness is re-checked. The scan runs with the cyclic
    collector paused and must leave it nothing to free: the split search's
    generators hold no reference cycle, so reference counting frees all it
    allocates."""
    with within(60):
        scans = []
        garbage = garbage_left(lambda: scans.append(conjecture_scan(9)))
        rows = [r for r in scans[-1] if r.sequence.n == 9]
        unequal = witnessed(rows)
    assert (len(rows), unequal, garbage) == (3148, 80, 0)


def test_conjecture_scan_at_10():
    """Each split search asks the state fold for one completion: the fold
    keeps one value per residual state and stops a state at its first
    completion, so a subtree with no leaf is walked once per host. The whole
    check takes 4.3-5.3 s on a shared 2-vCPU Xeon VM, against 3.8-5.0 s in
    alternating runs of the separate dead-state walk the fold replaced and
    7.5-10.5 s when a state with no leaf was searched again. Every row's
    witness is re-checked, as at n = 9."""
    with within(60):
        rows = [r for r in conjecture_scan(10) if r.sequence.n == 10]
        unequal = witnessed(rows)
    assert (len(rows), unequal) == (11655, 222)


def test_first_theorem_at_10():
    """d extends by a new vertex of degree delta exactly when some
    realization has a matching of delta/2 edges covering the delta largest
    degrees. extension_feasible answers it in O(r); the theorem's split
    search, tests/oracles.py's _extension_witness, decides all 75,341 pairs
    (d, delta) with n <= 10, each M by the package's state fold's first
    completion inside K_n - M; the whole check takes 13.6-14.1 s on a shared
    2-vCPU Xeon VM (about 8 s on a faster day). Each answer must equal
    extension_feasible's, and every witness (G, M) is re-checked from its
    edge sets by check_extension_witness: G realizes d, and M is delta/2
    disjoint edges of G covering degrees equal to the delta largest."""
    with within(60):
        pairs = witnesses = 0
        for d in all_graphic_sequences(10):
            for delta in range(2, d.n + 1, 2):
                pairs += 1
                witness = _extension_witness(d.degrees, delta)
                assert (witness is not None) == extension_feasible(d, delta), (d, delta)
                if witness is not None:
                    witnesses += 1
                    check_extension_witness(d.degrees, delta, witness)
    assert (pairs, witnesses) == (75341, 73195)


def test_split_search_witnesses_are_byte_identical():
    """Two texts, hashed: one line seq;nu_bar;G;M per row of the scan up to
    n = 9, and one line seq;delta;G;M per graphic d with n <= 9 and each even
    delta <= n (seq;delta;- when d does not extend by delta); lines are
    joined by "\\n", with a trailing "\\n". Both hashes were recorded while
    the split searches took the first leaf of a separate host walk that
    marked dead states; the state fold that replaced it must give the same
    witnesses. The extension lines come from the first theorem's oracle in
    tests/oracles.py, which runs the package's fold. About 3 s."""
    with within(60):
        scan = [f"{r.sequence.to_text()};{r.nu_bar_d};{witness_text(r.witness)}" for r in conjecture_scan(9)]
        extension = []
        for d in all_graphic_sequences(9):
            for delta in range(2, d.n + 1, 2):
                witness = _extension_witness(d.degrees, delta)
                extension.append(f"{d.to_text()};{delta};{'-' if witness is None else witness_text(witness)}")
    assert sha256_of_lines(scan) == "0369cb5c550460617455d00357d6290b0702a3c791f9fac006c72d3a00f56585"
    assert sha256_of_lines(extension) == "79ae83d5dc09c7a17b1297c2e232413a9fe3ed0240b604eeb02062ff51d2172e"
    assert len(extension) == 17066


def test_every_realization_count_up_to_8():
    """The walk checks Erdos-Gallai once, at entry; each vertex takes exactly
    its residual demand, so every leaf is a realization. Every vertex before
    the current one has residual 0, so the residual vector decides the count
    below it: the count keeps one number per state and builds no edge list.
    The whole check takes 0.53-0.77 s on a shared 2-vCPU Xeon VM, against
    3.5-4.5 s in alternating runs of the walk that counted every leaf (about
    15 s when every candidate neighbour set re-ran Erdos-Gallai on the
    re-sorted suffix). The counts must equal the stored ones in
    bench/data/scan_universe.json, which this test reads and never writes."""
    with within(90):
        stored = json.loads(SCAN_UNIVERSE.read_text())
        wrong = [
            seq for seq, value in stored.items()
            if count_realizations(parse_sequence(seq), max_n=8, max_degree_sum=56) != value[0]
        ]
    assert (len(stored), wrong[:5]) == (1212, [])


# Nine seeded growth chains: (grow arguments, time limit in seconds, SHA-256
# of the JSON trace with its final graph). Each hash was recorded once, on
# the code named in its comment, and every later rewrite of grow had to
# reproduce it.
GROWTH_CHAINS = [
    # 3000 fixed:4 / first steps from C6, a graph about 70 times the size of
    # the golden traces; the index-order blossom and its lowest edges.
    # Recorded while every blossom search still reset and scanned all n
    # vertices.
    ("--graph c6.txt --steps 3000 --policy fixed:4 --matching-policy first", 45,
     "aba071899695d5800ca11ad9c5354e3fd5453d651b5cfe6ef99d78f3bc176eeb"),
    # fixed:4 from C6; the shuffled-order blossom, and the greedy pass
    # stopped at delta/2 edges. Recorded while failed alternating trees were
    # searched again.
    ("--graph c6.txt --steps 1000 --policy fixed:4 --matching-policy random --rng-seed 7", 20,
     "a3ba8ea77b15991609de3052a7c388fe5d18698f3d2495ecee3dc6dec5cec410"),
    ("--graph c6.txt --steps 1000 --policy fixed:4 --matching-policy max-degree --rng-seed 7", 20,
     "154d3bb4fe76209c91d45e64a898cc8bca861009721d8c34bfb0493e8df83461"),
    # --policy random removes matchings of every size, and each step runs an
    # index-order blossom for nu before delta is drawn. Recorded before a
    # maximum matching was carried from step to step.
    ("--graph c6.txt --steps 500 --policy random --matching-policy random --rng-seed 7", 20,
     "b3f9e8818d5180ab58cc8aee158d60826cbd7c809fc9afd37b3f7455ed62d0f0"),
    ("--graph c6.txt --steps 500 --policy random --matching-policy max-degree --rng-seed 7", 20,
     "ae05df6738745fe1202f2cb7343b201551e49a201ca724ff46a620cd9c41dd8b"),
    # the lowest edges of the index-order matching, at a different size each
    # step. Recorded before first read its edges off the partner list.
    ("--graph c6.txt --steps 500 --policy random --matching-policy first --rng-seed 7", 20,
     "0fe94197d438fff5369a530a325c2745fcfdedc7f29b7097a3fa59a3d8bda793"),
    # --policy max from a 4-regular circulant on 400 vertices; the
    # max-degree edge order kept across steps loses nu edges and gains 2 nu
    # at each one, and the greedy pass often falls short and takes the
    # index-order fallback. Recorded while every step still sorted all edges.
    ("--graph circulant-400.txt --steps 300 --policy max --matching-policy max-degree --rng-seed 7", 20,
     "87875bc1150a9fe798a65dbde47ae94d06a64416bec91f0593bfa00712a0a02a"),
    # the uncapped shuffled-order run (from the circulant), and a greedy pass
    # with no blossom unless it falls short (from C6). Recorded before each
    # step took nu from its policy's own search and pinched in place.
    ("--graph circulant-400.txt --steps 200 --policy max --matching-policy random --rng-seed 7", 20,
     "cd44052c3c5f127653aeb4707b6c2f2eaaf94d54390db57efa547a560272344a"),
    ("--graph c6.txt --steps 1000 --policy fixed:2 --matching-policy max-degree --rng-seed 7", 20,
     "dd3183af1b64738e77d43a370e0a6780d7cfe62a6309b173c6b39ce9a0365da0"),
]


def test_growth_chains_are_byte_identical(tmp_path):
    """Nine seeded command-line growth chains, each hashed with its final
    graph. On a shared 2-vCPU Xeon VM the nine take about 10-14 s."""
    answer("family", "--kind", "cycle", "--n", 6, "--out", "c6.txt", timeout=60, cwd=tmp_path)
    answer("family", "--kind", "regular-circulant", "--n", 400, "--r", 4, "--out", "circulant-400.txt",
           timeout=60, cwd=tmp_path)
    for args, limit, digest in GROWTH_CHAINS:
        argv = ["grow", *args.split(), "--format", "json"]
        assert written(tmp_path / "grow.json", *argv, timeout=limit, cwd=tmp_path) == digest, args


def test_blossom_matches_its_oracle_on_grown_graphs():
    """The blossom kernel marks a free root dead without a search when all
    its neighbours lie in failed trees, and contracts by re-basing only the
    absorbed blossoms' members; tests/oracles.py's blossom_oracle resets all
    n vertices per search and scans all n per contraction. Two seeded chains
    are replayed by pinching each step's removed matching: 1000 fixed:4 /
    random steps from C6 (long nested odd cycles) and 200 max / random steps
    from the 4-regular circulant on 400 vertices (hubs next to most
    vertices, so most free roots see only dead trees). On every third graph,
    odd and even vertex counts alike, max_matching and _ranked_blossom under
    three seeded ranks must return the oracle's edges. 401 graphs; about
    15 s on a shared 2-vCPU Xeon VM."""
    with within(60):
        rng = random.Random(0)
        checked, bad = 0, []
        for g0, steps, policy in ((cycle(6), 1000, "fixed:4"), (regular_circulant(400, 4), 200, "max")):
            for rec, g in replayed(g0, grow(g0, steps, policy, 7, "random"), steps):
                if rec.step_index % 3:
                    continue
                checked += 1
                if not matches_oracle(g, blossom_oracle(g), rng):
                    bad.append((policy, rec.step_index))
    assert (checked, bad[:5]) == (401, [])


def test_blossom_stops_right_on_unmatched_graphs():
    """The blossom kernel stops once fewer than two free vertices lie outside
    its failed trees, so on a graph that leaves two or more vertices
    unmatched it never searches the last live free vertex. Seeded chains
    from gnm(200, 400) (three seeds: 60 fixed:2 steps under first and under
    random, 40 max / max-degree steps) and from gnm(800, 1600) (30 fixed:2 /
    random, 20 max / max-degree) are replayed by pinching each step's
    removed matching. On every graph max_matching and _ranked_blossom under
    three seeded ranks must return blossom_oracle's edges, and some graph
    must leave two or more vertices unmatched. 530 graphs; about 11 s on a
    shared 2-vCPU Xeon VM."""
    chains = (
        [(200, s, 60, "fixed:2", mp) for s in (1, 2, 3) for mp in ("first", "random")]
        + [(200, s, 40, "max", "max-degree") for s in (1, 2, 3)]
        + [(800, 1, 30, "fixed:2", "random"), (800, 1, 20, "max", "max-degree")]
    )
    with within(60):
        rng = random.Random(0)
        checked, short, bad = 0, 0, []
        for n, seed, steps, delta_policy, matching_policy in chains:
            g0 = gnm_graph(n, 2 * n, seed)
            for rec, g in replayed(g0, grow(g0, steps, delta_policy, 7, matching_policy), steps):
                checked += 1
                oracle = blossom_oracle(g)
                short += g.vertex_count - 2 * len(oracle) >= 2
                if not matches_oracle(g, oracle, rng):
                    bad.append((n, seed, delta_policy, matching_policy, rec.step_index))
    assert (checked, bad[:5]) == (530, [])
    assert short
