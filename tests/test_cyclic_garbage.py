"""The benchmark's workload calls and the exhaustive searches leave no
cyclic garbage: everything they allocate is freed by reference counting,
so a collection run after them finds nothing to free. Each case pauses
the collector, empties it, makes the call and asserts that a full
collection then finds no unreachable object. The call runs once first,
so that a first call's imports and caches are not counted."""

import gc
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from degmatch.cli import main
from degmatch.constants import MATCHING_POLICIES
from degmatch.dpg import grow
from degmatch.enumeration import (
    conjecture_scan,
    count_realizations,
    enumerate_realizations,
    nu_bar_sequence,
)
from degmatch.families import cycle, regular_circulant, windmill
from degmatch.graphs import min_maximal_matching
from degmatch.sequences import parse_sequence
from oracles import _extension_witness


def garbage_left(call) -> int:
    """The number of unreachable objects that ``call()`` leaves for the
    cyclic collector, measured with the collector paused."""
    call()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def cli(*argv: str) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(list(argv))


class TestExhaustiveOracles:
    def test_conjecture_scan(self):
        assert garbage_left(lambda: conjecture_scan(7)) == 0

    def test_nu_bar_rows_at_8(self):
        rows = [parse_sequence(text) for text in ("4,4,3,3,2,2,2,2", "6,5,4,3,3,2,2,1", "3,3,3,3,3,3,3,3")]
        assert garbage_left(lambda: [nu_bar_sequence(d) for d in rows]) == 0

    @pytest.mark.parametrize("text, delta", [("4,4,3,3,2,2,2,2", 4), ("5,5,4,3,3,2,2,2", 6), ("3,3,1,1,1,1", 4)])
    def test_strong_extension_check(self, text, delta):
        # the first theorem's oracle walks the package's _pair_classes and fold
        assert garbage_left(lambda: _extension_witness(parse_sequence(text).degrees, delta)) == 0

    @pytest.mark.parametrize(
        "g", [cycle(9), windmill(3, 3), regular_circulant(12, 4)], ids=["cycle", "windmill", "circulant"]
    )
    def test_min_maximal_matching(self, g):
        assert garbage_left(lambda: min_maximal_matching(g)) == 0

    def test_realization_walks(self):
        d = parse_sequence("3,3,3,2,2,2,1")
        assert garbage_left(lambda: list(enumerate_realizations(d))) == 0
        assert garbage_left(lambda: count_realizations(d)) == 0


class TestGrowth:
    @pytest.mark.parametrize("matching_policy", MATCHING_POLICIES)
    @pytest.mark.parametrize("delta_policy", ["max", "random", "fixed:2"])
    def test_grow(self, delta_policy, matching_policy):
        for seed in (cycle(12), windmill(3, 4)):
            assert garbage_left(lambda: grow(seed, 12, delta_policy, 5, matching_policy)) == 0


class TestSequenceCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            "check --seq 3,3,2,2",
            "check --seq 3,3,1,1 --format json",
            "realize --seq 3,3,2,2,2 --format csv",
            "realize --seq 3,3,1,1",
            "bounds --seq 5,4,3,3,2,1 --format json",
            "nu-star --seq 3,3,2,2",
            "nu-star --seq 3,3,1,1",
            "delta-star --seq 2,2,2",
            "extend --seq 3,3,2,2 --delta 2",
            "extend --seq 3,3,2,2 --delta 3",
            "check --seq 3,x,1",
            "bounds --seq 1,-1",
            "check --seq-file no-such-file.seq",
        ],
    )
    def test_command(self, argv):
        assert garbage_left(lambda: cli(*argv.split())) == 0
