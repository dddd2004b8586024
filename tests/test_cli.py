"""Tests for the command-line surface."""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import cli, enumeration
from degmatch.cli import main
from degmatch.constants import FAMILY_KINDS, MATCHING_POLICIES
from degmatch.dpg import grow
from degmatch.enumeration import conjecture_scan, enumerate_realizations, strong_extension_check
from degmatch.errors import CapExceededError, ValidationError
from degmatch.families import make_family
from degmatch.graphicality import extension_feasible
from degmatch.graphs import EDGE_LIST_CAP, Graph, min_maximal_matching
from degmatch.sequences import DegreeSequence, make_sequence, parse_sequence
from test_families import OVER_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_not_graphic_text_and_exit_code(self, capsys):
        code, out, err = run(capsys, "check", "--seq", "3,3,1,1")
        assert code == 1
        assert out == "not graphic (Erdős–Gallai fails at k=2)\n"
        assert err == ""

    def test_odd_sum_message(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "3,2,2")
        assert code == 1
        assert out == "not graphic (odd degree sum)\n"

    def test_graphic(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "3,3,3,3")
        assert code == 0
        assert out == "graphic\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "3,3,1,1", "--format", "json")
        assert code == 1
        assert json.loads(out) == {"is_graphic": False, "parity_ok": True, "failing_k": 2}

    def test_all_k_flag(self, capsys):
        code, out, _ = run(capsys, "check", "--seq", "2,2,2", "--all-k")
        assert code == 0 and out == "graphic\n"
        # degree 4 on four vertices, one above n - 1: the restricted index set
        # checks only k = s = 4, while checking every k fails first at k = 1
        for flags, k in (((), 4), (("--all-k",), 1)):
            code, out, _ = run(capsys, "check", "--seq", "4,4,4,4", "--format", "json", *flags)
            assert code == 1 and json.loads(out)["failing_k"] == k


class TestNuStarAndDeltaStar:
    def test_nu_star_json(self, capsys):
        code, out, _ = run(capsys, "nu-star", "--seq", "2,2,2,2,2,2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"nu_star": 3, "delta_star": 6}

    def test_delta_star(self, capsys):
        code, out, _ = run(capsys, "delta-star", "--seq", "1,1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"delta_star": 2}

    def test_non_graphic_reports_domain_error(self, capsys):
        code, out, err = run(capsys, "nu-star", "--seq", "3,3,1,1")
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR NOT_GRAPHIC:")


class TestBounds:
    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "bounds", "--seq", "4,2,2,2,2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["k_star"] == 2
        assert record["n"] == 5 and record["m"] == 6
        assert set(record) >= {"ell_star", "noP3", "posa", "vizing_num", "vizing_den", "vizing_ceil"}

    def test_graph_input_reports_exact_nu(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, out, _ = run(capsys, "family", "--kind", "half-graph", "--n", "6", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["nu"] == 3 and record["posa"] == 3

    def test_graph_input_reports_exact_nu_at_any_size(self, tmp_path, capsys):
        path = tmp_path / "c100.txt"
        run(capsys, "family", "--kind", "cycle", "--n", "100", "--out", str(path))
        code, out, _ = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["nu"] == 50

    def test_round_trip_matches_sequence_input(self, tmp_path, capsys):
        path = tmp_path / "hg.txt"
        run(capsys, "family", "--kind", "half-graph", "--n", "6", "--out", str(path))
        _, via_graph, _ = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        _, via_seq, _ = run(capsys, "bounds", "--seq", "5,4,3,3,2,1", "--format", "json")
        a, b = json.loads(via_graph), json.loads(via_seq)
        a.pop("nu")  # graph input additionally reports exact nu
        assert a == b

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "bounds", "--seq", "2,2,2", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[:3] == ["n", "m", "k_star"]


class TestExtendRealizeEnumerate:
    def test_extend(self, capsys):
        code, out, _ = run(capsys, "extend", "--seq", "2,2,2", "--delta", "2")
        assert code == 0 and out == "feasible\n"
        code, out, _ = run(capsys, "extend", "--seq", "3,1,1,1", "--delta", "4", "--format", "json")
        assert code == 0 and json.loads(out) == {"delta": 4, "feasible": False}

    def test_extend_odd_delta_is_domain_error(self, capsys):
        code, out, err = run(capsys, "extend", "--seq", "2,2,2", "--delta", "3")
        assert code == 1 and err.startswith("ERROR VALIDATION:")

    def test_realize_round_trip(self, tmp_path, capsys):
        path = tmp_path / "r.txt"
        code, _, _ = run(capsys, "realize", "--seq", "3,2,2,2,1", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["m"] == 5

    @pytest.mark.parametrize("repeat", ["0 1", "1 0"])
    def test_repeated_edge_is_validation_error(self, tmp_path, capsys, repeat):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n1 2\n{repeat}\n")
        code, out, err = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("ERROR VALIDATION: repeated edge 0 1")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n 3 4\n0 1\n", "malformed vertex-count line: 'n 3 4'"),
            ("n 3\n0 1\n0 x\n", "malformed edge line: '0 x'"),
            # an edge field is ASCII digits, as every integer in the input is
            ("n 3\n0 1_0\n", "malformed edge line: '0 1_0'"),
            ("n 4\n0 ٣\n", "malformed edge line: '0 ٣'"),
            ("n -3\n0 1\n", "vertex_count must be non-negative"),
            ("n 3\n0 5\n", "edge (0, 5) out of range for 3 vertices"),
        ],
    )
    def test_malformed_line_is_validation_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, err = run(capsys, "bounds", "--graph", str(path), "--format", "json")
        assert code == 1 and out == ""
        assert err == f"ERROR VALIDATION: {message}\n"

    def test_realize_csv(self, capsys):
        code, out, _ = run(capsys, "realize", "--seq", "3,2,2,2,1", "--format", "csv")
        assert code == 0
        assert out == "u,v\n0,1\n0,2\n0,3\n1,2\n3,4\n"

    def test_realize_non_graphic_is_domain_error(self, capsys):
        code, out, err = run(capsys, "realize", "--seq", "3,3,1,1")
        assert code == 1 and err.startswith("ERROR NOT_GRAPHIC:")

    def test_seq_file_input(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("2,2,2,2,2,2\n")
        code, out, _ = run(capsys, "nu-star", "--seq-file", str(path), "--format", "json")
        assert code == 0 and json.loads(out) == {"nu_star": 3, "delta_star": 6}

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--seq", "1,1,1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "count: 3"
        assert len(lines) == 4

    def test_enumerate_cap_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--seq", ",".join(["1"] * 10))
        assert code == 1 and err.startswith("ERROR CAP_EXCEEDED:")
        code, out, _ = run(
            capsys, "enumerate", "--seq", ",".join(["1"] * 10), "--max-n", "10", "--format", "json"
        )
        assert code == 0 and json.loads(out) == {"count": 945}


class TestErrorPrecedence:
    """Inputs on which two guards could fire; the first check in the
    command's own order decides the emitted code."""

    @pytest.mark.parametrize(
        "command,code",
        [
            ("extend --seq 3,3,1,1 --delta 3", "VALIDATION"),
            ("extend --seq 3,3,1,1 --delta 6", "VALIDATION"),
            ("extend --seq 3,3,1,1 --delta 0", "VALIDATION"),
            ("extend --seq 3,2,2 --delta 5", "VALIDATION"),
            ("delta-star --seq 3,3,1,1", "NOT_GRAPHIC"),
            ("delta-star --seq 1", "NOT_GRAPHIC"),
            ("nu-star --seq 5,1", "NOT_GRAPHIC"),
            ("nu-star --seq 1", "NOT_GRAPHIC"),
            ("delta-star --seq 0,0", "VALIDATION"),
            ("nu-star --seq 0,0", "VALIDATION"),
            ("grow --seq 2,2,2 --policy fixed:x", "VALIDATION"),
            ("grow --seq 2,2,2 --steps -1", "VALIDATION"),
            ("grow --seq 3,3,1,1 --steps -1", "NOT_GRAPHIC"),
        ],
    )
    def test_first_guard_wins(self, capsys, command, code):
        exit_code, out, err = run(capsys, *command.split())
        assert exit_code == 1 and out == ""
        assert err.startswith(f"ERROR {code}:"), err


class TestGrowCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "grow", "--seq", "2,2,2", "--steps", "2", "--policy", "fixed:2",
            "--rng-seed", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step_index,delta,new_vertex,n,m"
        assert len(lines) == 3

    def test_deterministic_given_seed(self, capsys):
        args = ("grow", "--seq", "2,2,2,2,2,2", "--steps", "5", "--policy", "random",
                "--rng-seed", "9", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "family,expected",
        [
            (
                "cycle --n 4",
                "seed: n=4 m=4\n"
                "step 0: delta=4 new_vertex=4 n=5 m=6\n"
                "step 1: delta=4 new_vertex=5 n=6 m=8\n",
            ),
            ("complete-bipartite --a 1 --b 3", "seed: n=4 m=3\nhalted after 0 of 2 steps\n"),
        ],
    )
    def test_graph_input_text(self, tmp_path, capsys, family, expected):
        path = tmp_path / "g.txt"
        run(capsys, "family", "--kind", *family.split(), "--out", str(path))
        code, out, _ = run(
            capsys, "grow", "--graph", str(path), "--steps", "2", "--policy", "fixed:4", "--format", "text",
        )
        assert code == 0 and out == expected


class TestFamilyCommand:
    def test_emits_edge_list(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "windmill", "--t", "2", "--l", "3")
        assert code == 0
        assert out.splitlines()[0] == "n 5"

    @pytest.mark.parametrize(
        "params,first,edges",
        [
            ("path --n 4", "n 4", 3),
            ("disjoint-cliques --k 2 --l 3", "n 6", 6),
            ("regular-circulant --n 6 --r 3", "n 6", 9),
        ],
    )
    def test_kinds(self, capsys, params, first, edges):
        code, out, _ = run(capsys, "family", "--kind", *params.split())
        lines = out.splitlines()
        assert code == 0 and lines[0] == first and len(lines) == 1 + edges

    def test_bad_params_are_domain_errors(self, capsys):
        code, _, err = run(capsys, "family", "--kind", "half-graph", "--n", "5")
        assert code == 1 and err.startswith("ERROR VALIDATION:")

    def test_a_flag_the_kind_does_not_take_is_refused(self, capsys):
        code, out, err = run(capsys, "family", "--kind", "cycle", "--n", "4", "--t", "3")
        assert code == 1 and out == ""
        assert err == "ERROR VALIDATION: family 'cycle' takes no parameter 't'\n"


class TestScanConjecture:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, "scan-conjecture", "--max-n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sequence;nu_bar;ell_star;k_star;equal"
        assert any(line.startswith("2,2,2;1;1;1;") for line in lines)

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "scan-conjecture", "--max-n", "3", "--format", "json")
        assert code == 0
        assert out.endswith("}\n")
        rows = [json.loads(line) for line in out.splitlines()]
        assert {"sequence": "2,2,2", "nu_bar": 1, "ell_star": 1, "k_star": 1, "equal": True} in rows
        # no rows: no line at all, not a blank one
        assert run(capsys, "scan-conjecture", "--max-n", "1", "--format", "json") == (0, "", "")

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "scan-conjecture", "--max-n", "3", "--format", "text")
        assert code == 0
        assert out == (
            "sequence         nu_bar ell_star k_star equal\n"
            "1,1                   1        1      1 true\n"
            "2,1,1                 1        1      1 true\n"
            "2,2,2                 1        1      1 true\n"
        )

    def test_max_n_above_the_scan_cap_is_refused(self, capsys):
        # each added vertex costs roughly 10x: the n = 11 rows alone take about 35 s
        code, out, err = run(capsys, "scan-conjecture", "--max-n", "11")
        assert code == 1 and out == ""
        assert err.startswith("ERROR CAP_EXCEEDED: n_max=11 exceeds enumeration cap 10")

class TestUndecodableFiles:
    """A file that is not UTF-8 text is an IO error, reported on one coded
    line that names the file, like a missing file."""

    @pytest.mark.parametrize("command, flag", [("check", "--seq-file"), ("bounds", "--graph")])
    def test_non_utf8_file_is_io_error(self, tmp_path, capsys, command, flag):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe3,2")
        code, out, err = run(capsys, command, flag, str(path))
        assert code == 1 and out == ""
        assert err.startswith("ERROR IO:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert str(path) in err


def degree_text(n, pairs):
    """The degree sequence of the simple graph on the pairs, self-loops and
    repeats dropped, as --seq text in vertex order."""
    degrees = [0] * n
    for u, v in {(min(p), max(p)) for p in pairs if p[0] != p[1]}:
        degrees[u] += 1
        degrees[v] += 1
    return ",".join(map(str, degrees))


graphic_texts = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n).map(
        lambda pairs: degree_text(n, pairs)
    )
)
token_texts = st.lists(
    st.one_of(
        st.integers(0, 45).map(str),
        st.sampled_from(["", " 3 ", "+2", "-1", "x", "1_0", "2.5", "٣", "0x1", "\n", "123456789012"]),
    ),
    max_size=40,
).map(",".join)


# texts longer than any message may echo: any characters, or a sequence of
# up to 300 threes, graphic when its length is even
long_texts = st.text(min_size=33, max_size=5000)
long_sequences = st.integers(17, 300).map(lambda n: ",".join(["3"] * n))


def long_ints(signs, min_digits=1):
    """Int-flag texts of ``min_digits`` to 4,400 digits, across int's
    4,300-digit limit, with no leading zero and one of ``signs``."""
    return st.tuples(
        st.sampled_from(signs), st.sampled_from("123456789"), st.text("0123456789", min_size=min_digits - 1, max_size=4399)
    ).map("".join)


# int-flag texts that int reads and the --seq entry rule refuses: ASCII
# digits around one "_" or non-ASCII digit
odd_ints = st.tuples(
    st.text("0123456789", max_size=4), st.sampled_from(["_", "٣", "١٢", "𝟗", "²"]), st.text("0123456789", max_size=4)
).map("".join)


def run_text(*argv):
    """Run the CLI in process and return (exit code, stdout, stderr), with
    argparse's usage exits caught."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# the longest ERROR line any input may give: a message echoes at most 32
# characters of an input, which repr writes in at most 10 characters each
# ("\U0001xxxx"), so a long input cannot make it longer; the longest fixed
# part, family's list of kinds, is about 150 characters
MAX_ERROR_LINE = 500


def assert_coded_exit(argv, code, out, err):
    """The CLI's exit rule: exit 0, 1 or 2 and never a traceback; on exit 1,
    one ``ERROR <CODE>:`` line of at most ``MAX_ERROR_LINE`` characters and
    nothing on stdout, unless it is check's "not graphic" verdict; on exit 2,
    argparse's usage and then one error line of at most ``MAX_ERROR_LINE``
    characters."""
    assert code in {0, 1, 2} and "Traceback" not in err, (code, err)
    if code == 1 and argv[0] == "check" and err == "":
        assert out.startswith("not graphic"), out  # check's verdict, not an error
    elif code == 1:
        assert out == "" and re.fullmatch(r"ERROR [A-Z_]+: [^\n]*\n", err), err
        assert len(err) <= MAX_ERROR_LINE + 1, len(err)
    elif code == 2:
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: degmatch") and ": error: " in lines[-1], err[:300]
        assert len(lines[-1]) <= MAX_ERROR_LINE, len(lines[-1])


class TestLongInputsAreCut:
    """An error message echoes an input by ``parse_sequence``'s rule, its
    first 32 characters and "…", however long the input; and fixed:<delta>
    reads its value as a --seq entry is read."""

    def assert_error(self, argv, expected):
        code, out, err = run_text(*argv)
        assert_coded_exit(argv, code, out, err)
        assert code == 1 and err == expected + "\n", err[:300]

    def test_not_graphic_sequence(self, tmp_path):
        path = tmp_path / "threes.seq"
        path.write_text(",".join(["3"] * 5001))
        self.assert_error(["nu-star", "--seq-file", str(path)], f"ERROR NOT_GRAPHIC: sequence ({'3,' * 16}…) is not graphic")

    @pytest.mark.parametrize(
        "policy, message",
        [
            ("fixed:" + "9" * 5000, f"bad fixed delta in policy 'fixed:{'9' * 26}'…"),
            ("fixed:" + "9" * 4001, f"fixed delta must be a positive even integer, got {'9' * 32}…"),
            ("fixed:-" + "9" * 4001, f"fixed delta must be a positive even integer, got -{'9' * 31}…"),
            ("x" * 5000, f"unknown delta policy '{'x' * 32}'…; expected fixed:<delta>, random or max"),
            ("fixed:١٢", "bad fixed delta in policy 'fixed:١٢'"),
            ("fixed:1_0", "bad fixed delta in policy 'fixed:1_0'"),
        ],
        ids=["digits-over-int-limit", "odd", "negative", "unknown", "arabic-indic", "underscore"],
    )
    def test_grow_policy(self, policy, message):
        self.assert_error(["grow", "--seq", "2,2,2", "--policy=" + policy], "ERROR VALIDATION: " + message)

    @pytest.mark.parametrize("policy", ["fixed:2", "fixed:4", "fixed:+2", "fixed: 2 ", "max", "random"])
    def test_grow_policies_still_read(self, policy):
        argv = ["grow", "--seq", "2,2,2,2,2,2", "--steps", "2", "--policy=" + policy]
        code, out, err = run_text(*argv)
        assert code == 0 and err == "" and out.startswith("step_index,"), (code, err)

    def test_family_kind(self):
        self.assert_error(
            ["family", "--kind", "x" * 5000],
            f"ERROR VALIDATION: unknown family kind '{'x' * 32}'…; known: {', '.join(FAMILY_KINDS)}",
        )


NINES = "9" * 4000


class TestHugeIntsAreCut:
    """An int of any size or a text of any length, given to a library call
    or through an int flag, and a --graph line of any length are echoed by
    the 32-character rule: a short coded error, never the ValueError that
    ``str`` raises on an int of more than 4,300 digits."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda g, d: grow(g, -(10**5000)), ValidationError),
            (lambda g, d: extension_feasible(d, 10**5000), ValidationError),
            (lambda g, d: conjecture_scan(10**5000), CapExceededError),
            (lambda g, d: make_family("cycle", n=-(10**5000)), ValidationError),
            (lambda g, d: list(enumerate_realizations(d, max_n=-(10**5000))), CapExceededError),
            (lambda g, d: strong_extension_check(d, 10**5000), ValidationError),
            (lambda g, d: grow(g, 1, "max", 0, "x" * 5000), ValidationError),
            (lambda g, d: make_sequence(["x" * 5000]), ValidationError),
            (lambda g, d: DegreeSequence((10**5000 + 1, 10**5000)).edge_count_if_graphic, ValidationError),
            (lambda g, d: min_maximal_matching(Graph(10**5000)), CapExceededError),
        ],
        ids=["grow", "extension_feasible", "conjecture_scan", "make_family", "enumerate_realizations",
             "strong_extension_check", "grow-matching-policy", "make_sequence", "edge_count_if_graphic",
             "min_maximal_matching"],
    )
    def test_library_calls(self, call, error):
        with pytest.raises(error) as info:
            call(make_family("cycle", n=6), parse_sequence("2,2,2"))
        assert len(str(info.value)) < 100 and "…" in str(info.value), str(info.value)

    def test_a_bool_is_shown_as_itself(self):
        with pytest.raises(ValidationError) as info:
            make_sequence([True])
        assert str(info.value).endswith("is not an integer: True")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grow", "--seq", "2,2,2", f"--steps=-{NINES}"], f"VALIDATION: steps=-{'9' * 31}… must be non-negative"),
            (["extend", "--seq", "3,3,2,2", f"--delta={NINES}"], f"VALIDATION: delta={'9' * 32}… must be even"),
            (["family", "--kind", "cycle", f"--n=-{NINES}"], f"VALIDATION: cycle needs n >= 3, got -{'9' * 31}…"),
            (["scan-conjecture", f"--max-n={NINES}"], f"CAP_EXCEEDED: n_max={'9' * 32}… exceeds enumeration cap 10"),
            (["enumerate", "--seq", "2,2,2", f"--max-n=-{NINES}"],
             f"CAP_EXCEEDED: n=3 exceeds enumeration cap -{'9' * 31}…"),
            (["grow", "--seq", "2,2,2", f"--steps={NINES}", "--policy", "fixed:2", "--matching-policy", "first"],
             f"CAP_EXCEEDED: {'9' * 32}… steps from 3 vertices could record {'5' + '0' * 31}… degree entries,"
             " over the trace cap 20000000"),
        ],
        ids=["grow-steps", "extend-delta", "family-n", "scan-max-n", "enumerate-max-n", "grow-steps-over-cap"],
    )
    def test_int_flags(self, argv, message):
        code, out, err = run_text(*argv)
        assert_coded_exit(argv, code, out, err)
        assert (code, err) == (1, f"ERROR {message}\n"), err[:300]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 " + "x" * 4998 + "\n", f"malformed edge line: '0 {'x' * 30}'…"),
            ("0 1 " + "2 " * 2500 + "\n", f"malformed edge line: '0 1 {'2 ' * 14}'…"),
            ("n " + "3 " * 2500 + "\n", f"malformed vertex-count line: 'n {'3 ' * 15}'…"),
            (f"0 1\n1 0 {' ' * 4000}# x\n", "malformed edge line: '1 0" + " " * 29 + "'…"),
            (f"n 3\n0 {NINES}\n", f"edge (0, {'9' * 32}…) out of range for 3 vertices"),
            (f"0 {NINES}\n{NINES}    0\n", f"repeated edge 0 {'9' * 32}… at line '{'9' * 32}'…"),
        ],
        ids=["letters", "three-fields", "header", "spaces", "out-of-range", "repeated"],
    )
    def test_graph_file_lines(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, err = run_text("bounds", "--graph", str(path))
        assert (code, out, err) == (1, "", f"ERROR VALIDATION: {message}\n"), err[:300]

    @pytest.mark.parametrize(
        "text, shown",
        [("n 100000000\n0 1\n", "100000000"), (f"0 {'9' * 40}\n", f"1{'0' * 31}…")],
        ids=["declared", "implied"],
    )
    def test_graph_file_over_vertex_cap(self, tmp_path, text, shown):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, err = run_text("bounds", "--graph", str(path))
        assert (code, out, err) == (1, "", f"ERROR CAP_EXCEEDED: vertex count {shown} exceeds edge-list cap 1000000\n")


class TestIntFlags:
    """Every int flag is read by the rule a --seq entry is read by: ASCII
    decimal digits with an optional sign. Anything else is a usage error
    that echoes the value by the 32-character rule."""

    @pytest.mark.parametrize(
        "argv, flag, shown",
        [
            (["family", "--kind", "cycle", "--n=٣"], "--n", "'٣'"),
            (["extend", "--seq", "2,2,2", "--delta=١٠"], "--delta", "'١٠'"),
            (["grow", "--seq", "2,2,2,2", "--steps=1_0"], "--steps", "'1_0'"),
            (["grow", "--seq", "2,2,2", "--rng-seed=𝟗"], "--rng-seed", "'𝟗'"),
            (["enumerate", "--seq", "2,2", "--max-sum=2_4"], "--max-sum", "'2_4'"),
            (["scan-conjecture", "--max-n=٣"], "--max-n", "'٣'"),
            (["grow", "--seq", "2,2,2", f"--steps=x{NINES}"], "--steps", f"'x{'9' * 31}'…"),
            (["extend", "--seq", "2,2,2", "--delta=" + "9" * 4301], "--delta", f"'{'9' * 32}'…"),
            (["family", "--kind", "path", "--n=2.0"], "--n", "'2.0'"),
        ],
        ids=["arabic-indic", "arabic-indic-2", "underscore", "math-digit", "underscore-2", "scan", "long", "over-int-limit",
             "float"],
    )
    def test_refused(self, argv, flag, shown):
        code, out, err = run_text(*argv)
        assert_coded_exit(argv, code, out, err)
        assert code == 2 and err.endswith(f": error: argument {flag}: invalid int value: {shown}\n"), err[-300:]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["family", "--kind", "path", "--n=+3"], "n 3\n0 1\n1 2\n"),
            (["family", "--kind", "path", "--n", " 3 "], "n 3\n0 1\n1 2\n"),
            (["extend", "--seq", "2,2,2", "--delta=+2"], "feasible\n"),
            (["scan-conjecture", "--max-n=-1", "--format", "text"], "sequence         nu_bar ell_star k_star equal\n"),
        ],
        ids=["plus", "spaces", "delta-plus", "negative"],
    )
    def test_read(self, argv, expected):
        assert run_text(*argv) == (0, expected, "")


class TestEnumerateJsonCounts:
    """``enumerate --format json`` counts the realizations with
    ``count_realizations`` and builds none of them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seq", "1,1,1,1"],
            ["--seq", "3,3,3,3,3,3,3,3"],
            ["--seq", "3,3,2,2,2,2,1,1,1,1", "--max-n", "10"],
            ["--seq", "4,4,4,4,4,4,4,4", "--max-sum", "32"],
            ["--seq", "3,3,1,1"],
            ["--seq", "1,1,1,1,1,1,1,1,1,1"],
            ["--seq", "4,4,4,4,4,4,4,4"],
        ],
        ids=["perfect-matchings", "cubic-8", "mixed-10", "quartic-8", "not-graphic", "over-n-cap", "over-sum-cap"],
    )
    def test_counts_without_building(self, monkeypatch, argv):
        reference = run_text("enumerate", *argv, "--format", "csv")

        def refuse(*args, **kwargs):
            raise AssertionError("enumerate --format json built a realization")

        monkeypatch.setattr(Graph, "_trusted", classmethod(refuse))
        monkeypatch.setattr(enumeration, "enumerate_realizations", refuse)
        code, out, err = run_text("enumerate", *argv, "--format", "json")
        assert (code, err) == (reference[0], reference[2])
        if code == 0:
            assert json.loads(out) == {"count": len(reference[1].splitlines()) - 1}


# SHA-256 of ``degmatch [<command>] --help`` at COLUMNS=80 (Python 3.11)
HELP = {
    "": "9334937e2dfac4c70b66153010f1bdf4f64eaa86b5fb0761712e484ad7efe8d1",
    "check": "c2248e068228c38374074001c004550d5905f1782a6f73f8274bc8090467b37c",
    "realize": "e5c3eabd58ea74ea7aa858f1349de02b291d937309a5937ae8518c3a0b89fef1",
    "bounds": "de8680d06925ce3550bdae9e1c0983507f16d3e31ea1cf8a6754b646ed4ea128",
    "delta-star": "970a9398fe42ea10845f06c8b723abdf1d174a4284c83baa58011e9ee02507d9",
    "nu-star": "6038dc2d915b8e6bbf118fccd264983e07508fe8c196a67d0996008abc70de2d",
    "extend": "76909601d128de34a3f3fbe2dcdde22072b6f5ea9be34939087e5fe87f4adfc0",
    "grow": "96efb372b90f1299fba51e476713be11c90ebe68ee4081184f23eee92aab1e26",
    "family": "49faa7d6315373a81cf66f4f9591307dc29eeb83338aece0f4b9c109abdac277",
    "enumerate": "bb08ae1ab94d522b3b620c4ba9b7cd895479e06ff92a793f803a0ce7c579471d",
    "scan-conjecture": "0fa536be82444e777fe66403080136a967d4429d7a1cca5cef9f997691b7a3d2",
}


class TestHelpIsPinned:
    """The top-level --help and every subcommand's are the bytes pinned here."""

    @pytest.mark.parametrize("command", HELP)
    def test_pinned(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_text(*command.split(), "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP[command], out


class TestRealizeAnyText:
    """Every sequence command on any --seq text exits 0, 1 or 2 without a
    traceback, and ``degmatch realize``'s three formats agree on a
    realization of the parsed sequence."""

    @pytest.mark.parametrize(
        "command", [["check"], ["bounds"], ["nu-star"], ["delta-star"], ["extend", "--delta", "2"]],
        ids=lambda command: command[0],
    )
    @given(text=st.one_of(graphic_texts, token_texts))
    @settings(max_examples=100, deadline=None)
    def test_every_sequence_command_exits_with_a_code(self, command, text):
        assert_coded_exit(command, *run_text(*command, "--seq=" + text))

    @given(st.one_of(graphic_texts, token_texts))
    @settings(max_examples=100, deadline=None)
    def test_exit_codes_and_formats_agree(self, text):
        runs = {fmt: run_text("realize", "--seq=" + text, "--format", fmt) for fmt in ("json", "csv", "text")}
        codes = {code for code, _, _ in runs.values()}
        assert len(codes) == 1 and codes <= {0, 1, 2}, runs
        code = codes.pop()
        for _, out, err in runs.values():
            assert "Traceback" not in err
            if code == 1:
                assert out == "" and re.fullmatch(r"ERROR [A-Z_]+: [^\n]*\n", err), err
        if code != 0:
            return
        d = parse_sequence(text)
        record = json.loads(runs["json"][1])
        json_edges = record["edges"].split(";") if record["edges"] else []
        assert (record["n"], record["m"]) == (d.n, len(json_edges))
        csv_lines = runs["csv"][1].splitlines()
        text_lines = runs["text"][1].splitlines()
        assert csv_lines[0] == "u,v" and text_lines[0] == f"n {d.n}"
        edges = [tuple(map(int, e.split("-"))) for e in json_edges]
        assert [tuple(map(int, line.split(","))) for line in csv_lines[1:]] == edges
        assert [tuple(map(int, line.split(" "))) for line in text_lines[1:]] == edges
        assert len(set(edges)) == len(edges) and all(0 <= u < v < d.n for u, v in edges)
        degrees = [0] * d.n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        assert tuple(degrees) == d.degrees


class TestFamilyCap:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_one_coded_line_just_over_the_cap(self, kind):
        argv = ["family", "--kind", kind, *(f"--{flag}={value}" for flag, value in OVER_CAP[kind].items())]
        code, out, err = run_text(*argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"ERROR CAP_EXCEEDED: family of \d+ vertices and \d+ edges exceeds cap 1000000\n", err), err


class TestFuzzedFlags:
    """The inputs the tests above leave out, under the same exit rule:
    --seq-file contents, and the flags of grow, family and scan-conjecture,
    whose int flags also get texts of up to 4,400 digits and texts with "_"
    or a non-ASCII digit. Sizes stay small, and a long int is negative
    where a large one would run long, so that every case runs in process
    in milliseconds; family's are also large, since a family over the cap
    is refused before it is built, and so are grow's steps, since a trace
    over its cap is refused before any step."""

    @pytest.mark.parametrize(
        "command",
        [["check"], ["realize"], ["bounds"], ["nu-star"], ["delta-star"], ["extend", "--delta", "2"], ["enumerate"]],
        ids=lambda command: command[0],
    )
    @given(data=st.one_of(st.one_of(graphic_texts, token_texts).map(str.encode), st.binary(max_size=40)))
    @settings(max_examples=40, deadline=None)
    def test_seq_file_contents(self, tmp_path_factory, command, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.seq"
        path.write_bytes(data)
        assert_coded_exit(command, *run_text(*command, "--seq-file", str(path)))

    @given(
        seq=st.one_of(graphic_texts, token_texts, long_sequences),
        steps=st.one_of(
            st.integers(-2, 4).map(str),
            st.sampled_from(["", "x", "1.5"]),
            long_ints(["-"]),
            long_ints([""], min_digits=8),  # over the trace cap from any seed
            odd_ints,
        ),
        policy=st.one_of(
            st.sampled_from(["max", "random", "fixed:2", "fixed:4", "fixed:3", "fixed:0", "fixed:-2", "fixed:", "fixed:x"]),
            st.text(max_size=8),
            long_texts,
            st.text("0123456789-_١٢", min_size=33, max_size=5000).map("fixed:".__add__),
        ),
        matching=st.one_of(st.sampled_from(MATCHING_POLICIES), st.text(max_size=8)),
        rng_seed=st.one_of(st.integers(-(2**70), 2**70).map(str), long_ints(["", "+", "-"]), odd_ints),
        fmt=st.sampled_from(["csv", "json", "text", "yaml"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grow_flags(self, seq, steps, policy, matching, rng_seed, fmt):
        argv = ["grow", "--seq=" + seq, "--steps=" + steps, "--policy=" + policy,
                "--matching-policy=" + matching, "--rng-seed=" + rng_seed, "--format=" + fmt]
        assert_coded_exit(argv, *run_text(*argv))

    @given(
        kind=st.one_of(
            st.sampled_from(FAMILY_KINDS),
            st.sampled_from(FAMILY_KINDS).map(lambda kind: kind.replace("-", "_").upper()),
            st.text(max_size=10),
            long_texts,
        ),
        params=st.dictionaries(
            st.sampled_from(cli._FAMILY_FLAGS),
            st.one_of(
                st.integers(-3, 12).map(str),
                st.integers(EDGE_LIST_CAP + 1, 10**30).map(str),
                long_ints(["-"]),
                long_ints([""], min_digits=8),  # over the cap of 10**6
                odd_ints,
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_family_flags(self, kind, params):
        argv = ["family", "--kind=" + kind, *(f"--{flag}={value}" for flag, value in params.items())]
        assert_coded_exit(argv, *run_text(*argv))

    @given(
        max_n=st.one_of(
            st.integers(-3, 6).map(str),
            st.integers(11, 10**30).map(str),
            st.sampled_from(["", "x", "6.0"]),
            long_ints(["", "-"], min_digits=3),  # above the scan's cap of 10, or negative
            odd_ints,
        ),
        fmt=st.sampled_from(["csv", "json", "text", "yaml"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_scan_conjecture_flags(self, max_n, fmt):
        argv = ["scan-conjecture", "--max-n=" + max_n, "--format=" + fmt]
        assert_coded_exit(argv, *run_text(*argv))


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_input_source_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check"])
        assert info.value.code == 2

    def test_conflicting_sources_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--seq", "1,1", "--seq-file", "x.txt"])
        assert info.value.code == 2


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        for args in (
            ["bounds", "--seq", "5,4,3,3,2,1", "--format", "json"],
            ["scan-conjecture", "--max-n", "4"],
            ["enumerate", "--seq", "2,2,2,2", "--format", "csv"],
        ):
            _, first, _ = run(capsys, *args)
            _, second, _ = run(capsys, *args)
            assert first == second


class TestOneParserPerProcess:
    """main builds its parser once and reuses it; the reused parser gives each
    argv the same result whatever ran before it."""

    def test_built_once(self, monkeypatch, capsys):
        calls = []
        original = cli.build_parser

        def counting():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for seq in ("2,2,2", "3,3,1,1", "1,1"):
                main(["check", "--seq", seq])
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1
        assert cli.build_parser() is not cli.build_parser()

    def test_order_independent(self, tmp_path, capsys):
        path = tmp_path / "out.txt"
        argvs = [
            ["check", "--seq", "3,3,1,1", "--format", "json"],
            ["realize", "--seq", "3,2,2,2,1", "--format", "json"],
            ["bounds", "--seq", "4,2,2,2,2", "--format", "csv"],
            ["delta-star", "--seq", "2,2,2,2,2,2"],
            ["nu-star", "--seq", "3,3,1,1"],
            ["extend", "--seq", "2,2,2", "--delta", "2"],
            ["grow", "--seq", "2,2,2,2", "--steps", "3", "--policy", "fixed:2"],
            ["family", "--kind", "half-graph", "--n", "6", "--out", str(path)],
            ["enumerate", "--seq", "2,2,2,2", "--format", "csv"],
            ["scan-conjecture", "--max-n", "4"],
            ["realize", "--seq", "2,2", "--format", "yaml"],
            ["--version"],
        ]

        def outcome(argv):
            path.unlink(missing_ok=True)
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            written = path.read_text() if path.exists() else None
            return rc, captured.out, captured.err, written

        forward = [outcome(argv) for argv in argvs]
        backward = [outcome(argv) for argv in reversed(argvs)][::-1]
        assert forward == backward
        rcs = [rc for rc, *_ in forward]
        assert rcs == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0]
        assert forward[4][2].startswith("ERROR NOT_GRAPHIC:")
        assert forward[7][1] == "" and forward[7][3].startswith("n 6\n")
        assert forward[10][2].startswith("usage: degmatch realize")
        assert forward[11][1].startswith("degmatch ")


GOLDEN_GRAPH = "n 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"  # C6 and an isolated vertex


def golden_outcome(tmp_path, command):
    """Run one golden command, with ``{tmp}`` standing for ``tmp_path``, and
    return the SHA-256 of (exit code, stdout, stderr, text of out.txt)."""
    (tmp_path / "g.txt").write_text(GOLDEN_GRAPH)
    out = tmp_path / "out.txt"
    out.unlink(missing_ok=True)
    code, stdout, stderr = run_text(*command.replace("{tmp}", str(tmp_path)).split())
    written = out.read_text() if out.exists() else None
    return hashlib.sha256(json.dumps([code, stdout, stderr, written]).encode()).hexdigest()


GOLDEN = {
    "check --seq 3,3,2,2": "5d16df3feb784ab0dbb663b7f698fe9f50ffe4cc900081ba6c1934a186739156",
    "check --seq 3,3,1,1": "8842f36c5333dd5ad674f1dd6fba7d6f39915ebf357c0442c339af7daaac754a",
    "check --seq 3,2,2": "60bcd916c6cf8d086d95011a9d0a8aaa51baaa3f715f9d7949e5437a1ef1d0c4",
    "check --seq 4,4,4,4 --all-k --format json": "7f288afceed18f54b6781be4eab763516908bcace366ef9e93d64647cda1f84d",
    "check --seq 3,3,1,1 --format json": "a5ba368d387bda335b1df693cbbfe72902206920b57a67b85f5d28493ab2d82a",
    "check --seq 3,3,1,1 --format csv": "8e19efb31ce92e6bc621724eb583047364c4bcecb7b3ea4e9822551ac9b41bbb",
    "check --seq 3,3,2,2 --format csv --out {tmp}/out.txt": "54ff6b0dcbe3ed012ee12cc84541fab1bf17532530918c5f478d274c50649891",
    "realize --seq 3,2,2,2,1": "bb9618b44cd4b5a40b14a4b3152f20d0c6d8230fb05bfc1918bd6a2156ce058d",
    "realize --seq 3,2,2,2,1 --format json": "390ccf27843f9c4adcdd91c3257a7a4fad2c9ffe63fc545586d6265d6a5412e5",
    "realize --seq 3,2,2,2,1 --format csv": "8ffbc5390052ec8b1e98ee513cab33b9536f2662e052586c60a25f772cdf0e39",
    "realize --seq 3,2,2,2,1 --out {tmp}/out.txt": "b6733d4e343d5419aff2e1a866d39bcff3361c6dfcc8ec295bb027c10747d2e8",
    "bounds --seq 4,2,2,2,2": "8becd1b323d74ec7797d435b77a98caa96a8fc35d66305c1697050af770f9cee",
    "bounds --seq 4,2,2,2,2 --format json": "1c979848aab0ce5f67aa517201d69708c2a3af7406e437a66f42b755053d2d54",
    "bounds --seq 4,2,2,2,2 --format csv": "49419455cb3c6d94874570cea33a60c61be9e4a5c176bf7f1373bfb1710abb29",
    "bounds --graph {tmp}/g.txt": "11eb9c1c1736e86c827629d6444bb9aaab72cf573d12b1337b4af71d25dd1da6",
    "bounds --graph {tmp}/g.txt --format csv --out {tmp}/out.txt": "010d00663b32e9975344ddca96352d91fef214118ba870b76d02461640182b3f",
    "delta-star --seq 2,2,1,1": "a05b9aab1877c8eddd3273cd373fcb6088279e1ec2eee29b98569d777ff35ae8",
    "delta-star --seq 2,2,1,1 --format json": "e76ddc6e5f67bfc7ba4e5907a2035f0a3b371b0dd4c8552e97994ba00416cc9f",
    "delta-star --seq 2,2,1,1 --format csv": "733c2492dc86c852f6ef25ff79e469db746e248d352ececa67c9749841e7f732",
    "delta-star --seq 2,2,1,1 --out {tmp}/out.txt": "94c1d332168d4763c94457c2974396a79b22d7f0eca06d7394c74dc41bd7942e",
    "nu-star --seq 2,2,2,2,2,2": "854a54a25a5524a094aece9760e59b7ffbca057e432581bc8bc393089f51c121",
    "nu-star --seq 2,2,2,2,2,2 --format json": "a653115810ce13f8d63fd6d464a4bd8a1c4484f0b347c447b462031c2197e941",
    "nu-star --seq 2,2,2,2,2,2 --format csv": "a6312e47f380b1456171a1fd4191f625bb40c8068dab57d3aa2d10b975201952",
    "nu-star --seq 3,3,1,1 --format csv": "31e63776eeb9598205573ca6cbbb1e6fa62ab93a5f69da34a7ea7660585b3bf6",
    "nu-star --seq 2,2,2,2,2,2 --out {tmp}/out.txt": "408d8a1b9544f20f1b4b0ae28cb141811f3842f78ba3997a269e80a00db1e8ea",
    "extend --seq 2,2,2 --delta 2": "3956953b98d26c38aaf4806322c660c4d7708692b0f62baa8dad59315274847d",
    "extend --seq 3,1,1,1 --delta 4": "d690dc6a2689e48ec2a11d7bbcb84d84179f205dceda7e8bf0f9afd516308842",
    "extend --seq 2,2,2 --delta 2 --format json": "d7a577eb642ebf4c8a8da51f949c289546e1a396fc0b52239d23f55482837684",
    "extend --seq 2,2,2 --delta 2 --format csv": "37992716744639cd71b1f620ef87e8ef6b9d56458a55b26f061ec5774f04fba2",
    "extend --seq 2,2,2 --delta 2 --format json --out {tmp}/out.txt": "1bd68bb31af4f415b1eaaa5c176a889d3709faaf4515dfb081ee9c1a9e9494b7",
    "grow --seq 2,2,2 --steps 2 --policy fixed:2": "33bb1a34e17aa83a82ecf04bbe2d3651b39fb06a0b1e8638b549433a00a79b54",
    "grow --seq 2,2,2 --steps 2 --policy fixed:2 --format json": "468dfcb52d13f5f08b514e7399288f287d5b822fbe6881218c354b8a810bf82a",
    "grow --seq 2,2,2 --steps 2 --policy fixed:2 --format text": "3f2cc175e9a32791c5760f7c834ce5f3c07b13ee336b1d8661382ce23da8eb72",
    "grow --graph {tmp}/g.txt --steps 3 --format text": "fc3e82eb3b36ae0522a67f83f5893ebc981cb8ee9cffbbaddc230d29b6427c9d",
    "grow --seq 2,2,2 --steps 2 --out {tmp}/out.txt": "34898bb2748f9569054d52af0a65ab45625767fc2b510e1fbd3f8547f063c79e",
    "family --kind cycle --n 5": "6376f466de1ac180964a9fb1aa7962c6681a90d0dc56edf64e4aa0b9ce1f9ffc",
    "family --kind half-graph --n 4 --out {tmp}/out.txt": "d07da25b284c395cf99eeaeb6abd435871dd059295d7ab101e8f7fc89fc75118",
    "enumerate --seq 1,1,1,1": "51b6a6a0fc64bbb8b3a577134e36c0ba20fd06c7b874f6328b651cb81c9d5af5",
    "enumerate --seq 1,1,1,1 --format json": "35c18070aeafedc8cfea02bd17922a94a676693ea70b099704009a1f6a4bb3c3",
    "enumerate --seq 1,1,1,1 --format csv": "8a6f1b6c95b38b47f8d3844e84bf94cee169519032d046f6c653f57204f51801",
    "enumerate --seq 0,0": "1b7cd5f508bdb6c9c2e77ad299cb722a96b98ca94009d4190073155383c4d295",
    "enumerate --seq 0,0 --format csv": "ff6b40a1263b70e4d3a425255294302f99543898aba96933739588e4f1435847",
    "enumerate --seq 2,2,2,2 --format csv --out {tmp}/out.txt": "d088771941789bbe5347994b8fbb44a8bf6e6162b0378d4fbb809948b424d316",
    "scan-conjecture --max-n 3": "394785b36050673e5aef149d0e6f6cecf83d1ec23fc5eae73c3fddf058d4b85e",
    "scan-conjecture --max-n 3 --format json": "35f61f878d43040a38922f6f7758f8c35c00e8c2f3c9b4d1a6476d286496c372",
    "scan-conjecture --max-n 3 --format text": "b903a436cc802d83da9de3692d21301ac90d48fea5b8920fa1ce74057e6fc94c",
    "scan-conjecture --max-n 3 --format json --out {tmp}/out.txt": "29dbf4a0bd9c583dd9e72f66eecea575a75abf526033b755c63d658c44089d82",
}


class TestGoldenOutput:
    """Every subcommand, in each --format it takes and once with --out, on a
    tiny input, gives the bytes pinned here: exit code, stdout, stderr and
    the written file."""

    @pytest.mark.parametrize("command", GOLDEN)
    def test_pinned(self, tmp_path, command):
        assert golden_outcome(tmp_path, command) == GOLDEN[command]


class TestEmptyGraphPath:
    """``--graph ''`` names a file like any other path: an IO error, not a
    fall-back to the --seq that was not given."""

    @pytest.mark.parametrize("command", [["bounds"], ["grow", "--steps", "1"]], ids=lambda command: command[0])
    def test_is_an_io_error(self, command):
        assert run_text(*command, "--graph", "") == (1, "", "ERROR IO: [Errno 2] No such file or directory: ''\n")


class TestOutIntoMissingDirectory:
    """A write to a path whose directory does not exist is one coded IO error
    line, exit 1 and nothing on stdout, whatever the command's own exit code
    would have been."""

    @pytest.mark.parametrize(
        "command",
        [
            "check --seq 3,3,2,2",
            "check --seq 3,3,1,1",
            "realize --seq 3,2,2,2,1 --format json",
            "bounds --seq 4,2,2,2,2",
            "delta-star --seq 2,2,1,1 --format csv",
            "nu-star --seq 2,2,2,2,2,2",
            "extend --seq 2,2,2 --delta 2",
            "grow --seq 2,2,2 --steps 2",
            "family --kind cycle --n 5",
            "enumerate --seq 1,1,1,1 --format csv",
            "scan-conjecture --max-n 3 --format json",
        ],
    )
    def test_one_io_error(self, tmp_path, command):
        target = tmp_path / "missing" / "x"
        code, out, err = run_text(*command.split(), "--out", str(target))
        assert (code, out) == (1, "")
        assert re.fullmatch(r"ERROR IO: [^\n]*\n", err), err
        assert not target.parent.exists()
