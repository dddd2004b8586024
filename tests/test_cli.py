"""Tests for the command-line surface."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import cli
from degmatch.cli import main
from degmatch.sequences import parse_sequence


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
        code, out, err = run_text(*command, "--seq=" + text)
        assert code in {0, 1, 2} and "Traceback" not in err, (code, err)
        if code == 1 and command == ["check"] and err == "":
            assert out.startswith("not graphic"), out  # check's verdict, not an error
        elif code == 1:
            assert out == "" and re.fullmatch(r"ERROR [A-Z_]+: [^\n]*\n", err), err

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
