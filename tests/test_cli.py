"""Tests for the command-line surface."""

import json

import pytest

from degmatch.cli import main


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


class TestFamilyCommand:
    def test_emits_edge_list(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "windmill", "--t", "2", "--l", "3")
        assert code == 0
        assert out.splitlines()[0] == "n 5"

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
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert {"sequence": "2,2,2", "nu_bar": 1, "ell_star": 1, "k_star": 1, "equal": True} in rows


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
