"""The package namespace, the modules each import loads, and the one home
of each constant the command-line parser shows."""

import argparse
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degmatch
from degmatch import cli, constants, dpg, enumeration, families

# the exported names as the package listed them when it imported every
# submodule up front, grouped by the module that defines them
EXPORTS = {
    "errors": [
        "DegmatchError",
        "ValidationError",
        "NotGraphicError",
        "InfeasibleDeltaError",
        "CapExceededError",
        "InternalConsistencyError",
    ],
    "sequences": [
        "DegreeSequence",
        "make_sequence",
        "parse_sequence",
    ],
    "graphs": [
        "Graph",
        "Matching",
        "max_matching",
        "greedy_maximal_matching",
        "min_maximal_matching",
        "pinch",
        "verify_matching",
    ],
    "graphicality": [
        "GraphicVerdict",
        "is_graphic_eg",
        "is_graphic_hh",
        "realize_hh",
        "extension_feasible",
        "delta_star",
        "nu_star_formula",
        "nu_star",
    ],
    "bounds": [
        "BoundReport",
        "maximality_bound",
        "vizing_bound",
        "posa_bound",
        "gale_ryser_bound",
        "matching_lower_bound",
        "bound_report",
    ],
    "families": [
        "half_graph",
        "windmill",
        "cycle",
        "path",
        "complete_bipartite",
        "disjoint_cliques",
        "disjoint_triangles",
        "regular_circulant",
        "make_family",
    ],
    "enumeration": [
        "ConjectureRow",
        "enumerate_realizations",
        "count_realizations",
        "nu_bar_sequence",
        "all_graphic_sequences",
        "conjecture_scan",
        "rows_to_csv",
    ],
    "dpg": ["DpStepRecord", "GrowthTrace", "feasible_deltas", "dp_step", "grow"],
}
# the names a kernel module exports beyond its EXPORTS entry; its __all__
# holds exactly these and that entry, so no name the benchmark's tracer
# wraps is dropped
EXTRAS = {
    "sequences": set(),
    "graphicality": {"require_graphic"},
    "graphs": {"Edge"},
    "bounds": set(),
    "families": {"FAMILY_KINDS"},
    "enumeration": {"DEFAULT_MAX_N", "DEFAULT_MAX_DEGREE_SUM", "SPLIT_MAX_N"},
    "dpg": {"MATCHING_POLICIES"},
}
SUBMODULES = [
    "errors", "constants", "sequences", "graphs", "graphicality", "bounds", "families", "enumeration", "dpg", "cli",
]


class TestNamespace:
    def test_all_is_unchanged(self):
        assert degmatch.__all__ == ["__version__", *(name for names in EXPORTS.values() for name in names)]

    @pytest.mark.parametrize("home", list(EXPORTS))
    def test_each_name_is_its_home_modules_object(self, home):
        module = importlib.import_module(f"degmatch.{home}")
        for name in EXPORTS[home]:
            assert getattr(degmatch, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module.__name__, name

    @pytest.mark.parametrize("home", list(EXTRAS))
    def test_each_modules_all_is_unchanged(self, home):
        names = importlib.import_module(f"degmatch.{home}").__all__
        assert len(set(names)) == len(names)
        assert set(names) == {*EXPORTS[home], *EXTRAS[home]}

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from degmatch import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(degmatch.__all__)
        assert namespace["__version__"] == degmatch.__version__

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match=r"^module 'degmatch' has no attribute 'nope'$"):
            degmatch.nope
        assert not hasattr(degmatch, "nope")

    def test_dir_lists_all(self):
        assert set(degmatch.__all__) <= set(dir(degmatch))

    def test_submodule_list_is_complete(self):
        assert sorted(info.name for info in pkgutil.iter_modules(degmatch.__path__)) == sorted(SUBMODULES)


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that finds this degmatch; its stdout.
    ``-S`` skips the site module, so no ``.pth`` file preloads a module."""
    env = dict(os.environ, PYTHONPATH=str(Path(degmatch.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# prints the degmatch modules loaded, and json and pathlib if loaded; it
# imports no json itself
LOADED = "import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] in ('degmatch', 'json', 'pathlib')))"
PARSER = ["degmatch", "degmatch.cli", "degmatch.constants", "degmatch.errors"]


def loaded(code: str) -> tuple[list[str], set[str]]:
    """The degmatch modules, and which of json and pathlib, ``code`` loads."""
    names = fresh(f"{code}\n{LOADED}").split()
    return [m for m in names if m.startswith("degmatch")], {m for m in names if m in ("json", "pathlib")}


class TestFreshInterpreter:
    """Each case runs in its own interpreter, so nothing is preloaded."""

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_each_submodule_imports_first(self, name):
        fresh(f"import degmatch.{name}")

    def test_import_loads_no_submodule(self):
        assert loaded("import degmatch") == (["degmatch"], set())

    def test_a_submodule_resolves_on_attribute_access(self):
        fresh(
            "import sys, degmatch\n"
            "assert 'degmatch.enumeration' not in sys.modules\n"
            "assert degmatch.enumeration is sys.modules['degmatch.enumeration']\n"
            "assert degmatch.count_realizations is degmatch.enumeration.count_realizations\n"
        )

    def test_errors_imports_nothing(self):
        """Every call loads ``errors``, so it loads nothing more."""
        added = fresh(
            "import sys, degmatch\n"
            "before = set(sys.modules)\n"
            "import degmatch.errors\n"
            "print(*sorted(set(sys.modules) - before))"
        )
        assert added.split() == ["degmatch.errors"]

    def test_the_parser_loads_only_the_constants(self):
        assert loaded("import degmatch.cli\ndegmatch.cli.build_parser()") == (PARSER, set())

    @pytest.mark.parametrize(
        "argv, kernels",
        [
            (["check", "--seq", "3,3,2,2"], ["graphicality", "sequences"]),
            (["extend", "--seq", "3,3,2,2", "--delta", "2"], ["graphicality", "sequences"]),
            (["nu-star", "--seq", "3,3,2,2"], ["graphicality", "sequences"]),
            (["delta-star", "--seq", "3,3,2,2"], ["graphicality", "sequences"]),
            (["realize", "--seq", "3,3,2,2"], ["graphicality", "graphs", "sequences"]),
            (["family", "--kind", "cycle", "--n", "6"], ["families", "graphs"]),
            (["bounds", "--seq", "3,3,2,2"], ["bounds", "graphicality", "sequences"]),
            (["grow", "--seq", "2,2,2", "--steps", "2"], ["dpg", "graphicality", "graphs", "sequences"]),
            (["check", "--seq", "3,3,2,2", "--format", "json"], ["graphicality", "sequences"]),
            (["grow", "--seq", "2,2,2", "--steps", "2", "--format", "json"],
             ["dpg", "graphicality", "graphs", "sequences"]),
            (["--help"], []),
            (["--version"], []),
            (["check", "--help"], []),
            (["check"], []),  # usage error: no --seq
            (["nope"], []),  # usage error: no such command
            (["grow", "--seq", "2,2,2", "--steps", "1_0"], []),  # a refused int flag, echoed
            (["family", "--kind", "cycle", "--n", "2"], ["families", "graphs"]),  # a refused parameter, echoed
            (["grow", "--graph", "<triangle>", "--steps", "1"], ["dpg", "graphs"]),
        ],
    )
    def test_a_command_loads_only_what_it_runs(self, tmp_path, argv, kernels):
        triangle = tmp_path / "triangle.txt"
        triangle.write_text("0 1\n1 2\n0 2\n")
        argv = [str(triangle) if a == "<triangle>" else a for a in argv]
        modules, stdlib = loaded(
            "import contextlib, io, degmatch.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        degmatch.cli.main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass"
        )
        assert modules == sorted(PARSER + [f"degmatch.{name}" for name in kernels])
        assert stdlib == ({"json"} if "json" in argv else set())


def subparser(name: str) -> argparse.ArgumentParser:
    (commands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[name]


class TestParseTimeConstants:
    """Each constant the parser shows has one definition, in ``constants``;
    the modules that use it export that very object."""

    def test_the_kinds_are_the_family_table(self):
        assert constants.FAMILY_KINDS == tuple(families._FAMILIES)
        assert families.FAMILY_KINDS is constants.FAMILY_KINDS

    def test_one_object_per_constant(self):
        assert dpg.MATCHING_POLICIES is constants.MATCHING_POLICIES
        assert enumeration.DEFAULT_MAX_N is constants.DEFAULT_MAX_N
        assert enumeration.DEFAULT_MAX_DEGREE_SUM is constants.DEFAULT_MAX_DEGREE_SUM

    def test_the_parser_shows_them(self):
        (policy,) = (a for a in subparser("grow")._actions if a.dest == "matching_policy")
        assert policy.choices == constants.MATCHING_POLICIES
        args = cli.build_parser().parse_args(["enumerate", "--seq", "1,1"])
        assert (args.max_n, args.max_sum) == (constants.DEFAULT_MAX_N, constants.DEFAULT_MAX_DEGREE_SUM)
        (kind,) = (a for a in subparser("family")._actions if a.dest == "kind")
        assert kind.help == f"one of: {', '.join(constants.FAMILY_KINDS)}"
