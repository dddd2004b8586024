"""Command-line interface.

Every operation is exposed as a subcommand with machine-readable output
(``--format json|csv|text``). Domain failures exit 1 with a one-line
``ERROR <code>: message`` on stderr; usage errors exit 2.

A command's ``_cmd_*`` returns what it prints: its finished text, or a
record (a dict) that ``main`` renders in the chosen format with ``_render``;
``check`` also returns its exit code. ``main`` then writes the text once, to
``--out`` or stdout, inside the same error handling as the command.
Every subcommand is a row of ``_COMMANDS``: its handler, its required
source group (``--seq | --seq-file``, bounds' extra ``--graph``, grow's own
``--graph | --seq``, or none) and its other flags in --help order, so
``build_parser`` is one loop over the rows. Every int flag is read by
``_int``, through ``errors._integers``, the rule a --seq entry is read by.

``main`` runs one argparse pass per call: an argv that starts with a
command is read by that command's parser alone (``_parse_args``), with the
result the two-level parse of ``build_parser`` gives.

The parser needs only ``constants`` for its choices and defaults, and each
``_cmd_*`` imports the kernels it calls in its own body, so a call loads
only the modules its command runs: ``check``, ``extend``, ``nu-star`` and
``delta-star`` load ``sequences`` and ``graphicality`` and nothing else.
The same rule holds for the standard library: files are read and written
with ``open``, not ``pathlib``, and ``json`` is imported only where JSON is
written, so a text or CSV call, ``--help``, ``--version`` and a usage error
load neither.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import __version__
from .constants import DEFAULT_MAX_DEGREE_SUM, DEFAULT_MAX_N, FAMILY_KINDS, MATCHING_POLICIES
from .errors import DegmatchError, _integers, _refused

_FAMILY_FLAGS = ("n", "t", "l", "r", "a", "b", "k")  # the family command's parameters, in --help order


def _render(record: dict, fmt: str) -> str:
    """A record as one JSON line, a CSV header and row, or ``key: value`` lines."""
    if fmt == "json":
        import json

        return json.dumps(record) + "\n"
    if fmt == "csv":
        return ",".join(record) + "\n" + ",".join(map(str, record.values())) + "\n"
    return "".join(f"{k}: {v}\n" for k, v in record.items())


def _read_text(path: str) -> str:
    """The text of an input file. A file that is not UTF-8 is an IO error
    that names the file, as a missing file's is."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"not UTF-8 text: {path!r} ({exc.reason} at byte {exc.start})") from None


def _load_graph(path: str):
    from .graphs import Graph

    return Graph.from_edge_list_text(_read_text(path))


def _resolve_sequence(args: argparse.Namespace):
    """The --seq or --seq-file sequence; the parser requires one of them.
    ``grow`` has no --seq-file, and calls this only when --seq is given."""
    from .sequences import parse_sequence

    if args.seq is not None:
        return parse_sequence(args.seq)
    return parse_sequence(_read_text(args.seq_file))


def _cmd_check(args: argparse.Namespace) -> tuple[str | dict, int]:
    from .graphicality import is_graphic_eg

    verdict = is_graphic_eg(_resolve_sequence(args), check_all_k=args.all_k)
    if args.format != "text":
        result = {
            "is_graphic": verdict.is_graphic,
            "parity_ok": verdict.parity_ok,
            "failing_k": verdict.failing_k,
        }
    elif verdict.is_graphic:
        result = "graphic\n"
    elif not verdict.parity_ok:
        result = "not graphic (odd degree sum)\n"
    else:
        result = f"not graphic (Erdős–Gallai fails at k={verdict.failing_k})\n"
    return result, 0 if verdict.is_graphic else 1


def _cmd_realize(args: argparse.Namespace) -> str | dict:
    from .graphicality import _hh_rows, require_graphic
    from .graphs import _edge_lines, _edge_list_text

    d = _resolve_sequence(args)
    require_graphic(d)
    rows = _hh_rows(d.degrees)
    if args.format == "json":
        edges = _edge_lines(rows, "-")
        return {"n": d.n, "m": len(edges), "edges": ";".join(edges)}
    if args.format == "csv":
        return "\n".join(["u,v", *_edge_lines(rows, ",")]) + "\n"
    return _edge_list_text(rows)


def _cmd_bounds(args: argparse.Namespace) -> dict:
    from .bounds import bound_report

    graph = _load_graph(args.graph) if args.graph is not None else None
    d = graph.degree_sequence() if graph is not None else _resolve_sequence(args)
    report = bound_report(d)
    record: dict = {"n": d.n, "m": d.edge_count_if_graphic}
    if graph is not None:
        from .graphs import max_matching

        record["nu"] = max_matching(graph).size
    return record | report.as_record()


def _cmd_delta_star(args: argparse.Namespace) -> dict:
    from .graphicality import delta_star

    return {"delta_star": delta_star(_resolve_sequence(args))}


def _cmd_nu_star(args: argparse.Namespace) -> dict:
    from .graphicality import nu_star

    value = nu_star(_resolve_sequence(args))
    return {"nu_star": value, "delta_star": 2 * value}


def _cmd_extend(args: argparse.Namespace) -> str | dict:
    from .graphicality import extension_feasible

    feasible = extension_feasible(_resolve_sequence(args), args.delta)
    if args.format == "text":
        return ("feasible" if feasible else "infeasible") + "\n"
    return {"delta": args.delta, "feasible": feasible}


def _cmd_grow(args: argparse.Namespace) -> str:
    from .dpg import grow

    if args.graph is not None:
        g0 = _load_graph(args.graph)
    else:
        from .graphicality import realize_hh

        g0 = realize_hh(_resolve_sequence(args))
    trace = grow(
        g0,
        args.steps,
        delta_policy=args.policy,
        rng_seed=args.rng_seed,
        matching_policy=args.matching_policy,
    )
    if args.format == "json":
        return trace.to_json() + "\n"
    if args.format == "csv":
        return trace.to_csv()
    lines = [
        f"seed: n={trace.seed_vertex_count} m={trace.seed_edge_count}",
    ]
    for s in trace.steps:
        lines.append(
            f"step {s.step_index}: delta={s.delta} new_vertex={s.new_vertex} "
            f"n={s.resulting_vertex_count} m={s.resulting_edge_count}"
        )
    if trace.halted_early:
        lines.append(f"halted after {len(trace.steps)} of {trace.requested_steps} steps")
    return "\n".join(lines) + "\n"


def _cmd_family(args: argparse.Namespace) -> str:
    from .families import make_family

    params = {
        key: getattr(args, key)
        for key in _FAMILY_FLAGS
        if getattr(args, key) is not None
    }
    return make_family(args.kind, **params).to_edge_list_text()


def _cmd_enumerate(args: argparse.Namespace) -> str | dict:
    from .enumeration import count_realizations, enumerate_realizations

    d = _resolve_sequence(args)
    if args.format == "json":  # the count alone: no realization is built
        return {"count": count_realizations(d, max_n=args.max_n, max_degree_sum=args.max_sum)}
    realizations = enumerate_realizations(d, max_n=args.max_n, max_degree_sum=args.max_sum)
    edges = [";".join(f"{u}-{v}" for u, v in sorted(g.edges)) for g in realizations]
    if args.format == "csv":
        lines = ["index,edges", *(f"{i},{e}" for i, e in enumerate(edges))]
    else:
        lines = [f"count: {len(edges)}", *(e or "-" for e in edges)]
    return "\n".join(lines) + "\n"


def _cmd_scan_conjecture(args: argparse.Namespace) -> str:
    from .enumeration import conjecture_scan, rows_to_csv

    rows = conjecture_scan(args.max_n)
    if args.format == "json":
        records = (
            {
                "sequence": r.sequence.to_text(),
                "nu_bar": r.nu_bar_d,
                "ell_star": r.ell_star,
                "k_star": r.k_star,
                "equal": r.equal,
            }
            for r in rows
        )
        return "".join(_render(record, "json") for record in records)
    if args.format == "text":
        lines = [f"{'sequence':<16} nu_bar ell_star k_star equal"]
        for r in rows:
            lines.append(
                f"{r.sequence.to_text():<16} {r.nu_bar_d:>6} {r.ell_star:>8} "
                f"{r.k_star:>6} {str(r.equal).lower()}"
            )
        return "\n".join(lines) + "\n"
    return rows_to_csv(rows)


def _int(text: str) -> int:
    """The type of every int flag, read by ``errors._integers``, the rule of
    every integer in the input, so ``int``'s ``1_0`` and ``٣`` are refused.
    A refused value is a usage error whose message ``errors._refused``
    builds."""
    try:
        return _integers([text])[0]
    except ValueError:
        raise _refused("invalid int value: {}", text, error=argparse.ArgumentTypeError) from None


def _output(fmt_default: str = "text") -> list:
    """The --format and --out flags, last in a command's --help."""
    return [("--format", {"choices": ("json", "csv", "text"), "default": fmt_default}),
            ("--out", {"help": "write output to this file instead of stdout"})]


# a command's source: the flags of its required, mutually exclusive group
_SEQ = (("--seq", "comma-separated degrees, e.g. 3,2,2,1"),
        ("--seq-file", "file containing a comma-separated sequence"))

# Every subcommand in --help order: name, help, handler, source (empty if
# the command has none) and its other flags in --help order.
_COMMANDS = (
    ("check", "decide whether a sequence is graphic", _cmd_check, _SEQ,
     [("--all-k", {"action": "store_true", "help": "check every index, not just the jump loci"}), *_output()]),
    ("realize", "build one realization of a graphic sequence", _cmd_realize, _SEQ, _output()),
    ("bounds", "evaluate all matching bounds", _cmd_bounds, (*_SEQ, ("--graph", "edge-list file")), _output()),
    ("delta-star", "largest feasible extension degree", _cmd_delta_star, _SEQ, _output()),
    ("nu-star", "maximum matching number over realizations", _cmd_nu_star, _SEQ, _output()),
    ("extend", "can the sequence absorb a new even degree?", _cmd_extend, _SEQ,
     [("--delta", {"type": _int, "required": True}), *_output()]),
    ("grow", "run degree-preserving growth", _cmd_grow,
     (("--graph", "edge-list file with the seed graph"), ("--seq", "seed degree sequence (realized first)")),
     [("--steps", {"type": _int, "default": 10}),
      ("--policy", {"default": "max", "help": "fixed:<delta>, random, or max"}),
      ("--matching-policy", {"choices": MATCHING_POLICIES, "default": "random"}),
      ("--rng-seed", {"type": _int, "default": 0}),
      *_output("csv")]),
    ("family", "emit a named graph family as an edge list", _cmd_family, (),
     [("--kind", {"required": True, "help": f"one of: {', '.join(FAMILY_KINDS)}"}),
      *((f"--{flag}", {"type": _int}) for flag in _FAMILY_FLAGS),
      ("--out", {})]),
    ("enumerate", "list every labelled realization", _cmd_enumerate, _SEQ,
     [("--max-n", {"type": _int, "default": DEFAULT_MAX_N, "help": "vertex-count cap"}),
      ("--max-sum", {"type": _int, "default": DEFAULT_MAX_DEGREE_SUM, "help": "degree-sum cap"}),
      *_output()]),
    ("scan-conjecture", "tabulate nu_bar(d) against ell*", _cmd_scan_conjecture, (),
     [("--max-n", {"type": _int, "default": 5}), *_output("csv")]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degmatch",
        description="Degree-sequence toolkit: graphicality, matchings, bounds, growth.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text, func, source, flags in _COMMANDS:
        p = commands.add_parser(name, help=text)
        p.set_defaults(func=func)
        if source:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, flag_help in source:
                group.add_argument(flag, help=flag_help)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser ``main`` uses and its subcommands' parsers by name, built
    on first use and reused for the life of the process: parsing leaves no
    state in them, and building them costs more than most queries."""
    parser = build_parser()
    return parser, next(action for action in parser._actions if action.dest == "command").choices


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass when
    ``argv[0]`` names a subcommand: that subcommand's parser reads the rest,
    and what it leaves is refused by the top-level parser, as the top-level
    parser would refuse it. Any other argv, and one holding ``--`` or an
    argument that begins ``--=`` goes through the top-level parser: it
    reads ``--`` itself, and refuses ``--=x`` as an abbreviation of both
    --help and --version, before it hands the rest to the command."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None or any(arg == "--" or arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        result = args.func(args)
        result, code = result if isinstance(result, tuple) else (result, 0)
        text = result if isinstance(result, str) else _render(result, args.format)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return code
    except DegmatchError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
