"""Command-line interface.

Every operation is exposed as a subcommand with machine-readable output
(``--format json|csv|text``). Domain failures exit 1 with a one-line
``ERROR <code>: message`` on stderr; usage errors exit 2.

The parser needs only ``constants`` for its choices and defaults, and each
``_cmd_*`` imports the kernels it calls in its own body, so a call loads
only the modules its command runs: ``check``, ``extend``, ``nu-star`` and
``delta-star`` load ``sequences`` and ``graphicality`` and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .constants import DEFAULT_MAX_DEGREE_SUM, DEFAULT_MAX_N, FAMILY_KINDS, MATCHING_POLICIES
from .errors import DegmatchError

_FAMILY_FLAGS = ("n", "t", "l", "r", "a", "b", "k")  # the family command's parameters, in --help order


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _record_text(record: dict) -> str:
    return "".join(f"{k}: {v}\n" for k, v in record.items())


def _record_csv(record: dict) -> str:
    keys = list(record)
    values = ",".join(str(record[k]) for k in keys)
    return ",".join(keys) + "\n" + values + "\n"


def _emit_record(record: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps(record) + "\n", out)
    elif fmt == "csv":
        _emit(_record_csv(record), out)
    else:
        _emit(_record_text(record), out)


def _read_text(path: str) -> str:
    """The text of an input file. A file that is not UTF-8 is an IO error
    that names the file, as a missing file's is."""
    try:
        return Path(path).read_text()
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


def _cmd_check(args: argparse.Namespace) -> int:
    from .graphicality import is_graphic_eg

    d = _resolve_sequence(args)
    verdict = is_graphic_eg(d, check_all_k=args.all_k)
    record = {
        "is_graphic": verdict.is_graphic,
        "parity_ok": verdict.parity_ok,
        "failing_k": verdict.failing_k,
    }
    if args.format == "text":
        if verdict.is_graphic:
            text = "graphic\n"
        elif not verdict.parity_ok:
            text = "not graphic (odd degree sum)\n"
        else:
            text = f"not graphic (Erdős–Gallai fails at k={verdict.failing_k})\n"
        _emit(text, args.out)
    else:
        _emit_record(record, args.format, args.out)
    return 0 if verdict.is_graphic else 1


def _cmd_realize(args: argparse.Namespace) -> int:
    from .graphicality import _hh_rows, require_graphic
    from .graphs import _edge_lines, _edge_list_text

    d = _resolve_sequence(args)
    require_graphic(d)
    rows = _hh_rows(d.degrees)
    if args.format == "json":
        edges = _edge_lines(rows, "-")
        _emit_record({"n": d.n, "m": len(edges), "edges": ";".join(edges)}, "json", args.out)
    elif args.format == "csv":
        _emit("\n".join(["u,v", *_edge_lines(rows, ",")]) + "\n", args.out)
    else:
        _emit(_edge_list_text(rows), args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import bound_report

    graph = _load_graph(args.graph) if args.graph else None
    d = graph.degree_sequence() if graph is not None else _resolve_sequence(args)
    report = bound_report(d)
    record: dict = {"n": d.n, "m": d.edge_count_if_graphic}
    if graph is not None:
        from .graphs import max_matching

        record["nu"] = max_matching(graph).size
    record.update(report.as_record())
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_delta_star(args: argparse.Namespace) -> int:
    from .graphicality import delta_star

    d = _resolve_sequence(args)
    record = {"delta_star": delta_star(d)}
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_nu_star(args: argparse.Namespace) -> int:
    from .graphicality import nu_star

    d = _resolve_sequence(args)
    value = nu_star(d)
    record = {"nu_star": value, "delta_star": 2 * value}
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    from .graphicality import extension_feasible

    d = _resolve_sequence(args)
    feasible = extension_feasible(d, args.delta)
    if args.format == "text":
        _emit(("feasible" if feasible else "infeasible") + "\n", args.out)
    else:
        _emit_record({"delta": args.delta, "feasible": feasible}, args.format, args.out)
    return 0


def _cmd_grow(args: argparse.Namespace) -> int:
    from .dpg import grow

    if args.graph:
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
        _emit(trace.to_json() + "\n", args.out)
    elif args.format == "csv":
        _emit(trace.to_csv(), args.out)
    else:
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
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from .families import make_family

    params = {
        key: getattr(args, key)
        for key in _FAMILY_FLAGS
        if getattr(args, key) is not None
    }
    g = make_family(args.kind, **params)
    _emit(g.to_edge_list_text(), args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_realizations

    d = _resolve_sequence(args)
    realizations = list(
        enumerate_realizations(d, max_n=args.max_n, max_degree_sum=args.max_sum)
    )
    if args.format == "json":
        _emit_record({"count": len(realizations)}, "json", args.out)
    elif args.format == "csv":
        lines = ["index,edges"]
        for i, g in enumerate(realizations):
            lines.append(f"{i},{';'.join(f'{u}-{v}' for u, v in sorted(g.edges))}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"count: {len(realizations)}"]
        for g in realizations:
            lines.append(";".join(f"{u}-{v}" for u, v in sorted(g.edges)) or "-")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_scan_conjecture(args: argparse.Namespace) -> int:
    from .enumeration import conjecture_scan, rows_to_csv

    rows = conjecture_scan(args.max_n)
    if args.format == "json":
        lines = [
            json.dumps(
                {
                    "sequence": r.sequence.to_text(),
                    "nu_bar": r.nu_bar_d,
                    "ell_star": r.ell_star,
                    "k_star": r.k_star,
                    "equal": r.equal,
                }
            )
            for r in rows
        ]
        _emit("".join(line + "\n" for line in lines), args.out)
    elif args.format == "text":
        lines = [f"{'sequence':<16} nu_bar ell_star k_star equal"]
        for r in rows:
            lines.append(
                f"{r.sequence.to_text():<16} {r.nu_bar_d:>6} {r.ell_star:>8} "
                f"{r.k_star:>6} {str(r.equal).lower()}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, fmt_default: str = "text") -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default=fmt_default)
    sub.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _add_sequence_source(sub: argparse.ArgumentParser, *, with_graph: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", help="comma-separated degrees, e.g. 3,2,2,1")
    group.add_argument("--seq-file", help="file containing a comma-separated sequence")
    if with_graph:
        group.add_argument("--graph", help="edge-list file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degmatch",
        description="Degree-sequence toolkit: graphicality, matchings, bounds, growth.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check", help="decide whether a sequence is graphic")
    _add_sequence_source(p)
    p.add_argument("--all-k", action="store_true", help="check every index, not just the jump loci")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = commands.add_parser("realize", help="build one realization of a graphic sequence")
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_realize)

    p = commands.add_parser("bounds", help="evaluate all matching bounds")
    _add_sequence_source(p, with_graph=True)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = commands.add_parser("delta-star", help="largest feasible extension degree")
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_delta_star)

    p = commands.add_parser("nu-star", help="maximum matching number over realizations")
    _add_sequence_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_nu_star)

    p = commands.add_parser("extend", help="can the sequence absorb a new even degree?")
    _add_sequence_source(p)
    p.add_argument("--delta", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_extend)

    p = commands.add_parser("grow", help="run degree-preserving growth")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="edge-list file with the seed graph")
    group.add_argument("--seq", help="seed degree sequence (realized first)")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--policy", default="max", help="fixed:<delta>, random, or max")
    p.add_argument("--matching-policy", choices=MATCHING_POLICIES, default="random")
    p.add_argument("--rng-seed", type=int, default=0)
    _add_common(p, fmt_default="csv")
    p.set_defaults(func=_cmd_grow)

    p = commands.add_parser("family", help="emit a named graph family as an edge list")
    p.add_argument("--kind", required=True, help=f"one of: {', '.join(FAMILY_KINDS)}")
    for flag in _FAMILY_FLAGS:
        p.add_argument(f"--{flag}", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_family)

    p = commands.add_parser("enumerate", help="list every labelled realization")
    _add_sequence_source(p)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="vertex-count cap")
    p.add_argument("--max-sum", type=int, default=DEFAULT_MAX_DEGREE_SUM, help="degree-sum cap")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = commands.add_parser("scan-conjecture", help="tabulate nu_bar(d) against ell*")
    p.add_argument("--max-n", type=int, default=5)
    _add_common(p, fmt_default="csv")
    p.set_defaults(func=_cmd_scan_conjecture)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and reused for the life of
    the process: parsing leaves no state in it, and building it costs more
    than most queries."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DegmatchError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
