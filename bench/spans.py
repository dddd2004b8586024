"""Span tracing of degmatch from outside the package.

``install`` wraps the public functions of every degmatch module, and the
public methods of its public classes, in every place the object is bound
(``max_matching`` is bound in graphs, dpg, enumeration, cli and the package
itself). ``uninstall`` puts the original objects back. Nothing under
``src/`` changes, and an untraced run installs nothing.

A span records its name, start, end, parent span and query id. Spans are
held in flat arrays and written once, at the end of the run. Generator
functions (``enumerate_realizations``, ``all_graphic_sequences``) get one
span per resume, so their self time covers the work done between yields and
nothing else. ``__post_init__`` is traced under the name ``construct``.
Properties are not wrapped.

The workloads are single-threaded and have no queues, so no layer ever
waits; there are no wait metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

MODULES = ("sequences", "graphicality", "graphs", "bounds", "families", "enumeration", "dpg", "cli")
CLI_PUBLIC = ("main", "build_parser")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.yielded = array("b")
        self.stack: list[int] = []
        self.query_id = -1
        self.active = False
        self.t0 = perf_counter()

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.yielded.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not self.active:
                    return it
                self.calls[nid] += 1
                return self._resumes(nid, it)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[nid] += 1
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _resumes(self, nid: int, it):
        while True:
            idx = self.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.yielded[idx] = 1
            yield item

    def write(self, path) -> None:
        """Write every span once, as gzipped JSON with one array per field."""
        payload = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "query"],
            "name": list(self.name_of),
            "start_s": [round(t - self.t0, 7) for t in self.start],
            "end_s": [round(t - self.t0, 7) for t in self.end],
            "parent": list(self.parent),
            "query": list(self.query),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def _public_objects(module):
    names = getattr(module, "__all__", CLI_PUBLIC)
    for attr in names:
        obj = getattr(module, attr)
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every public function and method; return the undo list."""
    modules = {short: importlib.import_module(f"degmatch.{short}") for short in MODULES}
    replaced: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []
    for short, module in modules.items():
        for attr, obj in _public_objects(module):
            if inspect.isfunction(obj):
                replaced[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__post_init__":
                        continue
                    label = f"{short}.{obj.__name__}.{'construct' if meth == '__post_init__' else meth}"
                    if isinstance(raw, (staticmethod, classmethod)):
                        new = type(raw)(tracer.wrap(label, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = tracer.wrap(label, raw)
                    else:
                        continue
                    undo.append((obj, meth, raw))
                    setattr(obj, meth, new)
    owners = [importlib.import_module("degmatch"), *modules.values()]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if id(value) in replaced:
                undo.append((owner, attr, value))
                setattr(owner, attr, replaced[id(value)])
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, float]:
    """Calls and self time per traced function and per module, plus ratios."""
    n = len(tracer.start)
    names = tracer.names
    name_of, parent, start, end = tracer.name_of, tracer.parent, tracer.start, tracer.end
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    self_s = [0.0] * len(names)
    for i in range(n):
        self_s[name_of[i]] += end[i] - start[i] - child[i]

    def inside(target: str) -> list[bool]:
        # spans are stored in start order, so a parent always precedes its children
        ids = {k for k, name in enumerate(names) if name == target}
        flag = [False] * n
        for i in range(n):
            p = parent[i]
            flag[i] = name_of[i] in ids or (p >= 0 and flag[p])
        return flag

    def count_where(name: str, flags: list[bool], yielded_only: bool = False) -> int:
        ids = {k for k, nm in enumerate(names) if nm == name}
        return sum(
            1 for i in range(n)
            if name_of[i] in ids and flags[i] and (not yielded_only or tracer.yielded[i])
        )

    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + tracer.calls[k]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s[k]
    for short in MODULES:
        members = [k for k, name in enumerate(names) if name.startswith(short + ".")]
        out[f"{short}.calls"] = sum(tracer.calls[k] for k in members)
        out[f"{short}.self_s"] = sum(self_s[k] for k in members)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    in_grow = inside("dpg.grow")
    in_row = inside("enumeration.nu_bar_sequence")
    steps = out.get("dpg.dp_step.calls", 0)
    out["graphicality.eg_calls_per_query"] = ratio(out.get("graphicality.is_graphic_eg.calls", 0), queries)
    out["dpg.max_matching_per_step"] = ratio(count_where("graphs.max_matching", in_grow), steps)
    out["dpg.graphs_built_per_step"] = ratio(count_where("graphs.Graph.construct", in_grow), steps)
    out["enumeration.realizations_yielded"] = sum(tracer.yielded[i] for i in range(n) if names[name_of[i]] == "enumeration.enumerate_realizations")
    out["enumeration.realizations_per_row"] = ratio(
        count_where("enumeration.enumerate_realizations", in_row, yielded_only=True),
        out.get("enumeration.nu_bar_sequence.calls", 0),
    )
    out["trace.spans"] = n
    return out
