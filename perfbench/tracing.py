"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of cliquecore at every module
attribute they are bound to (the modules import each other's functions by
name, so one function can sit in several modules), records a span per
call, and puts every original back when it is closed.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute) of each traced function; a dotted attribute is a
#: method patched on its class.  Span names drop the package prefix.
TRACED = [
    ("cliquecore.cli", "main"),
    ("cliquecore.graph", "parse_graph"),
    ("cliquecore.graph", "induced_subgraph"),
    ("cliquecore.graph", "complement"),
    ("cliquecore.generators", "random_bipartite"),
    ("cliquecore.generators", "random_chordal"),
    ("cliquecore.cliques", "maximal_cliques"),
    ("cliquecore.lp", "solve_general"),
    ("cliquecore.lp", "solve_primal"),
    ("cliquecore.lp", "solve_dual"),
    ("cliquecore.oracle", "max_weight_stable_set"),
    ("cliquecore.oracle", "cost"),
    ("cliquecore.oracle", "subset_cost_table"),
    ("cliquecore.oracle", "min_integral_clique_cover_value"),
    ("cliquecore.oracle", "four_program_chain"),
    ("cliquecore.core", "game_worth"),
    ("cliquecore.core", "compute_core_imputation"),
    ("cliquecore.core", "verify_core_certificate"),
    ("cliquecore.core", "ExhaustiveChecker.__init__"),
    ("cliquecore.core", "ExhaustiveChecker.check"),
    ("cliquecore.perfection", "is_perfect"),
    ("cliquecore.perfection", "find_odd_hole"),
    ("cliquecore.corpus", "build_corpus"),
    ("cliquecore.corpus", "run_instance_suite"),
]

_MARK = "_perfbench_original"


def span_name(module: str, attr: str) -> str:
    return module.removeprefix("cliquecore.") + "." + attr.replace("__init__", "init")


def _tableau_cells(lp) -> int:
    """Rows times columns of the dense tableau ``lp.solve_general`` builds:
    variables, one slack or surplus per inequality, one artificial per
    ``>=`` or ``=`` row after right-hand sides are made nonnegative, and
    the right-hand side."""
    artificial = 0
    for sense, b in zip(lp.senses, lp.rhs):
        if b < 0:
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        artificial += sense != "<="
    inequalities = sum(s != "=" for s in lp.senses)
    return len(lp.rows) * (len(lp.objective) + inequalities + artificial + 1)


def _count(counts: dict, name: str, args: tuple, result) -> None:
    """Work counts derived from a traced call's arguments and result."""
    if name == "lp.solve_general":
        counts["lp.tableau_cells"] += _tableau_cells(args[0])
    elif name == "cliques.maximal_cliques":
        counts["cliques.found"] += len(result)
    elif name == "oracle.subset_cost_table":
        counts["oracle.subset_cost_table.entries"] += len(result)
    elif name == "core.ExhaustiveChecker.check":
        counts["core.scenarios_checked"] += result.scenarios_checked
        counts["core.scenario_space"] += 1 << args[0].g.n
    elif name == "graph.parse_graph":
        counts["graph.parse_graph.bytes"] += len(args[0].encode("utf-8"))


class Tracer:
    """Context manager that patches every traced function on entry and
    restores it on exit.  ``spans`` holds ``[name, start, end, parent,
    call]`` lists, ``parent`` being an index into ``spans`` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {
            "lp.tableau_cells": 0,
            "cliques.found": 0,
            "oracle.subset_cost_table.entries": 0,
            "core.scenarios_checked": 0,
            "core.scenario_space": 0,
            "graph.parse_graph.bytes": 0,
        }
        self.call_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            _count(counts, name, args, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for module_name, attr in TRACED:
            module = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "cliquecore" or name.startswith("cliquecore."))
    ]


def leftover_wrappers() -> list[str]:
    """Names still bound to a wrapper; empty once every patch is undone."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                found += [
                    f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, _MARK)
                ]
    return found


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are merged first, so overlaps count once)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, call in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, call), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out
