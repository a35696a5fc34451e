"""Weighted-graph data model with exact rational vertex costs.

Vertices are the integers 0..n-1.  Adjacency is symmetric and loop-free.
Every vertex carries a nonnegative cost stored as a reduced
``fractions.Fraction``; no floating point enters any computation here or
downstream, because dual-integrality questions must be decided exactly.

Graphs are immutable after construction and all operations are pure, so
instances can be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import GraphParseError, GuardError, clip

#: A scenario is a sorted, duplicate-free tuple of vertex ids.
Scenario = tuple[int, ...]


def parse_fraction(text: str) -> Fraction:
    """Parse ``"num"`` or ``"num/den"`` into an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        return Fraction(int(num_s), int(den_s))
    return Fraction(int(text))


def fraction_str(value: Fraction) -> str:
    """Canonical text form: ``"3"`` or ``"5/2"`` (reduced, positive denominator)."""
    return str(Fraction(value))


def to_int_scale(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Exact integer form of a rational vector: ``(D, [D * x for x in values])``
    with D the least common multiple of the denominators (1 for an empty
    or all-integer vector), so ``Fraction(ints[i], D) == values[i]``."""
    # Unpack a list, not a generator: CPython sizes the argument tuple of a
    # generator by resizing a guess, and in a loop that leaves up to 2000
    # spare tuples of each small size on its free lists (about 2 MB of
    # resident memory when every simplex row is scaled here).
    scale = math.lcm(*[x.denominator for x in values])
    return scale, [x.numerator * (scale // x.denominator) for x in values]


#: Vertex ceiling for :func:`parse_graph` and ``generators.from_spec`` when
#: no ``max_n`` (``--max-n``) is given.  Far above every graph the verbs can
#: solve (each exact search has its own guard at n <= 30) and every graph
#: of the tests, demos and benchmark (at most 25 vertices without
#: ``--max-n``), it leaves room for ``cliques`` and ``generate`` while
#: keeping a header or a spec from allocating unbounded work: the edge
#: list grows with n^2, and ``complete:500`` already builds 124,750 edges.
DEFAULT_MAX_N = 500


def check_vertex_count(n: int, max_n: int | None) -> None:
    """Raise GuardError when a graph of n vertices exceeds ``max_n``, or
    :data:`DEFAULT_MAX_N` when ``max_n`` is None."""
    if max_n is None:
        if n > DEFAULT_MAX_N:
            raise GuardError(
                f"graph has {clip(str(n))} vertices, above the default ceiling of {DEFAULT_MAX_N}"
                " (raise it with --max-n)"
            )
    elif n > max_n:
        raise GuardError(f"graph has {clip(str(n))} vertices, --max-n is {max_n}")


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple graph with per-vertex rational costs.

    ``edges`` is the canonical edge list: each pair (u, v) with u < v, the
    list sorted ascending.  ``weights[v]`` is the cost of vertex v.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Iterable[Fraction | int] | None = None,
        labels: Iterable[str] | None = None,
    ) -> "WeightedGraph":
        """Validate and canonicalize raw construction data.

        Rejects self-loops, duplicate edges, out-of-range endpoints and
        negative weights.  Missing weights default to 1.
        """
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            canon.append(e)
        canon.sort()
        if weights is None:
            w = tuple(Fraction(1) for _ in range(n))
        else:
            w = tuple(Fraction(x) for x in weights)
            if len(w) != n:
                raise ValueError(f"expected {n} weights, got {len(w)}")
            for v, x in enumerate(w):
                if x < 0:
                    raise ValueError(f"negative weight {x} at vertex {v}")
        lab = None
        if labels is not None:
            lab = tuple(str(s) for s in labels)
            if len(lab) != n:
                raise ValueError(f"expected {n} labels, got {len(lab)}")
        return cls(n=n, edges=tuple(canon), weights=w, labels=lab)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighborhood bitmasks: bit v of adj[u] is set iff {u,v} is an edge."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return bool(self.adj[u] >> v & 1)

    def with_weights(self, weights: Iterable[Fraction | int]) -> "WeightedGraph":
        """Same structure, different cost vector."""
        return WeightedGraph.from_edges(self.n, self.edges, weights, self.labels)


def make_scenario(members: Iterable[int], n: int) -> Scenario:
    """Canonicalize a vertex subset: sorted, duplicate-free, range-checked."""
    s = tuple(sorted(set(members)))
    for v in s:
        if not (0 <= v < n):
            raise ValueError(f"scenario member {v} outside 0..{n - 1}")
    return s


def scenario_mask(s: Scenario) -> int:
    mask = 0
    for v in s:
        mask |= 1 << v
    return mask


def mask_to_scenario(mask: int) -> Scenario:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def induced_subgraph(
    g: WeightedGraph, members: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Subgraph induced on ``members`` plus the id map back to ``g``.

    Returns ``(h, vertex_map)`` where ``vertex_map[i]`` is the vertex of
    ``g`` that became vertex ``i`` of ``h``.  Weights and labels carry over.
    """
    s = make_scenario(members, g.n)
    index = {old: new for new, old in enumerate(s)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    weights = [g.weights[old] for old in s]
    labels = None if g.labels is None else [g.labels[old] for old in s]
    return WeightedGraph.from_edges(len(s), edges, weights, labels), s


def complement(g: WeightedGraph) -> WeightedGraph:
    """Complement graph: adjacency inverted off the diagonal, weights kept."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return WeightedGraph.from_edges(g.n, edges, g.weights, g.labels)


def parse_graph(text: str, max_n: int | None = None) -> WeightedGraph:
    """Parse the line-oriented graph file format.

    Format (``#`` starts a comment, blank lines ignored)::

        p <n> <m>          header: vertex and edge counts
        e <u> <v>          one line per edge
        w <v> <num>[/<den>]  vertex cost; defaults to 1 when absent
        l <v> <name>       optional display label

    Every malformed construct is reported with its line number.  A header
    declaring more than ``max_n`` vertices (:data:`DEFAULT_MAX_N` when
    ``max_n`` is None) raises GuardError before anything is allocated for
    them.
    """
    n: int | None = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    weights: dict[int, Fraction] = {}
    labels: dict[int, str] = {}

    def fail(msg: str, lineno: int):
        raise GraphParseError(msg, line=lineno)

    def vertex_id(tok: str, lineno: int) -> int:
        try:
            v = int(tok)
        except ValueError:
            fail(f"expected a vertex id, got {clip(repr(tok))}", lineno)
        if n is None:
            fail("directive before 'p' header", lineno)
        if not (0 <= v < n):
            fail(f"vertex id {clip(str(v))} outside 0..{n - 1}", lineno)
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n is not None:
                fail("duplicate 'p' header", lineno)
            if len(parts) != 3:
                fail("header must be 'p <n> <m>'", lineno)
            try:
                n = int(parts[1])
                declared_m = int(parts[2])
            except ValueError:
                fail("header counts must be integers", lineno)
            if n < 0 or declared_m < 0:
                fail("header counts must be nonnegative", lineno)
            check_vertex_count(n, max_n)
        elif kind == "e":
            if len(parts) != 3:
                fail("edge line must be 'e <u> <v>'", lineno)
            u = vertex_id(parts[1], lineno)
            v = vertex_id(parts[2], lineno)
            if u == v:
                fail(f"self-loop at vertex {u}", lineno)
            e = (u, v) if u < v else (v, u)
            if e in edge_seen:
                fail(f"duplicate edge ({e[0]},{e[1]})", lineno)
            edge_seen.add(e)
            edges.append(e)
        elif kind == "w":
            if len(parts) != 3:
                fail("weight line must be 'w <v> <num>[/<den>]'", lineno)
            v = vertex_id(parts[1], lineno)
            if v in weights:
                fail(f"duplicate weight for vertex {v}", lineno)
            try:
                x = parse_fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                fail(f"bad rational {clip(repr(parts[2]))}", lineno)
            if x < 0:
                fail(f"negative weight {clip(str(x))} at vertex {v}", lineno)
            weights[v] = x
        elif kind == "l":
            if len(parts) < 3:
                fail("label line must be 'l <v> <name>'", lineno)
            v = vertex_id(parts[1], lineno)
            if v in labels:
                fail(f"duplicate label for vertex {v}", lineno)
            labels[v] = " ".join(parts[2:])
        else:
            fail(f"unknown directive {clip(repr(kind))}", lineno)

    if n is None:
        raise GraphParseError("missing 'p <n> <m>' header")
    if len(edges) != declared_m:
        raise GraphParseError(
            f"header declares {declared_m} edges but {len(edges)} were given"
        )

    w = [weights.get(v, Fraction(1)) for v in range(n)]
    lab = None
    if labels:
        lab = [labels.get(v, str(v)) for v in range(n)]
    return WeightedGraph.from_edges(n, edges, w, lab)


def serialize_graph(g: WeightedGraph) -> str:
    """Canonical text form; parsing it back yields an identical graph."""
    lines = [f"p {g.n} {len(g.edges)}"]
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    for v, x in enumerate(g.weights):
        if x != 1:
            lines.append(f"w {v} {fraction_str(x)}")
    if g.labels is not None:
        for v, name in enumerate(g.labels):
            lines.append(f"l {v} {name}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: WeightedGraph) -> dict:
    """JSON-ready form: n, edge pairs, weights as exact strings."""
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "weights": [fraction_str(x) for x in g.weights],
    }


def graph_from_json_dict(data: Mapping) -> WeightedGraph:
    return WeightedGraph.from_edges(
        int(data["n"]),
        [(int(u), int(v)) for u, v in data["edges"]],
        [parse_fraction(s) for s in data["weights"]],
    )
