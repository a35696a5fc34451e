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
import sys
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
    """Canonical text form, reduced: ``"3"`` or ``"5/2"``, by :func:`ratio_str`."""
    x = value if isinstance(value, (int, Fraction)) else Fraction(value)
    return ratio_str(x.numerator, x.denominator)


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` (``den >= 1``) without building the
    Fraction: the one place an exact number becomes decimal text.  A number
    with more digits than ``sys.get_int_max_str_digits()`` raises GuardError."""
    common = math.gcd(num, den)
    try:
        return str(num // den) if common == den else f"{num // common}/{den // common}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise GuardError(f"a number to write has more than {limit} digits") from None


def to_int_scale(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Exact integer form of a rational vector: ``(D, [D * x for x in values])``
    with D the least common multiple of the denominators (1 for an empty
    or all-integer vector), so ``Fraction(ints[i], D) == values[i]``."""
    # Unpack a list, not a generator: CPython sizes the argument tuple of a
    # generator by resizing a guess, and in a loop that leaves up to 2000
    # spare tuples of each small size on its free lists, where they stay
    # resident.
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

    ``adj[u]`` is the neighborhood bitmask of vertex u: bit v is set iff
    {u,v} is an edge.  ``weights[v]`` is the cost of vertex v.
    """

    n: int
    adj: tuple[int, ...]
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
        if weights is None:
            w = tuple(Fraction(1) for _ in range(n))
        else:
            w = _checked_weights(n, weights)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        lab = None
        if labels is not None:
            lab = tuple(str(s) for s in labels)
            if len(lab) != n:
                raise ValueError(f"expected {n} labels, got {len(lab)}")
        return cls(n=n, adj=tuple(adj), weights=w, labels=lab)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edge list, derived from ``adj`` for the text and
        JSON forms: each pair (u, v) with u < v, the list sorted ascending."""
        return tuple([(u, v) for u, a in enumerate(self.adj) for v in mask_to_scenario(a) if v > u])

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """The weights as ints over their common denominator D:
        ``(D, ints)`` with ``Fraction(ints[v], D) == weights[v]``
        (see :func:`to_int_scale`)."""
        scale, ints = to_int_scale(self.weights)
        return scale, tuple(ints)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return bool(self.adj[u] >> v & 1)

    def with_weights(self, weights: Iterable[Fraction | int]) -> "WeightedGraph":
        """Same structure, different cost vector: only the new weights are
        validated."""
        w = _checked_weights(self.n, weights)
        return WeightedGraph(n=self.n, adj=self.adj, weights=w, labels=self.labels)


def _checked_weights(n: int, weights: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    """``n`` nonnegative weights as Fractions; raises ValueError otherwise."""
    w = tuple(Fraction(x) for x in weights)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    for v, x in enumerate(w):
        if x < 0:
            raise ValueError(f"negative weight {x} at vertex {v}")
    return w


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
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
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
    full = (1 << g.n) - 1
    adj = tuple([full & ~a & ~(1 << u) for u, a in enumerate(g.adj)])
    return WeightedGraph(n=g.n, adj=adj, weights=g.weights, labels=g.labels)


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
    declared_m = given_m = 0
    adj: list[int] = []
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
            adj = [0] * n
        elif kind == "e":
            if len(parts) != 3:
                fail("edge line must be 'e <u> <v>'", lineno)
            u = vertex_id(parts[1], lineno)
            v = vertex_id(parts[2], lineno)
            if u == v:
                fail(f"self-loop at vertex {u}", lineno)
            if adj[u] >> v & 1:
                fail(f"duplicate edge ({min(u, v)},{max(u, v)})", lineno)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            given_m += 1
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
    if given_m != declared_m:
        raise GraphParseError(
            f"header declares {declared_m} edges but {given_m} were given"
        )

    # Every check of WeightedGraph.from_edges has been made line by line
    # above, so the graph is built directly.
    one = Fraction(1)
    w = tuple([weights.get(v, one) for v in range(n)])
    lab = tuple([labels.get(v, str(v)) for v in range(n)]) if labels else None
    return WeightedGraph(n=n, adj=tuple(adj), weights=w, labels=lab)


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
