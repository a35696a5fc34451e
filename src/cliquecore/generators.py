"""Graph generators: the worked 3x3 grid example plus a test corpus.

The random families are perfect by construction (bipartite graphs have no
odd cycles; chordal graphs are grown so that a perfect elimination
ordering exists), which lets the corpus be trusted without running the
perfection checker on every instance.  All randomness flows from a single
integer seed through ``random.Random`` (Mersenne Twister); identical seeds
give identical graphs byte for byte.
"""

from __future__ import annotations

import random

from .graph import WeightedGraph, check_vertex_count


def paley3x3() -> WeightedGraph:
    """The 9-vertex grid graph: cells of a 3x3 array, adjacent iff they
    share a row or a column.  Vertex 3*r + c sits at row r, column c.
    Rows and columns are its six maximal cliques (triangles); the three
    diagonal transversals are its disjoint maximum stable sets.  Unit costs.
    """
    edges = []
    for a in range(9):
        for b in range(a + 1, 9):
            if a // 3 == b // 3 or a % 3 == b % 3:
                edges.append((a, b))
    return WeightedGraph.from_edges(9, edges)


def cycle(k: int) -> WeightedGraph:
    if k < 3:
        raise ValueError("cycle needs k >= 3")
    return WeightedGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k: int) -> WeightedGraph:
    if k < 1:
        raise ValueError("complete needs k >= 1")
    return WeightedGraph.from_edges(
        k, [(i, j) for i in range(k) for j in range(i + 1, k)]
    )


def path(k: int) -> WeightedGraph:
    if k < 1:
        raise ValueError("path needs k >= 1")
    return WeightedGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def random_bipartite(n: int, p: float, seed: int) -> WeightedGraph:
    """Random bipartite graph with unit costs: random side assignment, each
    cross pair an edge with probability p.  Deterministic given the seed."""
    if n < 1:
        raise ValueError("random_bipartite needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    side = [rng.randint(0, 1) for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < p
    ]
    return WeightedGraph.from_edges(n, edges)


def random_chordal(n: int, seed: int) -> WeightedGraph:
    """Random chordal graph with unit costs, grown along a perfect
    elimination ordering.

    Vertices are added in random order; each new vertex attaches to a
    random subset of {anchor} + anchor's earlier neighbors, which is a
    clique by induction.  Reversing the addition order is then a perfect
    elimination ordering, so the result is chordal.
    """
    if n < 1:
        raise ValueError("random_chordal needs n >= 1")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    earlier: dict[int, set[int]] = {}
    edges: list[tuple[int, int]] = []
    placed: list[int] = []
    for v in order:
        if not placed:
            earlier[v] = set()
        else:
            anchor = rng.choice(placed)
            pool = sorted({anchor} | earlier[anchor])
            chosen = {u for u in pool if rng.random() < 0.5}
            earlier[v] = chosen
            edges.extend((v, u) for u in sorted(chosen))
        placed.append(v)
    return WeightedGraph.from_edges(n, edges)


def from_spec(spec: str, seed: int | None = None, max_n: int | None = None) -> WeightedGraph:
    """Build a graph from a compact spec string.

    Forms: ``paley3x3``, ``cycle:K``, ``complete:K``, ``path:K``,
    ``bipartite:N[:P]`` (P defaults to 0.5), ``chordal:N``.  The random
    families raise if no seed is supplied.  A spec for more than ``max_n``
    vertices (``graph.DEFAULT_MAX_N`` when ``max_n`` is None) raises
    GuardError before any edge is built.
    """
    parts = spec.split(":")
    family, args = parts[0], parts[1:]

    def vertex_count(text):
        n = int(text)
        check_vertex_count(n, max_n)
        return n

    def one_int(name):
        if len(args) != 1:
            raise ValueError(f"{name} spec takes exactly one parameter")
        return vertex_count(args[0])

    if family == "paley3x3":
        if args:
            raise ValueError("paley3x3 takes no parameters")
        check_vertex_count(9, max_n)
        return paley3x3()
    if family == "cycle":
        return cycle(one_int("cycle"))
    if family == "complete":
        return complete(one_int("complete"))
    if family == "path":
        return path(one_int("path"))
    if family in ("bipartite", "chordal"):
        if seed is None:
            raise ValueError(f"{family} is a random family and needs a seed")
        if family == "bipartite":
            if len(args) == 1:
                return random_bipartite(vertex_count(args[0]), 0.5, seed)
            if len(args) == 2:
                return random_bipartite(vertex_count(args[0]), float(args[1]), seed)
            raise ValueError("bipartite spec is bipartite:N[:P]")
        return random_chordal(one_int("chordal"), seed)
    raise ValueError(f"unknown generator family {family!r}")
