"""Maximal-clique enumeration: the investment firms of the game.

Enumeration is pivoted Bron-Kerbosch over neighborhood bitmasks, followed
by a canonical lexicographic sort, so two runs on the same graph produce
identical output.  A configurable cap on the number of cliques errs
instead of truncating: a truncated firm set would silently change the game.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GuardError
from .graph import WeightedGraph, make_scenario

DEFAULT_CLIQUE_CAP = 10**6


@dataclass(frozen=True)
class CliqueSet:
    """Canonical list of the maximal cliques of one graph.

    ``cliques[i]`` is a sorted vertex tuple; the list itself is sorted
    lexicographically, so clique ids are stable across runs.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.cliques)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        out = []
        for q in self.cliques:
            m = 0
            for v in q:
                m |= 1 << v
            out.append(m)
        return tuple(out)

    @cached_property
    def member_index(self) -> tuple[tuple[int, ...], ...]:
        """Inverse incidence: clique ids containing each vertex."""
        idx: list[list[int]] = [[] for _ in range(self.n)]
        for cid, q in enumerate(self.cliques):
            for v in q:
                idx[v].append(cid)
        return tuple(tuple(ids) for ids in idx)

    @cached_property
    def key_to_id(self) -> dict[str, int]:
        return {clique_key(q): cid for cid, q in enumerate(self.cliques)}

    def key(self, cid: int) -> str:
        return clique_key(self.cliques[cid])

    def to_json_list(self) -> list[list[int]]:
        return [list(q) for q in self.cliques]


def clique_key(members: Iterable[int]) -> str:
    """Canonical clique name: dash-joined sorted vertex ids, e.g. ``0-3-6``."""
    return "-".join(str(v) for v in sorted(members))


def maximal_cliques(g: WeightedGraph, max_cliques: int = DEFAULT_CLIQUE_CAP) -> CliqueSet:
    """All maximal cliques of g, each exactly once, in canonical order.

    Isolated vertices appear as singleton cliques.  Raises GuardError once
    more than ``max_cliques`` cliques have been found.
    """
    adj = g.adj
    found: list[tuple[int, ...]] = []
    # (R, P, X) frames on an explicit stack, so clique size meets no recursion
    # limit; children are pushed in reverse to run in recursive-call order.
    stack = [((), (1 << g.n) - 1, 0)] if g.n > 0 else []
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            found.append(tuple(sorted(r)))
            if len(found) > max_cliques:
                raise GuardError(
                    f"more than {max_cliques} maximal cliques; raise the cap explicitly"
                )
            continue
        # pivot: vertex of P|X whose neighborhood eats most of P
        pivot = -1
        best = -1
        px = p | x
        u = 0
        while px:
            if px & 1:
                k = (p & adj[u]).bit_count()
                if k > best:
                    best, pivot = k, u
            px >>= 1
            u += 1
        cand = p & ~adj[pivot]
        children = []
        v = 0
        while cand:
            if cand & 1:
                bit = 1 << v
                children.append((r + (v,), p & adj[v], x & adj[v]))
                p &= ~bit
                x |= bit
            cand >>= 1
            v += 1
        stack += reversed(children)

    found.sort()
    return CliqueSet(n=g.n, cliques=tuple(found))


def is_clique(g: WeightedGraph, members: Iterable[int]) -> bool:
    """True iff the members are pairwise adjacent (vacuously for <= 1)."""
    s = make_scenario(members, g.n)
    return all(g.has_edge(u, v) for i, u in enumerate(s) for v in s[i + 1 :])


def is_maximal_clique(g: WeightedGraph, members: Iterable[int]) -> bool:
    """True iff members form a clique and no outside vertex extends it."""
    s = make_scenario(members, g.n)
    if not is_clique(g, s):
        return False
    common = (1 << g.n) - 1
    for v in s:
        common &= g.adj[v]
    for v in s:
        common &= ~(1 << v)
    return common == 0
