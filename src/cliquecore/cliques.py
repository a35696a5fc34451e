"""Maximal-clique enumeration: the investment firms of the game.

Enumeration is pivoted Bron-Kerbosch over neighborhood bitmasks, followed
by a canonical lexicographic sort, so two runs on the same graph produce
identical output.  A fixed cap on the number of cliques errs instead of
truncating: a truncated firm set would silently change the game.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import GuardError
from .graph import WeightedGraph, make_scenario, mask_to_scenario, scenario_mask

#: Most maximal cliques :func:`maximal_cliques` enumerates before it errs.
DEFAULT_CLIQUE_CAP = 10**6


@dataclass(frozen=True)
class CliqueSet:
    """Canonical list of the maximal cliques of one graph.

    ``cliques[i]`` is a sorted vertex tuple; the list itself is sorted
    lexicographically, so clique ids are stable across runs.  ``masks[i]``
    is the bitmask of ``cliques[i]``.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cliques)

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
        return {self.key(cid): cid for cid in range(len(self.cliques))}

    def key(self, cid: int) -> str:
        """:func:`clique_key` of clique ``cid``, whose members are sorted."""
        return "-".join(map(str, self.cliques[cid]))

    def to_json_list(self) -> list[list[int]]:
        return [list(q) for q in self.cliques]


def clique_key(members: Iterable[int]) -> str:
    """Canonical clique name: dash-joined sorted vertex ids, e.g. ``0-3-6``."""
    return "-".join(str(v) for v in sorted(members))


def maximal_cliques(g: WeightedGraph) -> CliqueSet:
    """All maximal cliques of g, each exactly once, in canonical order.

    Isolated vertices appear as singleton cliques.  Raises GuardError once
    more than :data:`DEFAULT_CLIQUE_CAP` cliques have been found.
    """
    adj = g.adj
    found: list[int] = []
    # (R, P, X) frames as bitmasks on an explicit stack, so clique size
    # meets no recursion limit.  A child with P empty is never pushed: it
    # is a maximal clique when X is empty too, else a dead end.
    stack = [(0, (1 << g.n) - 1, 0)] if g.n > 0 else []
    while stack:
        r, p, x = stack.pop()
        # pivot (Tomita et al. 2006): vertex of P|X with the most neighbours in P
        best = -1
        px = p | x
        while px:
            low = px & -px
            u = low.bit_length() - 1
            k = (p & adj[u]).bit_count()
            if k > best:
                best, pivot = k, u
            px ^= low
        cand = p & ~adj[pivot]
        while cand:
            bit = cand & -cand
            nbrs = adj[bit.bit_length() - 1]
            cp = p & nbrs
            if cp:
                stack.append((r | bit, cp, x & nbrs))
            elif not x & nbrs:
                found.append(r | bit)
                if len(found) > DEFAULT_CLIQUE_CAP:
                    raise GuardError(
                        f"maximal-clique enumeration capped at {DEFAULT_CLIQUE_CAP} cliques"
                    )
            p ^= bit
            x |= bit
            cand ^= bit

    # Each member tuple is built once, then cliques and masks are put in
    # the tuples' order.
    members = [mask_to_scenario(m) for m in found]
    order = sorted(range(len(found)), key=members.__getitem__)
    return CliqueSet(
        n=g.n,
        cliques=tuple([members[i] for i in order]),
        masks=tuple([found[i] for i in order]),
    )


def is_clique(g: WeightedGraph, members: Iterable[int]) -> bool:
    """True iff the members are pairwise adjacent (vacuously for <= 1)."""
    s = make_scenario(members, g.n)
    mask = scenario_mask(s)
    return all(mask & ~g.adj[v] == 1 << v for v in s)


def is_maximal_clique(g: WeightedGraph, members: Iterable[int]) -> bool:
    """True iff members form a clique and no outside vertex extends it."""
    s = make_scenario(members, g.n)
    mask = scenario_mask(s)
    common = (1 << g.n) - 1
    for v in s:
        # v's mask must hold every other member; a vertex adjacent to all
        # members is not one of them, since no mask holds its own bit.
        if mask & ~g.adj[v] != 1 << v:
            return False
        common &= g.adj[v]
    return common == 0
