"""Deciding perfection, with verifiable witnesses.

A graph is perfect iff neither it nor its complement contains an induced
odd chordless cycle of length >= 5 (Chudnovsky, Robertson, Seymour and
Thomas, *The strong perfect graph theorem*, Annals of Math. 2006).  That
search, over chordless paths grown depth first, is the decision
procedure.  It is exponential in the worst case, so its guard counts the
paths it grows rather than the vertices: a sparse or chordal graph far
past n = 16 is decided, while a graph whose paths exceed the budget
raises GuardError.  The definitional check, clique number equal to
chromatic number on every induced subgraph, is kept in the test suite as
the reference this search is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardError
from .graph import WeightedGraph, complement

# n * 2^(n-1) at n = 16: every graph of at most 16 vertices stays within it.
MAX_HOLE_PATHS = 16 << 15


@dataclass(frozen=True)
class PerfectionVerdict:
    """Outcome plus, when imperfect, a checkable witness cycle.

    ``hole`` lists the cycle's vertices in traversal order; it is an
    induced chordless odd cycle of length >= 5 in the graph itself or, if
    ``hole_in_complement`` is set, in the complement.
    """

    is_perfect: bool
    hole: tuple[int, ...] | None = None
    hole_in_complement: bool = False

    def to_json_dict(self) -> dict:
        out: dict = {"perfect": self.is_perfect}
        if self.hole is not None:
            out["witness"] = {
                "cycle": list(self.hole),
                "inComplement": self.hole_in_complement,
            }
        else:
            out["witness"] = None
        return out


def find_odd_hole(g: WeightedGraph) -> tuple[int, ...] | None:
    """Smallest-bitmask induced chordless odd cycle of length >= 5, if any.

    Depth-first search over chordless paths s, a, p2, ..., last, where s is
    the hole's lowest vertex and a the smaller of its two hole neighbours.
    A path extends by a neighbour of ``last`` outside the closed
    neighbourhoods of s and of every path vertex but ``last``; a path of
    k >= 4 vertices, k even, closes into a hole through a neighbour b > a
    of s that is adjacent to ``last`` and to no other path vertex.  The
    smallest hole mask found so far prunes every path whose mask already
    reaches it, since extending a path only adds bits.

    Cost: one stack entry per chordless path, and a path is fixed by its
    first vertex and its vertex set, so at most n * 2^(n-1) entries.  Past
    ``MAX_HOLE_PATHS`` popped entries the search raises GuardError.
    Deterministic: the cycle is reported starting at its smallest vertex,
    stepping first to the smaller of that vertex's two cycle neighbours.
    """
    adj = g.adj
    best = 1 << g.n
    paths = 0
    for s in range(g.n):
        if 1 << s >= best:
            break
        below = (2 << s) - 1
        blocked_s = adj[s] | below
        rest = adj[s] & ~below
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            ends = adj[s] & -(2 << a)  # the candidates b
            # (path mask, last vertex, vertices no extension may use,
            #  neighbours of the path vertices other than s and last, size)
            stack = [((1 << s) | (1 << a), a, blocked_s, 0, 2)]
            while stack:
                mask, last, blocked, inner, k = stack.pop()
                paths += 1
                if paths > MAX_HOLE_PATHS:
                    raise GuardError(f"odd-hole search capped at {MAX_HOLE_PATHS} chordless paths")
                if mask >= best:
                    continue
                if k >= 4 and not k & 1:
                    close = ends & adj[last] & ~inner
                    if close:
                        hole = mask | (close & -close)
                        if hole < best:
                            best = hole
                ext = adj[last] & ~blocked
                blocked |= adj[last]  # last is in it already: it neighbours its predecessor
                inner |= adj[last]
                while ext:
                    v = ext.bit_length() - 1
                    ext ^= 1 << v
                    stack.append((mask | (1 << v), v, blocked, inner, k + 1))
    if best == 1 << g.n:
        return None
    return _walk_cycle(adj, best, best.bit_count())


def _walk_cycle(adj, mask: int, size: int) -> tuple[int, ...]:
    start = (mask & -mask).bit_length() - 1
    nbrs = adj[start] & mask
    a = (nbrs & -nbrs).bit_length() - 1
    order = [start, a]
    prev, cur = start, a
    while len(order) < size:
        step = adj[cur] & mask & ~(1 << prev)
        nxt = (step & -step).bit_length() - 1
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def is_perfect(g: WeightedGraph) -> PerfectionVerdict:
    """Perfection verdict with witness: perfect iff neither the graph nor
    its complement contains an induced odd chordless cycle of length >= 5.
    The graph is searched first, so a hole in both is reported in the
    graph."""
    hole = find_odd_hole(g)
    if hole is not None:
        return PerfectionVerdict(is_perfect=False, hole=hole)
    anti = find_odd_hole(complement(g))
    if anti is not None:
        return PerfectionVerdict(is_perfect=False, hole=anti, hole_in_complement=True)
    return PerfectionVerdict(is_perfect=True)
