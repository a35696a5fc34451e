"""Deciding perfection of small graphs, with verifiable witnesses.

Two independent routes:

* the structural route searches for an induced odd chordless cycle of
  length >= 5 in the graph or in its complement (their absence
  characterizes perfection) by growing chordless paths depth first, at
  most n * 2^(n-1) of them;
* the definitional route computes clique number and chromatic number for
  every induced subgraph by subset dynamic programming and demands
  equality throughout.

The structural route is the decision procedure; for n <= 10 the
definitional route is run as well and any disagreement raises, so the two
implementations continuously police each other at small scale.  Guards
are honest hard limits: these are exponential procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardError
from .graph import WeightedGraph, complement
from .oracle import subset_cost_table

MAX_PERFECTION_N = 16
MAX_OMEGA_CHI_N = 12
DEFINITIONAL_CHECK_N = 10


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
    first vertex and its vertex set, so at most n * 2^(n-1) entries
    (524,288 at the n <= 16 guard).  Deterministic: the cycle is reported
    starting at its smallest vertex, stepping first to the smaller of that
    vertex's two cycle neighbours.
    """
    if g.n > MAX_PERFECTION_N:
        raise GuardError(f"odd-hole search capped at n <= {MAX_PERFECTION_N}")
    adj = g.adj
    best = 1 << g.n
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
    """Perfection verdict with witness, double-checked definitionally.

    Perfect iff neither the graph nor its complement contains an induced
    odd chordless cycle of length >= 5.  For n <= 10 the definitional
    clique-number = chromatic-number scan over all induced subgraphs is
    also run; the two procedures must agree or a RuntimeError is raised.
    """
    if g.n > MAX_PERFECTION_N:
        raise GuardError(f"perfection check capped at n <= {MAX_PERFECTION_N}")
    hole = find_odd_hole(g)
    if hole is not None:
        verdict = PerfectionVerdict(is_perfect=False, hole=hole)
    else:
        anti = find_odd_hole(complement(g))
        if anti is not None:
            verdict = PerfectionVerdict(is_perfect=False, hole=anti, hole_in_complement=True)
        else:
            verdict = PerfectionVerdict(is_perfect=True)
    if g.n <= DEFINITIONAL_CHECK_N:
        definitional = _definitionally_perfect(g)
        if definitional != verdict.is_perfect:
            raise RuntimeError(
                "perfection procedures disagree: structural says "
                f"{verdict.is_perfect}, definitional says {definitional}"
            )
    return verdict


def _omega_table(g: WeightedGraph) -> list[int]:
    """Clique number of every induced subgraph, indexed by bitmask: the
    unit-weight stable-set table of the complement."""
    return subset_cost_table(complement(g).with_weights([1] * g.n))


def _chi_table(g: WeightedGraph) -> list[int]:
    """Chromatic number of every induced subgraph, indexed by bitmask.

    chi(S) = 1 + min over independent subsets I of S containing S's lowest
    vertex of chi(S - I); enumerating color classes that contain a fixed
    vertex keeps the recurrence canonical.
    """
    adj = g.adj
    size = 1 << g.n
    independent = [True] * size
    for mask in range(1, size):
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        independent[mask] = independent[rest] and (adj[v] & rest) == 0
    table = [0] * size
    for mask in range(1, size):
        v_bit = mask & -mask
        rest = mask & ~v_bit
        best = g.n + 1
        sub = rest
        while True:
            cls = sub | v_bit
            if independent[cls]:
                cand = 1 + table[mask & ~cls]
                if cand < best:
                    best = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        table[mask] = best
    return table


def _definitionally_perfect(g: WeightedGraph) -> bool:
    omega = _omega_table(g)
    chi = _chi_table(g)
    return all(omega[m] == chi[m] for m in range(1 << g.n))


def omega_chi(g: WeightedGraph) -> tuple[int, int]:
    """Exact clique number and chromatic number of the whole graph."""
    if g.n > MAX_OMEGA_CHI_N:
        raise GuardError(f"omega/chi computation capped at n <= {MAX_OMEGA_CHI_N}")
    if g.n == 0:
        return 0, 0
    full = (1 << g.n) - 1
    return _omega_table(g)[full], _chi_table(g)[full]
