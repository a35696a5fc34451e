"""Exact combinatorial ground truth, independent of the LP solver.

Everything here is search over bitmasks with admissible pruning, so
agreement with the simplex code (tested throughout the suite) is
meaningful evidence rather than circularity.  The one function here that
calls the LP is :func:`four_program_chain`, and it does so to compare the
LP optimum against the two searches.  In particular the integral
clique-cover search never uses the fractional optimum as a bound: a
solver bug must not be able to mask itself.

One stable-set search answers both the maximum-weight stable set and the
cost of any scenario, the latter on the graph itself with its candidates
limited to the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import lp
from .cliques import CliqueSet, maximal_cliques
from .errors import GuardError
from .graph import WeightedGraph, make_scenario, mask_to_scenario, scenario_mask

MAX_STABLE_SET_N = 30
MAX_COVER_N = 20
MAX_CHAIN_N = 16
MAX_COST_TABLE_N = 22


@dataclass(frozen=True)
class StableSetResult:
    """A maximum-cost stable set: sorted members and their total cost."""

    members: tuple[int, ...]
    total_cost: Fraction


@dataclass(frozen=True)
class FourProgramReport:
    """The chain  integral primal <= LP primal = LP dual <= integral dual.

    ``integral_primal`` is the maximum 0/1-weight stable set value,
    ``integral_dual`` the minimum integral clique cover of the weight-1
    vertices; the two LP values are the shared fractional optimum.  The
    weak inequalities and the middle equality hold on every graph; the two
    ends meet exactly on perfect graphs.
    """

    integral_primal: int
    fractional_primal: Fraction
    fractional_dual: Fraction
    integral_dual: int

    @property
    def gap_closed(self) -> bool:
        return self.integral_primal == self.integral_dual


def check_stable_set_size(n: int) -> None:
    """Raise GuardError when a graph of n vertices is too large for
    :func:`max_weight_stable_set`."""
    if n > MAX_STABLE_SET_N:
        raise GuardError(f"stable-set search capped at n <= {MAX_STABLE_SET_N}")


def max_weight_stable_set(g: WeightedGraph) -> StableSetResult:
    """Maximum-cost stable set by branch and bound, exact.

    Ties are broken toward the lexicographically smallest member list, so
    the result is reproducible byte for byte.  See :func:`_best_stable_set`.
    """
    best, members = _best_stable_set(g.adj, g.scaled_weights[1], (1 << g.n) - 1, 0)
    return StableSetResult(
        members=mask_to_scenario(members), total_cost=Fraction(best, g.scaled_weights[0])
    )


def cost(g: WeightedGraph, scenario: Iterable[int]) -> Fraction:
    """Cost of the optimal investment in a scenario: the maximum total
    weight of a stable set inside the induced subgraph.  cost(empty) = 0.

    The search runs on g itself with its candidates limited to the
    scenario, so no subgraph is built; the size guard applies to the
    scenario, not to g.
    """
    s = make_scenario(scenario, g.n)
    best = _best_stable_set(g.adj, g.scaled_weights[1], scenario_mask(s), 0)[0]
    return Fraction(best, g.scaled_weights[0])


def _best_stable_set(
    adj: Sequence[int], w: Sequence[int], within: int, beat: int
) -> tuple[int, int]:
    """The heaviest stable set inside the vertex mask ``within`` of the
    graph with adjacency masks ``adj`` and int weights ``w``, if it weighs
    more than ``beat``: its weight and its member mask, else ``beat`` and
    0.  Only the weights of vertices in ``within`` are read, and they must
    be nonnegative.

    One depth-first search.  It branches on the lowest candidate, taking
    it before skipping it, so it visits the stable sets in lexicographic
    order of their sorted members, and a set is recorded only when it
    strictly beats the best so far: the first optimum reached, the
    lexicographically smallest, is the one returned.  The bound splits the
    remaining candidates greedily into cliques, each grown from its lowest
    candidate, and sums each clique's heaviest weight: the weighted
    colouring bound of clique search (Östergård 2002; Held, Cook and
    Sewell 2012), admissible as a stable set meets a clique at most once.
    It prunes only subtrees that cannot beat the best so far, which the
    subtree of the first optimum always can until it is reached.
    """
    check_stable_set_size(within.bit_count())
    best, best_members = beat, 0

    def exceeds(cand: int, gap: int) -> bool:
        # Whether the clique-partition bound of ``cand`` exceeds ``gap``.
        total = 0
        while cand:
            v = (cand & -cand).bit_length() - 1
            heaviest, clique = w[v], cand & adj[v]
            cand ^= 1 << v
            while clique:
                u = (clique & -clique).bit_length() - 1
                if w[u] > heaviest:
                    heaviest = w[u]
                clique &= adj[u]
                cand ^= 1 << u
            total += heaviest
            if total > gap:
                return True
        return False

    def search(cur: int, members: int, cand: int):
        nonlocal best, best_members
        if cur > best:
            best, best_members = cur, members
        if not exceeds(cand, best - cur):
            return
        low = cand & -cand
        v = low.bit_length() - 1
        search(cur + w[v], members | low, cand & ~adj[v] & ~low)
        search(cur, members, cand ^ low)

    search(0, 0, within)
    return best, best_members


def subset_cost_table(g: WeightedGraph) -> list[int]:
    """Scaled cost(S) for every vertex subset S, indexed by bitmask.

    Entry ``mask`` is the int ``D * cost(S)``, where D is the common
    denominator of the weights (``g.scaled_weights[0]``, 1 for integer
    weights), so ``Fraction(table[mask], D) == cost(g, S)``.

    Built one block ``[2^v, 2^(v+1))`` at a time, the sets whose highest
    vertex is v.  Such a set either skips v or takes v and drops v's
    neighbours, and both of those sets lie in the part already built, so
    each block is one pass over it.
    """
    if g.n > MAX_COST_TABLE_N:
        raise GuardError(f"subset cost table capped at n <= {MAX_COST_TABLE_N}")
    table = [0]
    for v, wv in enumerate(g.scaled_weights[1]):
        keep = ~g.adj[v] & ((1 << v) - 1)
        table += [
            skip if skip > (take := wv + table[t & keep]) else take
            for t, skip in enumerate(table)
        ]
    return table


def min_integral_clique_cover_value(g: WeightedGraph, cliques: CliqueSet | None = None) -> int:
    """Minimum total multiplicity of maximal cliques covering each vertex's
    integral demand, its weight in ``g``: min sum_Q y_Q with y integral
    >= 0 and sum_{Q contains v} y_Q >= w_v.  Fractional weights raise
    ValueError; ``cliques`` (those of ``g``) is enumerated when not given.

    Iterative deepening: the first total that admits a cover, counting up
    from the heaviest stable set of the demands.  A clique meets a stable
    set in at most one vertex, so that is a lower bound (the optimum on a
    perfect graph: Lovasz 1972), as it is for the deficits left below.
    """
    if g.n > MAX_COVER_N:
        raise GuardError(f"integral cover search capped at n <= {MAX_COVER_N}")
    for v, x in enumerate(g.weights):
        if x.denominator != 1:
            raise ValueError(f"integral cover needs integer weights, got {x} at {v}")
    cs = maximal_cliques(g) if cliques is None else cliques
    containing = cs.member_index

    def cover(deficit: list[int], budget: int) -> bool:
        # Most constrained open vertex: fewest cliques, then lowest id.
        open_vertices = [u for u, d in enumerate(deficit) if d > 0]
        v = min(open_vertices, key=lambda u: (len(containing[u]), u), default=None)
        return v is None or spread(deficit, v, 0, budget)

    def spread(deficit: list[int], v: int, first: int, budget: int) -> bool:
        # v's next units go to one of its cliques from index ``first`` on.
        # Prune when a stable set of the deficits left outweighs the budget
        # left; a unit lowers that bound by at most 1 and spends 1, so the
        # first failing count ends the loop.  The last clique takes the rest.
        if deficit[v] <= 0:
            return cover(deficit, budget)
        for idx in range(first, len(containing[v])):
            members = cs.masks[containing[v][idx]]
            step = deficit[v] if idx == len(containing[v]) - 1 else 1
            rest, left = deficit, budget
            while rest[v] > 0:
                rest = [d - step if members >> u & 1 else d for u, d in enumerate(rest)]
                left -= step
                within = sum(1 << u for u, d in enumerate(rest) if d > 0)
                if _best_stable_set(g.adj, rest, within, left)[0] > left:
                    break
                if spread(rest, v, idx + 1, left):
                    return True
        return False

    demand = [x.numerator for x in g.weights]
    target = _best_stable_set(g.adj, demand, (1 << g.n) - 1, 0)[0]
    while not cover(demand, target):
        target += 1
    return target


def four_program_chain(
    g: WeightedGraph, zero_one_weights: Sequence[int], cliques: CliqueSet | None = None
) -> FourProgramReport:
    """All four optima for a 0/1 cost vector, with the chain checked
    exactly.  Any weight other than 0 or 1 raises ValueError.
    ``cliques``, the maximal cliques of ``g``, is enumerated when not
    given."""
    if g.n > MAX_CHAIN_N:
        raise GuardError(f"four-program chain capped at n <= {MAX_CHAIN_N}")
    reweighted = g.with_weights(zero_one_weights)
    if any(x not in (0, 1) for x in reweighted.weights):
        raise ValueError("chain weights must be 0 or 1")

    ip = max_weight_stable_set(reweighted).total_cost
    cs = maximal_cliques(g) if cliques is None else cliques
    primal, dual = lp.solve_game(reweighted, cs)
    id_value = min_integral_clique_cover_value(reweighted, cs)

    report = FourProgramReport(
        integral_primal=int(ip),
        fractional_primal=primal.value,
        fractional_dual=dual.value,
        integral_dual=id_value,
    )
    ok = (
        report.integral_primal <= report.fractional_primal
        and report.fractional_primal == report.fractional_dual
        and report.fractional_dual <= report.integral_dual
    )
    if not ok:
        raise RuntimeError(f"four-program chain violated: {report}")
    return report
