"""Exact combinatorial ground truth, independent of the LP solver.

Everything here is search over bitmasks with admissible pruning; nothing
consults the simplex code, so agreement between the two routes (tested
throughout the suite) is meaningful evidence rather than circularity.
In particular the integral clique-cover search never uses the fractional
optimum as a bound: a solver bug must not be able to mask itself.

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
#: Bytes the exhaustive core check may hold for its packed cost table and
#: scenario money (see ``core.ExhaustiveChecker``).
MAX_EXHAUSTIVE_BYTES = 1 << 29


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
    best, members = _best_stable_set(g, (1 << g.n) - 1)
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
    return Fraction(_best_stable_set(g, scenario_mask(s))[0], g.scaled_weights[0])


def _best_stable_set(g: WeightedGraph, within: int) -> tuple[int, int]:
    """The best stable set of g inside the vertex mask ``within``: its
    weight scaled by the weights' common denominator
    (``WeightedGraph.scaled_weights``) and its member mask.

    One depth-first search.  It branches on the lowest candidate, taking
    it before skipping it, so it visits the stable sets in lexicographic
    order of their sorted members, and a set is recorded only when it
    strictly beats the best so far: the first optimum reached, the
    lexicographically smallest, is the one returned.  The bound is the
    sum of the remaining candidates' weights (admissible); it prunes only
    subtrees that cannot beat the best so far, which the subtree of the
    first optimum always can until it is reached.
    """
    check_stable_set_size(within.bit_count())
    adj = g.adj
    w = g.scaled_weights[1]
    best = best_members = 0

    def weight_of(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += w[low.bit_length() - 1]
            mask ^= low
        return total

    def search(cur: int, members: int, cand: int):
        nonlocal best, best_members
        if cur > best:
            best, best_members = cur, members
        if cand == 0 or cur + weight_of(cand) <= best:
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


def min_integral_clique_cover_value(
    g: WeightedGraph,
    weights: Sequence[int | Fraction] | None = None,
    cliques: CliqueSet | None = None,
) -> int:
    """Minimum total multiplicity of maximal cliques covering each vertex's
    integral demand: min sum_Q y_Q with y integral >= 0 and
    sum_{Q contains v} y_Q >= w_v.

    Exact depth-first search.  Admissible lower bound: demands summed over
    a greedily chosen stable set (a clique meets a stable set in at most
    one vertex, so those demands can never share a unit).  Multiplicities
    per clique never need to exceed the largest demand.  ``cliques``, the
    maximal cliques of ``g``, is enumerated when not given.
    """
    if g.n > MAX_COVER_N:
        raise GuardError(f"integral cover search capped at n <= {MAX_COVER_N}")
    if weights is None:
        weights = g.weights
    demand: list[int] = []
    for v, x in enumerate(weights):
        f = x if type(x) is int else Fraction(x)
        if f.denominator != 1:
            raise ValueError(f"integral cover needs integer weights, got {f} at {v}")
        if f < 0:
            raise ValueError(f"negative weight at vertex {v}")
        demand.append(int(f))
    if len(demand) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(demand)}")
    if g.n == 0 or max(demand) == 0:
        return 0

    cs = maximal_cliques(g) if cliques is None else cliques
    masks = cs.masks
    containing = cs.member_index
    max_mult = max(demand)
    adj = g.adj

    def stable_set_bound(deficit: list[int]) -> int:
        order = sorted(
            (v for v in range(g.n) if deficit[v] > 0),
            key=lambda v: (-deficit[v], v),
        )
        picked_mask = 0
        bound = 0
        for v in order:
            if adj[v] & picked_mask:
                continue
            picked_mask |= 1 << v
            bound += deficit[v]
        return bound

    # Greedy initial cover: always a valid upper bound.
    deficit = demand[:]
    greedy_total = 0
    while True:
        open_mask = 0
        for v in range(g.n):
            if deficit[v] > 0:
                open_mask |= 1 << v
        if open_mask == 0:
            break
        cid = max(range(len(cs)), key=lambda c: ((masks[c] & open_mask).bit_count(), -c))
        greedy_total += 1
        for v in cs.cliques[cid]:
            if deficit[v] > 0:
                deficit[v] -= 1
    best = greedy_total

    deficit = demand[:]
    counts = [0] * len(cs)

    def dfs(total: int):
        nonlocal best
        bound = stable_set_bound(deficit)
        if bound == 0:
            if total < best:
                best = total
            return
        if total + bound >= best:
            return
        # Most constrained open vertex: fewest cliques, then smallest id.
        v = min(
            (u for u in range(g.n) if deficit[u] > 0),
            key=lambda u: (len(containing[u]), u),
        )
        dv = deficit[v]

        def distribute(idx: int, remaining: int):
            if remaining == 0:
                dfs(total + dv)
                return
            if idx == len(containing[v]):
                return
            cid = containing[v][idx]
            room = max_mult - counts[cid]
            cap = min(remaining, room)
            # Last clique must absorb the remainder or the branch dies.
            lo = remaining if idx == len(containing[v]) - 1 else 0
            for amount in range(lo, cap + 1):
                if amount:
                    counts[cid] += amount
                    for u in cs.cliques[cid]:
                        deficit[u] -= amount
                distribute(idx + 1, remaining - amount)
                if amount:
                    counts[cid] -= amount
                    for u in cs.cliques[cid]:
                        deficit[u] += amount

        distribute(0, dv)

    dfs(0)
    return best


def four_program_chain(
    g: WeightedGraph, zero_one_weights: Sequence[int], cliques: CliqueSet | None = None
) -> FourProgramReport:
    """All four optima for a 0/1 cost vector, with the chain checked
    exactly.  ``cliques``, the maximal cliques of ``g``, is enumerated when
    not given."""
    if g.n > MAX_CHAIN_N:
        raise GuardError(f"four-program chain capped at n <= {MAX_CHAIN_N}")
    w01 = [int(x) for x in zero_one_weights]
    if len(w01) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(w01)}")
    if any(x not in (0, 1) for x in w01):
        raise ValueError("chain weights must be 0 or 1")

    reweighted = g.with_weights(w01)
    ip = max_weight_stable_set(reweighted).total_cost
    cs = maximal_cliques(g) if cliques is None else cliques
    primal, dual = lp.solve_game(reweighted, cs)
    id_value = min_integral_clique_cover_value(g, w01, cs)

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
