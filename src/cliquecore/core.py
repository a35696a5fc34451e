"""The investment game engine: imputations, accounting, core membership.

The game on a weighted graph: the agent holds total money equal to the
worth (the maximum-cost stable set of the whole graph) and distributes it
among the investment firms, which are the maximal cliques.  Money placed
in a firm is available at every one of the firm's vertices, so the money
available in a scenario S is the total held by firms intersecting S: a
top-down accounting with no per-vertex split.  The imputation is in the
core when every scenario's available money covers its optimal-investment
cost.

Two verifiers are provided: a certificate check (dual feasibility plus
exact totality, never enumerating scenarios) and an exhaustive check over
all 2^n scenarios.  Each finds only its first violation; the length and
totality checks and the report are shared (``_verdict``).  On perfect
graphs the two agree on every input; that equivalence is the central
property the test suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, islice, repeat
from operator import add, lt, mul
from typing import Iterable, Mapping

from . import oracle
from .cliques import CliqueSet, clique_key, is_clique, maximal_cliques
from .errors import DualGapError, GuardError, clip
from .graph import (
    Scenario,
    WeightedGraph,
    fraction_str,
    make_scenario,
    mask_to_scenario,
    scenario_mask,
    to_int_scale,
)
from .lp import PrimalSolution, first_uncovered_scaled, solve_game

ZERO = Fraction(0)

VERDICT_IN_CORE = "in-core"
VERDICT_VIOLATED = "violated"
VERDICT_NOT_IMPUTATION = "not-an-imputation"


@dataclass(frozen=True)
class Imputation:
    """Nonnegative money per maximal clique, indexed by clique id."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        for cid, a in enumerate(self.scaled[1]):
            if a < 0:
                raise ValueError(f"negative money {clip(str(self.values[cid]))} on clique {cid}")

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """The values as ints over their common denominator D: ``(D, ints)``
        (see ``graph.to_int_scale``), computed once per imputation."""
        scale, ints = to_int_scale(self.values)
        return scale, tuple(ints)

    @property
    def total(self) -> Fraction:
        scale, amounts = self.scaled
        return Fraction(sum(amounts), scale)

    @classmethod
    def from_mapping(
        cls, cliques: CliqueSet, mapping: Mapping[str, Fraction | int]
    ) -> "Imputation":
        """Build from {canonical clique key: amount}; unknown keys raise KeyError.
        Cliques absent from the mapping hold zero."""
        values = [ZERO] * len(cliques)
        for key, amount in mapping.items():
            cid = cliques.key_to_id.get(key)
            if cid is None:
                raise KeyError(f"{clip(repr(key))} is not a maximal clique of this graph")
            values[cid] += Fraction(amount)
        return cls(values=tuple(values))

    def to_json_dict(self, cliques: CliqueSet) -> dict:
        return {
            cliques.key(cid): fraction_str(v)
            for cid, v in enumerate(self.values)
            if v != 0
        }


@dataclass(frozen=True)
class Violation:
    scenario: Scenario
    money: Fraction
    cost: Fraction


@dataclass(frozen=True)
class CoreReport:
    """Verdict of a core-membership check plus its accounting."""

    verdict: str
    total_money: Fraction
    game_worth: Fraction
    violation: Violation | None
    scenarios_checked: int

    @property
    def in_core(self) -> bool:
        return self.verdict == VERDICT_IN_CORE

    def to_json_dict(self) -> dict:
        violation = None
        if self.violation is not None:
            violation = {
                "scenario": list(self.violation.scenario),
                "money": fraction_str(self.violation.money),
                "cost": fraction_str(self.violation.cost),
            }
        return {
            "verdict": self.verdict,
            "total": fraction_str(self.total_money),
            "worth": fraction_str(self.game_worth),
            "violation": violation,
            "scenariosChecked": self.scenarios_checked,
        }


def _check_length(cliques: CliqueSet, imputation: Imputation) -> None:
    if len(imputation.values) != len(cliques):
        raise ValueError(
            f"imputation indexes {len(imputation.values)} cliques, graph has {len(cliques)}"
        )


def _verdict(
    checker: "CertificateChecker | ExhaustiveChecker", imputation: Imputation
) -> CoreReport:
    """The verdict of either checker on one vector, and the one place a
    :class:`CoreReport` is built.

    The vector must index the checker's cliques (ValueError otherwise).
    One whose total differs from the worth is not an imputation at all,
    which is reported apart from a core violation, with no scenario
    checked.  Otherwise the checker's ``_first_violation(imputation)``
    gives its first violated scenario, or None, and how many scenarios it
    checked.
    """
    _check_length(checker.cliques, imputation)
    total = imputation.total
    if total != checker.worth:
        verdict, violation, checked = VERDICT_NOT_IMPUTATION, None, 0
    else:
        violation, checked = checker._first_violation(imputation)
        verdict = VERDICT_IN_CORE if violation is None else VERDICT_VIOLATED
    return CoreReport(verdict, total, checker.worth, violation, checked)


def game_worth(g: WeightedGraph) -> Fraction:
    """Total money of the agent: cost of the optimal investment in the
    whole-graph scenario."""
    return oracle.cost(g, range(g.n))


def money(
    g: WeightedGraph,
    cliques: CliqueSet,
    imputation: Imputation,
    scenario: Iterable[int],
) -> Fraction:
    """Money available in a scenario: the sum over maximal cliques that
    intersect it.  money(empty) = 0."""
    _check_length(cliques, imputation)
    smask = scenario_mask(make_scenario(scenario, g.n))
    total = ZERO
    for cid, cmask in enumerate(cliques.masks):
        if cmask & smask:
            total += imputation.values[cid]
    return total


def certified_worth(g: WeightedGraph, primal: PrimalSolution) -> Fraction | None:
    """The game worth, proved by a certified optimum of the stable-set LP
    (``lp.solve_game``), or None when that optimum does not prove it.

    When ``primal.x`` is 0/1, its support is checked to be stable on
    ``g.adj``, not through the clique list.  A stable set's weight is at
    most the worth, and the worth is at most the total of the certified
    cover on g's cliques, which ``lp.certify_optimum`` has shown to equal
    ``w.x`` (weak duality), so ``primal.value`` is the worth exactly.  On a perfect graph
    the LP's polytope is integral (Chvatal 1975), so its simplex vertex is
    0/1; a fractional ``x`` returns None.
    """
    support = 0
    for v, xv in enumerate(primal.x):
        if xv == 1:
            support |= 1 << v
        elif xv:
            return None
    adj = g.adj
    if any(adj[v] & support for v in mask_to_scenario(support)):
        return None
    return primal.value


def compute_core_imputation(
    g: WeightedGraph, cliques: CliqueSet | None = None
) -> Imputation:
    """A core imputation: the optimal clique-cover dual, exact.

    Well-defined on perfect graphs, where the dual optimum equals the game
    worth.  The worth comes from the same LP solve (:func:`certified_worth`)
    when its optimum is 0/1, and from :func:`game_worth` otherwise.  On
    other graphs (or under a solver bug) the totals differ and
    DualGapError is raised rather than returning a non-core allocation;
    callers are expected to have verified or asserted perfection.
    """
    if cliques is None:
        cliques = maximal_cliques(g)
    primal, dual = solve_game(g, cliques)
    imputation = Imputation(values=dual.y)
    if certified_worth(g, primal) is None:
        worth = game_worth(g)
        if imputation.total != worth:
            raise DualGapError(imputation.total, worth)
    return imputation


class CertificateChecker:
    """Core membership by certificate, polynomial in n + number of cliques.

    In the core iff (a) the vector is feasible for the clique-cover dual
    (every vertex's demand covered) and (b) its total equals the game
    worth.  Never enumerates scenarios.  A coverage failure at vertex v is
    reported as the violated singleton scenario {v}, whose available money
    is exactly v's coverage and whose cost is w_v.

    Building one checker computes the worth once, by its own branch and
    bound (:func:`game_worth`; :class:`ExhaustiveChecker` runs another and
    cross-checks it against its cost table, so neither verifier reads the
    other's number).  ``check`` leaves the length and totality checks to
    :func:`_verdict` and finds the first uncovered vertex from the
    imputation's int scaling (``Imputation.scaled``) and the weights'
    (``WeightedGraph.scaled_weights``).
    """

    def __init__(self, g: WeightedGraph, cliques: CliqueSet):
        self.g = g
        self.cliques = cliques
        self.worth = game_worth(g)

    def check(self, imputation: Imputation) -> CoreReport:
        return _verdict(self, imputation)

    def _first_violation(self, imputation: Imputation) -> tuple[Violation | None, int]:
        short = first_uncovered_scaled(
            self.cliques.cliques, *imputation.scaled, *self.g.scaled_weights
        )
        if short is None:
            return None, 0
        v, coverage = short
        return Violation(scenario=(v,), money=coverage, cost=self.g.weights[v]), 0


def verify_core_certificate(
    g: WeightedGraph, cliques: CliqueSet, imputation: Imputation
) -> CoreReport:
    """One certificate check (see :class:`CertificateChecker`); build a
    checker instead to check several vectors against one graph."""
    return CertificateChecker(g, cliques).check(imputation)


def _subset_sums(amounts: Mapping[int, int], bits: int) -> list[int]:
    """Subset-sum (zeta) transform: entry M is the sum of ``amounts[m]``
    over every ``m`` contained in M, for each M below ``2^bits``.

    Splits on the top bit, so a sparse input costs list copies where a
    dense one costs the bits * 2^bits additions of the standard transform
    (Yates 1937; Bjorklund, Husfeldt, Kaski, Koivisto, "Fourier meets
    Mobius", STOC 2007).
    """
    if not amounts:
        return [0] * (1 << bits)
    if bits == 0:
        return [amounts[0]]
    top = 1 << (bits - 1)
    without = {m: a for m, a in amounts.items() if not m & top}
    with_top = {m ^ top: a for m, a in amounts.items() if m & top}
    lower = _subset_sums(without, bits - 1)
    if not with_top:
        return lower + lower
    return lower + list(map(add, lower, _subset_sums(with_top, bits - 1)))


class ExhaustiveChecker:
    """Scenario-by-scenario core check with shared precomputation.

    Scenarios are scanned in ascending bitmask order and the first violated
    one is reported, so counterexamples are deterministic and diffable.
    ``check`` leaves the length and totality checks to :func:`_verdict`;
    the scan works one block ``[2^v, 2^(v+1))`` of scenarios at a time, in
    ints: costs scaled by the weights' common denominator ``scale``
    (``WeightedGraph.scaled_weights``), money by the imputation's as well
    (``Imputation.scaled``).  For T below 2^v, money(T + {v}) is money(T)
    plus the money of the firms at v that miss T, which one subset-sum
    transform over the v lower bits gives for every T at once.

    The subset cost table (see ``oracle.subset_cost_table``) starts as
    ``[0]`` and grows by one block (``oracle.extend_cost_table``) the first
    time any check reaches that block; later checks on the same checker
    reuse it.  Each block is compared with its costs before the next is
    built, so a violation in an early scenario costs only the blocks below
    it, and a full scan about n * 2^n int additions plus the table.

    The worth comes from its own branch and bound (:func:`game_worth`), as
    in :class:`CertificateChecker`.  The table's last entry is the same
    number, so the check that completes the table compares the two and
    raises RuntimeError if they differ: every in-core verdict is
    cross-checked against the definition.
    """

    def __init__(self, g: WeightedGraph, cliques: CliqueSet):
        if g.n > oracle.MAX_COST_TABLE_N:
            raise GuardError(
                f"exhaustive scenario check capped at n <= {oracle.MAX_COST_TABLE_N}"
            )
        self.g = g
        self.cliques = cliques
        self.scale = g.scaled_weights[0]
        self.worth = game_worth(g)
        self.cost_table = [0]

    def _extend_cost_table(self) -> None:
        oracle.extend_cost_table(self.g, self.cost_table)
        if len(self.cost_table) == 1 << self.g.n:
            table_worth = Fraction(self.cost_table[-1], self.scale)
            if table_worth != self.worth:
                raise RuntimeError(
                    f"cost table worth {fraction_str(table_worth)} != branch-and-bound"
                    f" worth {fraction_str(self.worth)}"
                )

    def _needs(self, half: int, money_scale: int) -> Iterable[int]:
        """``money_scale`` times each scaled cost of block ``[half, 2 * half)``."""
        need = islice(self.cost_table, half, 2 * half)
        return need if money_scale == 1 else map(mul, need, repeat(money_scale))

    def check(self, imputation: Imputation) -> CoreReport:
        return _verdict(self, imputation)

    def _first_violation(self, imputation: Imputation) -> tuple[Violation | None, int]:
        money_scale, amounts = imputation.scaled
        # Money is held in units of 1/(scale * money_scale) and costs in
        # units of 1/scale, so money >= cost compares money to
        # money_scale * cost.
        live = [
            (cmask, a * self.scale)
            for cmask, a in zip(self.cliques.masks, amounts)
            if a
        ]
        money = [0]  # of every scenario below 2^v
        for v in range(self.g.n):
            half = 1 << v
            if len(self.cost_table) == half:
                self._extend_cost_table()
            firms: dict[int, int] = {}
            for cmask, a in live:
                if cmask >> v & 1:
                    low = cmask & (half - 1)
                    firms[low] = firms.get(low, 0) + a
            # The firms at v that miss T are those whose lower part fits in
            # the complement of T, the mirror image of T in the block.
            block = list(map(add, money, reversed(_subset_sums(firms, v))))
            if any(map(lt, block, self._needs(half, money_scale))):
                bad = next(compress(count(half), map(lt, block, self._needs(half, money_scale))))
                violation = Violation(
                    scenario=mask_to_scenario(bad),
                    money=Fraction(block[bad - half], self.scale * money_scale),
                    cost=Fraction(self.cost_table[bad], self.scale),
                )
                return violation, bad + 1
            money += block
        return None, 1 << self.g.n


def verify_core_exhaustive(
    g: WeightedGraph, cliques: CliqueSet, imputation: Imputation
) -> CoreReport:
    """Check money(S) >= cost(S) for every one of the 2^n scenarios.

    Totality is checked first: a vector whose total differs from the game
    worth is not an imputation at all, which is reported separately from a
    core violation.  On success every scenario was checked, the empty one
    included (it is vacuously satisfied: both sides are zero)."""
    return ExhaustiveChecker(g, cliques).check(imputation)


def lift_dual(
    g: WeightedGraph,
    cliques: CliqueSet,
    arbitrary: Mapping[tuple[int, ...] | frozenset, Fraction | int],
) -> Imputation:
    """Move money from arbitrary cliques onto maximal cliques.

    Each non-maximal clique's amount is added to the lexicographically
    smallest maximal clique containing it (any containing one preserves
    the guarantees; the canonical choice makes output deterministic).
    The total is preserved exactly, no vertex's coverage ever decreases,
    and integral inputs stay integral, so a vector feasible for the
    all-cliques cover system lifts to one feasible for the maximal-clique
    system.
    """
    values = [ZERO] * len(cliques)
    items: list[tuple[tuple[int, ...], Fraction]] = []
    for raw_key, amount in arbitrary.items():
        members = make_scenario(raw_key, g.n)
        if not members:
            raise ValueError("empty set is not a liftable clique")
        if not is_clique(g, members):
            raise ValueError(f"{members} is not a clique of the graph")
        amt = Fraction(amount)
        if amt < 0:
            raise ValueError(f"negative money {amt} on clique {members}")
        items.append((members, amt))
    items.sort()
    for members, amt in items:
        cid = cliques.key_to_id.get(clique_key(members))
        if cid is None:
            kmask = scenario_mask(members)
            cid = next(
                c for c, cm in enumerate(cliques.masks) if cm & kmask == kmask
            )
        values[cid] += amt
    return Imputation(values=tuple(values))


def restrict_dual(
    g: WeightedGraph,
    cliques: CliqueSet,
    imputation: Imputation,
    scenario: Iterable[int],
) -> dict[tuple[int, ...], Fraction]:
    """Push an imputation down to the subgraph induced by a scenario.

    Every maximal clique meeting the scenario contributes its money to its
    intersection with the scenario (a clique of the induced subgraph, keyed
    here by original vertex ids).  The restricted vector's total equals
    the money available in the scenario, and it inherits cover-feasibility
    on the subgraph from feasibility on the whole graph.
    """
    s = make_scenario(scenario, g.n)
    if not s:
        raise ValueError("scenario must be nonempty")
    _check_length(cliques, imputation)
    smask = scenario_mask(s)
    out: dict[tuple[int, ...], Fraction] = {}
    for cid, cmask in enumerate(cliques.masks):
        inter = cmask & smask
        if inter:
            key = mask_to_scenario(inter)
            out[key] = out.get(key, ZERO) + imputation.values[cid]
    return {key: out[key] for key in sorted(out)}
