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
totality checks and the report are shared (``_verdict``).  The two give
the same verdict on every graph: the core is exactly the set of clique
covers whose total is the worth, since each singleton scenario {v} makes
a core imputation cover v, and a cover affords every scenario, a firm
meeting a stable set in at most one vertex.  That equivalence is the
central property the test suite exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import oracle
from .cliques import CliqueSet, is_clique, maximal_cliques
from .errors import DualGapError, GuardError, clip
from .graph import (
    Scenario,
    WeightedGraph,
    check_common_denominator,
    fraction_str,
    make_scenario,
    mask_to_scenario,
    ratio_str,
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
    """Nonnegative money per maximal clique, indexed by clique id, held as
    ints over one denominator: clique ``cid`` gets ``amounts[cid] / scale``.

    The pair is kept in lowest terms, so ``scale`` is the least common
    denominator of the amounts (as ``graph.to_int_scale`` gives it) and
    equal money compares equal however the imputation was built.
    """

    scale: int
    amounts: tuple[int, ...]

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"imputation scale must be positive, got {clip(str(self.scale))}")
        for cid, a in enumerate(self.amounts):
            if a < 0:
                amount = clip(ratio_str(a, self.scale))
                raise ValueError(f"negative money {amount} on clique {cid}")
        common = math.gcd(self.scale, *self.amounts)
        if common > 1:
            object.__setattr__(self, "scale", self.scale // common)
            object.__setattr__(self, "amounts", tuple([a // common for a in self.amounts]))

    @classmethod
    def of(cls, values: Sequence[Fraction | int]) -> "Imputation":
        """The imputation paying ``values[cid]`` to clique ``cid``."""
        scale, amounts = to_int_scale(values)
        return cls(scale, tuple(amounts))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(a, self.scale) for a in self.amounts])

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.amounts), self.scale)

    @classmethod
    def from_mapping(
        cls, cliques: CliqueSet, mapping: Mapping[str, Fraction | int]
    ) -> "Imputation":
        """Build from {canonical clique key: int or Fraction amount}; unknown
        keys raise KeyError.  Cliques absent from the mapping hold zero.
        Amounts whose common denominator has more digits than Python writes
        raise GuardError (``graph.check_common_denominator``)."""
        values: list[Fraction | int] = [0] * len(cliques)
        for key, amount in mapping.items():
            cid = cliques.key_to_id.get(key)
            if cid is None:
                raise KeyError(f"{clip(repr(key))} is not a maximal clique of this graph")
            values[cid] = amount
        check_common_denominator(mapping.values(), "the amounts")
        return cls.of(values)

    def to_json_dict(self, cliques: CliqueSet) -> dict:
        return {
            cliques.key(cid): ratio_str(a, self.scale)
            for cid, a in enumerate(self.amounts)
            if a
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
    if len(imputation.amounts) != len(cliques):
        raise ValueError(
            f"imputation indexes {len(imputation.amounts)} cliques, graph has {len(cliques)}"
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
    total = sum(a for cmask, a in zip(cliques.masks, imputation.amounts) if cmask & smask)
    return Fraction(total, imputation.scale)


def certified_worth(g: WeightedGraph, primal: PrimalSolution) -> Fraction:
    """The game worth, proved by a certified optimum of the stable-set LP
    (``lp.solve_game``) when it can be, else searched by :func:`game_worth`.

    When ``primal.x`` is 0/1 (each of ``primal.amounts`` is 0 or
    ``primal.scale``), its support is checked to be stable on
    ``g.adj``, not through the clique list.  A stable set's weight is at
    most the worth, and the worth is at most the total of the certified
    cover on g's cliques, which ``lp.certify_optimum`` has shown to equal
    ``w.x`` (weak duality), so ``primal.value`` is the worth exactly.  On a perfect graph
    the LP's polytope is integral (Chvatal 1975), so its simplex vertex is
    0/1; a fractional ``x``, or a support that is not stable, proves
    nothing and falls back to branch and bound.
    """
    members = [v for v, a in enumerate(primal.amounts) if a]
    if all(primal.amounts[v] == primal.scale for v in members):
        support = scenario_mask(members)
        if not any(g.adj[v] & support for v in members):
            return primal.value
    return game_worth(g)


def compute_core_imputation(
    g: WeightedGraph, cliques: CliqueSet | None = None
) -> Imputation:
    """A core imputation: the optimal clique-cover dual, exact.

    On every graph the core is the set of clique covers whose total is
    the worth, so it is nonempty exactly when the LP gap is closed: when
    the dual optimum equals the worth, as on every perfect graph.  The
    worth comes from :func:`certified_worth`.  When the dual optimum
    exceeds it, the core is empty and DualGapError is raised rather than
    returning a non-core allocation.
    """
    if cliques is None:
        cliques = maximal_cliques(g)
    primal, dual = solve_game(g, cliques)
    worth = certified_worth(g, primal)
    if dual.value != worth:
        raise DualGapError(dual.value, worth)
    return Imputation(dual.scale, dual.amounts)


class CertificateChecker:
    """Core membership by certificate, polynomial in n + number of cliques.

    In the core iff (a) the vector is feasible for the clique-cover dual
    (every vertex's demand covered) and (b) its total equals the game
    worth.  Never enumerates scenarios.  A coverage failure at vertex v is
    reported as the violated singleton scenario {v}, whose available money
    is exactly v's coverage and whose cost is w_v.

    Building one checker computes the worth once, by its own branch and
    bound (:func:`game_worth`; :class:`ExhaustiveChecker` runs another and
    cross-checks it against its scan, so neither verifier reads the other's
    number), and then lists the cliques when none are given, so the
    worth's guards fire before any clique is listed.  ``check`` leaves the
    length and totality checks to :func:`_verdict` and finds the first
    uncovered vertex from the imputation's ints and the weights'
    (``WeightedGraph.scaled_weights``).
    """

    def __init__(self, g: WeightedGraph, cliques: CliqueSet | None = None):
        self.g = g
        self.worth = game_worth(g)
        self.cliques = maximal_cliques(g) if cliques is None else cliques

    def check(self, imputation: Imputation) -> CoreReport:
        return _verdict(self, imputation)

    def _first_violation(self, imputation: Imputation) -> tuple[Violation | None, int]:
        short = first_uncovered_scaled(
            self.cliques.cliques,
            imputation.scale,
            imputation.amounts,
            *self.g.scaled_weights,
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


#: Largest graph :class:`ExhaustiveChecker` scans, in vertices.
MAX_EXHAUSTIVE_N = 22
#: Bytes the exhaustive check may hold for its packed money and need
#: fields, checked before any is allocated.
MAX_EXHAUSTIVE_BYTES = 1 << 29
#: Largest packed int the exhaustive check works on at once, in bytes;
#: longer blocks of scenarios are cut into chunks of this size or less.
CHUNK_BYTES = 1 << 18


def _field_bytes(bound: int) -> int:
    """Bytes per packed field holding values up to ``bound``: one guard
    bit above the value's bits, rounded up to whole bytes."""
    return bound.bit_length() // 8 + 1


def _chunk_fields(width: int, fields: int) -> int:
    """Fields per chunk of ``fields`` packed fields (a power of two) of
    ``width`` bytes: all of them, or the largest power of two whose
    fields fit in :data:`CHUNK_BYTES`."""
    return min(fields, 1 << max(0, (CHUNK_BYTES // width).bit_length() - 1))


def _fields(count: int, avoid: int, value: int, bits: int) -> int:
    """``count`` packed fields (a power of two) of ``bits`` bits: field i
    holds ``value`` when ``i & avoid == 0`` and zero otherwise."""
    out, size = value, 1
    while size < count:
        if not avoid & size:
            out |= out << size * bits
        size <<= 1
    return out


class _Packed:
    """A growing array of packed fields, ``width`` bytes each, held as
    ints of ``chunk`` fields (a power of two) apiece.  It grows by as many
    fields as it holds, or by one chunk once it holds a chunk or more, so
    every aligned run of up to ``chunk`` fields lies in one int."""

    def __init__(self, width: int, chunk: int):
        self.bits = 8 * width
        self.chunk = chunk
        self.ints = [0]
        self.size = 1

    def get(self, first: int, count: int) -> int:
        """Fields ``[first, first + count)``, an aligned run."""
        run = self.ints[first // self.chunk] >> first % self.chunk * self.bits
        if run.bit_length() > count * self.bits:
            run &= (1 << count * self.bits) - 1
        return run

    def append(self, run: int, count: int) -> None:
        """Add ``count`` fields: as many as it holds, or one chunk."""
        if self.size < self.chunk:
            self.ints[0] |= run << self.size * self.bits
        else:
            self.ints.append(run)
        self.size += count


class ExhaustiveChecker:
    """Scenario-by-scenario core check with shared precomputation.

    Scenarios are scanned in ascending bitmask order and the first violated
    one is reported, so counterexamples are deterministic and diffable.
    ``check`` leaves the length and totality checks to :func:`_verdict`;
    the scan works one block ``[2^v, 2^(v+1))`` of scenarios at a time, in
    ints over the least common multiple of the weights' common denominator
    ``scale`` (``WeightedGraph.scaled_weights``) and the imputation's
    (``Imputation.scale``).  For T below 2^v, money(T + {v}) is money(T)
    plus the money of the firms at v that miss T.

    No cost table is built: money(S) is compared with need(S), the weight
    of the vertices of S with no lower neighbour in S, so need(T + {v}) is
    need(T) + w_v when T misses v's neighbours, else need(T).  Those
    vertices are stable, so need <= cost, with equality on stable S.  The
    first violation is the same under need as under cost:

    - let S be the first scenario with money(S) < cost(S), I its heaviest
      stable subset: money(I) <= money(S) < w(I) = cost(I), I <= S as a
      mask, so I = S; there need = cost, so S is the first failure under
      need too, as every failure under need is one under cost.

    Money and need are packed side by side in wide ints, one fixed-width,
    byte-aligned field per scenario, each with a guard bit above its value
    ("SIMD within a register": Lamport, CACM 1975; Knuth, TAOCP 4A 7.1.3).
    No money or need of a scan exceeds the worth, which fixes the width, so
    a block takes a fixed number of whole-int operations: masked pattern
    adds, one subtraction to compare every field at once.  Blocks longer
    than :data:`CHUNK_BYTES` are cut into chunks, and the scan stops at the
    first violated block.  Before anything is allocated, a check whose
    fields would take more than :data:`MAX_EXHAUSTIVE_BYTES` raises
    GuardError.

    The weights' guard, then the one on :data:`MAX_EXHAUSTIVE_N`, fire at
    once.  As in :class:`CertificateChecker`, the worth comes from its own
    branch and bound (:func:`game_worth`) and the cliques after it.  Every
    need is the weight of a stable set and every stable set's weight is a
    need, so RuntimeError is raised when a need exceeds the worth or a
    completed scan meets none equal to it: every in-core verdict also
    proves the worth by definition.
    """

    def __init__(self, g: WeightedGraph, cliques: CliqueSet | None = None):
        self.g = g
        self.scale = g.scaled_weights[0]
        if g.n > MAX_EXHAUSTIVE_N:
            raise GuardError(f"exhaustive scenario check capped at n <= {MAX_EXHAUSTIVE_N}")
        self.worth = game_worth(g)
        self.scaled_worth = math.ceil(self.worth * self.scale)
        # Each vertex is a stable set; the packed adds rely on this bound.
        if max(g.scaled_weights[1], default=0) > self.scaled_worth:
            raise RuntimeError(
                f"a vertex outweighs the branch-and-bound worth {fraction_str(self.worth)}"
            )
        self.cliques = maximal_cliques(g) if cliques is None else cliques

    def check(self, imputation: Imputation) -> CoreReport:
        return _verdict(self, imputation)

    def _first_violation(self, imputation: Imputation) -> tuple[Violation | None, int]:
        g, n = self.g, self.g.n
        money_scale = imputation.scale
        # Money and need are held in units of 1/unit, unit = lcm(scale,
        # money_scale).  The total is the worth and every need the weight of
        # a stable set, so no field exceeds ``top``, the worth in those units.
        common = math.gcd(self.scale, money_scale)
        need_scale = money_scale // common
        unit = self.scale * need_scale
        top = need_scale * self.scaled_worth
        width = _field_bytes(top)
        needed = width << n  # 2^(n-1) money fields and as many need fields
        if needed > MAX_EXHAUSTIVE_BYTES:
            raise GuardError(
                f"exhaustive scenario check needs {needed} bytes,"
                f" capped at {MAX_EXHAUSTIVE_BYTES}"
            )
        firm_scale = self.scale // common
        live = [
            (cmask, a * firm_scale)
            for cmask, a in zip(self.cliques.masks, imputation.amounts)
            if a
        ]
        chunk = _chunk_fields(width, 1 << n)
        money, need = _Packed(width, chunk), _Packed(width, chunk)  # below 2^v
        bits = money.bits
        field = ~(-1 << bits)
        ones, size = 1, 1  # ``size`` fields, each holding 1
        reached = not top  # a need equal to the worth met
        for v, wv in enumerate(g.scaled_weights[1]):
            half = 1 << v
            firms: dict[int, int] = {}
            for cmask, a in live:
                if cmask >> v & 1:
                    low = cmask & (half - 1)
                    firms[low] = firms.get(low, 0) + a
            step = min(half, chunk)
            if size < step:
                ones, size = ones | ones << size * bits, step
            guard = ones << bits - 1
            # The firms at v that miss T, for T in a run, and whether T
            # misses v's neighbours: the high bits of their vertices below v
            # miss the run's start, the low bits are a fixed pattern within
            # the run.
            lower = g.adj[v] & (half - 1)
            add = _fields(step, lower & (step - 1), wv * need_scale, bits)
            patterns: dict[tuple[int, int], int] = {}
            for start in range(0, half, step):
                block = money.get(start, step)
                for low, a in firms.items():
                    if not low & start:
                        key = (low & (step - 1), a)
                        if key not in patterns:
                            patterns[key] = _fields(step, key[0], a, bits)
                        block += patterns[key]
                cost = need.get(start, step)
                if not lower & start:
                    cost += add
                # Money covered need in every block before, so here need -
                # money <= w_v <= worth: no field borrows from the next, and
                # the guard bit is cleared exactly where money < need, as it
                # is for every need above the worth (money <= worth).
                covered = ((block | guard) - cost) & guard
                if covered != guard:
                    if ((ones * top | guard) - cost) & guard != guard:
                        raise RuntimeError(
                            "a stable set outweighs the branch-and-bound worth "
                            + fraction_str(self.worth)
                        )
                    short = covered ^ guard
                    i = ((short & -short).bit_length() - 1) // bits
                    bad = half + start + i
                    violation = Violation(
                        scenario=mask_to_scenario(bad),
                        money=Fraction(block >> i * bits & field, unit),
                        cost=Fraction(cost >> i * bits & field, unit),
                    )
                    return violation, bad + 1
                if v < n - 1:
                    money.append(block, step)
                    need.append(cost, step)
                elif not reached:
                    # need(T + {v}) >= need(T): the top block holds the largest
                    # need.  Adding guard - worth sets the guard bit where equal.
                    reached = bool((cost + ones * ((1 << bits - 1) - top)) & guard)
        if not reached:
            raise RuntimeError(
                f"no stable set reaches the branch-and-bound worth {fraction_str(self.worth)}"
            )
        return None, 1 << n


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
        # The first container in canonical order; for a maximal key, its
        # own mask, the only one that contains it.
        kmask = scenario_mask(members)
        cid = next(c for c, cm in enumerate(cliques.masks) if cm & kmask == kmask)
        values[cid] += amt
    return Imputation.of(values)


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
    out: dict[tuple[int, ...], int] = {}
    for cmask, a in zip(cliques.masks, imputation.amounts):
        inter = cmask & smask
        if inter:
            key = mask_to_scenario(inter)
            out[key] = out.get(key, 0) + a
    return {key: Fraction(out[key], imputation.scale) for key in sorted(out)}
