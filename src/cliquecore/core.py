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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def _ones(width: int, count: int) -> int:
    """``count`` packed fields of ``width`` bytes, each holding 1."""
    return int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")


def _fields(count: int, avoid: int, unit: bytes) -> bytes:
    """``count`` packed fields (a power of two) as little-endian bytes:
    field i holds ``unit`` when ``i & avoid == 0`` and zero otherwise."""
    out = unit
    bit = 1
    while bit < count:
        out += bytes(len(out)) if avoid & bit else out
        bit <<= 1
    return out


def _widen(packed: int, count: int, width: int, wider: int) -> int:
    """``count`` packed fields of ``width`` bytes moved into fields of
    ``wider`` bytes."""
    if width == wider:
        return packed
    narrow = packed.to_bytes(count * width, "little")
    out = bytearray(count * wider)
    for byte in range(width):
        out[byte::wider] = narrow[byte::width]
    return int.from_bytes(out, "little")


class _Packed:
    """A growing array of packed fields, ``width`` bytes each, held as
    ints of ``chunk`` fields (a power of two) apiece.  It grows by as many
    fields as it holds, or by one chunk once it holds a chunk or more, so
    every aligned run of up to ``chunk`` fields lies in one int."""

    def __init__(self, width: int, chunk: int):
        self.width = width
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
    ints: costs scaled by the weights' common denominator ``scale``
    (``WeightedGraph.scaled_weights``), money by the least common multiple
    of ``scale`` and the imputation's denominator (``Imputation.scaled``).
    For T below 2^v, money(T + {v}) is money(T) plus the money of the
    firms at v that miss T.

    Costs and money are packed side by side in wide ints, one fixed-width,
    byte-aligned field per scenario, each with a guard bit above its value
    ("SIMD within a register": Lamport, CACM 1975; Knuth, TAOCP 4A 7.1.3).
    No cost or money of a scan exceeds the scaled worth, which fixes the
    widths, so a block takes a fixed number of whole-int operations:
    masked shifts, one subtraction to compare every field at once.  Blocks
    longer than :data:`CHUNK_BYTES` are cut into chunks.  Before anything
    is allocated, a check whose table and money fields would take more
    than ``oracle.MAX_EXHAUSTIVE_BYTES`` raises GuardError.

    The subset cost table (see ``oracle.subset_cost_table``; entries read
    by :meth:`scaled_cost`) starts with the empty set's 0 and grows by one
    block the first time any check reaches that block; later checks on the
    same checker reuse it.  Each block is compared with its costs before
    the next is built, so a violation in an early scenario costs only the
    blocks below it.

    The worth comes from its own branch and bound (:func:`game_worth`), as
    in :class:`CertificateChecker`.  The table's last entry is the same
    number, so the check that completes the table compares the two and
    raises RuntimeError if they differ, as it does for any entry above the
    worth: every in-core verdict is cross-checked against the definition.
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
        self.scaled_worth = math.ceil(self.worth * self.scale)
        width = _field_bytes(self.scaled_worth)
        self._table = _Packed(width, _chunk_fields(width, 1 << g.n))

    @property
    def table_entries(self) -> int:
        """How many cost-table entries are built: a power of two."""
        return self._table.size

    def scaled_cost(self, mask: int) -> int:
        """Cost-table entry of the scenario ``mask``: ``scale`` times its
        cost.  Only built entries can be read."""
        return self._table.get(mask, 1)

    def _worth_error(self, entry: int, exact: bool) -> RuntimeError:
        """The table's worth, its last entry, is ``entry`` (or at least
        ``entry`` when not ``exact``) and differs from the worth."""
        return RuntimeError(
            f"cost table worth {'' if exact else 'at least '}"
            f"{fraction_str(Fraction(entry, self.scale))}"
            f" != branch-and-bound worth {fraction_str(self.worth)}"
        )

    def _extend_cost_table(self) -> None:
        """Build block ``[2^v, 2^(v+1))`` of the cost table: each set there
        skips v or takes v and drops v's neighbours."""
        g, table = self.g, self._table
        half = table.size
        v = half.bit_length() - 1
        wv = g.scaled_weights[1][v]
        if wv > self.scaled_worth:
            raise self._worth_error(wv, False)
        width, bits = table.width, table.bits
        step = min(half, table.chunk)
        keep = ~g.adj[v] & (half - 1)
        ones = _ones(width, step)
        guard = ones << bits - 1
        add = ones * wv
        # "take v" reads entry t & keep: the high bits of t pick the source
        # run, and each neighbour b within a run copies the fields whose
        # index has bit b clear into the fields 2^b above them.
        drops = [
            (bits << b, int.from_bytes(_fields(step, 1 << b, b"\xff" * width), "little"))
            for b in range(step.bit_length() - 1)
            if not keep >> b & 1
        ]
        for start in range(0, half, step):
            skip = table.get(start, step)
            source = start & keep
            take = skip if source == start else table.get(source, step)
            for shift, clear in drops:
                low = take & clear
                take = low | low << shift
            take += add
            if take & guard:
                raise self._worth_error(1 << bits - 1, False)
            # max(skip, take): the guard bit survives (skip | guard) - take
            # exactly in the fields where skip >= take.
            ge = ((skip | guard) - take) & guard
            table.append(take ^ ((take ^ skip) & (ge - (ge >> bits - 1))), step)
        top = table.get(2 * half - 1, 1)  # the largest entry: cost is monotone
        full = 2 * half == 1 << g.n
        if top > self.scaled_worth or (full and top != self.scaled_worth):
            raise self._worth_error(top, full)

    def check(self, imputation: Imputation) -> CoreReport:
        return _verdict(self, imputation)

    def _first_violation(self, imputation: Imputation) -> tuple[Violation | None, int]:
        n = self.g.n
        money_scale, amounts = imputation.scaled
        # Money is held in units of 1/unit, unit = lcm(scale, money_scale),
        # and costs in units of 1/scale, so money >= cost compares money to
        # (unit / scale) * cost.  The total is the worth, so no money or
        # need exceeds that multiple of the scaled worth.
        common = math.gcd(self.scale, money_scale)
        need_scale = money_scale // common
        unit = self.scale * need_scale
        width = _field_bytes(need_scale * self.scaled_worth)
        table_width = self._table.width
        needed = (table_width << n) + (width << n >> 1)
        if needed > oracle.MAX_EXHAUSTIVE_BYTES:
            raise GuardError(
                f"exhaustive scenario check needs {needed} bytes,"
                f" capped at {oracle.MAX_EXHAUSTIVE_BYTES}"
            )
        firm_scale = self.scale // common
        live = [
            (cmask, a * firm_scale)
            for cmask, a in zip(self.cliques.masks, amounts)
            if a
        ]
        money = _Packed(width, _chunk_fields(width, 1 << n))  # of every scenario below 2^v
        bits = money.bits
        for v in range(n):
            half = 1 << v
            if self._table.size == half:
                self._extend_cost_table()
            firms: dict[int, int] = {}
            for cmask, a in live:
                if cmask >> v & 1:
                    low = cmask & (half - 1)
                    firms[low] = firms.get(low, 0) + a
            step = min(half, money.chunk)
            guard = _ones(width, step) << bits - 1
            # The firms at v that miss T, for T in a run: the high bits of
            # their vertices below v miss the run's start, the low bits are
            # a fixed pattern within the run.
            patterns: dict[tuple[int, int], int] = {}
            for start in range(0, half, step):
                block = money.get(start, step)
                for low, a in firms.items():
                    if not low & start:
                        key = (low & (step - 1), a)
                        if key not in patterns:
                            patterns[key] = int.from_bytes(
                                _fields(step, key[0], a.to_bytes(width, "little")), "little"
                            )
                        block += patterns[key]
                need = _widen(self._table.get(half + start, step), step, table_width, width)
                if need_scale != 1:
                    need *= need_scale
                # The guard bit of a field is cleared where money < need.
                short = ((block | guard) - need) & guard ^ guard
                if short:
                    i = ((short & -short).bit_length() - 1) // bits
                    bad = half + start + i
                    violation = Violation(
                        scenario=mask_to_scenario(bad),
                        money=Fraction(block >> i * bits & ~(-1 << bits), unit),
                        cost=Fraction(self.scaled_cost(bad), self.scale),
                    )
                    return violation, bad + 1
                if v < n - 1:
                    money.append(block, step)
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
