"""Deterministic instance corpus and the batch property suites.

Instances alternate between random bipartite and random chordal graphs,
both perfect by construction, with integer weights.  Generation rejects
and redraws degenerate instances (all-zero weights, a single maximal
clique, or no vertex whose demand can be starved while keeping the total
fixed) because the perturbation suites need room to build vectors that
hold the right total yet break cover feasibility.  Rejection consumes the
same seeded stream, so a (seed, count) pair always yields the same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .cliques import CliqueSet, maximal_cliques
from .core import (
    ExhaustiveChecker,
    Imputation,
    compute_core_imputation,
    verify_core_certificate,
)
from .generators import cycle, random_bipartite, random_chordal
from .graph import WeightedGraph
from .lp import first_uncovered, is_integral


@dataclass(frozen=True)
class CorpusInstance:
    index: int
    family: str
    expected_perfect: bool
    graph: WeightedGraph


def breakable_vertices(g: WeightedGraph, cliques: CliqueSet) -> list[int]:
    """Vertices with positive demand that some maximal clique avoids.

    Parking all money on cliques that avoid such a vertex starves it, so
    these are exactly the vertices around which a fixed-total,
    cover-infeasible vector can be built.
    """
    out = []
    for v in range(g.n):
        if g.weights[v] > 0 and len(cliques.member_index[v]) < len(cliques):
            out.append(v)
    return out


def build_corpus(
    count: int,
    seed: int,
    n_min: int = 4,
    n_max: int = 10,
    weight_low: int = 0,
    weight_high: int = 10,
    include_imperfect: bool = False,
) -> list[CorpusInstance]:
    """``count`` perfect instances, plus odd cycles when asked for."""
    rng = random.Random(seed)
    out: list[CorpusInstance] = []
    for i in range(count):
        n = n_min + i % (n_max - n_min + 1)
        family = "bipartite" if i % 2 == 0 else "chordal"
        while True:
            sub_seed = rng.randrange(2**63)
            if family == "bipartite":
                g = random_bipartite(n, 0.5, sub_seed)
            else:
                g = random_chordal(n, sub_seed)
            wrng = random.Random(rng.randrange(2**63))
            g = g.with_weights(
                [wrng.randint(weight_low, weight_high) for _ in range(n)]
            )
            cliques = maximal_cliques(g)
            if (
                any(w > 0 for w in g.weights)
                and len(cliques) >= 2
                and breakable_vertices(g, cliques)
            ):
                break
        out.append(CorpusInstance(index=i, family=family, expected_perfect=True, graph=g))
    if include_imperfect:
        for j, k in enumerate((5, 7, 9)):
            g = cycle(k).with_weights(
                [rng.randint(max(weight_low, 1), weight_high) for _ in range(k)]
            )
            out.append(
                CorpusInstance(
                    index=count + j,
                    family=f"cycle{k}",
                    expected_perfect=False,
                    graph=g,
                )
            )
    return out


def scaled_to_total(raw: list[int], total: Fraction) -> list[Fraction]:
    s = sum(raw)
    return [total * Fraction(r, s) for r in raw]


def random_total_vectors(
    cliques: CliqueSet, total: Fraction, rng: random.Random, count: int
) -> list[Imputation]:
    """Random nonnegative vectors over the maximal cliques with the exact
    given total; no feasibility guarantee either way."""
    out = []
    for _ in range(count):
        raw = [rng.randint(0, 100) for _ in range(len(cliques))]
        if sum(raw) == 0:
            raw[rng.randrange(len(cliques))] = 1
        out.append(Imputation(values=tuple(scaled_to_total(raw, total))))
    return out


def infeasible_total_vectors(
    g: WeightedGraph,
    cliques: CliqueSet,
    total: Fraction,
    rng: random.Random,
    count: int,
) -> list[Imputation]:
    """Vectors with the exact given total that are certifiably not
    cover-feasible: all money parked on cliques avoiding one starved
    positive-demand vertex."""
    targets = breakable_vertices(g, cliques)
    if not targets or total <= 0:
        return []
    out = []
    while len(out) < count:
        v = rng.choice(targets)
        avoiding = [
            cid for cid in range(len(cliques)) if cid not in cliques.member_index[v]
        ]
        raw = [0] * len(cliques)
        for cid in avoiding:
            raw[cid] = rng.randint(0, 100)
        if sum(raw) == 0:
            raw[avoiding[rng.randrange(len(avoiding))]] = 1
        values = scaled_to_total(raw, total)
        if first_uncovered(cliques.cliques, values, g.weights) is None:
            continue  # cannot happen; guards the construction
        out.append(Imputation(values=tuple(values)))
    return out


@dataclass(frozen=True)
class InstanceReport:
    """Checks run against one corpus instance."""

    index: int
    family: str
    expected_perfect: bool
    core_agree: bool  # certificate and exhaustive verdicts agreed everywhere
    optimal_in_core: bool | None  # None when the dual is not an imputation
    perturbed_all_fail: bool
    tdi_holds: bool | None
    chain_holds: bool
    gap_closed_count: int
    chain_vectors: int

    @property
    def ok(self) -> bool:
        if not self.core_agree or not self.chain_holds:
            return False
        if self.expected_perfect:
            return (
                self.optimal_in_core is True
                and self.perturbed_all_fail
                and self.tdi_holds is True
                and self.gap_closed_count == self.chain_vectors
            )
        return True


def run_instance_suite(
    inst: CorpusInstance,
    rng: random.Random,
    perturbed: int = 5,
    random_vectors: int = 5,
    chain_vectors: int = 3,
) -> InstanceReport:
    """All property checks for one instance; pure given the rng state."""
    g = inst.graph
    cliques = maximal_cliques(g)
    checker = ExhaustiveChecker(g, cliques)
    worth = checker.worth

    core_agree = True
    optimal_in_core: bool | None = None
    perturbed_all_fail = True
    tdi_holds: bool | None = None

    if inst.expected_perfect:
        imputation = compute_core_imputation(g, cliques)
        cert = verify_core_certificate(g, cliques, imputation)
        exh = checker.check(imputation)
        core_agree &= cert.verdict == exh.verdict
        optimal_in_core = cert.in_core and exh.in_core

        dual_value = imputation.total
        tdi_holds = (
            is_integral(imputation.values)
            and dual_value == oracle.min_integral_clique_cover_value(g)
        )
    else:
        # The dual optimum exceeds the worth here; any fixed-total vector
        # still lets the two verifiers be compared against each other.
        optimal_in_core = None
        tdi_holds = None

    for bad in infeasible_total_vectors(g, cliques, worth, rng, perturbed):
        cert = verify_core_certificate(g, cliques, bad)
        exh = checker.check(bad)
        core_agree &= cert.verdict == exh.verdict
        perturbed_all_fail &= not exh.in_core
    for vec in random_total_vectors(cliques, worth, rng, random_vectors):
        cert = verify_core_certificate(g, cliques, vec)
        exh = checker.check(vec)
        core_agree &= cert.verdict == exh.verdict

    chain_holds = True
    gap_closed = 0
    for k in range(chain_vectors):
        # All-ones first: the canonical stable-set vs clique-cover case,
        # where odd cycles visibly keep the gap open.
        w01 = [1] * g.n if k == 0 else [rng.randint(0, 1) for _ in range(g.n)]
        try:
            report = oracle.four_program_chain(g, w01)
        except RuntimeError:
            chain_holds = False
            continue
        if report.gap_closed:
            gap_closed += 1
    return InstanceReport(
        index=inst.index,
        family=inst.family,
        expected_perfect=inst.expected_perfect,
        core_agree=core_agree,
        optimal_in_core=optimal_in_core,
        perturbed_all_fail=perturbed_all_fail,
        tdi_holds=tdi_holds,
        chain_holds=chain_holds,
        gap_closed_count=gap_closed,
        chain_vectors=chain_vectors,
    )


def summarize(reports: list[InstanceReport]) -> dict:
    """Aggregate pass/fail counts; deterministic given the reports."""
    perfect = [r for r in reports if r.expected_perfect]
    imperfect = [r for r in reports if not r.expected_perfect]
    return {
        "instances": len(reports),
        "coreAgreement": {
            "pass": sum(1 for r in reports if r.core_agree),
            "fail": sum(1 for r in reports if not r.core_agree),
        },
        "optimalDualInCore": {
            "pass": sum(1 for r in perfect if r.optimal_in_core),
            "fail": sum(1 for r in perfect if not r.optimal_in_core),
        },
        "perturbedRejected": {
            "pass": sum(1 for r in perfect if r.perturbed_all_fail),
            "fail": sum(1 for r in perfect if not r.perturbed_all_fail),
        },
        "dualIntegrality": {
            "pass": sum(1 for r in perfect if r.tdi_holds),
            "fail": sum(1 for r in perfect if not r.tdi_holds),
        },
        "chainInequalities": {
            "pass": sum(1 for r in reports if r.chain_holds),
            "fail": sum(1 for r in reports if not r.chain_holds),
        },
        "chainGapClosed": {
            "pass": sum(r.gap_closed_count for r in perfect),
            "fail": sum(r.chain_vectors - r.gap_closed_count for r in perfect),
        },
        "imperfectChainGapObserved": sum(
            r.chain_vectors - r.gap_closed_count for r in imperfect
        ),
        "allOk": all(r.ok for r in reports),
    }
