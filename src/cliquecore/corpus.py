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
    CertificateChecker,
    CoreReport,
    ExhaustiveChecker,
    Imputation,
    compute_core_imputation,
)
from .generators import cycle, random_bipartite, random_chordal
from .graph import WeightedGraph


#: Inclusive range of the random integer weights.
WEIGHT_LOW, WEIGHT_HIGH = 0, 10
#: Vectors each instance's suite checks: fixed-total vectors with a
#: starved vertex, random fixed-total vectors, and 0/1 weight vectors for
#: the four-program chain.
PERTURBED, RANDOM_VECTORS, CHAIN_VECTORS = 5, 5, 3


@dataclass(frozen=True)
class CorpusInstance:
    """One drawn graph and its maximal cliques, enumerated when drawn."""

    index: int
    family: str
    expected_perfect: bool
    graph: WeightedGraph
    cliques: CliqueSet


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
    include_imperfect: bool = False,
) -> list[CorpusInstance]:
    """``count`` perfect instances, plus odd cycles when asked for.

    Instance i has ``n_min + i % (n_max - n_min + 1)`` vertices.  Unless
    2 <= n_min <= n_max, ValueError is raised: an instance needs two
    maximal cliques, which no one-vertex graph has.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError(f"vertex counts need 2 <= n_min <= n_max, got {n_min} and {n_max}")
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
                [wrng.randint(WEIGHT_LOW, WEIGHT_HIGH) for _ in range(n)]
            )
            cliques = maximal_cliques(g)
            if (
                any(w > 0 for w in g.weights)
                and len(cliques) >= 2
                and breakable_vertices(g, cliques)
            ):
                break
        out.append(
            CorpusInstance(
                index=i, family=family, expected_perfect=True, graph=g, cliques=cliques
            )
        )
    if include_imperfect:
        for j, k in enumerate((5, 7, 9)):
            g = cycle(k).with_weights(
                [rng.randint(max(WEIGHT_LOW, 1), WEIGHT_HIGH) for _ in range(k)]
            )
            out.append(
                CorpusInstance(
                    index=count + j,
                    family=f"cycle{k}",
                    expected_perfect=False,
                    graph=g,
                    cliques=maximal_cliques(g),
                )
            )
    return out


def scaled_to_total(raw: list[int], total: Fraction) -> Imputation:
    """The imputation proportional to ``raw`` (nonnegative, not all zero)
    whose total is exactly ``total``."""
    num = total.numerator
    return Imputation(total.denominator * sum(raw), tuple([num * r for r in raw]))


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
        out.append(scaled_to_total(raw, total))
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
        out.append(scaled_to_total(raw, total))
    return out


@dataclass(frozen=True)
class InstanceReport:
    """Checks run against one corpus instance."""

    index: int
    family: str
    expected_perfect: bool
    core_agree: bool  # the two verifiers' verdicts and first violations agreed
    optimal_in_core: bool | None  # None when the dual is not an imputation
    perturbed_all_fail: bool
    tdi_holds: bool | None
    chain_holds: bool
    gap_closed_count: int


def run_instance_suite(inst: CorpusInstance, rng: random.Random) -> InstanceReport:
    """All property checks for one instance; pure given the rng state."""
    g, cliques = inst.graph, inst.cliques
    checker = ExhaustiveChecker(g, cliques)
    certificate = CertificateChecker(g, cliques)
    worth = checker.worth

    core_agree = True
    optimal_in_core: bool | None = None
    perturbed_all_fail = True
    tdi_holds: bool | None = None

    def check_both(vec: Imputation) -> tuple[CoreReport, bool]:
        """The exhaustive checker's report on ``vec``, and whether the
        certificate checker gives the same verdict and first violation."""
        cert, exh = certificate.check(vec), checker.check(vec)
        return exh, (cert.verdict, cert.violation) == (exh.verdict, exh.violation)

    # On the odd cycles the dual optimum exceeds the worth, so only the
    # fixed-total vectors below compare the two verifiers there.
    if inst.expected_perfect:
        imputation = compute_core_imputation(g, cliques)
        exh, agree = check_both(imputation)
        core_agree &= agree
        optimal_in_core = agree and exh.in_core

        dual_value = imputation.total
        tdi_holds = (
            imputation.scale == 1
            and dual_value == oracle.min_integral_clique_cover_value(g, cliques=cliques)
        )

    for bad in infeasible_total_vectors(g, cliques, worth, rng, PERTURBED):
        exh, agree = check_both(bad)
        core_agree &= agree
        perturbed_all_fail &= not exh.in_core
    for vec in random_total_vectors(cliques, worth, rng, RANDOM_VECTORS):
        core_agree &= check_both(vec)[1]

    chain_holds = True
    gap_closed = 0
    for k in range(CHAIN_VECTORS):
        # All-ones first: the canonical stable-set vs clique-cover case,
        # where odd cycles visibly keep the gap open.
        w01 = [1] * g.n if k == 0 else [rng.randint(0, 1) for _ in range(g.n)]
        try:
            report = oracle.four_program_chain(g, w01, cliques)
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
    )


#: The properties :func:`summarize` tallies, in report order: the summary
#: key, whether imperfect instances count too, and one instance's
#: (passes, checks).
PROPERTIES = (
    ("coreAgreement", True, lambda r: (r.core_agree, 1)),
    ("optimalDualInCore", False, lambda r: (r.optimal_in_core, 1)),
    ("perturbedRejected", False, lambda r: (r.perturbed_all_fail, 1)),
    ("dualIntegrality", False, lambda r: (r.tdi_holds, 1)),
    ("chainInequalities", True, lambda r: (r.chain_holds, 1)),
    ("chainGapClosed", False, lambda r: (r.gap_closed_count, CHAIN_VECTORS)),
)


def summarize(reports: list[InstanceReport]) -> dict:
    """Aggregate pass/fail counts; deterministic given the reports."""
    summary: dict = {"instances": len(reports)}
    for key, everywhere, tally in PROPERTIES:
        passes = checks = 0
        for r in reports:
            if everywhere or r.expected_perfect:
                p, c = tally(r)
                passes += p
                checks += c
        summary[key] = {"pass": passes, "fail": checks - passes}
    summary["imperfectChainGapObserved"] = sum(
        CHAIN_VECTORS - r.gap_closed_count for r in reports if not r.expected_perfect
    )
    # An instance never passes a property more often than it checks it.
    summary["allOk"] = all(summary[key]["fail"] == 0 for key, *_ in PROPERTIES)
    return summary
