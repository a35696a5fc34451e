"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with ``pytest -v tests/test_acceptance.py`` (add -s to
see the lines stream)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from cliquecore import (
    Imputation,
    complement,
    compute_core_imputation,
    cycle,
    four_program_chain,
    game_worth,
    is_perfect,
    lift_dual,
    maximal_cliques,
    min_integral_clique_cover_value,
    money,
    paley3x3,
    restrict_dual,
    solve_dual,
    solve_primal,
    verify_core_certificate,
    verify_core_exhaustive,
)
from cliquecore.core import ExhaustiveChecker
from cliquecore.corpus import build_corpus, infeasible_total_vectors, random_total_vectors
from cliquecore.perfection import find_odd_hole

import _bruteforce as bf

F = Fraction

CORPUS_SEED = 20260808
CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    instances = build_corpus(CORPUS_SIZE, seed=CORPUS_SEED, n_min=4, n_max=10)
    assert len(instances) >= 200
    return instances


@pytest.fixture(scope="module")
def solved(corpus):
    """Shared per-instance artifacts: cliques, exhaustive checker, optimal dual."""
    out = []
    for inst in corpus:
        cliques = maximal_cliques(inst.graph)
        checker = ExhaustiveChecker(inst.graph, cliques)
        imputation = compute_core_imputation(inst.graph, cliques)
        out.append((inst.graph, cliques, checker, imputation))
    return out


def report(line: str):
    print(line)


def test_criterion_1_worked_example_golden():
    started = time.perf_counter()
    g = paley3x3()
    cliques = maximal_cliques(g)

    worth = game_worth(g)
    assert worth == 3

    dual = compute_core_imputation(g, cliques)
    assert dual.total == 3
    support = [cliques.cliques[cid] for cid, v in enumerate(dual.values) if v != 0]
    assert len(support) == 3
    for a, b in itertools.combinations(support, 2):
        assert not set(a) & set(b), "support cliques must be pairwise disjoint"

    rows = Imputation.from_mapping(
        cliques, {"0-1-2": 1, "3-4-5": 1, "6-7-8": 1}
    )
    cert = verify_core_certificate(g, cliques, rows)
    exh = verify_core_exhaustive(g, cliques, rows)
    assert cert.verdict == "in-core"
    assert exh.verdict == "in-core"
    assert exh.scenarios_checked == 512

    lopsided = Imputation.from_mapping(cliques, {"0-1-2": 3})
    cert_bad = verify_core_certificate(g, cliques, lopsided)
    exh_bad = verify_core_exhaustive(g, cliques, lopsided)
    assert cert_bad.verdict == "violated"
    assert exh_bad.verdict == "violated"
    for bad in (cert_bad, exh_bad):
        scenario = bad.violation.scenario
        assert bad.violation.money < bad.violation.cost
        assert money(g, cliques, lopsided, scenario) == bad.violation.money

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden example took {elapsed:.3f}s, budget is 1s"
    report(f"[PASS] criterion 1: worked-example golden values exact ({elapsed:.3f}s)")


def test_criterion_2_equivalence_suite(corpus, solved):
    started = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 1)
    disagreements = 0
    for (g, cliques, checker, imputation) in solved:
        exh = checker.check(imputation)
        cert = verify_core_certificate(g, cliques, imputation)
        assert exh.verdict == "in-core", f"optimal dual rejected on instance {g}"
        if cert.verdict != exh.verdict:
            disagreements += 1

        worth = checker.worth
        bad_vectors = infeasible_total_vectors(g, cliques, worth, rng, 20)
        assert len(bad_vectors) == 20
        for bad in bad_vectors:
            exh_bad = checker.check(bad)
            cert_bad = verify_core_certificate(g, cliques, bad)
            assert not exh_bad.in_core, "infeasible fixed-total vector must fail"
            if cert_bad.verdict != exh_bad.verdict:
                disagreements += 1

        for vec in random_total_vectors(cliques, worth, rng, 20):
            exh_any = checker.check(vec)
            cert_any = verify_core_certificate(g, cliques, vec)
            if cert_any.verdict != exh_any.verdict:
                disagreements += 1

    assert disagreements == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"equivalence suite took {elapsed:.1f}s, budget is 5min"
    report(
        f"[PASS] criterion 2: {len(solved)} perfect graphs, 41 vectors each, "
        f"0 certificate/exhaustive disagreements ({elapsed:.1f}s)"
    )


def test_criterion_3_dual_integrality(solved):
    for (g, _cliques, _checker, imputation) in solved:
        value = imputation.total
        assert value.denominator == 1, f"dual optimum {value} is not integral"
        assert value == min_integral_clique_cover_value(g)
    report(
        f"[PASS] criterion 3: dual optimum integral and equal to the "
        f"integral cover on all {len(solved)} instances (denominator-1 test)"
    )


def test_criterion_4_four_program_chain(corpus):
    rng = random.Random(CORPUS_SEED + 2)
    checked = 0
    for inst in corpus:
        g = inst.graph
        for _ in range(10):
            w01 = [rng.randint(0, 1) for _ in range(g.n)]
            r = four_program_chain(g, w01)
            assert r.integral_primal <= r.fractional_primal
            assert r.fractional_primal == r.fractional_dual
            assert r.fractional_dual <= r.integral_dual
            assert r.integral_primal == r.integral_dual, (
                f"gap open on perfect instance {inst.index} with weights {w01}"
            )
            checked += 1

    r5 = four_program_chain(cycle(5), [1, 1, 1, 1, 1])
    assert (
        r5.integral_primal,
        r5.fractional_primal,
        r5.fractional_dual,
        r5.integral_dual,
    ) == (2, F(5, 2), F(5, 2), 3)
    assert r5.integral_primal < r5.fractional_primal
    assert r5.fractional_dual < r5.integral_dual
    report(
        f"[PASS] criterion 4: chain holds with closed gap on {checked} "
        "perfect cases; C5 reproduces (2, 5/2, 5/2, 3) with both strict gaps"
    )


def test_criterion_5_strong_duality_sweep(corpus):
    # solve_primal/solve_dual each verify primal == dual exactly in-solver
    # and raise on any mismatch; this sweep exercises that path everywhere.
    specials = [paley3x3(), cycle(5), cycle(7)]
    count = 0
    for g in specials + [inst.graph for inst in corpus[:50]]:
        cliques = maximal_cliques(g)
        primal = solve_primal(g, cliques)
        dual = solve_dual(g, cliques)
        assert primal.value == dual.value
        count += 1
    report(
        f"[PASS] criterion 5: exact strong duality asserted in-solver on "
        f"{count} instances (rational equality, no tolerance)"
    )


def test_criterion_6_lifting_suite(corpus):
    rng = random.Random(CORPUS_SEED + 3)
    done = 0
    feasible_cases = 0
    idx = 0
    while done < 100:
        g = corpus[idx % len(corpus)].graph
        idx += 1
        cliques = maximal_cliques(g)
        make_feasible = done % 2 == 0
        arbitrary: dict[tuple[int, ...], F] = {}
        if make_feasible:
            # cover every vertex's demand through some sub-clique containing it
            for v in range(g.n):
                host = cliques.cliques[rng.choice(cliques.member_index[v])]
                others = [u for u in host if u != v]
                picked = [u for u in others if rng.random() < 0.5]
                key = tuple(sorted([v] + picked))
                arbitrary[key] = arbitrary.get(key, F(0)) + g.weights[v]
        for _ in range(rng.randint(1, 6)):
            host = cliques.cliques[rng.randrange(len(cliques))]
            size = rng.randint(1, len(host))
            key = tuple(sorted(rng.sample(host, size)))
            arbitrary[key] = arbitrary.get(key, F(0)) + F(rng.randint(0, 8))

        lifted = lift_dual(g, cliques, arbitrary)
        assert lifted.total == sum(arbitrary.values(), F(0))

        input_feasible = True
        for v in range(g.n):
            before = sum((val for key, val in arbitrary.items() if v in key), F(0))
            after = sum((lifted.values[c] for c in cliques.member_index[v]), F(0))
            assert after >= before, "lift decreased a vertex's coverage"
            if before < g.weights[v]:
                input_feasible = False
        if input_feasible:
            feasible_cases += 1
            for v in range(g.n):
                after = sum(
                    (lifted.values[c] for c in cliques.member_index[v]), F(0)
                )
                assert after >= g.weights[v], "feasible input lifted to infeasible"
        done += 1
    assert feasible_cases >= 50
    report(
        f"[PASS] criterion 6: 100 lifts preserve totals and coverage; "
        f"{feasible_cases} feasible inputs stayed feasible on maximal cliques"
    )


def test_criterion_7_restriction_suite(solved):
    rng = random.Random(CORPUS_SEED + 4)
    done = 0
    idx = 0
    while done < 100:
        g, cliques, _checker, imputation = solved[idx % len(solved)]
        idx += 1
        scenario = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
        z = restrict_dual(g, cliques, imputation, scenario)
        assert sum(z.values(), F(0)) == money(g, cliques, imputation, scenario)
        members = set(scenario)
        for key in z:
            assert set(key) <= members
            assert bf.is_clique(g, key)
        for v in scenario:
            covered = sum((z[key] for key in z if v in key), F(0))
            assert covered >= g.weights[v], "restriction lost dual feasibility"
        done += 1
    report(
        "[PASS] criterion 7: 100 restrictions conserve money exactly and "
        "stay cover-feasible on the induced subgraph"
    )


def test_criterion_8_vertex_distribution_impossibility():
    g = paley3x3()
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    transversals = [(0, 4, 8), (1, 5, 6), (2, 3, 7)]
    for t in transversals:
        assert bf.is_stable(g, t)
    best = 0
    for choice in itertools.product(range(3), repeat=3):
        at_vertex = [0] * 9
        for row, pick in zip(rows, choice):
            at_vertex[row[pick]] += 1
        satisfied = sum(
            1 for t in transversals if sum(at_vertex[v] for v in t) >= 3
        )
        assert satisfied <= 1
        best = max(best, satisfied)
    assert best == 1
    report(
        "[PASS] criterion 8: all 27 single-vertex allocations satisfy at "
        "most one transversal scenario"
    )


def test_criterion_9_perfection_checker(corpus):
    c5 = cycle(5)
    verdict = is_perfect(c5)
    assert not verdict.is_perfect
    hole = verdict.hole
    assert hole is not None and len(hole) % 2 == 1 and len(hole) >= 5
    for i, u in enumerate(hole):
        assert c5.has_edge(u, hole[(i + 1) % len(hole)])
    for v in hole:
        inside = sum(1 for u in hole if u != v and c5.has_edge(u, v))
        assert inside == 2

    small = [inst.graph for inst in corpus if inst.graph.n <= 8]
    assert small
    for g in small:
        structural = find_odd_hole(g) is None and find_odd_hole(complement(g)) is None
        assert structural == bf.perfect_by_tables(g)

    for inst in corpus:
        g = inst.graph
        assert is_perfect(g).is_perfect == is_perfect(complement(g)).is_perfect
        assert is_perfect(g).is_perfect
        assert bf.perfect_by_tables(g) and bf.perfect_by_tables(complement(g))

    report(
        f"[PASS] criterion 9: C5 witnessed; structural and definitional "
        f"procedures agree on {len(small)} graphs with n <= 8; verdict "
        "complement-invariant and definitionally confirmed on the whole corpus"
    )
