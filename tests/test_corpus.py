import random
from fractions import Fraction

from cliquecore import game_worth, maximal_cliques, oracle
from cliquecore.corpus import (
    breakable_vertices,
    build_corpus,
    infeasible_total_vectors,
    random_total_vectors,
    run_instance_suite,
    scaled_to_total,
    summarize,
)

import _bruteforce as bf

F = Fraction


def test_build_is_deterministic():
    a = build_corpus(10, seed=4, include_imperfect=True)
    b = build_corpus(10, seed=4, include_imperfect=True)
    assert a == b
    c = build_corpus(10, seed=5, include_imperfect=True)
    assert a != c


def test_instances_satisfy_generation_contract():
    for inst in build_corpus(20, seed=31):
        g = inst.graph
        assert 4 <= g.n <= 10
        assert all(0 <= w <= 10 and w.denominator == 1 for w in g.weights)
        assert any(w > 0 for w in g.weights)
        cs = maximal_cliques(g)
        assert len(cs) >= 2
        assert breakable_vertices(g, cs)
        if inst.family == "bipartite":
            assert bf.is_bipartite(g)
        else:
            assert bf.is_chordal(g)


def test_imperfect_instances_flagged():
    instances = build_corpus(2, seed=1, include_imperfect=True)
    flagged = [inst for inst in instances if not inst.expected_perfect]
    assert [inst.graph.n for inst in flagged] == [5, 7, 9]
    assert all(len(inst.graph.edges) == inst.graph.n for inst in flagged)


def test_infeasible_vectors_break_coverage():
    rng = random.Random(2)
    for inst in build_corpus(6, seed=17):
        g = inst.graph
        cs = maximal_cliques(g)
        worth = game_worth(g)
        for imp in infeasible_total_vectors(g, cs, worth, rng, 8):
            assert imp.total == worth
            starved = any(
                sum((imp.values[c] for c in cs.member_index[v]), F(0)) < g.weights[v]
                for v in range(g.n)
            )
            assert starved


def test_random_vectors_hold_exact_total():
    rng = random.Random(3)
    inst = build_corpus(1, seed=8)[0]
    cs = maximal_cliques(inst.graph)
    worth = game_worth(inst.graph)
    for imp in random_total_vectors(cs, worth, rng, 10):
        assert imp.total == worth
        assert all(v >= 0 for v in imp.values)


def test_scaled_to_total_is_exact():
    for total in (F(0), F(7), F(7, 3), F(22, 15)):
        for raw in ([1], [3, 0, 4], [5, 10, 15, 2]):
            values = scaled_to_total(raw, total).values
            assert values == tuple(total * F(r, sum(raw)) for r in raw)
            assert sum(values, F(0)) == total


def test_suite_computes_the_worth_at_most_twice(monkeypatch):
    # Once per verifier (the exhaustive and the certificate checker), not
    # once per check; the optimal dual's worth comes from its own LP proof.
    # The worth is the cost of the whole-graph scenario.
    inst = build_corpus(1, seed=6)[0]
    g = inst.graph
    real = oracle.cost
    whole = []

    def counting(h, scenario):
        scenario = set(scenario)
        if h == g and scenario == set(range(g.n)):
            whole.append(h)
        return real(h, scenario)

    monkeypatch.setattr(oracle, "cost", counting)
    report = run_instance_suite(inst, random.Random(0))
    assert report.ok
    assert 1 <= len(whole) <= 2


def test_suite_runner_and_summary():
    instances = build_corpus(4, seed=6, include_imperfect=True)
    rng = random.Random(0)
    reports = [run_instance_suite(inst, rng) for inst in instances]
    summary = summarize(reports)
    assert summary["allOk"]
    assert summary["instances"] == 7
    assert summary["coreAgreement"] == {"pass": 7, "fail": 0}
    assert summary["dualIntegrality"] == {"pass": 4, "fail": 0}
    # the all-ones chain vector keeps the gap open on every odd cycle
    assert summary["imperfectChainGapObserved"] >= 3
