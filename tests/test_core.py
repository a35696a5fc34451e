import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquecore
from cliquecore import (
    CertificateChecker,
    CoreReport,
    DualGapError,
    ExhaustiveChecker,
    Imputation,
    Violation,
    WeightedGraph,
    certified_worth,
    complete,
    compute_core_imputation,
    cost,
    cycle,
    find_odd_hole,
    game_worth,
    lift_dual,
    max_weight_stable_set,
    maximal_cliques,
    money,
    paley3x3,
    random_bipartite,
    random_chordal,
    restrict_dual,
    solve_dual,
    solve_game,
    solve_primal,
    subset_cost_table,
    verify_core_certificate,
    verify_core_exhaustive,
)
from cliquecore import core as core_module
from cliquecore.corpus import (
    build_corpus,
    infeasible_total_vectors,
    random_total_vectors,
    scaled_to_total,
)
from cliquecore.graph import mask_to_scenario

import _bruteforce as bf
from conftest import counting_searches, fractional_graphs, graphs

F = Fraction

ROWS = {"0-1-2": 1, "3-4-5": 1, "6-7-8": 1}
COLUMNS = {"0-3-6": 1, "1-4-7": 1, "2-5-8": 1}


@pytest.fixture
def paley_setup():
    g = paley3x3()
    return g, maximal_cliques(g)


class TestGameWorth:
    def test_paley(self):
        assert game_worth(paley3x3()) == 3

    def test_single_vertex(self):
        assert game_worth(WeightedGraph.from_edges(1, [], [7])) == 7

    def test_path(self, path3):
        assert game_worth(path3) == 2
        assert bf.max_stable_value(path3) == 2


class TestMoney:
    def test_single_vertex_scenario(self, paley_setup):
        g, cs = paley_setup
        imp = Imputation.from_mapping(cs, ROWS)
        # vertex 0's row holds 1; its column holds 0
        assert money(g, cs, imp, [0]) == 1

    def test_empty_scenario(self, paley_setup):
        g, cs = paley_setup
        imp = Imputation.from_mapping(cs, ROWS)
        assert money(g, cs, imp, []) == 0

    def test_color_class_meets_all_rows(self, paley_setup):
        g, cs = paley_setup
        imp = Imputation.from_mapping(cs, ROWS)
        assert money(g, cs, imp, [0, 4, 8]) == 3

    @given(graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_inclusion(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        rng = random.Random(g.n * 1000 + len(g.edges))
        imp = Imputation.of(
            tuple(F(rng.randint(0, 5)) for _ in range(len(cs)))
        )
        for s in bf.subsets(g.n):
            base = money(g, cs, imp, s)
            for v in range(g.n):
                if v not in s:
                    assert base <= money(g, cs, imp, s + (v,))


class TestComputeCoreImputation:
    def test_paley_total_three_disjoint_support(self, paley_setup):
        g, cs = paley_setup
        imp = compute_core_imputation(g, cs)
        assert imp.total == 3
        support = [cs.cliques[cid] for cid, v in enumerate(imp.values) if v != 0]
        assert len(support) == 3
        for a, b in itertools.combinations(support, 2):
            assert not set(a) & set(b)

    def test_k3_weighted(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 2, 3])
        imp = compute_core_imputation(g)
        assert imp.values == (F(3),)

    def test_c5_raises_dual_gap(self, c5):
        with pytest.raises(DualGapError) as err:
            compute_core_imputation(c5)
        assert err.value.dual_value == F(5, 2)
        assert err.value.worth == 2


class TestVerifyCertificate:
    def test_rows_at_one_in_core(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_certificate(g, cs, Imputation.from_mapping(cs, ROWS))
        assert report.verdict == "in-core"

    def test_all_on_one_row_violated_at_singleton(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_certificate(
            g, cs, Imputation.from_mapping(cs, {"0-1-2": 3})
        )
        assert report.verdict == "violated"
        assert report.violation.scenario == (3,)
        assert report.violation.money == 0
        assert report.violation.cost == 1

    def test_half_on_all_six_in_core(self, paley_setup):
        # every vertex is covered by its row half plus its column half
        g, cs = paley_setup
        halves = Imputation.of((F(1, 2),) * 6)
        assert verify_core_certificate(g, cs, halves).verdict == "in-core"

    def test_wrong_total_is_not_an_imputation(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_certificate(
            g, cs, Imputation.from_mapping(cs, {"0-1-2": 1})
        )
        assert report.verdict == "not-an-imputation"
        assert report.total_money == 1
        assert report.game_worth == 3

    def test_unknown_clique_key_rejected(self, paley_setup):
        _, cs = paley_setup
        with pytest.raises(KeyError):
            Imputation.from_mapping(cs, {"0-1": 1})

    def test_mapping_amounts_over_mixed_denominators(self, paley_setup):
        _, cs = paley_setup
        amounts = {"0-1-2": F(1, 2), "3-4-5": F(2, 3), "6-7-8": 3, "0-3-6": F(5, 6)}
        imp = Imputation.from_mapping(cs, amounts)
        values = [F(0)] * len(cs)
        for key, amount in amounts.items():
            values[cs.key_to_id[key]] += amount
        assert imp == Imputation.of(tuple(values))
        assert imp.total == 5
        with pytest.raises(ValueError, match="negative money -1/6 on clique 0"):
            Imputation.from_mapping(cs, {"0-1-2": F(-1, 6), "3-4-5": F(1, 4)})

    def test_ints_kept_in_lowest_terms(self):
        imp = Imputation(12, (6, 18, 0))
        assert (imp.scale, imp.amounts) == (2, (1, 3, 0))
        assert imp == Imputation.of((F(1, 2), F(3, 2), 0))
        assert imp.values == (F(1, 2), F(3, 2), F(0)) and imp.total == 2
        assert Imputation(5, (0, 0)).scale == 1
        with pytest.raises(ValueError, match="scale must be positive, got 0"):
            Imputation(0, (1,))
        with pytest.raises(ValueError, match="negative money -1/4 on clique 1"):
            Imputation(8, (2, -2))


class TestVerifyExhaustive:
    def test_rows_at_one_scans_all_512(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_exhaustive(g, cs, Imputation.from_mapping(cs, ROWS))
        assert report.verdict == "in-core"
        assert report.scenarios_checked == 512

    def test_all_on_one_row_first_violation(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_exhaustive(
            g, cs, Imputation.from_mapping(cs, {"0-1-2": 3})
        )
        assert report.verdict == "violated"
        # scenarios scan in bitmask order; subsets of row one are all fine,
        # so the first counterexample is the singleton {3} at mask 8
        assert report.violation.scenario == (3,)
        assert report.violation.money == 0
        assert report.violation.cost == 1
        assert report.scenarios_checked == 9

    def test_single_vertex_game(self):
        g = WeightedGraph.from_edges(1, [], [7])
        cs = maximal_cliques(g)
        report = verify_core_exhaustive(g, cs, Imputation.of((F(7),)))
        assert report.verdict == "in-core"
        assert report.scenarios_checked == 2

    def test_columns_also_in_core(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_exhaustive(g, cs, Imputation.from_mapping(cs, COLUMNS))
        assert report.in_core

    def test_json_schema(self, paley_setup):
        g, cs = paley_setup
        report = verify_core_exhaustive(
            g, cs, Imputation.from_mapping(cs, {"0-1-2": 3})
        )
        data = report.to_json_dict()
        assert data == {
            "verdict": "violated",
            "total": "3",
            "worth": "3",
            "violation": {"scenario": [3], "money": "0", "cost": "1"},
            "scenariosChecked": 9,
        }

    @given(graphs(max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_core_scan(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        rng = random.Random(g.n * 37 + len(g.edges))
        worth = game_worth(g)
        candidates = [Imputation.of(tuple(F(rng.randint(0, 3)) for _ in cs.cliques))]
        if worth > 0:
            raw = [rng.randint(0, 9) for _ in cs.cliques]
            if sum(raw) == 0:
                raw[0] = 1
            candidates.append(scaled_to_total(raw, worth))
        for imp in candidates:
            ours = verify_core_exhaustive(g, cs, imp)
            naive_ok, _ = bf.core_by_definition(g, cs, imp)
            assert ours.in_core == naive_ok


def reference_exhaustive(g, cs, imp, costs):
    """Slow reference for the exhaustive check: every scenario in ascending
    mask order, its money from ``money`` and its cost from ``costs[mask]``
    (``oracle.cost`` or ``oracle.subset_cost_table``), where the check
    itself compares money with need and builds no cost table."""
    worth = game_worth(g)
    total = imp.total
    if total != worth:
        return CoreReport("not-an-imputation", total, worth, None, 0)
    for mask in range(1 << g.n):
        scenario = mask_to_scenario(mask)
        have = money(g, cs, imp, scenario)
        if have < costs[mask]:
            violation = Violation(scenario, have, costs[mask])
            return CoreReport("violated", total, worth, violation, mask + 1)
    return CoreReport("in-core", total, worth, None, 1 << g.n)


class TestExhaustiveAgainstReference:
    """The whole report (verdict, first violated scenario, its money and
    cost, scenarios checked) equals the per-scenario reference, on
    fractional weights and fractional imputations."""

    def test_fractional_weights_and_imputations(self):
        rng = random.Random(2024)
        verdicts = []
        for trial in range(60):
            n = rng.randint(1, 8)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            weights = [F(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
            g = WeightedGraph.from_edges(n, edges, weights)
            cs = maximal_cliques(g)
            costs = [cost(g, mask_to_scenario(m)) for m in range(1 << n)]
            worth = costs[-1]
            vectors = []
            try:
                vectors.append(compute_core_imputation(g, cs))
            except DualGapError:
                pass
            for _ in range(3):
                raw = [rng.randint(0, 9) * rng.randint(0, 1) for _ in cs.cliques]
                if sum(raw) == 0:
                    raw[0] = 1
                vectors.append(scaled_to_total(raw, worth))
            vectors.append(Imputation.of((worth + F(1, 7),) + (F(0),) * (len(cs) - 1)))
            checker = ExhaustiveChecker(g, cs)
            for imp in vectors:
                ours = checker.check(imp)
                assert ours == reference_exhaustive(g, cs, imp, costs), (trial, imp)
                verdicts.append(ours.verdict)
        assert {"in-core", "violated", "not-an-imputation"} <= set(verdicts)

    def test_fractional_optimal_duals_in_core(self):
        rng = random.Random(7)
        for inst in build_corpus(10, seed=31, n_min=3, n_max=7):
            g = inst.graph.with_weights(
                [F(rng.randint(0, 20), rng.choice((1, 2, 3, 5))) for _ in range(inst.graph.n)]
            )
            cs = maximal_cliques(g)
            costs = [cost(g, mask_to_scenario(m)) for m in range(1 << g.n)]
            imp = compute_core_imputation(g, cs)
            ours = verify_core_exhaustive(g, cs, imp)
            assert ours.in_core
            assert ours == reference_exhaustive(g, cs, imp, costs)

    def test_wide_fields_blocks_span_chunks(self):
        # Weights over a common denominator above 2^1000: every packed
        # field is over a hundred bytes, so the top block is longer than
        # one chunk.
        rng = random.Random(1000)
        verdicts = []
        for n, seed in ((12, 3), (13, 5)):
            g = random_bipartite(n, 0.5, seed).with_weights(
                [F(rng.randint(1, 10**6), rng.getrandbits(100) | 1) for _ in range(n)]
            )
            assert g.scaled_weights[0] > 2**1000
            cs = maximal_cliques(g)
            costs = [cost(g, mask_to_scenario(m)) for m in range(1 << n)]
            worth = costs[-1]
            checker = ExhaustiveChecker(g, cs)
            top_block = core_module._field_bytes(checker.scaled_worth) << (n - 1)
            assert top_block > core_module.CHUNK_BYTES
            raw = [rng.randint(0, 9) for _ in cs.cliques]
            raw[0] += 1
            vectors = [
                compute_core_imputation(g, cs),
                scaled_to_total(raw, worth),
                Imputation.of((worth + F(1, 7),) + (F(0),) * (len(cs) - 1)),
            ]
            for imp in vectors:
                ours = checker.check(imp)
                assert ours == reference_exhaustive(g, cs, imp, costs), (n, imp)
                verdicts.append(ours.verdict)
        assert {"in-core", "violated", "not-an-imputation"} <= set(verdicts)

    def test_blocks_cut_into_small_chunks(self, monkeypatch):
        # 16-byte chunks cut every block above a few scenarios, so the
        # chunked paths (a neighbour or a firm's vertex above the chunk)
        # run on small graphs.
        monkeypatch.setattr(core_module, "CHUNK_BYTES", 16)
        rng = random.Random(1616)
        verdicts = []
        for trial in range(30):
            n = rng.randint(5, 10)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ]
            weights = [F(rng.randint(0, 40), rng.choice((1, 1, 3, 8))) for _ in range(n)]
            g = WeightedGraph.from_edges(n, edges, weights)
            cs = maximal_cliques(g)
            costs = [cost(g, mask_to_scenario(m)) for m in range(1 << n)]
            worth = costs[-1]
            vectors = []
            try:
                vectors.append(compute_core_imputation(g, cs))
            except DualGapError:
                pass
            for den in (1, 1, 11):
                # k / den per clique plus 1 on one, times den: scaled_to_total
                # reads only the proportions, which are then ints.
                raw = [rng.randint(0, 9) for _ in cs.cliques]
                raw[rng.randrange(len(raw))] += den
                vectors.append(scaled_to_total(raw, worth))
            vectors += infeasible_total_vectors(g, cs, worth, rng, 1)
            vectors.append(Imputation.of((worth + 1,) + (F(0),) * (len(cs) - 1)))
            checker = ExhaustiveChecker(g, cs)
            for imp in vectors:
                ours = checker.check(imp)
                assert ours == reference_exhaustive(g, cs, imp, costs), (trial, imp)
                verdicts.append(ours.verdict)
        assert {"in-core", "violated", "not-an-imputation"} <= set(verdicts)

    def test_one_checker_across_field_widths(self, paley_setup):
        # An integer vector, then an in-core one over 7^40 (wider money
        # fields), then the integer vector again, on one checker.
        g, cs = paley_setup
        costs = [cost(g, mask_to_scenario(m)) for m in range(1 << g.n)]
        rows = Imputation.from_mapping(cs, ROWS)
        t = F(1, 7**40)
        mixed = Imputation.of(
            tuple(
                (1 - t) * r + t * c
                for r, c in zip(rows.values, Imputation.from_mapping(cs, COLUMNS).values)
            )
        )
        lopsided = Imputation.from_mapping(cs, {"0-1-2": 3 - t, "0-3-6": t})
        checker = ExhaustiveChecker(g, cs)
        assert core_module._field_bytes(mixed.scale * checker.scaled_worth) > (
            core_module._field_bytes(checker.scaled_worth)
        )
        reports = []
        for imp in (rows, mixed, lopsided, rows):
            ours = checker.check(imp)
            assert ours == reference_exhaustive(g, cs, imp, costs)
            reports.append(ours)
        assert [r.verdict for r in reports] == ["in-core", "in-core", "violated", "in-core"]
        assert reports[0] == reports[-1]


#: The exhaustive check at its n <= 22 guard on six-digit fractional
#: weights, run in a child that reports its own peak RSS.
WIDE_N22 = """
import json, random, resource, time
from fractions import Fraction
from cliquecore import (
    WeightedGraph, compute_core_imputation, maximal_cliques, verify_core_exhaustive,
)
rng = random.Random(3)
n = 22
side = [rng.randrange(2) for _ in range(n)]
edges = [
    (u, v) for u in range(n) for v in range(u + 1, n)
    if side[u] != side[v] and rng.random() < 0.5
]
weights = [Fraction(rng.randint(1, 999999), rng.randint(1, 999999)) for _ in range(n)]
g = WeightedGraph.from_edges(n, edges, weights)
cliques = maximal_cliques(g)
imputation = compute_core_imputation(g, cliques)
start = time.perf_counter()
report = verify_core_exhaustive(g, cliques, imputation)
print(json.dumps({
    "verdict": report.verdict,
    "scenariosChecked": report.scenarios_checked,
    "seconds": time.perf_counter() - start,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


@pytest.mark.slow
def test_wide_n22_in_core_within_memory():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cliquecore.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", WIDE_N22], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    print(result)
    assert result["verdict"] == "in-core"
    assert result["scenariosChecked"] == 1 << 22
    assert result["maxrss_mb"] < 500


class TestScanCrossChecks:
    """The scan compares money with need, which is the cost on every stable
    set, so a first violation is a stable set with its true cost; and the
    scan cross-checks the branch-and-bound worth."""

    def test_starved_vector_fails_first_at_a_stable_set(self):
        rng = random.Random(12)
        checked = 0
        for inst in build_corpus(8, seed=41, n_min=8, n_max=12):
            g = inst.graph
            cs = maximal_cliques(g)
            checker = ExhaustiveChecker(g, cs)
            for bad in infeasible_total_vectors(g, cs, checker.worth, rng, 3):
                report = checker.check(bad)
                assert report.verdict == "violated"
                scenario = report.violation.scenario
                assert bf.is_stable(g, scenario)
                assert report.violation.cost == cost(g, scenario)
                checked += 1
            assert checker.check(compute_core_imputation(g, cs)).in_core
        assert checked == 24

    def test_full_scan_cross_checks_the_worth(self, monkeypatch):
        inst = build_corpus(1, seed=6)[0]
        g = inst.graph
        cs = maximal_cliques(g)
        values = list(compute_core_imputation(g, cs).values)
        values[0] += 1
        boosted = Imputation.of(tuple(values))
        assert ExhaustiveChecker(g, cs).check(boosted).verdict == "not-an-imputation"
        worth = game_worth(g)
        monkeypatch.setattr(core_module, "game_worth", lambda h: worth + 1)
        with pytest.raises(RuntimeError, match="no stable set reaches"):
            ExhaustiveChecker(g, cs).check(boosted)

        # Worths claimed one too low.  Three isolated vertices, worth 3: the
        # stable set {0, 1, 2} outweighs 2 in the block where {2} is also
        # violated.  A triangle whose heaviest vertex weighs 3 fails before
        # any scan.
        g = WeightedGraph.from_edges(3)
        cs = maximal_cliques(g)
        monkeypatch.setattr(core_module, "game_worth", lambda h: game_worth(h) - 1)
        short = Imputation.of((F(1), F(1), F(0)))
        with pytest.raises(RuntimeError, match="a stable set outweighs"):
            ExhaustiveChecker(g, cs).check(short)
        with pytest.raises(RuntimeError, match="a vertex outweighs"):
            h = complete(3).with_weights([1, 3, 1])
            ExhaustiveChecker(h, maximal_cliques(h))


@st.composite
def graphs_with_odd_holes(draw, max_n: int = 10):
    """``fractional_graphs``, half of those with n >= 5 made to hold an
    odd hole on their first 5, 7 or 9 vertices."""
    g = draw(fractional_graphs(max_n=max_n))
    if g.n < 5 or not draw(st.booleans()):
        return g
    k = draw(st.sampled_from([k for k in (5, 7, 9) if k <= g.n]))
    edges = [(u, v) for u, v in g.edges if v >= k]
    edges += [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    return WeightedGraph.from_edges(g.n, edges, g.weights)


class TestExhaustiveAgainstReferenceProperty:
    @given(graphs_with_odd_holes(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_whole_report_equals_reference(self, g, rng):
        """The LP dual, starved vectors and random vectors of total worth
        get the reference's report, violations and all."""
        cs = maximal_cliques(g)
        scale = g.scaled_weights[0]
        costs = [F(c, scale) for c in subset_cost_table(g)]
        worth = costs[-1]
        vectors = [Imputation.of(solve_game(g, cs)[1].y)]
        vectors += infeasible_total_vectors(g, cs, worth, rng, 2)
        if worth > 0:
            vectors += random_total_vectors(cs, worth, rng, 2)
        checker = ExhaustiveChecker(g, cs)
        for imp in vectors:
            assert checker.check(imp) == reference_exhaustive(g, cs, imp, costs)


class TestVerifiersShareTheFirstViolation:
    """On a vector whose total is the worth, the first violated scenario
    is stable (see ``ExhaustiveChecker``) and a firm meets a stable set at
    most once, so its money is the sum of its vertices' coverage: the
    first violation is the singleton {v} of the lowest uncovered vertex,
    which the certificate check reports too."""

    def test_same_first_violation(self):
        violated = []

        @given(graphs_with_odd_holes(), st.randoms(use_true_random=False))
        @settings(max_examples=60, deadline=None, derandomize=True)
        def same(g, rng):
            cs = maximal_cliques(g)
            exhaustive, certificate = ExhaustiveChecker(g, cs), CertificateChecker(g, cs)
            worth = exhaustive.worth
            vectors = infeasible_total_vectors(g, cs, worth, rng, 2)
            if worth > 0:
                vectors += random_total_vectors(cs, worth, rng, 3)
            for imp in vectors:
                exh, cert = exhaustive.check(imp), certificate.check(imp)
                assert exh.violation == cert.violation
                if exh.violation is not None:
                    (v,) = exh.violation.scenario
                    assert exh.scenarios_checked == 2**v + 1
                    violated.append(v)

        same()
        assert len(set(violated)) > 1


@st.composite
def perfect_fractional_graphs(draw, max_n: int = 12):
    """Random bipartite or chordal graphs (perfect) with weights drawn as
    fractions of mixed denominators."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    if draw(st.booleans()):
        g = random_bipartite(n, 0.5, seed)
    else:
        g = random_chordal(n, seed)
    weights = draw(
        st.lists(
            st.fractions(min_value=0, max_value=20, max_denominator=12),
            min_size=n,
            max_size=n,
        )
    )
    return g.with_weights(weights)


class TestCertifiedWorth:
    @given(perfect_fractional_graphs())
    @settings(max_examples=60, deadline=None)
    def test_equals_branch_and_bound_on_perfect_graphs(self, g):
        primal = solve_primal(g, maximal_cliques(g))
        with pytest.MonkeyPatch.context() as mp:
            searched = counting_searches(mp)
            worth = certified_worth(g, primal)
        assert searched == []  # the LP optimum proves the worth by itself
        assert worth == max_weight_stable_set(g).total_cost

    def test_fractional_optimum_proves_nothing(self, c5, monkeypatch):
        searched = counting_searches(monkeypatch)
        assert certified_worth(c5, solve_primal(c5, maximal_cliques(c5))) == 2
        assert searched == [c5]
        with pytest.raises(DualGapError):
            compute_core_imputation(c5)

    def test_support_must_be_stable(self, monkeypatch):
        # A 0/1 vector on two adjacent vertices is no stable set, whatever
        # value it claims.
        k3 = complete(3)
        primal = solve_primal(k3, maximal_cliques(k3))
        searched = counting_searches(monkeypatch)
        assert certified_worth(k3, primal) == 1
        assert searched == []
        forged = type(primal)(x=(F(1), F(1), F(0)), value=F(2))
        assert certified_worth(k3, forged) == 1
        assert searched == [k3]


def reference_certificate(g, cs, imp):
    """Slow reference for the certificate check: the worth from
    ``game_worth`` on every call, and the total and each vertex's coverage
    summed in Fractions."""
    worth = game_worth(g)
    total = sum(imp.values, F(0))
    if total != worth:
        return CoreReport("not-an-imputation", total, worth, None, 0)
    for v in range(g.n):
        coverage = sum((imp.values[c] for c in cs.member_index[v]), F(0))
        if coverage < g.weights[v]:
            return CoreReport("violated", total, worth, Violation((v,), coverage, g.weights[v]), 0)
    return CoreReport("in-core", total, worth, None, 0)


class TestCertificateAgainstReference:
    """One ``CertificateChecker`` reused over many vectors gives the whole
    report of a fresh per-call Fraction check, on fractional weights and
    fractional imputations."""

    def test_fractional_weights_and_imputations(self):
        rng = random.Random(4048)
        verdicts = []
        for trial in range(60):
            n = rng.randint(1, 8)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            weights = [F(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
            g = WeightedGraph.from_edges(n, edges, weights)
            cs = maximal_cliques(g)
            worth = game_worth(g)
            vectors = []
            try:
                vectors.append(compute_core_imputation(g, cs))
            except DualGapError:
                pass
            for _ in range(4):
                raw = [rng.randint(0, 9) * rng.randint(0, 1) for _ in cs.cliques]
                if sum(raw) == 0:
                    raw[0] = 1
                vectors.append(scaled_to_total(raw, worth))
            amounts = [F(rng.randint(0, 9), rng.choice((1, 5, 7))) for _ in cs.cliques]
            vectors.append(Imputation.of(tuple(amounts)))
            checker = CertificateChecker(g, cs)
            for imp in vectors:
                ours = checker.check(imp)
                assert ours == reference_certificate(g, cs, imp), (trial, imp)
                assert verify_core_certificate(g, cs, imp) == ours
                verdicts.append(ours.verdict)
        assert {"in-core", "violated", "not-an-imputation"} <= set(verdicts)


class TestCertificateEquivalence:
    """On perfect graphs the certificate and the exhaustive scan agree."""

    def test_small_corpus_equivalence(self):
        instances = build_corpus(12, seed=99)
        rng = random.Random(5)
        for inst in instances:
            g = inst.graph
            cs = maximal_cliques(g)
            worth = game_worth(g)
            vectors = [compute_core_imputation(g, cs)]
            vectors += infeasible_total_vectors(g, cs, worth, rng, 5)
            for raw_count in range(5):
                raw = [rng.randint(0, 20) for _ in cs.cliques]
                if sum(raw) == 0:
                    raw[0] = 1
                vectors.append(scaled_to_total(raw, worth))
            for imp in vectors:
                cert = verify_core_certificate(g, cs, imp)
                exh = verify_core_exhaustive(g, cs, imp)
                assert cert.verdict == exh.verdict

    def test_feasible_suboptimal_scaled_to_total_fails(self):
        # inflate an optimal dual, rescale to the worth: the result either
        # breaks feasibility or (rarely) stays optimal; both verifiers agree
        instances = build_corpus(8, seed=123)
        rng = random.Random(8)
        for inst in instances:
            g = inst.graph
            cs = maximal_cliques(g)
            worth = game_worth(g)
            base = list(compute_core_imputation(g, cs).values)
            for _ in range(5):
                inflated = base[:]
                for _ in range(3):
                    inflated[rng.randrange(len(inflated))] += rng.randint(1, 4)
                total = sum(inflated, F(0))
                scaled = Imputation.of(
                    tuple(v * worth / total for v in inflated)
                )
                feasible = all(
                    sum((scaled.values[c] for c in cs.member_index[v]), F(0))
                    >= g.weights[v]
                    for v in range(g.n)
                )
                exh = verify_core_exhaustive(g, cs, scaled)
                cert = verify_core_certificate(g, cs, scaled)
                assert cert.verdict == exh.verdict
                assert exh.in_core == feasible


@st.composite
def imperfect_graphs(draw):
    """Graphs on 5-10 vertices with weights 0-3 and an induced odd hole on
    their first 5 or 7 vertices (so none is perfect), other edges at
    random."""
    n = draw(st.integers(min_value=5, max_value=10))
    hole = draw(st.sampled_from([k for k in (5, 7) if k <= n]))
    edges = [(v, (v + 1) % hole) for v in range(hole)]
    others = [(u, v) for u in range(n) for v in range(max(u + 1, hole), n)]
    picks = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    edges += [e for e, keep in zip(others, picks) if keep]
    weights = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    return WeightedGraph.from_edges(n, edges, weights)


class TestVerifierAgreementOnImperfectGraphs:
    """The certificate check is exact on every graph: the core is the set
    of covers whose total is the worth, so both checkers agree on
    imperfect graphs too, in-core verdicts included."""

    def test_certificate_and_exhaustive_agree(self):
        verdicts = []

        @given(imperfect_graphs(), st.randoms(use_true_random=False))
        @settings(max_examples=80, deadline=None, derandomize=True)
        def agree(g, rng):
            assert find_odd_hole(g) is not None
            cs = maximal_cliques(g)
            worth = game_worth(g)
            dual = solve_game(g, cs)[1]
            if dual.value == worth:
                base = list(dual.y)
            else:
                # The gap is open and no cover totals the worth: scale one down.
                base = [y * worth / dual.value for y in dual.y]
            vectors = [base]
            for _ in range(3):
                moved = base[:]
                src, dst = rng.randrange(len(cs)), rng.randrange(len(cs))
                amount = moved[src] * F(rng.randint(0, 4), 4)
                moved[src] -= amount
                moved[dst] += amount
                vectors.append(moved)
            certificate, exhaustive = CertificateChecker(g, cs), ExhaustiveChecker(g, cs)
            for values in vectors:
                imp = Imputation.of(tuple(values))
                verdict = certificate.check(imp).verdict
                assert exhaustive.check(imp).verdict == verdict
                verdicts.append(verdict)

        agree()
        assert "in-core" in verdicts
        assert "violated" in verdicts


class TestLiftDual:
    def test_edge_of_triangle_moves_to_triangle(self, k3):
        cs = maximal_cliques(k3)
        lifted = lift_dual(k3, cs, {(0, 1): F(1)})
        assert lifted.values == (F(1),)

    def test_already_maximal_unchanged(self, paley_setup):
        g, cs = paley_setup
        original = Imputation.from_mapping(cs, ROWS)
        as_mapping = {cs.cliques[cid]: v for cid, v in enumerate(original.values)}
        assert lift_dual(g, cs, as_mapping).values == original.values

    def test_c5_edges_are_maximal_total_five(self, c5):
        cs = maximal_cliques(c5)
        lifted = lift_dual(c5, cs, {e: F(1) for e in c5.edges})
        assert lifted.values == (F(1),) * 5
        assert lifted.total == 5

    def test_targets_lexicographically_smallest_superset(self, paley_setup):
        g, cs = paley_setup
        # vertex 0 sits in row (0,1,2) and column (0,3,6); (0,1,2) is smaller
        lifted = lift_dual(g, cs, {(0,): F(2)})
        assert lifted.values[cs.key_to_id["0-1-2"]] == 2

    def test_rejects_non_clique(self, c5):
        cs = maximal_cliques(c5)
        with pytest.raises(ValueError, match="not a clique"):
            lift_dual(c5, cs, {(0, 2): F(1)})

    def test_rejects_negative(self, k3):
        cs = maximal_cliques(k3)
        with pytest.raises(ValueError, match="negative"):
            lift_dual(k3, cs, {(0, 1): F(-1)})

    @given(graphs(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_conservation_coverage_and_feasibility(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        rng = random.Random(g.n * 31 + len(g.edges))
        # random sub-clique dual: subsets of maximal cliques
        arbitrary = {}
        for _ in range(6):
            q = cs.cliques[rng.randrange(len(cs))]
            size = rng.randint(1, len(q))
            key = tuple(sorted(rng.sample(q, size)))
            arbitrary[key] = arbitrary.get(key, F(0)) + F(rng.randint(0, 5))
        lifted = lift_dual(g, cs, arbitrary)
        total_in = sum(arbitrary.values(), F(0))
        assert lifted.total == total_in
        for v in range(g.n):
            before = sum(
                (val for key, val in arbitrary.items() if v in key), F(0)
            )
            after = sum(
                (lifted.values[c] for c in cs.member_index[v]), F(0)
            )
            assert after >= before

    def test_integrality_preserved(self, paley_setup):
        g, cs = paley_setup
        lifted = lift_dual(g, cs, {(0,): F(2), (4, 5): F(1), (8,): F(3)})
        assert all(v.denominator == 1 for v in lifted.values)


class TestRestrictDual:
    def test_whole_vertex_set_is_identity(self, paley_setup):
        g, cs = paley_setup
        imp = Imputation.from_mapping(cs, ROWS)
        z = restrict_dual(g, cs, imp, range(9))
        assert z == {
            (0, 1, 2): F(1),
            (3, 4, 5): F(1),
            (6, 7, 8): F(1),
            (0, 3, 6): F(0),
            (1, 4, 7): F(0),
            (2, 5, 8): F(0),
        }

    def test_color_class_gives_singletons(self, paley_setup):
        g, cs = paley_setup
        imp = Imputation.from_mapping(cs, ROWS)
        z = restrict_dual(g, cs, imp, [0, 4, 8])
        assert {k: v for k, v in z.items() if v != 0} == {
            (0,): F(1),
            (4,): F(1),
            (8,): F(1),
        }

    def test_path_endpoints(self, path3):
        cs = maximal_cliques(path3)
        imp = Imputation.from_mapping(cs, {"0-1": 1, "1-2": 1})
        z = restrict_dual(path3, cs, imp, [0, 2])
        assert z == {(0,): F(1), (2,): F(1)}
        assert sum(z.values(), F(0)) == money(path3, cs, imp, [0, 2]) == 2

    def test_empty_scenario_rejected(self, paley_setup):
        g, cs = paley_setup
        imp = Imputation.from_mapping(cs, ROWS)
        with pytest.raises(ValueError, match="nonempty"):
            restrict_dual(g, cs, imp, [])

    @given(graphs(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_conservation_and_inherited_feasibility(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        dual = solve_dual(g, cs)
        imp = Imputation.of(dual.y)
        rng = random.Random(g.n * 7 + len(g.edges) * 3)
        for _ in range(4):
            scenario = tuple(
                sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            )
            z = restrict_dual(g, cs, imp, scenario)
            assert sum(z.values(), F(0)) == money(g, cs, imp, scenario)
            for key in z:
                assert bf.is_clique(g, key)
                assert set(key) <= set(scenario)
            for v in scenario:
                covered = sum((z[key] for key in z if v in key), F(0))
                assert covered >= g.weights[v]


class TestVertexDistributionImpossibility:
    def test_27_allocations_satisfy_at_most_one_color_class(self):
        """Giving each row's unit to a single vertex can satisfy at most one
        of the three transversal scenarios, however the rows choose."""
        g = paley3x3()
        rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        color_classes = [(0, 4, 8), (1, 5, 6), (2, 3, 7)]
        for cls in color_classes:  # each is stable and costs 3
            assert bf.is_stable(g, cls)
            assert len(cls) == 3
        satisfiable_counts = []
        for choice in itertools.product(range(3), repeat=3):
            at_vertex = [0] * 9
            for row, pick in zip(rows, choice):
                at_vertex[row[pick]] += 1
            satisfied = sum(
                1
                for cls in color_classes
                if sum(at_vertex[v] for v in cls) >= 3
            )
            satisfiable_counts.append(satisfied)
            assert satisfied <= 1
        # the all-in-one-class corner cases do reach one
        assert max(satisfiable_counts) == 1
