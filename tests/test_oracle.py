import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cliquecore
from cliquecore import (
    GuardError,
    WeightedGraph,
    complete,
    cost,
    cycle,
    four_program_chain,
    max_weight_stable_set,
    maximal_cliques,
    min_integral_clique_cover_value,
    paley3x3,
    subset_cost_table,
)
from cliquecore import oracle
from cliquecore.graph import induced_subgraph, mask_to_scenario, scenario_mask, to_int_scale

import _bruteforce as bf
from conftest import fractional_graphs, graphs, random_graph

F = Fraction


class TestMaxWeightStableSet:
    def test_paley_unit_worth_three(self):
        assert max_weight_stable_set(paley3x3()).total_cost == 3

    def test_empty_graph(self):
        res = max_weight_stable_set(WeightedGraph.from_edges(0))
        assert res.members == ()
        assert res.total_cost == 0

    def test_c5_unit(self, c5):
        res = max_weight_stable_set(c5)
        assert res.total_cost == 2  # brute force over all 32 subsets agrees
        assert res.total_cost == bf.max_stable_value(c5)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_value_matches_exhaustive_scan(self, g):
        res = max_weight_stable_set(g)
        assert res.total_cost == bf.max_stable_value(g)
        assert bf.is_stable(g, res.members)
        assert sum((g.weights[v] for v in res.members), F(0)) == res.total_cost

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_lexicographically_smallest_optimum(self, g):
        res = max_weight_stable_set(g)
        assert res.members == min(bf.best_stable_sets(g))

    @given(fractional_graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_fractional_weights(self, g):
        res = max_weight_stable_set(g)
        assert res.total_cost == bf.max_stable_value(g)
        assert res.members == min(bf.best_stable_sets(g))
        assert sum((g.weights[v] for v in res.members), F(0)) == res.total_cost

    @given(
        graphs(max_n=12, max_weight=3),
        st.lists(st.integers(min_value=0, max_value=3), min_size=12, max_size=12),
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_partition_bound_search_matches_sum_bound_search(self, g, w, within, beat):
        # Weights 0..3 make ties common; the reference keeps the search's
        # branching with the earlier bound, so (weight, members) must agree.
        within &= (1 << g.n) - 1
        ours = oracle._best_stable_set(g.adj, w, within, beat)
        assert ours == bf.best_stable_set_by_sum(g.adj, w, within, beat)

    def test_zero_weights_give_empty_set(self):
        g = WeightedGraph.from_edges(3, [(0, 1)], [0, 0, 0])
        assert max_weight_stable_set(g).members == ()

    def test_tie_break_prefers_smaller_vertices(self):
        # two disjoint optimal singletons of equal weight
        g = WeightedGraph.from_edges(2, [(0, 1)], [3, 3])
        assert max_weight_stable_set(g).members == (0,)

    def test_guard(self):
        with pytest.raises(GuardError):
            max_weight_stable_set(WeightedGraph.from_edges(31))

    def test_matches_exhaustive_scan_on_corpus(self):
        from cliquecore.corpus import build_corpus

        for inst in build_corpus(30, seed=2025):
            res = max_weight_stable_set(inst.graph)
            assert res.total_cost == bf.max_stable_value(inst.graph)
            assert res.members == min(bf.best_stable_sets(inst.graph))


class TestCost:
    def test_empty_scenario(self, paley):
        assert cost(paley, []) == 0

    def test_paley_row_costs_one(self, paley):
        assert cost(paley, [0, 1, 2]) == 1

    def test_paley_color_class_costs_three(self, paley):
        assert cost(paley, [0, 4, 8]) == 3

    @given(graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_inclusion(self, g):
        import itertools

        for small in bf.subsets(g.n):
            extras = [v for v in range(g.n) if v not in small]
            for add in itertools.combinations(extras, min(1, len(extras))):
                assert cost(g, small) <= cost(g, small + add)

    def test_scenario_inside_a_graph_above_the_guard(self):
        # The guard counts the scenario's vertices, not the graph's.
        g = random_graph(40, seed=31)
        s = [0, 3, 7, 12, 18, 25, 33, 39]
        assert cost(g, s) == bf.max_stable_value(induced_subgraph(g, s)[0])
        with pytest.raises(GuardError, match=r"^stable-set search capped at n <= 30$"):
            cost(g, range(31))

    @given(st.one_of(fractional_graphs(), graphs(max_weight=1)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_search_on_induced_subgraph(self, g, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
        s = mask_to_scenario(mask)
        sub, _ = induced_subgraph(g, s)
        assert cost(g, s) == max_weight_stable_set(sub).total_cost

    def test_matches_subset_table(self):
        g = random_graph(7, seed=19)
        table = subset_cost_table(g)
        for s in bf.subsets(g.n):
            assert table[scenario_mask(s)] == cost(g, s)

    def test_subset_table_guard(self):
        with pytest.raises(GuardError, match=r"^subset cost table capped at n <= 22$"):
            subset_cost_table(WeightedGraph.from_edges(23))

    def test_subset_table_scaled_by_common_denominator(self):
        g = random_graph(7, seed=23).with_weights(
            [Fraction(k, d) for k, d in zip((3, 1, 7, 0, 5, 9, 4), (2, 3, 4, 1, 6, 5, 3))]
        )
        scale, _ = to_int_scale(g.weights)
        assert scale == 60
        table = subset_cost_table(g)
        assert all(type(x) is int for x in table)
        for s in bf.subsets(g.n):
            assert Fraction(table[scenario_mask(s)], scale) == cost(g, s)


class TestIntegralCliqueCover:
    def test_k3(self, k3):
        assert min_integral_clique_cover_value(k3.with_weights([1, 1, 1])) == 1

    def test_c5_unit_cover_is_three(self, c5):
        assert min_integral_clique_cover_value(c5) == 3
        assert bf.min_clique_cover_value(c5, [1] * 5) == 3

    def test_paley_unit_cover_is_three(self):
        assert min_integral_clique_cover_value(paley3x3()) == 3

    def test_zero_demand(self, c5):
        assert min_integral_clique_cover_value(c5.with_weights([0] * 5)) == 0

    def test_rejects_fractional_weights(self, k3):
        with pytest.raises(ValueError, match="integer"):
            min_integral_clique_cover_value(k3.with_weights([F(1, 2), 1, 1]))

    @given(graphs(max_n=6, max_weight=3))
    @settings(max_examples=40, deadline=None)
    # Stable set 6, cover 8: the search tries 6, 7 and 8.
    @example(cycle(5).with_weights([3] * 5))
    # Stable set 10, cover 13: 14 is the first fit, and bisection finds 13.
    @example(cycle(5).with_weights([5] * 5))
    # 2,000 units on one clique, more than the recursion limit.
    @example(complete(3).with_weights([2000] * 3))
    def test_matches_exhaustive_multiplicity_scan(self, g):
        if g.n == 0:
            return
        ours = min_integral_clique_cover_value(g)
        reference = bf.min_clique_cover_value(g, [int(w) for w in g.weights])
        assert ours == (reference or 0)

    def test_wide_gap_takes_few_passes(self):
        # Stable set 4,000, cover 5,000: one pass per unit of gap took
        # about 7 s.  The child process turns a slow search into a timeout.
        script = (
            "from cliquecore import cycle, min_integral_clique_cover_value\n"
            "print(min_integral_clique_cover_value(cycle(5).with_weights([2000] * 5)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cliquecore.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=2
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "5000\n"

    def test_weighted_path(self, path3):
        # demands 1,2,1 over cliques {0,1} and {1,2}: one unit each suffices
        assert min_integral_clique_cover_value(path3.with_weights([1, 2, 1])) == 2
        assert bf.min_clique_cover_value(path3, [1, 2, 1]) == 2

    def test_perfect_corpora_finish_at_the_stable_set_bound(self):
        # On a perfect graph the minimum integral cover is the heaviest
        # stable set (Lovasz 1972).  These corpora include instances that
        # take seconds to minutes under weaker bounds; the sweep runs in a
        # child process so that a slow search fails on the timeout instead
        # of hanging the suite.
        script = textwrap.dedent(
            """
            from cliquecore import max_weight_stable_set, min_integral_clique_cover_value
            from cliquecore.corpus import build_corpus

            instances = [build_corpus(33, seed=1, n_max=14)[32]]
            for seed in range(1, 6):
                instances += build_corpus(200, seed=seed, n_max=16)
            for inst in instances:
                value = min_integral_clique_cover_value(inst.graph, inst.cliques)
                assert value == max_weight_stable_set(inst.graph).total_cost, inst
            print(len(instances))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cliquecore.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1001\n"


class TestFourProgramChain:
    def test_k3_all_equal(self, k3):
        r = four_program_chain(k3, [1, 1, 1])
        assert (
            r.integral_primal,
            r.fractional_primal,
            r.fractional_dual,
            r.integral_dual,
        ) == (1, 1, 1, 1)

    def test_c5_exhibits_both_strict_gaps(self, c5):
        r = four_program_chain(c5, [1, 1, 1, 1, 1])
        assert r.integral_primal == 2
        assert r.fractional_primal == F(5, 2)
        assert r.fractional_dual == F(5, 2)
        assert r.integral_dual == 3
        assert not r.gap_closed

    def test_paley_all_ones(self):
        r = four_program_chain(paley3x3(), [1] * 9)
        assert (
            r.integral_primal,
            r.fractional_primal,
            r.fractional_dual,
            r.integral_dual,
        ) == (3, 3, 3, 3)

    def test_rejects_non_binary_weights(self, k3, c5):
        with pytest.raises(ValueError):
            four_program_chain(k3, [2, 0, 0])
        # Weights are checked as given, not truncated to ints first.
        with pytest.raises(ValueError, match="chain weights must be 0 or 1"):
            four_program_chain(paley3x3(), [F(1, 2)] * 9)
        with pytest.raises(ValueError, match="chain weights must be 0 or 1"):
            four_program_chain(c5, [1.9] * 5)
        # A negative weight is refused by WeightedGraph.with_weights first.
        with pytest.raises(ValueError, match="negative weight -1 at vertex 0"):
            four_program_chain(k3, [-1, 0, 0])

    @given(graphs(max_n=7, max_weight=1))
    @settings(max_examples=40, deadline=None)
    def test_chain_inequalities_always_hold(self, g):
        if g.n == 0:
            return
        w01 = [int(w) for w in g.weights]
        r = four_program_chain(g, w01)
        assert r.integral_primal <= r.fractional_primal
        assert r.fractional_primal == r.fractional_dual
        assert r.fractional_dual <= r.integral_dual
        # ends agree with the naive oracles
        assert r.integral_primal == bf.max_stable_value(g, w01)
        assert r.integral_dual == (bf.min_clique_cover_value(g, w01) or 0)


class TestWeakDuality:
    @given(graphs(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_any_feasible_cover_dominates_any_stable_set(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        # feasible cover: for each vertex, dump its full demand on its first clique
        y = [F(0)] * len(cs)
        for v in range(g.n):
            y[cs.member_index[v][0]] += g.weights[v]
        for s in bf.subsets(g.n):
            if bf.is_stable(g, s):
                stable_value = sum((g.weights[v] for v in s), F(0))
                assert sum(y, F(0)) >= stable_value
