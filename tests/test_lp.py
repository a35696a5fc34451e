import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquecore import (
    GuardError,
    LinearProgram,
    WeightedGraph,
    build_clique_cover_lp,
    build_stable_set_lp,
    complement,
    compute_core_imputation,
    four_program_chain,
    from_spec,
    is_integral,
    lp_format,
    maximal_cliques,
    paley3x3,
    solve_dual,
    solve_game,
    solve_general,
    solve_primal,
)
from cliquecore import lp as lp_module
from cliquecore.cli import main
from cliquecore.core import certified_worth
from cliquecore.graph import to_int_scale
from cliquecore.lp import certify_optimum, first_uncovered_scaled

import _bruteforce as bf
from conftest import counting_searches, fractional_graphs, graphs, random_graph

F = Fraction


def lp(direction, objective, rows, senses, rhs):
    return LinearProgram(
        direction=direction,
        objective=tuple(F(c) for c in objective),
        rows=tuple({j: F(a) for j, a in row.items()} for row in rows),
        senses=tuple(senses),
        rhs=tuple(F(b) for b in rhs),
    )


class TestSolveGeneral:
    def test_single_upper_bound(self):
        res = solve_general(lp("max", [1], [{0: 1}], ["<="], [1]))
        assert res.status == "optimal"
        assert res.value == 1
        assert res.x == (F(1),)

    # Only the stable-set form is solved; any other LP is refused before
    # any pivot.
    def test_single_lower_bound_min(self):
        with pytest.raises(ValueError, match="direction must be 'max', got 'min'"):
            solve_general(lp("min", [1], [{0: 1}], [">="], [3]))

    def test_equality_row(self):
        with pytest.raises(ValueError, match="row 0 must read '<= 1', got '=' 4"):
            solve_general(lp("max", [2, 1], [{0: 1, 1: 1}], ["="], [4]))

    def test_infeasible(self):
        with pytest.raises(ValueError, match="row 1 must read '<= 1', got '>=' 2"):
            solve_general(lp("max", [1], [{0: 1}, {0: 1}], ["<=", ">="], [1, 2]))

    def test_unbounded(self):
        res = solve_general(lp("max", [1], [], [], []))
        assert res.status == "unbounded"

    def test_negative_rhs_normalization(self):
        with pytest.raises(ValueError, match="row 0 has coefficient -1 on variable 0"):
            solve_general(lp("max", [1], [{0: -1}, {0: 1}], ["<=", "<="], [1, 5]))

    @pytest.mark.parametrize(
        "problem,message",
        [
            (lp("max", [1], [{0: 1}], ["<="], [2]), "row 0 must read '<= 1', got '<=' 2"),
            (lp("max", [1], [{0: 1}], ["<="], [F(1, 2)]), "got '<=' 1/2"),
            (lp("max", [1], [{0: 1}], ["<="], [0]), "got '<=' 0"),
            (lp("max", [1], [{0: 2}], ["<="], [1]), "coefficient 2 on variable 0"),
            (lp("max", [1], [{0: 0}], ["<="], [1]), "coefficient 0 on variable 0"),
            (lp("max", [1, 1], [{0: 1, 1: F(1, 2)}], ["<="], [1]), "coefficient 1/2 on variable 1"),
            (lp("max", [1], [{-1: 1}], ["<="], [1]), "references variable -1 of 1"),
            (lp("max", [1], [{0: 1}], ["<=", "<="], [1]), "lengths differ"),
        ],
        ids=["rhs-2", "rhs-half", "rhs-0", "coefficient-2", "coefficient-0", "coefficient-half",
             "negative-index", "lengths-differ"],
    )
    def test_rejects_other_forms(self, problem, message):
        # With the four cases above and test_dimension_mismatch, one LP per
        # way of leaving the stable-set form.
        with pytest.raises(ValueError, match=message):
            solve_general(problem)

    def test_zero_variables(self):
        res = solve_general(lp("max", [], [], [], []))
        assert res.status == "optimal"
        assert res.value == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_general(lp("max", [1], [{1: 1}], ["<="], [1]))

    def test_exact_fractions_no_float(self):
        # the edges of a triangle: the optimum is a half on every vertex
        res = solve_general(
            lp("max", [1, 1, 1], [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], ["<="] * 3, [1] * 3)
        )
        assert res.value == F(3, 2)
        assert res.x == (F(1, 2),) * 3

    def test_degenerate_lp_terminates(self):
        # many redundant rows through the same vertex; Bland must not cycle
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1}, {1: 1}]
        res = solve_general(lp("max", [1, 1], rows, ["<="] * 5, [1] * 5))
        assert res.value == 1

    def test_stable_set_lp_on_c5_edge_cliques(self, c5):
        cs = maximal_cliques(c5)
        res = solve_general(build_stable_set_lp(c5.weights, cs.cliques))
        assert res.value == F(5, 2)


class TestGameLPs:
    def test_k3_weighted_primal(self):
        from cliquecore import WeightedGraph

        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 2, 3])
        cs = maximal_cliques(g)
        sol = solve_primal(g, cs)
        assert sol.value == 3
        assert sol.x == (F(0), F(0), F(1))

    def test_k3_weighted_dual(self):
        from cliquecore import WeightedGraph

        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [1, 2, 3])
        cs = maximal_cliques(g)
        sol = solve_dual(g, cs)
        assert sol.y == (F(3),)
        assert sol.value == 3

    def test_c5_primal_all_halves(self, c5):
        # the five tight edge rows force x = 1/2 everywhere; optimum unique
        sol = solve_primal(c5, maximal_cliques(c5))
        assert sol.value == F(5, 2)
        assert sol.x == (F(1, 2),) * 5

    def test_paley_value_three(self):
        g = paley3x3()
        cs = maximal_cliques(g)
        assert solve_primal(g, cs).value == 3
        assert solve_dual(g, cs).value == 3

    def test_path_dual_unique_optimum(self, path3):
        # cover demands: y_ab >= 1, y_ab + y_bc >= 1, y_bc >= 1; min total = 2
        cs = maximal_cliques(path3)
        sol = solve_dual(path3, cs)
        assert cs.cliques == ((0, 1), (1, 2))
        assert sol.y == (F(1), F(1))
        assert sol.value == 2

    def test_determinism(self, paley):
        cs = maximal_cliques(paley)
        assert solve_dual(paley, cs) == solve_dual(paley, cs)
        assert solve_primal(paley, cs) == solve_primal(paley, cs)

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_strong_duality_and_feasibility(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        primal = solve_primal(g, cs)
        dual = solve_dual(g, cs)
        assert primal.value == dual.value
        # primal feasibility: every clique row at most one
        for q in cs.cliques:
            assert sum((primal.x[v] for v in q), F(0)) <= 1
        assert all(x >= 0 for x in primal.x)
        # dual feasibility: every vertex demand covered
        for v in range(g.n):
            covered = sum((dual.y[c] for c in cs.member_index[v]), F(0))
            assert covered >= g.weights[v]
        assert all(y >= 0 for y in dual.y)

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_complementary_slackness(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        primal = solve_primal(g, cs)
        dual = solve_dual(g, cs)
        for cid, q in enumerate(cs.cliques):
            if dual.y[cid] > 0:
                assert sum((primal.x[v] for v in q), F(0)) == 1
        for v in range(g.n):
            if primal.x[v] > 0:
                covered = sum((dual.y[c] for c in cs.member_index[v]), F(0))
                assert covered == g.weights[v]

    @given(graphs(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_primal_value_at_least_integral_optimum(self, g):
        if g.n == 0:
            return
        cs = maximal_cliques(g)
        assert solve_primal(g, cs).value >= bf.max_stable_value(g)


def reference_value(problem):
    """Optimal value of any LP by the two-phase Fraction simplex."""
    sign = 1 if problem.direction == "max" else -1
    c = [sign * a for a in problem.objective]
    status, x, _ = bf.simplex_max(len(c), problem.rows, problem.senses, problem.rhs, c)
    assert status == "optimal"
    return sum((a * v for a, v in zip(problem.objective, x)), F(0))


def assert_matches_cover_lp(g):
    """The tableau dual against the cover LP solved on its own."""
    cs = maximal_cliques(g)
    primal, dual = solve_game(g, cs)
    y = dual.y
    assert all(v >= 0 for v in y)
    for v in range(g.n):
        assert sum((y[c] for c in cs.member_index[v]), F(0)) >= g.weights[v]
    reference = reference_value(build_clique_cover_lp(g.weights, cs.cliques))
    assert sum(y, F(0)) == dual.value == reference == primal.value
    for cid, q in enumerate(cs.cliques):
        if y[cid] > 0:
            assert sum((primal.x[v] for v in q), F(0)) == 1
    for v in range(g.n):
        if primal.x[v] > 0:
            assert sum((y[c] for c in cs.member_index[v]), F(0)) == g.weights[v]


class TestTableauDual:
    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_cover_lp_small(self, g):
        assert_matches_cover_lp(g)

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in range(12, 19) for seed in (1, 2)])
    def test_matches_cover_lp_random(self, n, seed):
        assert_matches_cover_lp(random_graph(n, seed, max_weight=100))

    @pytest.mark.parametrize(
        "change,failure",
        [
            ([("first", -1)], "dual constraint"),  # a vertex uncovered
            ([("first", 1)], "primal 3 != dual 4"),  # covering, total too high
            ([("first", -1), ("second", 1)], "dual constraint"),  # same total
            ([("unused", -1)], "wrong sign"),
        ],
    )
    def test_certificate_rejects_tampered_dual(self, paley, change, failure):
        cs = maximal_cliques(paley)
        problem = build_stable_set_lp(paley.weights, cs.cliques)
        res = solve_general(problem)
        certify_optimum(problem, res.x, res.duals)
        support = [c for c, v in enumerate(res.duals) if v > 0]
        unused = [c for c, v in enumerate(res.duals) if v == 0]
        pick = {"first": support[0], "second": support[1], "unused": unused[0]}
        bad = list(res.duals)
        for which, delta in change:
            bad[pick[which]] += delta
        with pytest.raises(RuntimeError, match=failure):
            certify_optimum(problem, res.x, bad)

    @pytest.mark.parametrize(
        "which,delta,failure",
        [
            ("unused", -1, "x has a negative coordinate"),
            ("first", 1, "x violates row"),
        ],
    )
    def test_certificate_rejects_tampered_x(self, paley, which, delta, failure):
        cs = maximal_cliques(paley)
        problem = build_stable_set_lp(paley.weights, cs.cliques)
        res = solve_general(problem)
        pick = {
            "first": next(v for v, a in enumerate(res.x) if a > 0),
            "unused": next(v for v, a in enumerate(res.x) if a == 0),
        }
        bad = list(res.x)
        bad[pick[which]] += delta
        with pytest.raises(RuntimeError, match=failure):
            certify_optimum(problem, bad, res.duals)

    def test_solver_runs_the_certificate(self, paley, monkeypatch):
        real = lp_module._dual_simplex

        def off_by_one(*args):
            status, x, duals = real(*args)
            return status, x, [duals[0] + 1] + duals[1:]

        monkeypatch.setattr(lp_module, "_dual_simplex", off_by_one)
        with pytest.raises(RuntimeError, match="certificate"):
            solve_dual(paley, maximal_cliques(paley))


def assert_same_certificate(problem, x, duals):
    """The int certificate returns the Fraction reference's value, or
    raises its RuntimeError with the same message."""
    try:
        expected = bf.certify_optimum(problem, x, duals)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as info:
            certify_optimum(problem, x, duals)
        assert str(info.value) == str(exc)
        return False
    value = certify_optimum(problem, x, duals)
    assert type(value) is F and value == expected
    return True


TAMPERS = st.sampled_from([F(-1), F(-1, 2), F(-1, 3), F(1, 6), F(1, 2), F(1)])


class TestCertifyOptimumAgainstFraction:
    """``certify_optimum`` on ints against the Fraction version it
    replaced, on optimal x and duals and on copies with a few coordinates
    moved."""

    @pytest.mark.parametrize("strategy", [graphs, fractional_graphs])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_value_or_same_error(self, strategy, data):
        g = data.draw(strategy(max_n=7))
        cs = maximal_cliques(g)
        problem = build_stable_set_lp(g.weights, cs.cliques)
        status, x, duals = lp_module._dual_simplex(g.n, problem.rows, list(problem.objective))
        assert status == "optimal"
        assert assert_same_certificate(problem, x, duals)
        for _ in range(3):
            bad_x, bad_duals = list(x), list(duals)
            for vec in (bad_x, bad_duals):
                if vec:
                    moves = st.tuples(st.integers(0, len(vec) - 1), TAMPERS)
                    for i, delta in data.draw(st.lists(moves, max_size=2)):
                        vec[i] += delta
            assert_same_certificate(problem, bad_x, bad_duals)


def assert_same_as_fraction_simplex(problem):
    """The integer dual simplex against the Fraction one making the same
    choices, both on the raw solver and through the certified
    ``solve_general``."""
    nv, c = len(problem.objective), list(problem.objective)
    fast = lp_module._dual_simplex(nv, problem.rows, c)
    assert fast == bf.dual_simplex_max(nv, problem.rows, c)
    _, x, duals = fast
    assert all(type(v) is F for v in (x or []) + (duals or []))
    result = solve_general(problem)
    with mock.patch.object(lp_module, "_dual_simplex", bf.dual_simplex_max):
        assert solve_general(problem) == result
    return result


def assert_both_game_lps_match(g):
    cs = maximal_cliques(g)
    stable = assert_same_as_fraction_simplex(build_stable_set_lp(g.weights, cs.cliques))
    assert stable.value == reference_value(build_clique_cover_lp(g.weights, cs.cliques))


def stable_set_lp(g):
    return build_stable_set_lp(g.weights, maximal_cliques(g).cliques)


def is_stable_set_form(problem):
    return (
        problem.direction == "max"
        and all(s == "<=" for s in problem.senses)
        and all(b == 1 for b in problem.rhs)
        and all(a == 1 for row in problem.rows for a in row.values())
    )


# Small general LPs: up to four variables and five rows of any sense, with
# coefficients of mixed sign and denominator, so negative right-hand sides,
# phase 1, degenerate pivots and infeasible and unbounded LPs all occur.
small_rationals = st.one_of(
    st.integers(min_value=-2, max_value=2).map(F),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def general_lps(draw):
    nv = draw(st.integers(min_value=0, max_value=4))
    m = draw(st.integers(min_value=0, max_value=5))
    variables = st.integers(min_value=0, max_value=max(nv - 1, 0))
    rows = [draw(st.dictionaries(variables, small_rationals)) if nv else {} for _ in range(m)]
    return LinearProgram(
        direction=draw(st.sampled_from(["max", "min"])),
        objective=tuple(draw(st.lists(small_rationals, min_size=nv, max_size=nv))),
        rows=tuple(rows),
        senses=tuple(draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))),
        rhs=tuple(draw(st.lists(st.just(F(0)) | small_rationals, min_size=m, max_size=m))),
    )


# 0/1 packing LPs that are not stable-set LPs of any graph: arbitrary
# rows, objective coefficients of either sign, and variables in no row,
# which make the LP unbounded when their cost is positive.
@st.composite
def packing_lps(draw):
    nv = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=6))
    rows = [draw(st.sets(st.integers(min_value=0, max_value=nv - 1))) if nv else set() for _ in range(m)]
    return LinearProgram(
        direction="max",
        objective=tuple(draw(st.lists(small_rationals, min_size=nv, max_size=nv))),
        rows=tuple({j: F(1) for j in sorted(row)} for row in rows),
        senses=("<=",) * m,
        rhs=(F(1),) * m,
    )


class TestAgainstFractionSimplex:
    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_game_lps_small(self, g):
        assert_both_game_lps_match(g)

    @pytest.mark.parametrize("n", range(12, 19))
    def test_game_lps_random(self, n):
        assert_both_game_lps_match(random_graph(n, n, max_weight=100))

    @given(fractional_graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_game_lps_fractional_weights(self, g):
        assert_both_game_lps_match(g)

    @pytest.mark.parametrize("n", [5, 9, 12])
    def test_game_lps_mixed_denominators(self, n):
        g = random_graph(n, 7)
        mixed = [F(1, 3), F(5, 6), F(7, 4), F(2), F(0), F(11, 12)]
        assert_both_game_lps_match(g.with_weights(mixed[v % 6] * (v + 1) for v in range(n)))

    @pytest.mark.parametrize(
        "problem,status",
        [
            # negative right-hand sides, an equality row, a >= row
            (lp("max", [1, 1], [{0: 1, 1: 1}, {0: -1}, {1: 1}, {0: 1}],
                ["=", "<=", ">=", "<="], [3, -1, 1, 5]), "optimal"),
            # a redundant equality row, dropped after phase 1
            (lp("max", [1, 2], [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}],
                ["=", "=", "<="], [2, 4, 1]), "optimal"),
            # an artificial left at zero, driven out on a negative entry
            (lp("max", [1, 1], [{0: F(-3, 2)}, {1: 1}], ["=", "<="], [0, F(5, 2)]), "optimal"),
            # degenerate pivots through one vertex
            (lp("max", [1, 1], [{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 2, 1: 2}, {0: 1}, {1: 1}],
                ["<="] * 5, [1, 1, 2, 1, 1]), "optimal"),
            (lp("min", [F(1, 2), F(1, 3)], [{0: 1, 1: 1}, {0: 1}, {1: -1}],
                [">=", "<=", "<="], [F(7, 2), 2, -1]), "optimal"),
            (lp("max", [1], [{0: 1}, {0: 1}], ["<=", ">="], [1, 2]), "infeasible"),
            (lp("max", [1, -1], [{0: 1, 1: -1}], [">="], [-2]), "unbounded"),
        ],
    )
    def test_general_lps(self, problem, status):
        # solve_general refuses them; the two-phase reference, which the
        # cover-LP tests above rely on, still solves each.
        with pytest.raises(ValueError):
            solve_general(problem)
        sign = 1 if problem.direction == "max" else -1
        c = [sign * a for a in problem.objective]
        args = (len(c), problem.rows, problem.senses, problem.rhs, c)
        assert bf.simplex_max(*args)[0] == status

    @given(general_lps())
    @settings(max_examples=200, deadline=None)
    def test_general_lps_random(self, problem):
        # solve_general agrees with the reference or refuses the LP
        if is_stable_set_form(problem):
            assert_same_as_fraction_simplex(problem)
        else:
            with pytest.raises(ValueError):
                solve_general(problem)

    @given(packing_lps())
    @example(lp("max", [1, 2, F(-1, 2)], [{0: 1, 2: 1}], ["<="], [1]))  # x1 unbounded
    @example(lp("max", [F(-1, 3), 0], [{0: 1}, {0: 1, 1: 1}, {}], ["<="] * 3, [1] * 3))
    @settings(max_examples=200, deadline=None)
    def test_packing_lps(self, problem):
        assert_same_as_fraction_simplex(problem)


class TestAgainstTwoPhaseValues:
    """The two-phase Fraction simplex reaches other vertices, so it is
    compared by value: same status, same optimal value, and the solver's
    own x and duals pass the certificate."""

    @given(st.one_of(packing_lps(), graphs(max_n=7).map(stable_set_lp)))
    @settings(max_examples=150, deadline=None)
    def test_same_value_and_certified(self, problem):
        result = solve_general(problem)
        c = list(problem.objective)
        status = bf.simplex_max(len(c), problem.rows, problem.senses, problem.rhs, c)[0]
        assert result.status == status
        if status == "optimal":
            assert result.value == reference_value(problem)
            assert certify_optimum(problem, result.x, result.duals) == result.value


def assert_same_under_dual_bland(problem, monkeypatch):
    """With ``STALL_SWEEPS`` at 0 the solver pivots by dual Bland from the
    first pivot; it must still match the Fraction dual simplex under the
    same rule and pass the certificate."""
    nv, c = len(problem.objective), list(problem.objective)
    monkeypatch.setattr(lp_module, "STALL_SWEEPS", 0)
    fast = lp_module._dual_simplex(nv, problem.rows, c)
    assert fast == bf.dual_simplex_max(nv, problem.rows, c, stall_sweeps=0)
    assert solve_general(problem).status == fast[0]


class TestStallFallback:
    @given(st.one_of(packing_lps(), graphs(max_n=7).map(stable_set_lp)))
    @settings(max_examples=100, deadline=None)
    def test_dual_bland_throughout(self, problem):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_same_under_dual_bland(problem, monkeypatch)

    @pytest.mark.parametrize("n", range(12, 19))
    def test_dual_bland_throughout_random(self, n, monkeypatch):
        assert_same_under_dual_bland(stable_set_lp(random_graph(n, n, max_weight=100)), monkeypatch)


def weighted_spec(spec, seed):
    """``from_spec(spec, seed)`` with weights 0..100 drawn from the same
    seed, in vertex order."""
    g = from_spec(spec, seed=seed)
    rng = random.Random(seed)
    return g.with_weights([rng.randint(0, 100) for _ in range(g.n)])


# Perfect graphs on which an optimal basis of the cover LP can be
# fractional: dual Bland stops at halves or thirds on co-chordal 14 and 24
# and co-bipartite 28, and primal Dantzig pricing on co-chordal 21.
FRACTIONAL_UNDER_OTHER_RULES = [("chordal:30", 14), ("chordal:30", 21), ("chordal:30", 24),
                                ("bipartite:30", 28)]


class TestIntegralCoverOnPerfectGraphs:
    """Total dual integrality promises an integral optimal cover on a
    perfect graph, not that every optimal basis is one; the pivot rules
    must reach an integral one."""

    @pytest.mark.parametrize(
        "spec,seed,complemented",
        [(spec, seed, True) for spec, seed in FRACTIONAL_UNDER_OTHER_RULES]
        + [(spec, seed, co) for spec in ("chordal:30", "bipartite:30") for seed in (1, 2, 3)
           for co in (False, True)],
    )
    def test_cover_is_integral(self, spec, seed, complemented, monkeypatch):
        g = weighted_spec(spec, seed)
        if complemented:
            g = complement(g)
        primal, dual = solve_game(g, maximal_cliques(g))
        assert is_integral(dual.y)
        searched = counting_searches(monkeypatch)
        assert certified_worth(g, primal) == dual.value
        assert searched == []  # the LP's own optimum proves the worth

    @pytest.mark.parametrize("spec,seed", [("chordal:30", 14), ("chordal:30", 24),
                                           ("bipartite:30", 28)])
    def test_dual_bland_alone_is_not_enough(self, spec, seed, monkeypatch):
        monkeypatch.setattr(lp_module, "STALL_SWEEPS", 0)
        g = complement(weighted_spec(spec, seed))
        assert not is_integral(solve_game(g, maximal_cliques(g))[1].y)


@pytest.mark.slow
@pytest.mark.parametrize("spec,limit", [("bipartite:100", 1.0), ("chordal:200", 1.0)])
def test_large_perfect_graphs_solve_and_prove_the_worth(spec, limit, monkeypatch):
    g = from_spec(spec, seed=7)
    cs = maximal_cliques(g)
    start = time.perf_counter()
    primal, dual = solve_game(g, cs)
    assert time.perf_counter() - start < limit
    searched = counting_searches(monkeypatch)
    assert certified_worth(g, primal) == dual.value
    assert searched == []
    assert is_integral(dual.y)


class TestOneSimplexPerGame:
    @pytest.fixture
    def simplex_calls(self, monkeypatch):
        calls = []
        real = lp_module._dual_simplex

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lp_module, "_dual_simplex", counting)
        return calls

    def test_cli_solve(self, simplex_calls, capsys):
        assert main(["solve", "--generate", "paley3x3", "--json"]) == 0
        assert len(simplex_calls) == 1

    def test_compute_core_imputation(self, simplex_calls, paley):
        compute_core_imputation(paley)
        assert len(simplex_calls) == 1

    def test_four_program_chain(self, simplex_calls, paley):
        four_program_chain(paley, [1] * paley.n)
        assert len(simplex_calls) == 1


class TestTableauGuard:
    def test_refused_before_the_first_pivot(self, monkeypatch):
        # The complete 8-partite graph with parts of 3 (K_{8x3}) has 3^8
        # maximal cliques: 24 * (24 + 3^8 + 1) = 158,064 cells, over the cap.
        g = WeightedGraph.from_edges(
            24, [(u, v) for u in range(24) for v in range(u + 1, 24) if u // 3 != v // 3]
        )
        cs = maximal_cliques(g)
        monkeypatch.setattr(lp_module, "_dual_simplex", mock.Mock(side_effect=AssertionError))
        with pytest.raises(GuardError, match="capped at 150000 tableau cells, needs 158064"):
            solve_game(g, cs)


class TestFirstUncovered:
    rows = [(0, 1), (1, 2), (2, 3)]

    def first_uncovered(self, y, demand):
        return first_uncovered_scaled(self.rows, *to_int_scale(y), *to_int_scale(demand))

    def test_all_covered(self):
        assert self.first_uncovered([F(1), F(0), F(2)], [1, 1, 2, 2]) is None

    def test_smallest_short_index_and_its_coverage(self):
        y = [F(1, 2), F(1, 3), F(0)]
        assert self.first_uncovered(y, [0, 1, 1, 0]) == (1, F(5, 6))

    def test_index_in_no_paid_row(self):
        assert self.first_uncovered([F(0), F(0), F(3)], [0, 0, 0, 1]) is None
        assert self.first_uncovered([F(0), F(0), F(3)], [1, 0, 0, 0]) == (0, F(0))


class TestIsIntegral:
    def test_integral_vector(self):
        assert is_integral([F(1), F(1), F(1), F(0), F(0), F(0)])

    def test_half_integral_vector(self):
        assert not is_integral([F(1, 2)] * 5)

    def test_paley_dual_vertex_is_integral(self):
        g = paley3x3()
        sol = solve_dual(g, maximal_cliques(g))
        assert is_integral(sol.y)

    def test_works_on_solutions(self, c5):
        assert not is_integral(solve_primal(c5, maximal_cliques(c5)).x)


class TestLpFormat:
    def test_sections_and_scaling(self):
        problem = lp("min", [1, 1], [{0: 1, 1: 1}], [">="], [F(5, 2)])
        text = lp_format(problem, "cover")
        assert "Minimize" in text and "Subject To" in text and "End" in text
        # the 5/2 row is scaled to integers
        assert "2 x0 + 2 x1 >= 5" in text

    def test_fractional_objective_notes_scaling(self):
        problem = lp("max", [F(1, 3), 1], [{0: 1}], ["<="], [1])
        text = lp_format(problem)
        assert "objective scaled by 3" in text
        assert "x0 + 3 x1" in text

    def test_builders_roundtrip_through_format(self, paley):
        cs = maximal_cliques(paley)
        text = lp_format(build_clique_cover_lp(paley.weights, cs.cliques))
        assert text.count(">=") == 9
