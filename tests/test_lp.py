from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquecore import (
    LinearProgram,
    build_clique_cover_lp,
    build_stable_set_lp,
    compute_core_imputation,
    four_program_chain,
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
from cliquecore.lp import certify_optimum, first_uncovered

import _bruteforce as bf
from conftest import fractional_graphs, graphs, random_graph

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

    def test_solver_runs_the_certificate(self, paley, monkeypatch):
        real = lp_module._simplex_max

        def off_by_one(*args):
            status, x, duals = real(*args)
            return status, x, [duals[0] + 1] + duals[1:]

        monkeypatch.setattr(lp_module, "_simplex_max", off_by_one)
        with pytest.raises(RuntimeError, match="certificate"):
            solve_dual(paley, maximal_cliques(paley))


def reference_simplex(nv, rows, c):
    """The two-phase Fraction simplex on the stable-set form, called like
    ``lp._simplex_max``."""
    return bf.simplex_max(nv, rows, ["<="] * len(rows), [1] * len(rows), c)


def assert_same_as_fraction_simplex(problem):
    """The single-phase integer simplex against the two-phase Fraction
    one, both on the raw solver and through the certified
    ``solve_general``."""
    nv, c = len(problem.objective), list(problem.objective)
    fast = lp_module._simplex_max(nv, problem.rows, c)
    assert fast == reference_simplex(nv, problem.rows, c)
    _, x, duals = fast
    assert all(type(v) is F for v in (x or []) + (duals or []))
    result = solve_general(problem)
    with mock.patch.object(lp_module, "_simplex_max", reference_simplex):
        assert solve_general(problem) == result
    return result


def assert_both_game_lps_match(g):
    cs = maximal_cliques(g)
    stable = assert_same_as_fraction_simplex(build_stable_set_lp(g.weights, cs.cliques))
    assert stable.value == reference_value(build_clique_cover_lp(g.weights, cs.cliques))


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


class TestOneSimplexPerGame:
    @pytest.fixture
    def simplex_calls(self, monkeypatch):
        calls = []
        real = lp_module._simplex_max

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lp_module, "_simplex_max", counting)
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


class TestFirstUncovered:
    rows = [(0, 1), (1, 2), (2, 3)]

    def test_all_covered(self):
        assert first_uncovered(self.rows, [F(1), F(0), F(2)], [1, 1, 2, 2]) is None

    def test_smallest_short_index_and_its_coverage(self):
        y = [F(1, 2), F(1, 3), F(0)]
        assert first_uncovered(self.rows, y, [0, 1, 1, 0]) == (1, F(5, 6))

    def test_index_in_no_paid_row(self):
        assert first_uncovered(self.rows, [F(0), F(0), F(3)], [0, 0, 0, 1]) is None
        assert first_uncovered(self.rows, [F(0), F(0), F(3)], [1, 0, 0, 0]) == (0, F(0))


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
