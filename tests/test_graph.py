import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecore import (
    GraphParseError,
    GuardError,
    WeightedGraph,
    complement,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_subgraph,
    make_scenario,
    parse_graph,
    serialize_graph,
)
from cliquecore.graph import fraction_str, parse_fraction, ratio_str

from conftest import fractional_graphs, graphs

label_text = st.text(alphabet="abcxyz019_-", min_size=1, max_size=4)


class TestParse:
    def test_two_vertices_one_edge(self):
        g = parse_graph("p 2 1\ne 0 1\nw 0 2\n")
        assert g.n == 2
        assert g.edges == ((0, 1),)
        assert g.weights == (Fraction(2), Fraction(1))

    def test_single_isolated_vertex_default_weight(self):
        g = parse_graph("p 1 0")
        assert g.n == 1
        assert g.edges == ()
        assert g.weights == (Fraction(1),)

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(GraphParseError, match="line 2.*self-loop"):
            parse_graph("p 2 1\ne 0 0\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match=r"^line 3: duplicate edge \(0,1\)$"):
            parse_graph("p 2 2\ne 0 1\ne 1 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphParseError, match="line 2.*outside"):
            parse_graph("p 2 1\ne 0 5\n")

    def test_negative_weight(self):
        with pytest.raises(GraphParseError, match="line 2.*negative weight"):
            parse_graph("p 1 0\nw 0 -3\n")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("p 2 1\ne 0\n")

    def test_unknown_directive(self):
        with pytest.raises(GraphParseError, match="line 1.*unknown directive"):
            parse_graph("q 1 2\n")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_graph("e 0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="declares 2 edges"):
            parse_graph("p 3 2\ne 0 1\n")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a file\np 2 1  # header\n\ne 0 1\n")
        assert g.edges == ((0, 1),)

    def test_rational_weight_and_label(self):
        g = parse_graph("p 2 0\nw 0 5/2\nl 0 alpha\nl 1 beta\n")
        assert g.weights[0] == Fraction(5, 2)
        assert g.labels == ("alpha", "beta")

    def test_duplicate_weight_line(self):
        with pytest.raises(GraphParseError, match="line 3.*duplicate weight"):
            parse_graph("p 1 0\nw 0 1\nw 0 2\n")


class TestRoundTrip:
    def test_round_trip_with_weights_and_labels(self):
        text = "p 3 2\ne 0 1\ne 1 2\nw 1 7/3\nl 0 a\nl 1 b\nl 2 c\n"
        g1 = parse_graph(text)
        g2 = parse_graph(serialize_graph(g1))
        assert g1 == g2

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(fractional_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_builds_the_validated_graph(self, g, data):
        # parse_graph builds the graph without WeightedGraph.from_edges, so
        # it must canonicalize as from_edges does: edge lines in any order,
        # endpoints either way round.
        labels = data.draw(st.lists(label_text, min_size=g.n, max_size=g.n))
        g = WeightedGraph.from_edges(g.n, g.edges, g.weights, labels or None)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        header, *lines = serialize_graph(g).splitlines()
        body = []
        for line in lines:
            kind, a, b = line.split(" ", 2)
            body.append(f"e {b} {a}" if kind == "e" and rng.random() < 0.5 else line)
        rng.shuffle(body)
        assert parse_graph("\n".join([header, *body])) == g

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, g):
        # JSON carries n, edges and weights; labels are display-only
        assert graph_from_json_dict(graph_to_json_dict(g)) == g


class TestComplement:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_same_graph_as_through_from_edges(self, g):
        # complement builds the graph directly, adjacency included
        comp = complement(g)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        reference = WeightedGraph.from_edges(g.n, pairs, g.weights, g.labels)
        assert comp == reference
        assert comp.adj == reference.adj

    def test_complement_of_triangle_is_edgeless(self):
        g = WeightedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert complement(g).edges == ()

    def test_c5_self_complementary(self, c5):
        # relabeling 0,2,4,1,3 maps the 5-cycle onto its complement
        relabel = [0, 2, 4, 1, 3]
        comp = complement(c5)
        mapped = {
            tuple(sorted((relabel[u], relabel[v]))) for u, v in c5.edges
        }
        assert mapped == set(comp.edges)


class TestInducedSubgraph:
    def test_path_endpoints_become_isolated(self, path3):
        sub, back = induced_subgraph(path3, [0, 2])
        assert sub.n == 2
        assert sub.edges == ()
        assert back == (0, 2)

    def test_full_vertex_set_is_identity(self, paley):
        sub, back = induced_subgraph(paley, range(9))
        assert sub == paley
        assert back == tuple(range(9))

    def test_paley_row_is_triangle(self, paley):
        # derived by checking all pairs within one row
        row = [0, 1, 2]
        expected = [(u, v) for u in row for v in row if u < v and paley.has_edge(u, v)]
        assert len(expected) == 3
        sub, _ = induced_subgraph(paley, row)
        assert sub.edges == ((0, 1), (0, 2), (1, 2))

    def test_weights_carry_over(self):
        g = WeightedGraph.from_edges(3, [(0, 1)], [Fraction(5), Fraction(1, 2), Fraction(7)])
        sub, _ = induced_subgraph(g, [0, 2])
        assert sub.weights == (Fraction(5), Fraction(7))

    def test_out_of_range_member(self, path3):
        with pytest.raises(ValueError):
            induced_subgraph(path3, [0, 9])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph.from_edges(2, [(1, 1)])

    def test_rejects_duplicate_edge_in_either_orientation(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0,1\)$"):
            WeightedGraph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            WeightedGraph.from_edges(1, [], [Fraction(-1)])

    def test_weights_are_reduced(self):
        g = WeightedGraph.from_edges(1, [], [Fraction(4, 2)])
        assert g.weights[0].numerator == 2
        assert g.weights[0].denominator == 1

    def test_json_weight_count_checked_before_allocating(self):
        # The JSON's n is outside input: a million vertices with no weights
        # is refused before a list of a million adjacency masks is built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^expected 1000000 weights, got 0$"):
                graph_from_json_dict({"n": 10**6, "edges": [], "weights": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_scenario_canonicalization(self):
        assert make_scenario([2, 0, 2], 3) == (0, 2)
        with pytest.raises(ValueError):
            make_scenario([3], 3)


def test_parse_fraction():
    assert parse_fraction("3") == Fraction(3)
    assert parse_fraction("5/2") == Fraction(5, 2)
    assert parse_fraction(" 6/4 ") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_fraction("1.5")


# Mostly small ints, some of several hundred digits.
ints = st.one_of(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=10**700))


class TestRatioStr:
    @given(ints, ints.map(lambda d: d + 1), ints.map(lambda k: k + 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_text(self, num, den, common):
        # ``common`` puts a shared factor on both, so reducing matters.
        for a, b in ((num, den), (num * common, den * common)):
            assert ratio_str(a, b) == str(Fraction(a, b)) == fraction_str(Fraction(a, b))

    def test_digit_limit(self):
        # Python writes ints of up to sys.get_int_max_str_digits() (4,300)
        # digits as text; one digit more is a guard, not a traceback.
        assert ratio_str(10**4300 - 1, 1) == "9" * 4300
        assert ratio_str(1, 10**4300 - 1) == "1/" + "9" * 4300
        for num, den in ((10**4300, 1), (1, 10**4300), (-(10**4300), 3)):
            with pytest.raises(GuardError, match=r"^a number to write has more than 4300 digits$"):
                ratio_str(num, den)
        with pytest.raises(GuardError):
            fraction_str(Fraction(1, 10**4300))

    def test_examples(self):
        assert ratio_str(0, 7) == "0"
        assert ratio_str(12, 4) == "3"
        assert ratio_str(6, 4) == "3/2"
        assert ratio_str(-6, 4) == "-3/2"
