import ast
from pathlib import Path

import pytest
from hypothesis import given, settings

from cliquecore import (
    GuardError,
    WeightedGraph,
    complement,
    cycle,
    find_odd_hole,
    is_perfect,
    paley3x3,
    path,
    random_bipartite,
    random_chordal,
)
from cliquecore import perfection

import _bruteforce as bf
from conftest import graphs, random_graph


def check_hole_witness(g, hole):
    """A witness must be an induced chordless odd cycle of length >= 5."""
    k = len(hole)
    assert k >= 5 and k % 2 == 1
    assert len(set(hole)) == k
    for i, u in enumerate(hole):
        assert g.has_edge(u, hole[(i + 1) % k])
    members = set(hole)
    for v in members:
        inside = sum(1 for u in members if u != v and g.has_edge(u, v))
        assert inside == 2, "chord detected"


class TestFindOddHole:
    def test_c5_is_its_own_hole(self, c5):
        hole = find_odd_hole(c5)
        assert hole is not None and len(hole) == 5
        check_hole_witness(c5, hole)

    def test_bipartite_has_none(self):
        for seed in range(5):
            assert find_odd_hole(random_bipartite(9, 0.6, seed=seed)) is None

    def test_paley_has_none(self):
        assert find_odd_hole(paley3x3()) is None

    def test_c7(self):
        hole = find_odd_hole(cycle(7))
        assert hole is not None and len(hole) == 7
        check_hole_witness(cycle(7), hole)

    def test_even_cycle_has_none(self):
        assert find_odd_hole(cycle(6)) is None

    def test_guard(self, monkeypatch):
        # C9 grows more than 16 chordless paths before its hole closes.
        monkeypatch.setattr(perfection, "MAX_HOLE_PATHS", 16)
        with pytest.raises(GuardError, match="capped at 16 chordless paths"):
            find_odd_hole(cycle(9))


def grid4x4():
    right = [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    down = [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    return WeightedGraph.from_edges(16, right + down)


def hypercube4():
    edges = [(u, u | b) for u in range(16) for b in (1, 2, 4, 8) if not u & b]
    return WeightedGraph.from_edges(16, edges)


def disjoint_cycles(*ranges):
    """Chordless cycles on the given vertex ranges, in one 16-vertex graph."""
    edges = [(r[i], r[(i + 1) % len(r)]) for r in ranges for i in range(len(r))]
    return WeightedGraph.from_edges(16, edges)


def sixteen_vertex_graphs():
    yield "grid4x4", grid4x4()
    yield "Q4", hypercube4()
    # the 7-hole on the low vertices has a smaller mask than the 5-hole
    yield "C7+C5", disjoint_cycles(range(7), range(11, 16))
    yield "C15", disjoint_cycles(range(1, 16))
    for seed in range(3):
        yield f"bipartite-{seed}", random_bipartite(16, 0.5, seed=seed)
        yield f"chordal-{seed}", random_chordal(16, seed=seed)
    for tenths in range(1, 10):
        yield f"G(16,0.{tenths})", random_graph(16, seed=tenths, edge_prob=tenths / 10)


class TestFindOddHoleAgainstScan:
    """The chordless-path search returns exactly the witness of the subset
    scan it replaced, ``None`` included."""

    @given(graphs(max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_small_graphs_and_complements(self, g):
        assert find_odd_hole(g) == bf.smallest_odd_hole(g)
        assert find_odd_hole(complement(g)) == bf.smallest_odd_hole(complement(g))

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in sixteen_vertex_graphs()])
    def test_sixteen_vertices(self, g):
        assert find_odd_hole(g) == bf.smallest_odd_hole(g)
        assert find_odd_hole(complement(g)) == bf.smallest_odd_hole(complement(g))


class TestIsPerfect:
    def test_c5_imperfect_with_witness(self, c5):
        verdict = is_perfect(c5)
        assert not verdict.is_perfect
        assert not verdict.hole_in_complement
        check_hole_witness(c5, verdict.hole)

    def test_paley_perfect(self):
        assert is_perfect(paley3x3()).is_perfect

    def test_path_perfect(self):
        assert is_perfect(path(5)).is_perfect

    def test_c7_complement_witnessed_in_complement(self):
        g = complement(cycle(7))
        verdict = is_perfect(g)
        assert not verdict.is_perfect
        assert verdict.hole_in_complement
        check_hole_witness(complement(g), verdict.hole)

    @pytest.mark.parametrize("seed", range(6))
    def test_perfect_by_construction_families(self, seed):
        assert is_perfect(random_bipartite(8, 0.5, seed=seed)).is_perfect
        assert is_perfect(random_chordal(8, seed=seed)).is_perfect

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_complement(self, g):
        assert is_perfect(g).is_perfect == is_perfect(complement(g)).is_perfect

    @given(graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_naive_definitional_scan(self, g):
        assert is_perfect(g).is_perfect == bf.definitionally_perfect(g)

    @given(graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_definitional_tables(self, g):
        assert is_perfect(g).is_perfect == bf.perfect_by_tables(g)
        assert is_perfect(complement(g)).is_perfect == bf.perfect_by_tables(complement(g))

    def test_json_round(self, c5):
        data = is_perfect(c5).to_json_dict()
        assert data["perfect"] is False
        assert data["witness"]["cycle"] == [0, 1, 2, 3, 4]
        assert data["witness"]["inComplement"] is False


class TestOmegaChi:
    """The definitional tables of ``_bruteforce`` against its naive scans."""

    def test_k3(self, k3):
        assert bf.omega_chi(k3) == (3, 3)

    def test_c5(self, c5):
        assert bf.omega_chi(c5) == (2, 3)

    def test_paley(self):
        assert bf.omega_chi(paley3x3()) == (3, 3)

    def test_empty(self):
        assert bf.omega_chi(WeightedGraph.from_edges(0)) == (0, 0)

    @given(graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive(self, g):
        assert bf.omega_chi(g) == (bf.omega(g), bf.chi(g))
        assert bf.perfect_by_tables(g) == bf.definitionally_perfect(g)


def test_references_import_only_the_graph_module():
    """``_bruteforce`` may use the package's graphs, never its searches or
    LP code, or agreement with the library would prove nothing."""
    tree = ast.parse(Path(bf.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "cliquecore":
            modules |= {f"cliquecore.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert sorted(m for m in modules if m.split(".")[0] == "cliquecore") == ["cliquecore.graph"]
