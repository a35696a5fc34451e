import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import cliquecore
from cliquecore import (
    GuardError,
    clique_key,
    complete,
    is_maximal_clique,
    maximal_cliques,
    paley3x3,
)
from cliquecore import cliques as cliques_module
from cliquecore.graph import scenario_mask

import _bruteforce as bf
from conftest import graphs, random_graph


class TestEnumeration:
    def test_paley_has_six_cliques(self):
        cs = maximal_cliques(paley3x3())
        assert len(cs) == 6
        assert cs.cliques == tuple(bf.maximal_cliques(paley3x3()))

    def test_c5_cliques_are_its_edges(self, c5):
        cs = maximal_cliques(c5)
        assert cs.cliques == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_complete_graph_single_clique(self, k3):
        assert maximal_cliques(k3).cliques == ((0, 1, 2),)

    def test_isolated_vertices_become_singletons(self):
        from cliquecore import WeightedGraph

        g = WeightedGraph.from_edges(3, [(0, 1)])
        assert maximal_cliques(g).cliques == ((0, 1), (2,))

    def test_empty_graph(self):
        from cliquecore import WeightedGraph

        assert maximal_cliques(WeightedGraph.from_edges(0)).cliques == ()

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, g):
        assert list(maximal_cliques(g).cliques) == bf.maximal_cliques(g)

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_every_vertex_and_edge_covered(self, g):
        cs = maximal_cliques(g)
        for v in range(g.n):
            assert cs.member_index[v], f"vertex {v} in no clique"
        for u, v in g.edges:
            assert any(u in q and v in q for q in cs.cliques)

    def test_deterministic(self):
        g = random_graph(9, seed=77)
        assert maximal_cliques(g) == maximal_cliques(g)

    def test_matches_brute_force_on_corpus(self):
        from cliquecore.corpus import build_corpus

        for inst in build_corpus(30, seed=2024):
            assert list(maximal_cliques(inst.graph).cliques) == bf.maximal_cliques(
                inst.graph
            )

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_masks_handed_over_are_the_members(self, g):
        cs = maximal_cliques(g)
        # the enumerator's own masks, not the property's recomputation
        assert cs.__dict__["masks"] == tuple(scenario_mask(q) for q in cs.cliques)

    def test_clique_cap_errs_not_truncates(self, monkeypatch):
        g = random_graph(8, seed=3)
        full = len(maximal_cliques(g))
        assert full > 2
        monkeypatch.setattr(cliques_module, "DEFAULT_CLIQUE_CAP", 2)
        with pytest.raises(GuardError, match="capped at 2 cliques"):
            maximal_cliques(g)


# Runs ``cliques --input <path>`` and reports the exit code, stderr and this
# interpreter's own peak RSS, so that no other process's peak counts.
CLIQUES_PEAK = """
import contextlib, io, json, resource, sys
from cliquecore.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["cliques", "--input", sys.argv[1]])
print(json.dumps({
    "code": code,
    "stderr": err.getvalue(),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


@pytest.mark.slow
def test_clique_cap_on_small_file_within_memory(tmp_path):
    # The complete 15-partite graph with parts of 3: a 9 KB file with 3^15
    # maximal cliques, so the cap fires after 10^6 of them.
    n = 45
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 != v // 3]
    path = tmp_path / "k15x3.txt"
    path.write_text(f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    env = dict(os.environ, PYTHONPATH=str(Path(cliquecore.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CLIQUES_PEAK, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    print(result)
    assert result["code"] == 2
    assert result["stderr"].splitlines() == [
        f"guard: maximal-clique enumeration capped at {cliques_module.DEFAULT_CLIQUE_CAP} cliques"
    ]
    assert result["maxrss_mb"] < 100


class TestPredicates:
    def test_extendable_pair_in_triangle(self, k3):
        assert not is_maximal_clique(k3, [0, 1])

    def test_whole_triangle(self, k3):
        assert is_maximal_clique(k3, [0, 1, 2])

    def test_paley_row(self):
        assert is_maximal_clique(paley3x3(), [0, 1, 2])

    def test_non_clique(self, c5):
        assert not is_maximal_clique(c5, [0, 1, 2])

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_enumeration(self, g):
        enumerated = set(maximal_cliques(g).cliques)
        for s in bf.subsets(g.n):
            if s:
                assert is_maximal_clique(g, s) == (tuple(s) in enumerated)


class TestIndex:
    def test_member_index_is_inverse_incidence(self):
        cs = maximal_cliques(paley3x3())
        for v in range(9):
            for cid in cs.member_index[v]:
                assert v in cs.cliques[cid]
        for cid, q in enumerate(cs.cliques):
            for v in q:
                assert cid in cs.member_index[v]

    def test_keys(self):
        cs = maximal_cliques(paley3x3())
        assert clique_key([6, 3, 0]) == "0-3-6"
        assert cs.key_to_id["0-3-6"] == cs.cliques.index((0, 3, 6))

    def test_json_emission_matches_canonical_order(self):
        cs = maximal_cliques(paley3x3())
        assert cs.to_json_list() == [list(q) for q in cs.cliques]
        assert cs.to_json_list() == sorted(cs.to_json_list())
