import hashlib

import pytest

from cliquecore import (
    complete,
    cycle,
    from_spec,
    maximal_cliques,
    paley3x3,
    path,
    random_bipartite,
    random_chordal,
)

import _bruteforce as bf

#: sha256 of ``repr((n, adj))`` over the random families' draws below.
STREAMS_SHA256 = "d96e3ddba3274604ff3af94606bcbf2bca0d928981a0796977f492300636b0f8"


class TestPaley:
    def test_shape(self):
        g = paley3x3()
        assert g.n == 9
        assert len(g.edges) == 18
        assert all(g.adj[v].bit_count() == 4 for v in range(9))
        assert all(w == 1 for w in g.weights)

    def test_six_maximal_cliques_match_brute_force(self):
        g = paley3x3()
        assert bf.maximal_cliques(g) == [
            (0, 1, 2),
            (0, 3, 6),
            (1, 4, 7),
            (2, 5, 8),
            (3, 4, 5),
            (6, 7, 8),
        ]

    def test_rows_and_columns_are_the_firms(self):
        g = paley3x3()
        cliques = set(maximal_cliques(g).cliques)
        rows = {(0, 1, 2), (3, 4, 5), (6, 7, 8)}
        cols = {(0, 3, 6), (1, 4, 7), (2, 5, 8)}
        assert cliques == rows | cols


class TestFixedFamilies:
    def test_cycle5(self):
        g = cycle(5)
        assert g.n == 5
        assert len(g.edges) == 5
        assert all(g.adj[v].bit_count() == 2 for v in range(5))

    def test_complete3(self):
        g = complete(3)
        assert len(g.edges) == 3
        assert bf.is_clique(g, (0, 1, 2))

    def test_path(self):
        g = path(3)
        assert g.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("bad", [lambda: cycle(2), lambda: complete(0), lambda: path(0)])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestRandomFamilies:
    def test_bipartite_deterministic(self):
        a = random_bipartite(8, 0.5, seed=11)
        b = random_bipartite(8, 0.5, seed=11)
        assert a == b
        c = random_bipartite(8, 0.5, seed=12)
        assert a != c  # overwhelmingly likely for these parameters

    @pytest.mark.parametrize("seed", range(10))
    def test_bipartite_is_bipartite(self, seed):
        assert bf.is_bipartite(random_bipartite(9, 0.6, seed=seed))

    def test_chordal_deterministic(self):
        assert random_chordal(9, seed=5) == random_chordal(9, seed=5)

    @pytest.mark.parametrize("seed", range(10))
    def test_chordal_has_no_long_induced_cycle(self, seed):
        assert bf.is_chordal(random_chordal(9, seed=seed))

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            random_bipartite(4, 1.5, seed=1)

    def test_streams_match_the_recorded_digest(self):
        # 15,000 graphs, seeds 0-99 and n = 1-30: a change to the order or
        # number of rng calls in either family shows in some adjacency.
        digest = hashlib.sha256()
        for seed in range(100):
            for n in range(1, 31):
                for p in (0, 0.3, 0.5, 1):
                    g = random_bipartite(n, p, seed)
                    digest.update(repr((g.n, g.adj)).encode())
                g = random_chordal(n, seed)
                digest.update(repr((g.n, g.adj)).encode())
        assert digest.hexdigest() == STREAMS_SHA256


class TestSpecStrings:
    def test_known_specs(self):
        assert from_spec("paley3x3") == paley3x3()
        assert from_spec("cycle:5") == cycle(5)
        assert from_spec("complete:3") == complete(3)
        assert from_spec("path:4") == path(4)
        assert from_spec("bipartite:6:0.3", seed=4) == random_bipartite(6, 0.3, seed=4)
        assert from_spec("chordal:6", seed=4) == random_chordal(6, seed=4)

    def test_random_family_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            from_spec("chordal:6")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            from_spec("torus:3")
