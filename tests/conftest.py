import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cliquecore import WeightedGraph, complete, cycle, paley3x3, path
from cliquecore import core as core_module


#: Three weights whose common denominator, 2^7000 * 3^4400 * 5^3000, has
#: 6,303 digits, more than Python writes as text, though each has about
#: 2,100: a 6,332-byte graph file with no edge.
WIDE_WEIGHTS = (Fraction(1, 2**7000), Fraction(1, 3**4400), Fraction(1, 5**3000))
WIDE_GRAPH = "p 3 0\n" + "".join(f"w {v} {w}\n" for v, w in enumerate(WIDE_WEIGHTS))


@pytest.fixture
def paley():
    return paley3x3()


@pytest.fixture
def c5():
    return cycle(5)


@pytest.fixture
def k3():
    return complete(3)


@pytest.fixture
def path3():
    return path(3)


def random_graph(n: int, seed: int, edge_prob: float = 0.5, max_weight: int = 10) -> WeightedGraph:
    """Arbitrary (not necessarily perfect) small graph for property tests."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    weights = [Fraction(rng.randint(0, max_weight)) for _ in range(n)]
    return WeightedGraph.from_edges(n, edges, weights)


@st.composite
def graphs(draw, max_n: int = 8, max_weight: int = 6):
    """Hypothesis strategy for small weighted graphs of any shape."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_weight),
            min_size=n,
            max_size=n,
        )
    )
    return WeightedGraph.from_edges(n, edges, [Fraction(w) for w in weights])


@st.composite
def fractional_graphs(draw, max_n: int = 8):
    """``graphs`` with weights drawn as fractions of mixed denominators."""
    g = draw(graphs(max_n=max_n))
    weights = draw(
        st.lists(
            st.fractions(min_value=0, max_value=6, max_denominator=12),
            min_size=g.n,
            max_size=g.n,
        )
    )
    return g.with_weights(weights)


def counting_searches(mp: pytest.MonkeyPatch) -> list:
    """Record in the returned list each graph ``core.game_worth`` searches."""
    searched = []
    real = core_module.game_worth

    def counting(h):
        searched.append(h)
        return real(h)

    mp.setattr(core_module, "game_worth", counting)
    return searched
