"""Seeded inputs for the three workloads and the checks on their outputs.

Everything in this file is the benchmark's own code.  Graphs are drawn by
its own generators and written in the program's text format, and every
expected answer comes from the small exact solvers below, never from
cliquecore, so a defect in the program cannot vouch for itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXIT_OK = 0
EXIT_PROPERTY = 3

DENSE_N = 18
SPARSE_N = 16
CORPUS_N = 9


# ---------------------------------------------------------------- graphs


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]  # neighbour bitmask per vertex
    weights: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        ]

    def text(self) -> str:
        edges = self.edges()
        lines = [f"p {self.n} {len(edges)}"]
        lines += [f"e {u} {v}" for u, v in edges]
        lines += [f"w {v} {x}" for v, x in enumerate(self.weights)]
        return "\n".join(lines) + "\n"


def _graph(n: int, edges, weights) -> Graph:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), tuple(weights))


def _weights(rng: random.Random, n: int, high: int) -> list[int]:
    return [rng.randint(0, high) for _ in range(n)]


def gnp(rng: random.Random, n: int, high: int) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return _graph(n, edges, _weights(rng, n, high))


def bipartite(rng: random.Random, n: int, high: int) -> tuple[Graph, list[int]]:
    """Random bipartite graph (edge probability 1/2 across the sides) and
    the side of each vertex."""
    side = [rng.randrange(2) for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < 0.5
    ]
    return _graph(n, edges, _weights(rng, n, high)), side


def chordal(rng: random.Random, n: int, high: int) -> tuple[Graph, list[int], list[int]]:
    """Chordal graph grown vertex by vertex: each new vertex joins a random
    subset of a clique made of an earlier vertex and its earlier
    neighbours.  Returns the graph, the insertion order and, per vertex,
    the mask of its earlier neighbours (a clique); the reversed insertion
    order is a perfect elimination ordering."""
    order = list(range(n))
    rng.shuffle(order)
    earlier = [0] * n
    edges = []
    for i, v in enumerate(order):
        if i:
            anchor = order[rng.randrange(i)]
            pool = (1 << anchor) | earlier[anchor]
            earlier[v] = sum(1 << u for u in _bits(pool) if rng.random() < 0.5)
            edges += [(min(u, v), max(u, v)) for u in _bits(earlier[v])]
    return _graph(n, edges, _weights(rng, n, high)), order, earlier


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~a & ~(1 << v) for v, a in enumerate(g.adj)), g.weights)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(mask: int) -> list[int]:
    return list(_bits(mask))


def _key(mask: int) -> str:
    return "-".join(str(v) for v in _bits(mask))


# ------------------------------------------------------- reference solvers


def max_stable_weight(g: Graph, within: int | None = None) -> int:
    """Maximum total weight of a stable set inside ``within`` (default: all
    vertices), by branch and bound on the lowest vertex."""
    w = g.weights
    best = 0

    def go(cur: int, cand: int) -> None:
        nonlocal best
        if cur > best:
            best = cur
        if cand == 0 or cur + sum(w[v] for v in _bits(cand)) <= best:
            return
        v = (cand & -cand).bit_length() - 1
        go(cur + w[v], cand & ~g.adj[v] & ~(1 << v))
        go(cur, cand & ~(1 << v))

    go(0, (1 << g.n) - 1 if within is None else within)
    return best


def maximal_cliques(g: Graph) -> list[int]:
    """Maximal cliques as masks (Bron-Kerbosch with pivoting), in the
    program's canonical order: sorted member tuples."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: (p & g.adj[u]).bit_count())
        for v in _bits(p & ~g.adj[pivot]):
            expand(r | 1 << v, p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << g.n) - 1, 0)
    return sorted(out, key=_members)


def _bipartite_cover(g: Graph, side: list[int]) -> dict[int, int]:
    """Optimal clique cover of a bipartite graph, keyed by clique mask:
    a maximum b-matching (b = weights) by augmenting paths, then each
    vertex's unmatched demand put on one of its edges, or on the vertex
    itself when it is isolated."""
    flow: dict[tuple[int, int], int] = {}
    left_used = [0] * g.n
    right_used = [0] * g.n

    def augment() -> bool:
        # BFS over residual graph from left vertices with spare capacity
        parent: dict[int, tuple[int, int] | None] = {}
        queue = []
        for u in range(g.n):
            if side[u] == 0 and left_used[u] < g.weights[u]:
                parent[u] = None
                queue.append(u)
        while queue:
            a = queue.pop(0)
            if side[a] == 0:
                for b in _bits(g.adj[a]):
                    if b not in parent:
                        parent[b] = (a, 1)
                        queue.append(b)
            else:
                if right_used[a] < g.weights[a]:
                    end = a
                    while parent[end] is not None:
                        prev, forward = parent[end]
                        e = (prev, end) if forward == 1 else (end, prev)
                        flow[e] = flow.get(e, 0) + (1 if forward == 1 else -1)
                        end = prev
                    left_used[end] += 1
                    right_used[a] += 1
                    return True
                for b in _bits(g.adj[a]):
                    if flow.get((b, a), 0) > 0 and b not in parent:
                        parent[b] = (a, -1)
                        queue.append(b)
        return False

    while augment():
        pass
    cover: dict[int, int] = {}
    used = [0] * g.n
    for (u, v), amount in flow.items():
        if amount:
            m = 1 << u | 1 << v
            cover[m] = cover.get(m, 0) + amount
            used[u] += amount
            used[v] += amount
    for v in range(g.n):
        short = g.weights[v] - used[v]
        if short > 0:
            nb = g.adj[v]
            m = 1 << v | (nb & -nb)
            cover[m] = cover.get(m, 0) + short
    return cover


def _chordal_cover(g: Graph, order: list[int], earlier: list[int]) -> dict[int, int]:
    """Optimal clique cover of a chordal graph (Frank 1976): walk a perfect
    elimination ordering and give each vertex's remaining demand to the
    clique it forms with its not yet eliminated neighbours."""
    rest = list(g.weights)
    cover: dict[int, int] = {}
    for v in reversed(order):
        amount = rest[v]
        if amount > 0:
            m = 1 << v | earlier[v]
            cover[m] = cover.get(m, 0) + amount
            for u in _bits(m):
                rest[u] = max(0, rest[u] - amount)
    return cover


def _on_maximal(cover: dict[int, int], cliques: list[int]) -> dict[int, int]:
    """Move each amount onto the first maximal clique containing its clique."""
    out: dict[int, int] = {}
    for m, amount in cover.items():
        q = next(q for q in cliques if q & m == m)
        out[q] = out.get(q, 0) + amount
    return out


# ----------------------------------------------------------------- calls


@dataclass
class Call:
    """One CLI invocation: its arguments, the exit code it must return, and
    a check of its standard output that returns an error or None."""

    kind: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str], str | None]


def _check_solve(g: Graph, perfect: bool, out: str) -> str | None:
    doc = json.loads(out)
    worth = Fraction(doc["worth"])
    x = [Fraction(v) for v in doc["primal"]["x"]]
    y = {k: Fraction(v) for k, v in doc["dual"]["y"].items()}
    if len(x) != g.n or any(v < 0 for v in x):
        return "x is not a nonnegative vector over the vertices"
    for u, v in g.edges():
        if x[u] + x[v] > 1:
            return f"x violates edge ({u},{v})"
    coverage = [Fraction(0)] * g.n
    for key, amount in y.items():
        q = [int(t) for t in key.split("-")]
        mask = sum(1 << v for v in q)
        if amount < 0 or any(mask & ~(1 << v) & ~g.adj[v] for v in q):
            return f"y key {key} is not a clique with nonnegative money"
        if any(g.adj[u] & mask == mask for u in range(g.n) if not mask >> u & 1):
            return f"y key {key} is not a maximal clique"
        if sum(x[v] for v in q) > 1:
            return f"x violates clique {key}"
        for v in q:
            coverage[v] += amount
    if any(coverage[v] < g.weights[v] for v in range(g.n)):
        return "y does not cover every vertex's weight"
    total = sum(y.values(), Fraction(0))
    wx = sum((g.weights[v] * x[v] for v in range(g.n)), Fraction(0))
    if not (wx == total == Fraction(doc["primal"]["value"]) == Fraction(doc["dual"]["value"])):
        return "w.x, sum(y) and the printed optima differ"
    if doc["primal"]["integral"] != all(v.denominator == 1 for v in x):
        return "primal integral flag is wrong"
    if doc["dual"]["integral"] != all(v.denominator == 1 for v in y.values()):
        return "dual integral flag is wrong"
    if worth != max_stable_weight(g):
        return "worth is not the maximum-weight stable set"
    if doc["dualEqualsWorth"] != (total == worth):
        return "dualEqualsWorth flag is wrong"
    if perfect and total != worth:
        return "perfect graph whose dual optimum differs from its worth"
    return None


def _check_perfect(out: str) -> str | None:
    doc = json.loads(out)
    return None if doc["perfect"] is True and doc["witness"] is None else "not reported perfect"


def _check_in_core(worth: int, n: int, out: str) -> str | None:
    doc = json.loads(out)
    if doc["verdict"] != "in-core" or doc["violation"] is not None:
        return f"optimal dual reported {doc['verdict']}"
    if doc["scenariosChecked"] != 1 << n:
        return f"checked {doc['scenariosChecked']} scenarios, not {1 << n}"
    if Fraction(doc["worth"]) != worth or Fraction(doc["total"]) != worth:
        return "worth or total differs from the expected worth"
    return None


def _check_starved(g: Graph, money: dict[int, int], worth: int, out: str) -> str | None:
    doc = json.loads(out)
    if doc["verdict"] != "violated" or doc["violation"] is None:
        return f"starved vector reported {doc['verdict']}"
    if Fraction(doc["worth"]) != worth or Fraction(doc["total"]) != worth:
        return "worth or total differs from the expected worth"
    scenario = doc["violation"]["scenario"]
    if not scenario or any(not 0 <= v < g.n for v in scenario):
        return "violated scenario is not a nonempty vertex set"
    smask = sum(1 << v for v in scenario)
    available = sum(a for q, a in money.items() if q & smask)
    cost = max_stable_weight(g, smask)
    if not available < cost:
        return f"scenario {scenario} is not violated: money {available}, cost {cost}"
    if Fraction(doc["violation"]["money"]) != available or Fraction(doc["violation"]["cost"]) != cost:
        return "reported money or cost differs from the recomputed one"
    return None


def _check_corpus(out: str) -> str | None:
    doc = json.loads(out)
    if doc["allOk"] is not True:
        return "corpus reported a failed property"
    if doc["instances"] != 12:
        return f"corpus ran {doc['instances']} instances, not 12"
    return None


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def solve_dense(rng: random.Random, count: int, work: Path) -> list[Call]:
    """Half perfect (complements of random bipartite and chordal graphs),
    half G(n, 1/2); weights 0..100."""
    calls = []
    for i in range(count):
        n = DENSE_N
        kind = ("co-bipartite", "gnp", "co-chordal", "gnp")[i % 4]
        if kind == "co-bipartite":
            g = complement(bipartite(rng, n, 100)[0])
        elif kind == "co-chordal":
            g = complement(chordal(rng, n, 100)[0])
        else:
            g = gnp(rng, n, 100)
        path = _write(work / f"dense{i}.txt", g.text())
        check = lambda out, g=g, perfect=kind != "gnp": _check_solve(g, perfect, out)
        calls.append(Call(kind, ["solve", "--input", path, "--json"], EXIT_OK, check))
    return calls


def verify_exhaustive(rng: random.Random, count: int, work: Path) -> list[Call]:
    """Perfect sparse graphs (bipartite, p = 1/2, and chordal), n = 16,
    weights 0..10; per graph check-perfect, then exhaustive verify of its
    optimal dual (in core) and of a starved vector (violated)."""
    calls = []
    n = SPARSE_N
    while len(calls) < 3 * count:
        j = len(calls) // 3
        if j % 2 == 0:
            g, side = bipartite(rng, n, 10)
            cover = _bipartite_cover(g, side)
        else:
            g, order, earlier = chordal(rng, n, 10)
            cover = _chordal_cover(g, order, earlier)
        cliques = maximal_cliques(g)
        worth = max_stable_weight(g)
        dual = _on_maximal(cover, cliques)
        if sum(dual.values()) != worth:
            raise RuntimeError("reference clique cover is not optimal")
        # Starve the lowest positive-weight vertex that some clique avoids,
        # so the violation is found within the first few scenarios.
        starved = next(
            (v for v in range(n) if g.weights[v] and any(not q >> v & 1 for q in cliques)),
            None,
        )
        if starved is None:
            continue
        avoiding = [q for q in cliques if not q >> starved & 1]
        money: dict[int, int] = {}
        for _ in range(worth):
            q = rng.choice(avoiding)
            money[q] = money.get(q, 0) + 1
        gpath = _write(work / f"sparse{j}.txt", g.text())
        dpath = _write(
            work / f"sparse{j}.dual.json",
            json.dumps({_key(q): str(a) for q, a in sorted(dual.items())}),
        )
        spath = _write(
            work / f"sparse{j}.starved.json",
            json.dumps({_key(q): str(a) for q, a in sorted(money.items())}),
        )
        calls += [
            Call("check-perfect", ["check-perfect", "--input", gpath, "--json"], EXIT_OK, _check_perfect),
            Call(
                "in-core",
                ["verify", "--input", gpath, dpath, "--exhaustive", "--json"],
                EXIT_OK,
                lambda out, worth=worth, n=n: _check_in_core(worth, n, out),
            ),
            Call(
                "violated",
                ["verify", "--input", gpath, spath, "--exhaustive", "--json"],
                EXIT_PROPERTY,
                lambda out, g=g, money=money, worth=worth: _check_starved(g, money, worth, out),
            ),
        ]
    return calls


def corpus_batch(rng: random.Random, count: int, work: Path) -> list[Call]:
    """``corpus --count 9 --include-imperfect`` over seeded corpus seeds."""
    return [
        Call(
            "corpus",
            ["corpus", "--count", "9", "--n", str(CORPUS_N), "--seed", str(rng.randrange(2**31)),
             "--include-imperfect", "--json"],
            EXIT_OK,
            _check_corpus,
        )
        for _ in range(count)
    ]


WORKLOADS = {
    "solve_dense": solve_dense,
    "verify_exhaustive": verify_exhaustive,
    "corpus_batch": corpus_batch,
}
