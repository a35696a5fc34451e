"""Independent brute-force oracles for the test suite.

Everything here enumerates subsets naively and never calls into the
package's search or LP code, so agreement with the library is a real
cross-check, not circular: of the package it imports only
``cliquecore.graph``, for graphs and their exact numbers.  Only usable
for small n.  ``simplex_max``, ``smallest_odd_hole``, ``certify_optimum``
and ``best_stable_set_by_sum`` are kept as slow references to code the
library replaced: the two-phase Fraction simplex before its dual simplex
on the cover LP (now a value oracle for any LP), the subset scan before
its chordless-path odd-hole search, the Fraction optimality certificate
before its int one (with its own Fraction coverage sums), and the
stable-set search before its clique-partition bound.
``dual_simplex_max`` is the Fraction form of the library's dual simplex,
making the same choices.  ``omega_table``, ``chi_table`` and
``perfect_by_tables`` are the definitional perfection check the library
once ran beside its odd-hole search: subset recurrences, faster than
``definitionally_perfect`` and so usable up to n = 10.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def is_stable(g, members) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(members, 2))


def is_clique(g, members) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(members, 2))


def max_stable_value(g, weights=None) -> Fraction:
    weights = g.weights if weights is None else [Fraction(w) for w in weights]
    best = ZERO
    for s in subsets(g.n):
        if is_stable(g, s):
            value = sum((weights[v] for v in s), ZERO)
            if value > best:
                best = value
    return best


def best_stable_sets(g):
    """All maximum-cost stable sets, as sorted tuples."""
    best = max_stable_value(g)
    return [
        s for s in subsets(g.n) if is_stable(g, s) and sum((g.weights[v] for v in s), ZERO) == best
    ]


def maximal_cliques(g):
    """All maximal cliques by testing every subset, sorted canonically."""
    out = []
    for s in subsets(g.n):
        if not s or not is_clique(g, s):
            continue
        extendable = any(
            all(g.has_edge(u, v) for u in s) for v in range(g.n) if v not in s
        )
        if not extendable:
            out.append(tuple(s))
    out.sort()
    return out


def min_clique_cover_value(g, demand):
    """Minimum total multiplicity of maximal cliques meeting integer
    demands, by exhaustive enumeration of multiplicity vectors."""
    cliques = maximal_cliques(g)
    demand = [int(d) for d in demand]
    if not any(demand):
        return 0
    top = max(demand)
    best = None
    for counts in product(range(top + 1), repeat=len(cliques)):
        covered = [0] * g.n
        for q, c in zip(cliques, counts):
            for v in q:
                covered[v] += c
        if all(covered[v] >= demand[v] for v in range(g.n)):
            total = sum(counts)
            if best is None or total < best:
                best = total
    return best


def omega(g) -> int:
    return max(
        (len(s) for s in subsets(g.n) if is_clique(g, s)),
        default=0,
    )


def chi(g) -> int:
    """Exact chromatic number by trying k = omega, omega+1, ... naively."""
    if g.n == 0:
        return 0
    lo = omega(g)
    for k in range(max(lo, 1), g.n + 1):
        for coloring in product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in g.edges):
                return k
    return g.n


def definitionally_perfect(g) -> bool:
    """omega == chi on every induced subgraph, all computed naively."""
    from cliquecore.graph import induced_subgraph

    for s in subsets(g.n):
        sub, _ = induced_subgraph(g, s)
        if omega(sub) != chi(sub):
            return False
    return True


def omega_table(g) -> list[int]:
    """Clique number of every induced subgraph, indexed by bitmask.

    Built one highest vertex v at a time: a clique of S either avoids v or
    is v plus a clique of v's lower neighbours in S.
    """
    table = [0]
    for v in range(g.n):
        lower = g.adj[v] & ((1 << v) - 1)
        table += [max(skip, 1 + table[t & lower]) for t, skip in enumerate(table)]
    return table


def chi_table(g) -> list[int]:
    """Chromatic number of every induced subgraph, indexed by bitmask.

    chi(S) = 1 + min over independent subsets I of S containing S's lowest
    vertex of chi(S - I); enumerating color classes that contain a fixed
    vertex keeps the recurrence canonical.
    """
    adj = g.adj
    size = 1 << g.n
    independent = [True] * size
    for mask in range(1, size):
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        independent[mask] = independent[rest] and (adj[v] & rest) == 0
    table = [0] * size
    for mask in range(1, size):
        v_bit = mask & -mask
        rest = mask & ~v_bit
        best = g.n + 1
        sub = rest
        while True:
            cls = sub | v_bit
            if independent[cls]:
                cand = 1 + table[mask & ~cls]
                if cand < best:
                    best = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        table[mask] = best
    return table


def perfect_by_tables(g) -> bool:
    """omega == chi on every induced subgraph, by the two tables."""
    return omega_table(g) == chi_table(g)


def omega_chi(g) -> tuple[int, int]:
    """Clique number and chromatic number of the whole graph, from the
    tables."""
    full = (1 << g.n) - 1
    return omega_table(g)[full], chi_table(g)[full]


def induced_cycles(g, min_len=4):
    """All vertex subsets inducing a chordless cycle of length >= min_len."""
    found = []
    for s in subsets(g.n):
        if len(s) < min_len:
            continue
        degs = [sum(1 for u in s if g.has_edge(v, u)) for v in s]
        if any(d != 2 for d in degs):
            continue
        seen = {s[0]}
        frontier = [s[0]]
        while frontier:
            nxt = []
            for v in frontier:
                for u in s:
                    if u not in seen and g.has_edge(u, v):
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        if len(seen) == len(s):
            found.append(tuple(s))
    return found


def smallest_odd_hole(g):
    """The scan ``perfection.find_odd_hole`` replaced: every vertex subset in
    ascending bitmask order, the first that induces an odd chordless cycle
    of length >= 5, walked from its smallest vertex towards the smaller of
    that vertex's two cycle neighbours."""
    adj = g.adj
    for mask in range(1 << g.n):
        k = mask.bit_count()
        if k < 5 or k % 2 == 0:
            continue
        if not _induces_cycle(adj, mask, k):
            continue
        return _walk_cycle(adj, mask, k)
    return None


def _induces_cycle(adj, mask: int, size: int) -> bool:
    rest = mask
    first = -1
    while rest:
        v = (rest & -rest).bit_length() - 1
        if (adj[v] & mask).bit_count() != 2:
            return False
        if first < 0:
            first = v
        rest &= rest - 1
    # connectivity: walk from the first vertex
    seen = 1 << first
    frontier = 1 << first
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= adj[v] & mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def _walk_cycle(adj, mask: int, size: int) -> tuple[int, ...]:
    start = (mask & -mask).bit_length() - 1
    nbrs = adj[start] & mask
    a = (nbrs & -nbrs).bit_length() - 1
    order = [start, a]
    prev, cur = start, a
    while len(order) < size:
        step = adj[cur] & mask & ~(1 << prev)
        nxt = (step & -step).bit_length() - 1
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def is_chordal(g) -> bool:
    return not induced_cycles(g, min_len=4)


def is_bipartite(g) -> bool:
    color = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in range(g.n):
                if g.has_edge(u, v):
                    if color[u] is None:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
    return True


def best_stable_set_by_sum(adj, w, within: int, beat: int) -> tuple[int, int]:
    """``oracle._best_stable_set`` with its earlier bound, the sum of the
    remaining candidates' weights: same branching, so the same (weight,
    member mask), ties included."""
    best, best_members = beat, 0

    def search(cur: int, members: int, cand: int):
        nonlocal best, best_members
        if cur > best:
            best, best_members = cur, members
        if cand == 0 or cur + sum(w[v] for v in range(len(w)) if cand >> v & 1) <= best:
            return
        low = cand & -cand
        v = low.bit_length() - 1
        search(cur + w[v], members | low, cand & ~adj[v] & ~low)
        search(cur, members, cand ^ low)

    search(0, 0, within)
    return best, best_members


def core_by_definition(g, cliques, imputation) -> tuple[bool, tuple | None]:
    """Naive core check: every scenario's money vs its brute-force cost."""
    worth = max_stable_value(g)
    if sum(imputation.values, ZERO) != worth:
        return False, None
    for s in subsets(g.n):
        available = ZERO
        for q, val in zip(cliques.cliques, imputation.values):
            if set(q) & set(s):
                available += val
        from cliquecore.graph import induced_subgraph

        sub, _ = induced_subgraph(g, s)
        needed = max_stable_value(sub)
        if available < needed:
            return False, tuple(s)
    return True, None


# The value oracle for any LP: the library's solver, a dual simplex on the
# cover LP, returns other vertices, but must reach the same optimal value.
def simplex_max(
    nv: int,
    rows: Sequence[dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    c: list[Fraction],
) -> tuple[str, list[Fraction] | None, list[Fraction] | None]:
    """Two-phase tableau simplex maximizing c.x, x >= 0.

    Returns the status, the optimal x and the row duals of the final
    basis.  Row i's dual is the final reduced cost of the column that was
    its identity column in the starting tableau (its slack, or its
    artificial, whose phase-2 cost is 0), negated when the row was
    negated to make its right-hand side nonnegative.
    """
    m = len(rows)

    # Normalize to nonnegative right-hand sides.
    norm_rows: list[dict[int, Fraction]] = []
    norm_senses: list[str] = []
    norm_rhs: list[Fraction] = []
    flipped: list[bool] = []
    for i in range(m):
        b = Fraction(rhs[i])
        row = {j: Fraction(a) for j, a in rows[i].items() if a != 0}
        sense = senses[i]
        flipped.append(b < 0)
        if b < 0:
            b = -b
            row = {j: -a for j, a in row.items()}
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        norm_rows.append(row)
        norm_senses.append(sense)
        norm_rhs.append(b)

    n_le = sum(1 for s in norm_senses if s == "<=")
    n_ge = sum(1 for s in norm_senses if s == ">=")
    n_art = sum(1 for s in norm_senses if s in (">=", "="))
    slack0 = nv
    surplus0 = nv + n_le
    art0 = nv + n_le + n_ge
    ncols = art0 + n_art

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    i_le = i_ge = i_art = 0
    for i in range(m):
        dense = [ZERO] * (ncols + 1)
        for j, a in norm_rows[i].items():
            dense[j] = a
        dense[ncols] = norm_rhs[i]
        s = norm_senses[i]
        if s == "<=":
            dense[slack0 + i_le] = ONE
            basis.append(slack0 + i_le)
            i_le += 1
        elif s == ">=":
            dense[surplus0 + i_ge] = -ONE
            i_ge += 1
            dense[art0 + i_art] = ONE
            basis.append(art0 + i_art)
            i_art += 1
        else:
            dense[art0 + i_art] = ONE
            basis.append(art0 + i_art)
            i_art += 1
        tab.append(dense)
    identity = list(basis)

    def pivot(pr: int, pc: int, z: list[Fraction]):
        prow = tab[pr]
        piv = prow[pc]
        if piv != 1:
            inv = ONE / piv
            tab[pr] = prow = [a * inv for a in prow]
        for row in tab:
            if row is prow:
                continue
            f = row[pc]
            if f:
                for j, a in enumerate(prow):
                    if a:
                        row[j] -= f * a
        f = z[pc]
        if f:
            for j, a in enumerate(prow):
                if a:
                    z[j] -= f * a
        basis[pr] = pc

    def run(z: list[Fraction], banned_from: int) -> str:
        # z[j] = c_B.B^-1.A_j - c_j ; optimal when all z >= 0 (maximization)
        while True:
            pc = -1
            for j in range(banned_from):
                if z[j] < 0:
                    pc = j
                    break
            if pc < 0:
                return "optimal"
            pr = -1
            best_ratio = None
            best_var = None
            for i in range(m):
                a = tab[i][pc]
                if a > 0:
                    ratio = tab[i][ncols] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < best_var)
                    ):
                        best_ratio, best_var, pr = ratio, basis[i], i
            if pr < 0:
                return "unbounded"
            pivot(pr, pc, z)

    def z_row_for(cost: list[Fraction]) -> list[Fraction]:
        z = [-cost[j] for j in range(ncols)] + [ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                row = tab[i]
                for j in range(ncols + 1):
                    if row[j]:
                        z[j] += cb * row[j]
        return z

    if n_art > 0:
        cost1 = [ZERO] * ncols
        for j in range(art0, ncols):
            cost1[j] = -ONE
        z1 = z_row_for(cost1)
        st = run(z1, ncols)
        if st != "optimal":  # phase 1 is bounded above by 0
            raise RuntimeError("phase 1 reported unbounded; solver invariant broken")
        if z1[ncols] != 0:
            return "infeasible", None, None
        # Drive zero-valued artificials out; drop rows that turn out redundant.
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= art0:
                pc = next((j for j in range(art0) if tab[i][j] != 0), None)
                if pc is None:
                    drop.append(i)
                else:
                    pivot(i, pc, z1)
        for i in reversed(drop):
            del tab[i]
            del basis[i]
        m = len(tab)

    cost2 = [ZERO] * ncols
    for j in range(nv):
        cost2[j] = c[j]
    z2 = z_row_for(cost2)
    st = run(z2, art0)  # artificial columns can never re-enter
    if st == "unbounded":
        return "unbounded", None, None
    x = [ZERO] * nv
    for i in range(m):
        if basis[i] < nv:
            x[basis[i]] = tab[i][ncols]
    duals = [-z2[j] if f else z2[j] for j, f in zip(identity, flipped)]
    return "optimal", x, duals


# The Fraction certificate that ``cliquecore.lp.certify_optimum`` replaced,
# called the same way; the two must return the same value or raise the
# same RuntimeError message.
def certify_optimum(lp, x: Sequence[Fraction], duals: Sequence[Fraction]) -> Fraction:
    """Exact proof that ``x`` is optimal for a stable-set LP, with ``duals``
    as the witness: x feasible, the duals nonnegative and covering every
    objective coefficient, and equal objective values.  Returns that
    value; raises RuntimeError naming the first failed condition."""
    from cliquecore.graph import fraction_str

    if any(v < 0 for v in x):
        raise RuntimeError("certificate: x has a negative coordinate")
    for i, row in enumerate(lp.rows):
        if sum((x[j] for j in row if x[j]), ZERO) > ONE:
            raise RuntimeError(f"certificate: x violates row {i}")
        if duals[i] < 0:
            raise RuntimeError(f"certificate: dual {i} has the wrong sign")
    coverage = [ZERO] * len(lp.objective)
    for row, yi in zip(lp.rows, duals):
        for j in row:
            coverage[j] += yi
    for j, (have, need) in enumerate(zip(coverage, lp.objective)):
        if have < need:
            raise RuntimeError(f"certificate: dual constraint of variable {j} violated")
    value = sum((cj * v for cj, v in zip(lp.objective, x)), ZERO)
    dual_value = sum(duals, ZERO)
    if value != dual_value:
        raise RuntimeError(
            f"certificate: primal {fraction_str(value)} != dual {fraction_str(dual_value)}"
        )
    return value


# Makes the same pivot choices as ``cliquecore.lp._dual_simplex``, which
# takes the objective as ints over one scale and returns the ints of its
# final tableau, ``(det, xs, det * scale, ys)``, or None when the LP is
# unbounded; ``tests/test_lp.py`` turns them into this function's
# ``(status, x, duals)`` with ``as_fractions`` and requires the two equal.
# ``stall_sweeps`` stands for its ``STALL_SWEEPS``.
def dual_simplex_max(
    nv: int, rows: Sequence[dict[int, Fraction]], c: Sequence[Fraction], stall_sweeps: int = 1
) -> tuple[str, list[Fraction] | None, list[Fraction] | None]:
    """Dual simplex on Fractions for max c.x, x(row) <= 1, x >= 0, run on
    its covering dual: one row ``-sum y_i + s_v = -c_v`` per variable v,
    over the columns y_0..y_(m-1), s_0..s_(nv-1), from the surplus basis.

    The leaving row has the most negative right-hand side (ties: lowest
    row), or, once ``stall_sweeps * (m + nv)`` consecutive pivots entered
    a column of reduced cost 0, the smallest basic column among negative
    right-hand sides for the rest of the solve.  The entering column has
    the smallest ``z_j / -a_j`` over negative entries (ties: smallest
    column).  Returns the status, x (the surplus columns' final reduced
    costs) and the row duals y (the basic values of the y columns).
    """
    m = len(rows)
    ncols = m + nv
    tab = []
    for v in range(nv):
        row = [ZERO] * (ncols + 1)
        row[m + v] = ONE
        row[ncols] = -Fraction(c[v])
        tab.append(row)
    for i, members in enumerate(rows):
        for v in members:
            tab[v][i] = -ONE
    z = [ONE] * m + [ZERO] * (nv + 1)
    basis = list(range(m, ncols))
    stalled, bland = 0, False
    while True:
        if stalled >= stall_sweeps * ncols:
            bland = True
        negative = [i for i in range(nv) if tab[i][ncols] < 0]
        if not negative:
            break
        if bland:
            pr = min(negative, key=lambda i: basis[i])
        else:
            pr = min(negative, key=lambda i: (tab[i][ncols], i))
        prow = tab[pr]
        entering = [j for j in range(ncols) if prow[j] < 0]
        if not entering:
            return "unbounded", None, None
        pc = min(entering, key=lambda j: (z[j] / -prow[j], j))
        stalled = stalled + 1 if z[pc] == 0 else 0
        piv = prow[pc]
        tab[pr] = prow = [a / piv for a in prow]
        for i, row in enumerate(tab):
            f = row[pc]
            if i != pr and f:
                tab[i] = [a - f * b for a, b in zip(row, prow)]
        f = z[pc]
        z = [a - f * b for a, b in zip(z, prow)]
        basis[pr] = pc
    y = [ZERO] * m
    for i, j in enumerate(basis):
        if j < m:
            y[j] = tab[i][ncols]
    return "optimal", z[m:ncols], y
