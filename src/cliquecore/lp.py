"""Exact linear programming over rationals for the game LP.

The program solves one LP, the fractional-stable-set relaxation

    maximize  sum_v w_v x_v   subject to  x(Q) <= 1  for every maximal
    clique Q,  x >= 0

whose dual is the fractional clique-cover problem

    minimize  sum_Q y_Q       subject to  sum_{Q contains v} y_Q >= w_v
    for every vertex v,  y >= 0

with variables ranging over the maximal cliques only (a multiplier on a
non-maximal clique can always be moved onto a containing maximal clique,
see :func:`cliquecore.core.lift_dual`).  On a perfect graph the cover
LP has an integral optimum (total dual integrality, Chvatal 1975), but
not every optimal basis is integral, so the pivot rules matter.

The solver runs the dual simplex method (Lemke 1954) on the cover LP,
one tableau row per vertex, from its dual-feasible surplus basis, so one
phase suffices and the m maximal cliques widen the tableau without
lengthening it.  Its pivot rules (see :func:`_dual_simplex`) make every
run reproducible (identical input, identical optimal vertex), guarantee
termination, and reached an integral cover on every perfect graph tried,
where dual Bland alone stops at halves or thirds on some.  The whole
tableau is one matrix of ints over one denominator, the determinant of
the current basis, and every division a pivot makes is exact
(integer-preserving pivoting: Edmonds 1967; Bareiss 1968).  Both optima
come back as those ints, with no float and no Fraction per coordinate;
:func:`certify_optimum` checks them exactly, reading only the LP rows
and objective and not the tableau, before anything is returned.  The cover LP builder
stays for ``--dump-lp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .cliques import CliqueSet
from .errors import GuardError
from .graph import WeightedGraph, fraction_str, ratio_str, to_int_scale

ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max or min of ``objective . x`` subject to sparse rows, x >= 0.

    ``rows[i]`` maps variable index to coefficient; ``senses[i]`` is one of
    ``"<="``, ``">="``, ``"="``.  The objective, coefficients and
    right-hand sides are Fractions or ints.  :func:`lp_format` writes out
    any such LP; :func:`solve_general` solves only the stable-set form.
    """

    direction: str
    objective: tuple[Fraction | int, ...]
    rows: tuple[dict[int, Fraction | int], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction | int, ...]


@dataclass(frozen=True)
class _Optimum:
    """One optimum of the game LP and its value: coordinate i is
    ``amounts[i] / scale``, as the final tableau holds it (not reduced;
    ``core.Imputation`` reduces a cover)."""

    scale: int
    amounts: tuple[int, ...]
    value: Fraction

    def _fractions(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(a, self.scale) for a in self.amounts])


class PrimalSolution(_Optimum):
    """Optimal fractional stable set, x[v] in [0, 1] per vertex, over the
    final basis determinant."""

    x = property(_Optimum._fractions)


class DualSolution(_Optimum):
    """Optimal fractional clique cover, y[cid] >= 0 per maximal clique,
    over the final basis determinant times the weights' common denominator."""

    y = property(_Optimum._fractions)


def solve_general(lp: LinearProgram) -> tuple[PrimalSolution, DualSolution] | None:
    """Exact optimum of a stable-set LP with certified row duals, or None
    when the LP is unbounded.

    The LP must have the form :func:`build_stable_set_lp` produces:
    maximize, every row a 0/1 set of in-range variables read ``<= 1``;
    any other LP raises ValueError.  The objective may have any sign (a
    variable in no row with a positive cost makes the LP unbounded).  The
    dual, one multiplier per row, is a basic solution of the cover LP and
    the primal the complementary one of the same final basis.

    The name predates the restriction to one form and is kept: every game
    solve passes through it, and the benchmark's tracer
    (``perfbench/tracing.py``) wraps and sizes it by this name.
    """
    if lp.direction != "max":
        raise ValueError(f"direction must be 'max', got {lp.direction!r}")
    if not (len(lp.rows) == len(lp.senses) == len(lp.rhs)):
        raise ValueError("rows, senses and rhs lengths differ")
    nv = len(lp.objective)
    for i, (row, sense, b) in enumerate(zip(lp.rows, lp.senses, lp.rhs)):
        if sense != "<=" or b != 1:
            raise ValueError(f"row {i} must read '<= 1', got {sense!r} {b}")
        for j, a in row.items():
            if not (0 <= j < nv):
                raise ValueError(f"row {i} references variable {j} of {nv}")
            if a != 1:
                raise ValueError(f"row {i} has coefficient {a} on variable {j}, not 1")
    c_scale, cs = to_int_scale(lp.objective)
    solved = _dual_simplex(lp.rows, c_scale, cs)
    if solved is None:
        return None
    value = certify_optimum(lp.rows, c_scale, cs, *solved)
    x_scale, xs, y_scale, ys = solved
    return PrimalSolution(x_scale, tuple(xs), value), DualSolution(y_scale, tuple(ys), value)


def first_uncovered_scaled(
    rows: Sequence[Iterable[int]],
    scale: int,
    ys: Sequence[int],
    need_scale: int,
    needs: Sequence[int],
) -> tuple[int, Fraction] | None:
    """The smallest j whose coverage, the sum of ``y[i]`` over the rows
    that contain j, falls short of ``demand[j]``, with that coverage; None
    when ``y`` covers every demand.  Both vectors come as ints over a
    denominator (see ``graph.to_int_scale``): ``y[i] == ys[i] / scale``
    and ``demand[j] == needs[j] / need_scale``.  Skips rows whose ``y``
    is 0."""
    coverage = [0] * len(needs)
    for row, yi in zip(rows, ys):
        if yi:
            for j in row:
                coverage[j] += yi
    for j, (have, need) in enumerate(zip(coverage, needs)):
        if have * need_scale < need * scale:
            return j, Fraction(have, scale)
    return None


def certify_optimum(
    rows: Sequence[Iterable[int]], c_scale: int, cs: Sequence[int],
    x_scale: int, xs: Sequence[int], y_scale: int, ys: Sequence[int],
) -> Fraction:
    """Exact proof that x, ``x[j] = xs[j] / x_scale``, is optimal for the
    stable-set LP over ``rows`` with objective ``c[j] = cs[j] / c_scale``
    (see ``graph.to_int_scale``), with the row duals ``y[i] = ys[i] /
    y_scale`` (both scales positive, as :func:`_dual_simplex` returns
    them) as the witness: x feasible, the duals nonnegative and covering
    every objective coefficient, and equal objective values.  Returns that
    value; raises RuntimeError naming the first failed condition.

    Runs on those ints alone and reads only the LP rows and objective,
    never the tableau that produced x.
    """
    if any(v < 0 for v in xs):
        raise RuntimeError("certificate: x has a negative coordinate")
    for i, row in enumerate(rows):
        if sum(xs[j] for j in row) > x_scale:
            raise RuntimeError(f"certificate: x violates row {i}")
        if ys[i] < 0:
            raise RuntimeError(f"certificate: dual {i} has the wrong sign")
    short = first_uncovered_scaled(rows, y_scale, ys, c_scale, cs)
    if short is not None:
        raise RuntimeError(f"certificate: dual constraint of variable {short[0]} violated")
    value = Fraction(sum(map(mul, cs, xs)), c_scale * x_scale)
    dual_total = sum(ys)
    if value.numerator * y_scale != dual_total * value.denominator:
        dual_value = ratio_str(dual_total, y_scale)
        raise RuntimeError(f"certificate: primal {fraction_str(value)} != dual {dual_value}")
    return value


#: Consecutive dual-degenerate pivots :func:`_dual_simplex` makes with its
#: main rule before it switches to dual Bland for the rest of the solve,
#: in multiples of the tableau's column count (0: dual Bland throughout).
STALL_SWEEPS = 1


def _dual_simplex(
    rows: Sequence[Iterable[int]], scale: int, cs: Sequence[int]
) -> tuple[int, list[int], int, list[int]] | None:
    """Optimum of max c.x subject to x(row) <= 1 for every row (a set of
    variable indices) and x >= 0, where ``c[v] = cs[v] / scale`` (see
    ``graph.to_int_scale``), by dual simplex on its covering dual

        minimize  sum_i y_i  subject to  sum_{i: v in rows[i]} y_i >= c_v
        for every variable v,  y >= 0.

    The tableau has one row per variable v, ``-sum y_i + s_v = -c_v``, over
    the m columns y (0..m-1), the nv = ``len(cs)`` surplus columns s
    (m..m+nv-1) and the right-hand side.  Its surplus basis is dual
    feasible, because every y_i costs 1 and every s_v 0, so one phase
    suffices: each pivot keeps the reduced costs ``z >= 0`` (kept at
    ``tab[nv]``) and the solve ends when no right-hand side is negative.

    - Leaving row: the most negative right-hand side, ties to the lowest
      row.
    - Entering column: the smallest ratio ``z_j / -a_j`` over the leaving
      row's negative entries, ties to the smallest column.  A leaving row
      without one proves the cover infeasible, so the packing LP is
      unbounded.
    - After :data:`STALL_SWEEPS` times ``m + nv`` consecutive pivots with
      ``z_j == 0`` (dual-degenerate), the leaving row is instead the one
      whose basic column is smallest (dual Bland) for the rest of the
      solve, which guarantees termination.

    The whole tableau, reduced costs included, is one matrix of Python
    ints over one positive denominator ``det``, the absolute determinant
    of the current basis; the right-hand sides are further scaled by
    ``scale``, so the surplus basis starts integral with ``det = 1``.  A
    pivot on entry p > 0 (after negating its row) turns every other row
    into ``(p * row - f * prow) / det`` and sets ``det = p``; by Sylvester's
    identity each entry is then, up to sign, a minor of the starting
    matrix, so the division is exact (integer-preserving pivoting:
    Edmonds 1967; Bareiss 1968).  Sign tests are on ints, right-hand
    sides compare directly, and ratios cross-multiply, so every choice and
    the final basis are those of the same simplex on Fractions.

    Returns None when the LP is unbounded, else the ints the final
    tableau holds, as ``(det, xs, det * scale, ys)``: x_v is ``xs[v] /
    det``, the final reduced cost of surplus column v, and y_i is
    ``ys[i] / (det * scale)``, the value of column i where basic and 0
    elsewhere.  Neither pair is reduced to lowest terms.
    """
    m, nv = len(rows), len(cs)
    ncols = m + nv

    # Row v: -1 on each y_i with v in rows[i], 1 on s_v, and -c_v * scale.
    tab: list[list[int]] = []
    for v, a in enumerate(cs):
        dense = [0] * (ncols + 1)
        dense[m + v] = 1
        dense[ncols] = -a
        tab.append(dense)
    for i, row in enumerate(rows):
        for v in row:
            tab[v][i] = -1
    basis = list(range(m, ncols))
    tab.append([1] * m + [0] * (nv + 1))
    det = 1

    def pivot(pr: int, pc: int):
        # Also updates the reduced costs at tab[nv].  The pivot row keeps
        # its ints (sign moved into the row), now over p.  Rows are mostly
        # zeros and p mostly equals det, so rescale a row only when p !=
        # det and otherwise subtract only at the pivot row's nonzero
        # entries (f * b is then a multiple of det).
        nonlocal det
        prow = tab[pr] = [-a for a in tab[pr]]
        p = prow[pc]
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(tab):
            if i == pr:
                continue
            f = row[pc]
            if p != det:
                row = [p * a for a in row]
                for j, b in nonzero:
                    row[j] -= f * b
                tab[i] = [a // det for a in row]
            elif f:
                for j, b in nonzero:
                    row[j] -= f * b // det
        det = p
        basis[pr] = pc

    stalled, bland = 0, False
    while True:
        bland = bland or stalled >= STALL_SWEEPS * ncols
        pr = -1
        for i in range(nv):
            b = tab[i][ncols]
            if b < 0 and (pr < 0 or (basis[i] < basis[pr] if bland else b < best_b)):
                pr, best_b = i, b
        if pr < 0:
            break
        # Ratio test on z_j / -a_j, cross-multiplied (a < 0; det is common
        # to all ratios).
        z, prow = tab[nv], tab[pr]
        pc = -1
        for j in range(ncols):
            a = prow[j]
            if a < 0 and (pc < 0 or z[j] * best_a > best_z * a):
                pc, best_a, best_z = j, a, z[j]
        if pc < 0:
            return None
        stalled = stalled + 1 if best_z == 0 else 0
        pivot(pr, pc)

    ys = [0] * m
    for i in range(nv):
        if basis[i] < m:
            ys[basis[i]] = tab[i][ncols]
    return det, tab[nv][m:ncols], det * scale, ys


def build_stable_set_lp(
    weights: Sequence[Fraction | int], clique_members: Sequence[Iterable[int]]
) -> LinearProgram:
    """Fractional stable-set relaxation over the given clique rows: int
    coefficients and right-hand sides, the weights as given."""
    rows = tuple(dict.fromkeys(q, 1) for q in clique_members)
    m = len(rows)
    return LinearProgram(
        direction="max",
        objective=tuple(weights),
        rows=rows,
        senses=("<=",) * m,
        rhs=(1,) * m,
    )


def build_clique_cover_lp(
    weights: Sequence[Fraction], clique_members: Sequence[Iterable[int]]
) -> LinearProgram:
    """Fractional clique-cover problem with one variable per given clique."""
    n = len(weights)
    rows: list[dict[int, Fraction]] = [dict() for _ in range(n)]
    for cid, q in enumerate(clique_members):
        for v in q:
            rows[v][cid] = ONE
    return LinearProgram(
        direction="min",
        objective=tuple(ONE for _ in clique_members),
        rows=tuple(rows),
        senses=tuple(">=" for _ in range(n)),
        rhs=tuple(Fraction(w) for w in weights),
    )


#: Tableau cells, n * (n + m + 1) for n vertices and m maximal cliques,
#: above which :func:`solve_game` raises GuardError instead of pivoting.
MAX_TABLEAU_CELLS = 150_000


def solve_game(g: WeightedGraph, cliques: CliqueSet) -> tuple[PrimalSolution, DualSolution]:
    """Both game optima from one dual simplex solve of the cover LP.

    The clique cover is the basic solution of the final basis, so a vertex
    of the cover polyhedron, and the fractional stable set the
    complementary basic solution, read off the surplus columns; both are
    certified exactly inside :func:`solve_general` (``y >= 0``, every
    vertex covered, ``x`` feasible, ``sum(y) == w.x``).  The pivot rules
    are deterministic, so the same input gives the same vertex.  A tableau
    of more than :data:`MAX_TABLEAU_CELLS` cells raises GuardError before
    it is built.
    """
    cells = g.n * (g.n + len(cliques) + 1)
    if cells > MAX_TABLEAU_CELLS:
        raise GuardError(f"game LP capped at {MAX_TABLEAU_CELLS} tableau cells, needs {cells}")
    solved = solve_general(build_stable_set_lp(g.weights, cliques.cliques))
    if solved is None:
        raise RuntimeError("the stable-set LP must be solvable, got unbounded")
    return solved


def solve_primal(g: WeightedGraph, cliques: CliqueSet) -> PrimalSolution:
    """Exact optimal vertex of the fractional stable-set relaxation,
    certified optimal by the dual of the same solve."""
    return solve_game(g, cliques)[0]


def solve_dual(g: WeightedGraph, cliques: CliqueSet) -> DualSolution:
    """Exact optimal vertex of the fractional clique-cover problem,
    certified with the stable-set optimum of the same solve (see
    :func:`solve_game`)."""
    return solve_game(g, cliques)[1]


def is_integral(values: Iterable[Fraction]) -> bool:
    """Exact integrality test: every coordinate has denominator 1."""
    return all(v.denominator == 1 for v in values)


def lp_format(lp: LinearProgram, name: str = "problem") -> str:
    """Render in the standard LP interchange text format for cross-checking.

    LP files carry decimal numbers, so each constraint row is scaled by its
    rhs denominator and a fractional objective is scaled by the common
    denominator of its coefficients (noted in a leading comment); scaling
    rows never moves the feasible region and scaling the objective never
    moves the argmax.
    """
    lines = [f"\\ {name}"]
    obj_den, objective = to_int_scale(lp.objective)
    if obj_den != 1:
        lines.append(f"\\ objective scaled by {ratio_str(obj_den, 1)}")
    lines.append("Maximize" if lp.direction == "max" else "Minimize")
    lines.append(f" obj: {_terms(enumerate(objective))}")
    lines.append("Subject To")
    for i, row in enumerate(lp.rows):
        _, (rhs, *coeffs) = to_int_scale([lp.rhs[i], *row.values()])
        lines.append(f" c{i}: {_terms(zip(row, coeffs))} {lp.senses[i]} {ratio_str(rhs, 1)}")
    lines.append("Bounds")
    for j in range(len(lp.objective)):
        lines.append(f" 0 <= x{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _terms(coeffs: Iterable[tuple[int, int]]) -> str:
    """The nonzero int coefficients ``(j, a)`` as LP-format terms in
    variable order, or ``0 x0`` when there are none."""
    parts = []
    for j, a in sorted(coeffs):
        if a == 0:
            continue
        if not parts:
            parts.append(f"{ratio_str(a, 1)} x{j}" if a != 1 else f"x{j}")
        elif a < 0:
            parts.append(f"- {ratio_str(-a, 1)} x{j}" if a != -1 else f"- x{j}")
        else:
            parts.append(f"+ {ratio_str(a, 1)} x{j}" if a != 1 else f"+ x{j}")
    return " ".join(parts) if parts else "0 x0"
