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
where dual Bland alone stops at halves or thirds on some.  It pivots on
integer rows, each over one denominator of its own, and returns
Fractions; no floating point enters anywhere.  :func:`certify_optimum`
checks both optima exactly, in scaled ints, reading only the LP rows and
not the tableau, before anything is returned.  The cover LP builder
stays for ``--dump-lp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .cliques import CliqueSet
from .errors import GuardError
from .graph import WeightedGraph, fraction_str, to_int_scale

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max or min of ``objective . x`` subject to sparse rows, x >= 0.

    ``rows[i]`` maps variable index to coefficient; ``senses[i]`` is one of
    ``"<="``, ``">="``, ``"="``.  Coefficients and right-hand sides are
    Fractions or ints.  :func:`lp_format` writes out any such LP;
    :func:`solve_general` solves only the stable-set form.
    """

    direction: str
    objective: tuple[Fraction, ...]
    rows: tuple[dict[int, Fraction | int], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction | int, ...]


@dataclass(frozen=True)
class LPResult:
    """``duals[i]`` >= 0 is the multiplier of row i in the dual of the LP,
    set only when status is "optimal"."""

    status: str  # "optimal" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None
    duals: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class PrimalSolution:
    """Optimal fractional stable set: x[v] in [0,1] per vertex."""

    x: tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class DualSolution:
    """Optimal fractional clique cover: y[cid] >= 0 per maximal clique."""

    y: tuple[Fraction, ...]
    value: Fraction


def solve_general(lp: LinearProgram) -> LPResult:
    """Exact optimum of a stable-set LP with certified row duals.

    The LP must have the form :func:`build_stable_set_lp` produces:
    maximize, every row a 0/1 set of in-range variables read ``<= 1``;
    any other LP raises ValueError.  The objective may have any sign (a
    variable in no row with a positive cost makes the LP unbounded).  On
    success ``duals`` is a basic solution of the cover LP and ``x`` the
    complementary basic solution of the same final basis.

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
    status, x, duals = _dual_simplex(nv, lp.rows, lp.objective)
    if status != "optimal":
        return LPResult(status=status, x=None, value=None)
    value = certify_optimum(lp, x, duals)
    return LPResult(status="optimal", x=tuple(x), value=value, duals=tuple(duals))


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
    lp: LinearProgram, x: Sequence[Fraction], duals: Sequence[Fraction]
) -> Fraction:
    """Exact proof that ``x`` is optimal for a stable-set LP, with ``duals``
    as the witness: x feasible, the duals nonnegative and covering every
    objective coefficient, and equal objective values.  Returns that
    value; raises RuntimeError naming the first failed condition.

    Runs on ints: ``x``, the duals and the objective are each scaled once
    by their common denominator (``to_int_scale``), so a row of ``x`` is
    feasible when its int sum is at most the scale of ``x``, and both
    objective values are int dot products over known denominators.  Only
    the LP rows are read, never the tableau that produced ``x``.
    """
    x_scale, xs = to_int_scale(x)
    if any(v < 0 for v in xs):
        raise RuntimeError("certificate: x has a negative coordinate")
    y_scale, ys = to_int_scale(duals)
    for i, row in enumerate(lp.rows):
        if sum(xs[j] for j in row) > x_scale:
            raise RuntimeError(f"certificate: x violates row {i}")
        if ys[i] < 0:
            raise RuntimeError(f"certificate: dual {i} has the wrong sign")
    c_scale, cs = to_int_scale(lp.objective)
    short = first_uncovered_scaled(lp.rows, y_scale, ys, c_scale, cs)
    if short is not None:
        raise RuntimeError(f"certificate: dual constraint of variable {short[0]} violated")
    value = Fraction(sum(map(mul, cs, xs)), c_scale * x_scale)
    dual_value = Fraction(sum(ys), y_scale)
    if value != dual_value:
        raise RuntimeError(
            f"certificate: primal {fraction_str(value)} != dual {fraction_str(dual_value)}"
        )
    return value


#: Consecutive dual-degenerate pivots :func:`_dual_simplex` makes with its
#: main rule before it switches to dual Bland for the rest of the solve,
#: in multiples of the tableau's column count (0: dual Bland throughout).
STALL_SWEEPS = 1


def _dual_simplex(
    nv: int, rows: Sequence[Iterable[int]], c: Sequence[Fraction]
) -> tuple[str, list[Fraction] | None, list[Fraction] | None]:
    """Optimum of max c.x subject to x(row) <= 1 for every row (a set of
    variable indices) and x >= 0, by dual simplex on its covering dual

        minimize  sum_i y_i  subject to  sum_{i: v in rows[i]} y_i >= c_v
        for every variable v,  y >= 0.

    The tableau has one row per variable v, ``-sum y_i + s_v = -c_v``, over
    the m columns y (0..m-1), the surplus columns s (m..m+nv-1) and the
    right-hand side.  Its surplus basis is dual feasible, because every
    y_i costs 1 and every s_v 0, so one phase suffices: each pivot keeps
    the reduced costs ``z >= 0`` (kept at ``tab[nv]``) and the solve ends
    when no right-hand side is negative.

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

    Every tableau row, the reduced costs included, is a list of Python
    ints over one positive int denominator of its own (row i stands for
    ``tab[i] / den[i]``), kept in lowest terms by a gcd after each update
    (fraction-free pivoting: Edmonds 1967; Bareiss 1968).  Sign tests are
    on ints and comparisons cross-multiply, so every choice and the final
    basis are those of the same simplex on Fractions.

    Returns the status ("optimal" or "unbounded"), then x and the row
    duals y, as Fractions: y_i is the value of column i where basic, and
    x_v the final reduced cost of surplus column v.
    """
    m = len(rows)
    ncols = m + nv

    # Row v starts over the denominator of c_v: -1 on each y_i with v in
    # rows[i], 1 on s_v, and -c_v.
    tab: list[list[int]] = []
    den: list[int] = []
    for v, a in enumerate(c):
        d = a.denominator
        dense = [0] * (ncols + 1)
        dense[m + v] = d
        dense[ncols] = -a.numerator
        tab.append(dense)
        den.append(d)
    for i, row in enumerate(rows):
        for v in row:
            tab[v][i] = -den[v]
    basis = list(range(m, ncols))
    tab.append([1] * m + [0] * (nv + 1))
    den.append(1)

    def store(i: int, row: list[int], d: int):
        # Lowest terms: divide the row and its denominator by their gcd.
        if d > 1 and (g := math.gcd(d, *row)) > 1:
            row = [a // g for a in row]
            d //= g
        tab[i] = row
        den[i] = d

    def pivot(pr: int, pc: int):
        # Also updates the reduced costs at tab[nv].  Dividing row pr by
        # its pivot entry leaves the same ints over the pivot entry (sign
        # moved into the row).
        prow = tab[pr]
        p = prow[pc]
        if p < 0:
            prow = [-a for a in prow]
            p = -p
        store(pr, prow, p)
        prow, p = tab[pr], den[pr]
        # Row i becomes (p * row - f * prow) / (den[i] * p).  Rows are
        # mostly zeros and p is mostly 1, so scale only when p > 1 and
        # subtract only at the pivot row's nonzero entries.
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(tab):
            f = row[pc]
            if f and i != pr:
                if p > 1:
                    row = [p * a for a in row]
                for j, b in nonzero:
                    row[j] -= f * b
                store(i, row, den[i] * p)
        basis[pr] = pc

    stalled, bland = 0, False
    while True:
        bland = bland or stalled >= STALL_SWEEPS * ncols
        pr = -1
        for i in range(nv):
            b = tab[i][ncols]
            if b < 0 and (
                pr < 0
                or (basis[i] < basis[pr] if bland else b * best_d < best_b * den[i])
            ):
                pr, best_b, best_d = i, b, den[i]
        if pr < 0:
            break
        # Ratio test on z_j / -a_j, cross-multiplied (a < 0; the row's
        # own denominator is common to all ratios).
        z, prow = tab[nv], tab[pr]
        pc = -1
        for j in range(ncols):
            a = prow[j]
            if a < 0 and (pc < 0 or z[j] * best_a > best_z * a):
                pc, best_a, best_z = j, a, z[j]
        if pc < 0:
            return "unbounded", None, None
        stalled = stalled + 1 if best_z == 0 else 0
        pivot(pr, pc)

    y = [ZERO] * m
    for i in range(nv):
        if basis[i] < m:
            y[basis[i]] = Fraction(tab[i][ncols], den[i])
    z = tab[nv]
    return "optimal", [Fraction(a, den[nv]) for a in z[m:ncols]], y


def build_stable_set_lp(
    weights: Sequence[Fraction], clique_members: Sequence[Iterable[int]]
) -> LinearProgram:
    """Fractional stable-set relaxation over the given clique rows, with
    int coefficients and right-hand sides."""
    rows = tuple(dict.fromkeys(q, 1) for q in clique_members)
    m = len(rows)
    return LinearProgram(
        direction="max",
        objective=tuple(Fraction(w) for w in weights),
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
    res = solve_general(build_stable_set_lp(g.weights, cliques.cliques))
    if res.status != "optimal":
        raise RuntimeError(f"the stable-set LP must be solvable, got {res.status}")
    return PrimalSolution(x=res.x, value=res.value), DualSolution(y=res.duals, value=res.value)


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
    obj_den = to_int_scale(lp.objective)[0]
    if obj_den != 1:
        lines.append(f"\\ objective scaled by {obj_den}")
    lines.append("Maximize" if lp.direction == "max" else "Minimize")
    terms = _terms(
        {j: w * obj_den for j, w in enumerate(lp.objective) if w != 0}
    )
    lines.append(f" obj: {terms if terms else '0 x0'}")
    lines.append("Subject To")
    for i, row in enumerate(lp.rows):
        den = to_int_scale([lp.rhs[i], *row.values()])[0]
        scaled = {j: a * den for j, a in row.items() if a != 0}
        body = _terms(scaled) if scaled else "0 x0"
        lines.append(f" c{i}: {body} {lp.senses[i]} {lp.rhs[i] * den}")
    lines.append("Bounds")
    for j in range(len(lp.objective)):
        lines.append(f" 0 <= x{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _terms(coeffs: dict[int, Fraction]) -> str:
    parts = []
    for j in sorted(coeffs):
        a = coeffs[j]
        if not parts:
            parts.append(f"{a} x{j}" if a != 1 else f"x{j}")
        elif a < 0:
            parts.append(f"- {-a} x{j}" if a != -1 else f"- x{j}")
        else:
            parts.append(f"+ {a} x{j}" if a != 1 else f"+ x{j}")
    return " ".join(parts)
