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
optimum is integral (total dual integrality, Chvatal 1975).

The solver is a dense primal simplex on 0/1 rows with right-hand side 1,
which starts feasible at its slack basis, so one phase suffices.  Bland's
smallest-index rule guarantees termination under degeneracy and makes
every run reproducible (identical input, identical optimal vertex).  It
pivots on integer rows, each over one denominator of its own, and returns
Fractions; no floating point enters anywhere.  The clique cover is the
row-dual vector of the final basis, read off the slack columns, and
:func:`certify_optimum` checks both optima exactly, reading only the LP
rows and not the tableau, before anything is returned.  The cover LP builder stays
for ``--dump-lp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cliques import CliqueSet
from .graph import WeightedGraph, fraction_str, to_int_scale

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max or min of ``objective . x`` subject to sparse rows, x >= 0.

    ``rows[i]`` maps variable index to coefficient; ``senses[i]`` is one of
    ``"<="``, ``">="``, ``"="``.  :func:`lp_format` writes out any such LP;
    :func:`solve_general` solves only the stable-set form.
    """

    direction: str
    objective: tuple[Fraction, ...]
    rows: tuple[dict[int, Fraction], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]


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
    success ``x`` is a basic solution and ``duals`` the complementary
    basic dual solution of the same final basis.

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
    status, x, duals = _simplex_max(nv, lp.rows, lp.objective)
    if status != "optimal":
        return LPResult(status=status, x=None, value=None)
    value = certify_optimum(lp, x, duals)
    return LPResult(status="optimal", x=tuple(x), value=value, duals=tuple(duals))


def first_uncovered(
    rows: Sequence[Iterable[int]], y: Sequence[Fraction], demand: Sequence[Fraction]
) -> tuple[int, Fraction] | None:
    """The smallest j whose coverage, the sum of ``y[i]`` over the rows
    that contain j, falls short of ``demand[j]``, with that coverage; None
    when ``y`` covers every demand.  Sums in ints over the common
    denominator of ``y``, skipping rows whose ``y`` is 0."""
    scale, ys = to_int_scale(y)
    need_scale, needs = to_int_scale(demand)
    coverage = [0] * len(demand)
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
    value; raises RuntimeError naming the first failed condition."""
    if any(v < 0 for v in x):
        raise RuntimeError("certificate: x has a negative coordinate")
    for i, row in enumerate(lp.rows):
        if sum((x[j] for j in row if x[j]), ZERO) > ONE:
            raise RuntimeError(f"certificate: x violates row {i}")
        if duals[i] < 0:
            raise RuntimeError(f"certificate: dual {i} has the wrong sign")
    short = first_uncovered(lp.rows, duals, lp.objective)
    if short is not None:
        raise RuntimeError(f"certificate: dual constraint of variable {short[0]} violated")
    value = sum((cj * v for cj, v in zip(lp.objective, x)), ZERO)
    dual_value = sum(duals, ZERO)
    if value != dual_value:
        raise RuntimeError(
            f"certificate: primal {fraction_str(value)} != dual {fraction_str(dual_value)}"
        )
    return value


def _simplex_max(
    nv: int, rows: Sequence[Iterable[int]], c: Sequence[Fraction]
) -> tuple[str, list[Fraction] | None, list[Fraction] | None]:
    """Single-phase tableau simplex maximizing c.x subject to x(row) <= 1
    for every row (a set of variable indices) and x >= 0, pivoting on ints
    from the feasible slack basis x = 0.

    Every tableau row, the objective row included, is a list of Python
    ints over one positive int denominator of its own (row i stands for
    ``tab[i] / den[i]``), kept in lowest terms by a gcd after each update
    (fraction-free pivoting: Edmonds 1967; Bareiss 1968).  Sign tests are
    on ints and the ratio test cross-multiplies, so the Bland choices and
    the final basis are those of the same simplex on Fractions.

    Returns the status ("optimal" or "unbounded"), the optimal x and the
    row duals of the final basis, as Fractions.  Row i's dual is the final
    reduced cost of its slack column ``nv + i``.
    """
    m = len(rows)
    ncols = nv + m

    # Constraint rows start over denominator 1: row i is its 0/1 members,
    # its slack and the right-hand side 1.
    tab: list[list[int]] = []
    for i, row in enumerate(rows):
        dense = [0] * (ncols + 1)
        for j in row:
            dense[j] = 1
        dense[nv + i] = 1
        dense[ncols] = 1
        tab.append(dense)
    den = [1] * m
    basis = list(range(nv, ncols))
    # The objective row z = c_B.B^-1.A - c is -c at the slack basis, kept
    # at tab[m] over the common denominator of c.
    d, ints = to_int_scale(c)
    tab.append([-a for a in ints] + [0] * (m + 1))
    den.append(d)

    def store(i: int, row: list[int], d: int):
        # Lowest terms: divide the row and its denominator by their gcd.
        if d > 1 and (g := math.gcd(d, *row)) > 1:
            row = [a // g for a in row]
            d //= g
        tab[i] = row
        den[i] = d

    def pivot(pr: int, pc: int):
        # Also updates the objective row at tab[m].  Dividing row pr by
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

    # Optimal once every reduced cost z[j] is >= 0.
    while True:
        z = tab[m]
        pc = next((j for j in range(ncols) if z[j] < 0), -1)
        if pc < 0:
            break
        # Bland's ratio test on b_i / a_i, cross-multiplied (a > 0).
        pr = -1
        for i in range(m):
            row = tab[i]
            a = row[pc]
            if a > 0:
                b = row[ncols]
                if pr < 0:
                    pr, best_a, best_b = i, a, b
                    continue
                left, right = b * best_a, best_b * a
                if left < right or (left == right and basis[i] < basis[pr]):
                    pr, best_a, best_b = i, a, b
        if pr < 0:
            return "unbounded", None, None
        pivot(pr, pc)

    x = [ZERO] * nv
    for i in range(m):
        if basis[i] < nv:
            x[basis[i]] = Fraction(tab[i][ncols], den[i])
    return "optimal", x, [Fraction(a, den[m]) for a in z[nv:ncols]]


def build_stable_set_lp(
    weights: Sequence[Fraction], clique_members: Sequence[Iterable[int]]
) -> LinearProgram:
    """Fractional stable-set relaxation over the given clique rows."""
    rows = tuple({v: ONE for v in q} for q in clique_members)
    return LinearProgram(
        direction="max",
        objective=tuple(Fraction(w) for w in weights),
        rows=rows,
        senses=tuple("<=" for _ in rows),
        rhs=tuple(ONE for _ in rows),
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


def solve_game(g: WeightedGraph, cliques: CliqueSet) -> tuple[PrimalSolution, DualSolution]:
    """Both game optima from one simplex solve of the stable-set LP.

    The clique cover is the row-dual vector of the final basis, certified
    exactly inside :func:`solve_general` (``y >= 0``, every vertex covered,
    ``sum(y) == w.x``).  It is the basic dual solution complementary to
    the primal basis: tight on the dual constraints of the basic columns,
    which are linearly independent, so it is a vertex of the cover
    polyhedron, and Bland's rule makes it deterministic.
    """
    res = solve_general(build_stable_set_lp(g.weights, cliques.cliques))
    if res.status != "optimal":
        raise RuntimeError(f"the stable-set LP must be solvable, got {res.status}")
    return PrimalSolution(x=res.x, value=res.value), DualSolution(y=res.duals, value=res.value)


def solve_primal(g: WeightedGraph, cliques: CliqueSet) -> PrimalSolution:
    """Exact optimal vertex of the fractional stable-set relaxation,
    certified optimal by the dual of the same solve."""
    return solve_game(g, cliques)[0]


def solve_dual(g: WeightedGraph, cliques: CliqueSet) -> DualSolution:
    """Exact optimal vertex of the fractional clique-cover problem, read
    off the final tableau of the stable-set LP and certified with it (see
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
