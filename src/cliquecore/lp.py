"""Exact linear programming over rationals, plus the two game LPs.

The solver is a dense two-phase primal simplex with Bland's smallest-index
rule for both the entering and the leaving choice.  It pivots on integer
rows, each over one positive integer denominator of its own, so every
entry is exact without a ``fractions.Fraction`` per entry; the optimum
comes back as Fractions.  Bland's rule guarantees termination under
degeneracy and makes every run reproducible: identical input yields the
identical basis, hence the identical optimal vertex.  No floating point
enters anywhere.

The two problem builders are the fractional-stable-set relaxation

    maximize  sum_v w_v x_v   subject to  x(Q) <= 1  for every maximal
    clique Q,  x >= 0

and its dual, the fractional clique-cover problem

    minimize  sum_Q y_Q       subject to  sum_{Q contains v} y_Q >= w_v
    for every vertex v,  y >= 0

with variables ranging over the maximal cliques only (a multiplier on a
non-maximal clique can always be moved onto a containing maximal clique,
see :func:`cliquecore.core.lift_dual`).

One simplex solve yields both optima.  Every optimal solve also returns
the row duals ``y = c_B B^-1`` of its final basis, read off the reduced
costs of the columns that formed the starting identity (slacks, or
artificials), and :func:`certify_optimum` checks primal feasibility, dual
feasibility and equal objective values in exact arithmetic before the
result is returned; a failed check raises instead of returning a wrong
certificate.  The check runs on Fractions, apart from the integer
tableau, so it also guards the pivoting code.  The game solve therefore
runs the stable-set LP alone, which starts feasible at its slack basis
and skips phase 1, and takes the clique cover from its slack columns.
The cover LP builder stays as an independent reference and for
``--dump-lp``.
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
    ``"<="``, ``">="``, ``"="``.  Variables have lower bound 0 and no upper
    bound.
    """

    direction: str
    objective: tuple[Fraction, ...]
    rows: tuple[dict[int, Fraction], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]

    def validate(self):
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise ValueError("rows, senses and rhs lengths differ")
        nv = len(self.objective)
        for i, row in enumerate(self.rows):
            for j in row:
                if not (0 <= j < nv):
                    raise ValueError(f"row {i} references variable {j} of {nv}")
            if self.senses[i] not in ("<=", ">=", "="):
                raise ValueError(f"row {i} has unknown sense {self.senses[i]!r}")


@dataclass(frozen=True)
class LPResult:
    """``duals[i]`` is the multiplier of row i in the dual of the LP (for
    a max problem: >= 0 on "<=" rows, <= 0 on ">=" rows, free on "="
    rows; signs reversed for min), set only when status is "optimal"."""

    status: str  # "optimal" | "infeasible" | "unbounded"
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
    """Exact optimum of an arbitrary LP with certified row duals.

    On success ``x`` is a basic (vertex) solution and ``duals`` the
    complementary basic dual solution of the same final basis.
    """
    lp.validate()
    nv = len(lp.objective)
    sign = 1 if lp.direction == "max" else -1
    c = [sign * Fraction(x) for x in lp.objective]
    status, x, duals = _simplex_max(nv, lp.rows, lp.senses, lp.rhs, c)
    if status != "optimal":
        return LPResult(status=status, x=None, value=None)
    duals = [sign * y for y in duals]
    value = certify_optimum(lp, x, duals)
    return LPResult(status="optimal", x=tuple(x), value=value, duals=tuple(duals))


def certify_optimum(
    lp: LinearProgram, x: Sequence[Fraction], duals: Sequence[Fraction]
) -> Fraction:
    """Exact proof that ``x`` is optimal, with ``duals`` as the witness.

    Checks that x is feasible, that the duals have the right sign for each
    row sense and satisfy every dual column constraint, and that the two
    objective values are equal.  Returns that value; raises RuntimeError
    naming the first failed condition.
    """
    sign = 1 if lp.direction == "max" else -1
    if any(v < 0 for v in x):
        raise RuntimeError("certificate: x has a negative coordinate")
    # price[j] = sum_i duals[i] * A[i][j]; dual feasibility is
    # sign * (price[j] - c[j]) >= 0 for every variable j.
    price = [ZERO] * len(lp.objective)
    for i, row in enumerate(lp.rows):
        lhs = sum((a * x[j] for j, a in row.items() if x[j]), ZERO)
        sense, b, y = lp.senses[i], lp.rhs[i], duals[i]
        if (sense == "<=" and lhs > b) or (sense == ">=" and lhs < b) or (
            sense == "=" and lhs != b
        ):
            raise RuntimeError(f"certificate: x violates row {i}")
        if (sense == "<=" and sign * y < 0) or (sense == ">=" and sign * y > 0):
            raise RuntimeError(f"certificate: dual {i} has the wrong sign")
        if y:
            for j, a in row.items():
                price[j] += a * y
    for j, cj in enumerate(lp.objective):
        if sign * (price[j] - cj) < 0:
            raise RuntimeError(f"certificate: dual constraint of variable {j} violated")
    value = sum((cj * v for cj, v in zip(lp.objective, x)), ZERO)
    dual_value = sum((b * y for b, y in zip(lp.rhs, duals)), ZERO)
    if value != dual_value:
        raise RuntimeError(
            f"certificate: primal {fraction_str(value)} != dual {fraction_str(dual_value)}"
        )
    return value


def _simplex_max(
    nv: int,
    rows: Sequence[dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    c: list[Fraction],
) -> tuple[str, list[Fraction] | None, list[Fraction] | None]:
    """Two-phase tableau simplex maximizing c.x, x >= 0, pivoting on ints.

    Every tableau row, the objective row included, is a list of Python
    ints over one positive int denominator of its own (row i stands for
    ``tab[i] / den[i]``), kept in lowest terms by a gcd after each
    update, so the arithmetic is exact without a Fraction per entry
    (fraction-free pivoting: Edmonds 1967; Bareiss 1968).  Every sign
    test is a test on an int, and the ratio test cross-multiplies, so
    the Bland choices, the pivot sequence and the final basis are those
    of the same simplex on Fractions.

    Returns the status, the optimal x and the row duals of the final
    basis, as Fractions.  Row i's dual is the final reduced cost of the
    column that was its identity column in the starting tableau (its
    slack, or its artificial, whose phase-2 cost is 0), negated when the
    row was negated to make its right-hand side nonnegative.
    """
    m = len(rows)

    # Negate each row with a negative right-hand side, flipping its sense.
    flipped = [b < 0 for b in rhs]
    norm_senses = [
        {"<=": ">=", ">=": "<=", "=": "="}[s] if f else s for s, f in zip(senses, flipped)
    ]

    n_le = sum(1 for s in norm_senses if s == "<=")
    n_ge = sum(1 for s in norm_senses if s == ">=")
    n_art = sum(1 for s in norm_senses if s in (">=", "="))
    slack0 = nv
    surplus0 = nv + n_le
    art0 = nv + n_le + n_ge
    ncols = art0 + n_art

    # Row i scaled by the LCM of its own denominators: its slack or
    # artificial entry is den[i], not 1.
    tab: list[list[int]] = []
    den: list[int] = []
    basis: list[int] = []
    i_le = i_ge = i_art = 0
    for i in range(m):
        row, b = rows[i], rhs[i]
        sign = -1 if flipped[i] else 1
        d, ints = to_int_scale([*row.values(), b])
        dense = [0] * (ncols + 1)
        for j, a in zip(row, ints):
            dense[j] = sign * a
        dense[ncols] = sign * ints[-1]
        s = norm_senses[i]
        if s == "<=":
            dense[slack0 + i_le] = d
            basis.append(slack0 + i_le)
            i_le += 1
        elif s == ">=":
            dense[surplus0 + i_ge] = -d
            i_ge += 1
            dense[art0 + i_art] = d
            basis.append(art0 + i_art)
            i_art += 1
        else:
            dense[art0 + i_art] = d
            basis.append(art0 + i_art)
            i_art += 1
        tab.append(dense)
        den.append(d)
    identity = list(basis)

    def store(i: int, row: list[int], d: int):
        # Lowest terms: divide the row and its denominator by their gcd.
        if d > 1 and (g := math.gcd(d, *row)) > 1:
            row = [a // g for a in row]
            d //= g
        tab[i] = row
        den[i] = d

    def pivot(pr: int, pc: int):
        # Also updates the objective row, which sits at tab[m] while a
        # phase runs.  Dividing row pr by its pivot entry leaves the same
        # ints over the pivot entry (sign moved into the row).
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

    def run(banned_from: int) -> str:
        # z = tab[m]: z[j] = c_B.B^-1.A_j - c_j ; optimal when all z >= 0
        z = tab[m]
        while True:
            pc = next((j for j in range(banned_from) if z[j] < 0), -1)
            if pc < 0:
                return "optimal"
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
                return "unbounded"
            pivot(pr, pc)
            z = tab[m]

    def push_objective(cost: list[Fraction]):
        # Appends z = c_B.B^-1.A - c over one common denominator as tab[m].
        terms = [(cost[basis[i]], i) for i in range(m) if cost[basis[i]]]
        d = math.lcm(
            *(cj.denominator for cj in cost),
            *(cb.denominator * den[i] for cb, i in terms),
        )
        z = [-cj.numerator * (d // cj.denominator) for cj in cost] + [0]
        for cb, i in terms:
            k = cb.numerator * (d // (cb.denominator * den[i]))
            z = [a + k * b for a, b in zip(z, tab[i])]
        tab.append(z)
        den.append(d)
        store(m, z, d)

    if n_art > 0:
        cost1 = [ZERO] * art0 + [-ONE] * n_art
        push_objective(cost1)
        st = run(ncols)
        if st != "optimal":  # phase 1 is bounded above by 0
            raise RuntimeError("phase 1 reported unbounded; solver invariant broken")
        z1 = tab.pop()
        den.pop()
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
                    pivot(i, pc)
        for i in reversed(drop):
            del tab[i]
            del den[i]
            del basis[i]
        m = len(tab)

    push_objective(list(c) + [ZERO] * (ncols - nv))
    st = run(art0)  # artificial columns can never re-enter
    z2, zden = tab.pop(), den.pop()
    if st == "unbounded":
        return "unbounded", None, None
    x = [ZERO] * nv
    for i in range(m):
        if basis[i] < nv:
            x[basis[i]] = Fraction(tab[i][ncols], den[i])
    duals = [Fraction(-z2[j] if f else z2[j], zden) for j, f in zip(identity, flipped)]
    return "optimal", x, duals


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
    """Exact optimal vertex of the fractional clique-cover problem.

    Read off the final tableau of the stable-set LP (see
    :func:`solve_game`) rather than solved as its own LP: the reduced
    costs of the slack columns are ``y = c_B B^-1``, the dual basic
    solution complementary to the optimal primal basis.  It is checked
    exactly for feasibility and for strong duality before returning.
    """
    return solve_game(g, cliques)[1]


def is_integral(solution) -> bool:
    """Exact integrality test: every coordinate has denominator 1.

    Accepts a PrimalSolution, a DualSolution, anything with ``.x`` or
    ``.y``/``.values`` coordinates, or a plain iterable of Fractions.
    """
    coords = getattr(solution, "x", None)
    if coords is None:
        coords = getattr(solution, "y", None)
    if coords is None:
        coords = getattr(solution, "values", None)
    if coords is None:
        coords = solution
    return all(Fraction(v).denominator == 1 for v in coords)


def lp_format(lp: LinearProgram, name: str = "problem") -> str:
    """Render in the standard LP interchange text format for cross-checking.

    LP files carry decimal numbers, so each constraint row is scaled by its
    rhs denominator and a fractional objective is scaled by the common
    denominator of its coefficients (noted in a leading comment); scaling
    rows never moves the feasible region and scaling the objective never
    moves the argmax.
    """
    lp.validate()
    lines = [f"\\ {name}"]
    obj_den = 1
    for w in lp.objective:
        obj_den = math.lcm(obj_den, w.denominator)
    if obj_den != 1:
        lines.append(f"\\ objective scaled by {obj_den}")
    lines.append("Maximize" if lp.direction == "max" else "Minimize")
    terms = _terms(
        {j: w * obj_den for j, w in enumerate(lp.objective) if w != 0}
    )
    lines.append(f" obj: {terms if terms else '0 x0'}")
    lines.append("Subject To")
    for i, row in enumerate(lp.rows):
        den = lp.rhs[i].denominator
        for a in row.values():
            den = math.lcm(den, a.denominator)
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
