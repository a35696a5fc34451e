#!/usr/bin/env python3
"""Walkthrough of the investment game on the 3x3 grid graph.

Nine assets sit in a 3x3 array; two assets correlate (are adjacent) when
they share a row or a column, so the six investment firms are the three
rows and the three columns.  With unit costs, the best diversified
portfolio picks one cell per row and per column: a transversal of three
cells, worth 3.  The agent therefore holds 3 dollars and must park them in
firms so that *every* future scenario can buy its own optimal portfolio.
"""

from fractions import Fraction

from cliquecore import (
    Imputation,
    compute_core_imputation,
    game_worth,
    maximal_cliques,
    money,
    paley3x3,
    verify_core_certificate,
    verify_core_exhaustive,
)

g = paley3x3()
firms = maximal_cliques(g)

print("assets:", g.n, "  correlations:", len(g.edges))
print("firms (maximal cliques):")
for cid, q in enumerate(firms.cliques):
    print(f"  firm {firms.key(cid)}: assets {list(q)}")

worth = game_worth(g)
print("\ngame worth (optimal whole-market portfolio):", worth)

# The solver's answer: an optimal fractional clique-cover dual.
allocation = compute_core_imputation(g, firms)
print("computed core imputation:")
for cid, amount in enumerate(allocation.values):
    if amount:
        print(f"  {firms.key(cid)} holds {amount}")

# The classic hand-built answer: one dollar per row.
rows = Imputation.from_mapping(firms, {"0-1-2": 1, "3-4-5": 1, "6-7-8": 1})
print("\nrows-at-1 allocation:")
print("  certificate check:", verify_core_certificate(g, firms, rows).verdict)
exhaustive = verify_core_exhaustive(g, firms, rows)
print(f"  exhaustive check: {exhaustive.verdict}"
      f" ({exhaustive.scenarios_checked} scenarios)")

# A transversal scenario draws on all three rows at once.
diagonal = (0, 4, 8)
print(f"\nscenario {list(diagonal)} needs 3 and can reach",
      money(g, firms, rows, diagonal))

# Dumping everything on one firm satisfies its own assets and nothing else.
lopsided = Imputation.from_mapping(firms, {"0-1-2": 3})
bad = verify_core_exhaustive(g, firms, lopsided)
print("\nall 3 dollars on the first row:", bad.verdict)
v = bad.violation
print(f"  first failing scenario {list(v.scenario)}:"
      f" money {v.money} < cost {v.cost}")

# Core imputations are not unique: half a dollar on each of the six firms
# covers every asset by 1/2 + 1/2 and still totals 3.
halves = Imputation.of((Fraction(1, 2),) * 6)
print("\nhalf on all six firms:",
      verify_core_exhaustive(g, firms, halves).verdict)
