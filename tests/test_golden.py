"""Golden bytes: a fixed, seeded set of CLI calls on about two dozen graphs,
whose whole output (stdout, stderr, exit codes and the dumped ``.lp``
files) hashes to one recorded constant.

A refactor that must not change any output (a solver rewrite, a new
number type, a moved guard) keeps this digest; a change that alters a
printed number, a chosen LP vertex, a message or an exit code breaks it.
The assertion message carries the new digest, to be recorded only when
the output is meant to change.
"""

import hashlib
import json
import random
from fractions import Fraction

from cliquecore import complement, from_spec, serialize_graph
from cliquecore.cli import main

from conftest import random_graph

#: Seeded perfect generator specs, weighted and complemented below and
#: also printed by ``generate`` itself.
PERFECT_SPECS = [("chordal:14", 3), ("chordal:20", 5), ("bipartite:14", 2), ("bipartite:20", 4)]

GOLDEN_SHA256 = "cb5ef8c41f96f85d83e42dcc53d10c6286796e9c1f7c5ca4624f0fabebdb6777"


def weighted(g, seed, denominators=(1,)):
    """``g`` with weights 0..100 drawn from ``seed``, each over a
    denominator drawn from ``denominators``."""
    rng = random.Random(seed)
    return g.with_weights(
        [Fraction(rng.randint(0, 100), rng.choice(denominators)) for _ in range(g.n)]
    )


def golden_graphs():
    graphs = [(f"gnp{n}", random_graph(n, n, max_weight=100)) for n in range(14, 21)]
    # Their simplex pivots reach basis determinants of 28 and 13.
    graphs += [(f"gnp20/{seed}", random_graph(20, seed, max_weight=100)) for seed in (57, 62)]
    for spec, seed in PERFECT_SPECS:
        g = weighted(from_spec(spec, seed=seed), seed)
        graphs += [(f"{spec}/{seed}", g), (f"co-{spec}/{seed}", complement(g))]
    for spec in ("chordal:16", "bipartite:16"):
        g = from_spec(spec, seed=1)
        graphs += [(f"{spec}/1 unit", g), (f"co-{spec}/1 unit", complement(g))]
    fractional = (1, 2, 3, 5, 6, 7)
    graphs += [(f"{name} fractional", weighted(g, 11, fractional))
               for name, g in graphs if name in ("gnp14", "gnp17", "chordal:14/3",
                                                 "co-bipartite:14/2", "co-chordal:20/5")]
    return graphs


def test_cli_output_matches_the_recorded_digest(tmp_path, capsys):
    digest = hashlib.sha256()

    def call(label, *argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        digest.update(f"{label}\0{code}\0{out}\0{err}\0".encode())
        return out

    for i, (name, g) in enumerate(golden_graphs()):
        path = tmp_path / f"g{i}.graph"
        path.write_text(serialize_graph(g))
        graph = ("--input", str(path))
        solved = call(f"{name} solve --json", "solve", *graph, "--json")
        call(f"{name} solve", "solve", *graph)
        call(f"{name} solve --dump-lp", "solve", *graph, "--dump-lp", str(tmp_path / f"g{i}"))
        for suffix in (".primal.lp", ".dual.lp"):
            digest.update((tmp_path / f"g{i}{suffix}").read_bytes())
        call(f"{name} check-perfect --json", "check-perfect", *graph, "--json")
        imputation = tmp_path / f"g{i}.json"
        imputation.write_text(json.dumps(json.loads(solved)["dual"]["y"]))
        call(f"{name} verify", "verify", *graph, str(imputation))
        if g.n <= 16:
            call(f"{name} verify --exhaustive", "verify", *graph, str(imputation), "--exhaustive")
        call(f"{name} cliques --json", "cliques", *graph, "--json")
    for spec, seed in PERFECT_SPECS:
        generated = ("--generate", spec, "--seed", str(seed))
        call(f"{spec}/{seed} generate", "generate", *generated)
        call(f"{spec}/{seed} generate --json", "generate", *generated, "--json")
    assert digest.hexdigest() == GOLDEN_SHA256
