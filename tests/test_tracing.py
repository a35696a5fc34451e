"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
by module and name from outside; these tests fail when a refactor moves or
renames one of them, or changes the LP it sizes, so that
``perfbench/run.py --trace 1`` would break or count the wrong work."""

import importlib
import importlib.util
from pathlib import Path

from cliquecore import maximal_cliques, paley3x3
from cliquecore.cli import main


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_traced_name_resolves():
    for module_name, attr in tracing.TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_solve_runs_one_lp_of_the_expected_size(capsys):
    g = paley3x3()
    n, m = g.n, len(maximal_cliques(g))
    with tracing.Tracer() as tracer:
        assert main(["solve", "--generate", "paley3x3", "--json"]) == 0
    assert tracing.leftover_wrappers() == []
    assert [span[0] for span in tracer.spans].count("lp.solve_general") == 1
    assert tracer.counts["lp.tableau_cells"] == m * (n + m + 1)


def test_check_perfect_searches_the_graph_and_its_complement(capsys):
    with tracing.Tracer() as tracer:
        assert main(["check-perfect", "--generate", "paley3x3", "--json"]) == 0
    assert tracing.leftover_wrappers() == []
    names = [span[0] for span in tracer.spans]
    assert names.count("perfection.is_perfect") == 1
    assert names.count("perfection.find_odd_hole") == 2


def test_corpus_computes_each_worth_and_clique_list_once_per_checker(capsys):
    # Two perfect instances: each worth once for the exhaustive and once
    # for the certificate checker (the optimal dual's worth comes from its
    # own LP proof); each clique list once, when the corpus is drawn.
    with tracing.Tracer() as tracer:
        assert main(["corpus", "--count", "2", "--n", "6", "--seed", "1", "--json"]) == 0
    assert tracing.leftover_wrappers() == []
    names = [span[0] for span in tracer.spans]
    assert names.count("core.game_worth") == 4
    assert names.count("cliques.maximal_cliques") == 2


def test_corpus_builds_no_induced_subgraph(capsys):
    # Scenario costs and worths are searched on the graph itself, with
    # the candidates limited to the scenario.
    with tracing.Tracer() as tracer:
        assert main(["corpus", "--count", "2", "--n", "6", "--seed", "1", "--json"]) == 0
    assert tracing.leftover_wrappers() == []
    assert "graph.induced_subgraph" not in [span[0] for span in tracer.spans]
