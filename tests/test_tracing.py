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
