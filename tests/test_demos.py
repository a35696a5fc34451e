"""Each narrative script under ``demos/`` runs to completion.

Several public names (``lift_dual``, ``restrict_dual``, ``money``,
``verify_core_exhaustive``, ``corpus.PROPERTIES``) are called only by the
demos, so a refactor that breaks one of them shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquecore

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(cliquecore.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
