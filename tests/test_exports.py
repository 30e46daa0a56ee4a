"""Every public name resolves, every name a demo imports from qtorus exists,
and neither importing the package nor running the oracle loads numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qtorus

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_all_names_resolve():
    missing = [name for name in qtorus.__all__ if not hasattr(qtorus, name)]
    assert missing == []


def demo_imports():
    """(demo file, name) for each ``from qtorus import name`` in the demos."""
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "qtorus":
                for alias in node.names:
                    yield path.name, alias.name


def test_demo_imports_exist():
    found = list(demo_imports())
    assert found
    assert [(demo, name) for demo, name in found if not hasattr(qtorus, name)] == []


def test_import_leaves_numpy_unloaded():
    # the package has no runtime dependency: the brute-force oracle builds its
    # table from Python ints, so neither an oracle call nor a campaign loads numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, qtorus, qtorus.cli\n"
        "from qtorus import CampaignConfig, brute_force_dimension, gen_random, run_campaign\n"
        "brute_force_dimension(gen_random(6, 1, seed=1), 1)\n"
        "run_campaign(CampaignConfig(trials=5, seed=3))\n"
        "sys.exit('numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
