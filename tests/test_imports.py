"""Imports: start-up cost and dead names.

Importing mdpvol loads no scipy module: scipy is imported only inside the
functions that call it.  Each start-up check runs in a fresh interpreter and
compares module names, not timings.

The dead-name checks read the source with ``ast``: no module imports a name
it never uses, and every public name of the package has a consumer in the
package or a stated reason to stay.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "mdpvol")

# Public names with no consumer in the package, and why each stays.
UNCONSUMED_PUBLIC = {
    "small_time_rate_1d": "oracle of the two-component minimum in the rate tests",
    "exact_gaussian_call": "exact price the call estimator is tested against",
    "make_lsv": "the local-stochastic-volatility preset of the model catalog",
    "qbar_integrated": "the Qbar constant of integrated functionals, "
                       "kept for the realised-variance family fact",
}

_REPORT = """
import sys
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _scipy_modules_after(code: str) -> str:
    result = _run("-c", code + _REPORT)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_import_mdpvol_loads_no_scipy():
    assert _scipy_modules_after("import mdpvol") == "[]"


def test_import_cli_loads_no_scipy():
    assert _scipy_modules_after("import mdpvol.cli") == "[]"


def test_smalltime_tail_estimate_loads_no_scipy():
    code = (
        "import mdpvol\n"
        "model = mdpvol.make_heston(2.0, 0.1, 0.5, -0.5, 0.0, 0.1)\n"
        "config = mdpvol.SimConfig(n_paths=1000, n_steps=10, t_end=0.01, seed=1)\n"
        "mdpvol.estimate_smalltime_tail(model, 0.01, 0.2, 0.25, config)\n")
    assert _scipy_modules_after(code) == "[]"


def test_python_dash_m_runs_the_cli(tmp_path):
    result = _run("-m", "mdpvol", "rate", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "rate.csv").exists()


def _modules() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read(), filename=name)
    return trees


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; ``__future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(node: ast.AST) -> set[str]:
    """Names read under ``node``, bare or as an attribute (``asy.quote_catalog``)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_imports_an_unused_name():
    unused = [f"{module}:{line} {name}"
              for module, tree in _modules().items() if module != "__init__.py"
              for name, line in _imported(tree).items()
              if name not in _referenced(tree)]
    assert unused == []


def test_every_public_name_has_a_consumer_or_a_reason():
    trees = _modules()
    public = _imported(trees.pop("__init__.py"))
    consumed = set()
    for tree in trees.values():
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            names = _referenced(statement)
            # a function or class calling itself is not a consumer
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)
            consumed |= names
    unconsumed = {name for name in public if name not in consumed}
    assert sorted(unconsumed - set(UNCONSUMED_PUBLIC)) == []
    # an entry whose name gained a consumer or left the package is stale
    assert sorted(set(UNCONSUMED_PUBLIC) - unconsumed) == []
