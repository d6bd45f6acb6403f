"""Start-up cost: importing mdpvol loads no scipy module.

scipy is imported only inside the functions that call it.  Each check runs in
a fresh interpreter and compares module names, not timings.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
