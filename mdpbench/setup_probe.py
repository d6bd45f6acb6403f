"""Set-up cost of one fresh interpreter, run as a child of run.py.

    python3 mdpbench/setup_probe.py setup WORKLOAD SEED
        imports mdpvol, builds the workload's model and configuration, and
        prints the wall-clock time (time.time()) at which it was ready;
    python3 mdpbench/setup_probe.py import MODULE
        prints the seconds one import of MODULE took.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    if argv[0] == "setup":
        import inputs

        inputs.build(argv[1], int(argv[2]))
        print(repr(time.time()))
    elif argv[0] == "import":
        import importlib

        start = time.perf_counter()
        importlib.import_module(argv[1])
        print(repr(time.perf_counter() - start))
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
