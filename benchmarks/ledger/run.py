"""``python3 benchmarks/ledger/run.py ...``: the ledger by file path.

The benchmark driver names a program inside the benchmark's own
directory, so this loads the package from the directory it sits in —
the same code ``python -m benchmarks.ledger`` runs — without relying on
how ``benchmarks`` resolves on ``sys.path``.
"""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_package():
    spec = importlib.util.spec_from_file_location(
        "frieda_ledger", HERE / "__init__.py", submodule_search_locations=[str(HERE)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules["frieda_ledger"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("frieda_ledger.cli")


if __name__ == "__main__":
    sys.exit(load_package().main())
