"""Script entry point of the benchmark — the ``BENCHMARK.json`` command.

``python3 benchmarks/e2e/run.py ...`` needs no ``PYTHONPATH``: it puts
the checkout's ``src`` and root on the path itself, so that a checkout
holding nothing but the benchmark fails here, at the first import.
"""

import os
import sys

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    # The script's own directory would expose the benchmark's modules as
    # top-level names; they are imported as ``benchmarks.e2e.*`` instead.
    sys.path[:] = [entry for entry in sys.path if os.path.abspath(entry or ".") != here]
    sys.path[:0] = [os.path.join(root, "src"), root]
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
