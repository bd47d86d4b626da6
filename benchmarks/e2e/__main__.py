"""``python -m benchmarks.e2e`` (run from the repo root with ``PYTHONPATH=src``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
