"""Puts the benchmark's modules and the program under test (``src/``)
on the path for ``python -m pytest bench/``."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
