"""Script-mode path setup for the benchmark scripts.

When a ``benchmarks/bench_*.py`` file runs as a script, ``sys.path[0]`` is
the ``benchmarks/`` directory itself — neither the repo root (for
``benchmarks.*`` and the ``tests.*`` oracles) nor ``src`` (for ``repro``) is
importable.  Each script imports this module first, guarded by
``__name__ == "__main__"``, so pytest runs (which already have the root on
``sys.path``) skip it.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
