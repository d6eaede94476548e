#!/usr/bin/env python3
"""Print the size of the chpricing package: lines, public names, compile time.

Usage (from anywhere):

    python3 scripts/size_report.py [TREE]

TREE is a checkout of this repository (default: the one holding this
script).  Three figures are printed for ``TREE/src/chpricing``:

* the lines of each module, and their total;
* the number of names in ``chpricing.__all__``, read by importing the
  package from ``TREE/src`` in a fresh interpreter;
* the best of 5 ``compile()`` times of each module's source, and their
  sum: what a command pays per module where bytecode cannot be cached.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5


def best_compile_s(source: str, filename: str) -> float:
    """The least of REPEATS wall times of compile() on the source."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        compile(source, filename, "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    return min(times)


def public_names(src: Path) -> int:
    """len(chpricing.__all__), imported from src in a fresh interpreter."""
    code = "import chpricing; print(len(chpricing.__all__))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


def main(argv: list[str]) -> int:
    tree = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    package = tree / "src" / "chpricing"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no modules under {package}", file=sys.stderr)
        return 1
    print(f"{'module':<16}{'lines':>8}{'compile_ms':>12}")
    total_lines = 0
    total_s = 0.0
    for path in modules:
        source = path.read_text()
        lines = len(source.splitlines())
        seconds = best_compile_s(source, str(path))
        total_lines += lines
        total_s += seconds
        print(f"{path.name:<16}{lines:>8}{seconds * 1e3:>12.2f}")
    print(f"{'total':<16}{total_lines:>8}{total_s * 1e3:>12.2f}")
    print(f"chpricing.__all__: {public_names(tree / 'src')} names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
