#!/usr/bin/env python3
"""Read numpy's ziggurat tables for the normal sampler out of its static library.

Usage (from anywhere):

    python3 scripts/ziggurat_tables.py           # print the packed table literal
    python3 scripts/ziggurat_tables.py --check   # exit 1 unless _noise.py holds it

numpy ships the C sources of its samplers compiled into
``numpy/random/lib/libnpyrandom.a``.  Its member
``src_distributions_distributions.c.o`` holds ``fi_double`` and
``wi_double`` (256 doubles each) and ``ki_double`` (256 uint64 words) in
``.rodata``.  The member is extracted with ``ar p``, and the symbols and
the section's file offset are read with ``readelf``.
``src/chpricing/_noise.py`` embeds the three tables' bytes, in that
order, as the one printed ``bytes`` literal ``_TABLES``, and decodes
``FI_DOUBLE``, ``WI_DOUBLE`` and ``KI_DOUBLE`` from it with ``struct``.
``--check`` compares both the literal and the decoded tables.  Needs an
installed numpy and binutils; nothing is downloaded.
"""
from __future__ import annotations

import argparse
import importlib.util
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

MEMBER = "src_distributions_distributions.c.o"
TABLES = {"FI_DOUBLE": ("fi_double", "d"), "WI_DOUBLE": ("wi_double", "d"),
          "KI_DOUBLE": ("ki_double", "Q")}
SRC = Path(__file__).resolve().parent.parent / "src"

# readelf -S -W: "  [ 5] .rodata  PROGBITS  <address> <offset> <size> ..."
SECTION = re.compile(r"^\s*\[\s*(\d+)\]\s+\S*\s+\S+\s+[0-9a-f]{16}\s+([0-9a-f]+)\s")
# readelf -s -W: "  47: <value> <size> OBJECT LOCAL DEFAULT <ndx> <name>"
SYMBOL = re.compile(r"^\s*\d+:\s+([0-9a-f]+)\s+(\d+)\s+\S+\s+\S+\s+\S+\s+(\d+)\s+(\S+)$")


def library() -> Path:
    """numpy's libnpyrandom.a, located without importing numpy."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        raise SystemExit("numpy is not installed")
    return Path(spec.submodule_search_locations[0]) / "random" / "lib" / "libnpyrandom.a"


def readelf(option: str, path: str) -> list[str]:
    return subprocess.run(["readelf", option, "-W", path], capture_output=True,
                          text=True, check=True).stdout.splitlines()


def read_tables(lib: Path) -> dict[str, bytes]:
    """The three tables' bytes, by their _noise.py names, as read from lib."""
    blob = subprocess.run(["ar", "p", str(lib), MEMBER], capture_output=True,
                          check=True).stdout
    with tempfile.NamedTemporaryFile(suffix=".o") as obj:
        obj.write(blob)
        obj.flush()
        offsets = {int(m[1]): int(m[2], 16)
                   for m in map(SECTION.match, readelf("-S", obj.name)) if m}
        symbols = {m[4]: (int(m[1], 16), int(m[2]), int(m[3]))
                   for m in map(SYMBOL.match, readelf("-s", obj.name)) if m}
    tables = {}
    for name, (symbol, _code) in TABLES.items():
        if symbol not in symbols:
            raise SystemExit(f"{symbol} not found in {lib}({MEMBER})")
        value, size, section = symbols[symbol]
        start = offsets[section] + value
        tables[name] = blob[start:start + size]
    return tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with src/chpricing/_noise.py instead of printing")
    args = parser.parse_args(argv)
    lib = library()
    tables = read_tables(lib)
    packed = b"".join(tables.values())
    if not args.check:
        print(f"_TABLES = {packed!r}")
        return 0
    sys.path.insert(0, str(SRC))
    from chpricing import _noise
    stale = [] if _noise._TABLES == packed else ["_TABLES"]
    for name, (_symbol, code) in TABLES.items():
        raw = tables[name]
        if getattr(_noise, name) != struct.unpack(f"<{len(raw) // 8}{code}", raw):
            stale.append(name)
    for name in stale:
        print(f"{name} in _noise.py differs from the tables in {lib}", file=sys.stderr)
    if not stale:
        print(f"_noise.py tables match {lib}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
