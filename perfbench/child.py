"""Run one chpricing CLI command in this fresh interpreter and record its timing.

Usage: python3 child.py RECORD_JSON TRACE_NPZ|- -- CLI_ARGS...

The parent notes the monotonic clock just before it starts this process.
Here the clock is read once chpricing is imported and the command's fleet
is built (the end of set-up), and around ``chpricing.cli.main``.
``time.monotonic`` reads CLOCK_MONOTONIC, which is shared by all processes
on the host, so the parent can subtract its own reading.  The host speed
loop (hostspeed.py) is timed just before and just after ``main``.  With a
trace path, the public functions in ``tracing.WRAPPED`` are wrapped as
spans before set-up and the spans are written there at the end.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _build_fleet(chpricing, argv: list[str]):
    """Parse the command's fleet the way the CLI will: builtin name or file."""
    source = argv[argv.index("--fleet") + 1]
    if source in ("gribik", "scarf"):
        return chpricing.builtin_fleet(source)
    return chpricing.load_fleet(Path(source).read_text())


def main() -> int:
    record_path, trace_path = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RECORD_JSON TRACE_NPZ|- -- CLI_ARGS...")
    argv = sys.argv[4:]

    import chpricing
    import chpricing.cli
    import hostspeed

    tracer = None
    if trace_path != "-":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    _build_fleet(chpricing, argv)
    ready = time.monotonic()
    loop_before = hostspeed.loop_time()
    start = time.monotonic()
    code = chpricing.cli.main(argv)
    done = time.monotonic()
    loop_after = hostspeed.loop_time()
    if tracer is not None:
        tracer.write(trace_path)
    record = {
        "ready": ready,
        "start": start,
        "done": done,
        "loop_s": 0.5 * (loop_before + loop_after),
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
