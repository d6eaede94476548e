"""``python3 -m chpricing``: the chpricing command line (see chpricing.cli)."""
from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    raise SystemExit(main())
