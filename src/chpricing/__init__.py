"""Convex hull pricing for electricity markets with startup-cost fleets.

The library prices a fleet of generator types with startup costs and
minimum output levels against elastic hourly demand, compares hull
prices with marginal-cost and dispatchable benchmarks, and settles the
resulting market outcomes.
"""
import os
import sys

# numpy's bundled OpenBLAS starts one thread per core when numpy loads;
# chpricing's only BLAS work is one small least-squares fit, so a pool
# buys nothing, and its spinning thread can cost start-up time.  Pin it to
# one thread while numpy loads, then restore the environment.  Left alone
# when numpy is already loaded or the caller set a thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# each submodule's __all__ is its public API; the package re-exports them
from .fleet import *
from .hull import *
from .market import *
from .pricing import *
from .ucp import *
from .welfare import *
from .cli import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += fleet.__all__
__all__ += hull.__all__
__all__ += market.__all__
__all__ += pricing.__all__
__all__ += ucp.__all__
__all__ += welfare.__all__
__all__ += cli.__all__
