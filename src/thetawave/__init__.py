"""Two-phase periodic solutions of the focusing nonlinear Schroedinger
equation i p_t + p_xx + 2|p|**2 p = 0, built from the elliptic-integral data
of a genus-2 spectral curve, together with independent verification tools.

The package republishes every name in its modules' ``__all__``.
"""

from . import curve, elliptic, limits, solution, theta, verify
from .curve import *
from .elliptic import *
from .limits import *
from .solution import *
from .theta import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *elliptic.__all__, *theta.__all__, *curve.__all__, *solution.__all__,
    *limits.__all__, *verify.__all__, "__version__",
]
