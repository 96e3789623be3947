"""Finite-window workbench for difference sets, densities, and covers.

Sets live on explicit integer windows as big-integer bitmasks; every
density, shift cover, alignment, and extraction result carries a
certificate whose inequalities are checked in exact rational arithmetic.

The package namespace is exactly the union of the library modules'
``__all__`` lists; the CLI, the sweep map and the PRNG stream stay in
their modules (``diffsets.cli``, ``diffsets.par``, ``diffsets.prng``).
"""

__version__ = "0.1.0"

from .bohr import *
from .cover import *
from .delta import *
from .density import *
from .embed import *
from .errors import *
from .extract import *
from .gen import *
from .intset import *
from .report import *
