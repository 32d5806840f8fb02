"""Exact arithmetic for alternating floor-function sums.

Evaluation (definitional and closed form), the shift difference and its
case table, exhaustive extremal search, known and conjectured bounds,
and the exact rational sequence behind the conjectured extremal values.
"""

__version__ = "0.1.0"

from . import cache, conjecture, core, exceptions, search, symmetry
from .cache import *
from .conjecture import *
from .core import *
from .exceptions import *
from .search import *
from .symmetry import *

__all__ = [
    "__version__",
    *core.__all__,
    *symmetry.__all__,
    *search.__all__,
    *conjecture.__all__,
    *cache.__all__,
    *exceptions.__all__,
]
