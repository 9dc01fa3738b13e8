"""Implication between quantifier prefixes over one arbitrary matrix.

Linear-time decision with reject witnesses, a brute-force BFS oracle, and a
census of the equivalence-class implication graph at small n.  The public
names are each module's ``__all__``, republished here.
"""

from .prefix import *
from .decide import *
from .oracle import *
from .census import *
from .errors import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += prefix.__all__
__all__ += decide.__all__
__all__ += oracle.__all__
__all__ += census.__all__
__all__ += errors.__all__
