"""Numerical toolkit for entropy-preserving quantum operations.

Decides whether a bi-stochastic channel preserves the von Neumann entropy of
a state, certifies why (fixed-point and block-structure characterizations),
constructs preserving pairs from block specifications, and carries the
classical (Shannon / doubly-stochastic) counterpart of the same equivalence.
"""

from .channels import *
from .choi import *
from .classical import *
from .entropy_analysis import *
from .errors import *
from .generators import *
from .states import *
from .tolerances import *

__version__ = "0.1.0"
