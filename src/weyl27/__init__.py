"""Line arrangements on a general cubic surface under the Weyl group action.

The package builds the 27 line classes and the order-51840 reflection group
permuting them, enumerates every orbit of line arrangements by lex-least
representatives, compares combinatorial types, and computes the lattice
invariants that separate arrangements sharing a type. The top level exports
the library API; everything else lives in its module.
"""

from .graphs import find_zariski_pairs
from .invariants import invariant_report
from .lines import weyl_group
from .orbits import enumerate_all, lines_of_mask, mask_from_lines

__all__ = [
    "weyl_group",
    "enumerate_all",
    "find_zariski_pairs",
    "invariant_report",
    "mask_from_lines",
    "lines_of_mask",
]

__version__ = "0.1.0"
