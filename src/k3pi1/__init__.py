"""Exact-arithmetic finiteness trichotomy for fundamental groups of
smooth loci of normal K3 surfaces.

The package decides, from combinatorial input (ADE singularity
configurations, or Kodaira fiber configurations of an elliptic
fibration decorated with removed component sets), whether the
fundamental group of the smooth locus is finite, whether the surface
is covered by a torus ramified in finitely many points, or whether the
configuration would force the impossible hyperbolic case.  All
arithmetic is exact: Python integers and fractions throughout.
"""

from .dynkin import AdeConfig
from .kodaira import Decoration, KodairaType
from .lattice import IntegerGram
from .pi1 import MonodromyRep
from .surface import NormalK3Input, analyze, orbifold_euler_number

__version__ = "0.1.0"
