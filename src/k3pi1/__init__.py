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

from .dynkin import (
    AdeConfig,
    DuValType,
    NotAdeError,
    local_euler_contribution,
    recognize_ade,
)
from .kodaira import (
    Decoration,
    DecorationError,
    EulerSumMismatch,
    FullSupportRemoved,
    KodairaType,
    decoration_outcomes,
    fiber_data,
    validate_decoration,
    validate_k3_fibration,
)
from .lattice import (
    IntegerGram,
    MeyerReport,
    SnfResult,
    isotropic_search,
    k3_gram,
    meyer_gate,
    signature,
    smith_normal_form,
)
from .orbifold import (
    OrbifoldClass,
    OrbifoldSignature,
    classify,
    orbifold_euler_characteristic,
)
from .pi1 import (
    AbelianGroup,
    MonodromyRep,
    coinvariant_quotient,
    validate_representation,
)
from .surface import (
    NormalK3Input,
    Report,
    Verdict,
    analyze,
    orbifold_euler_number,
    trichotomy_sweep,
)

__version__ = "0.1.0"
