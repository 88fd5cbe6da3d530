"""caplab: numerical laboratory for capillary-surface stability in planar domains.

Closed-form families of capillary surfaces, discrete differential operators,
verification of the integral identities behind the rigidity proofs, the
volume-constrained index-form spectrum, and the wedge angle-window criterion.
"""

from . import discops, errors, families, identities, meshkit, reports, stability, wedge
from .discops import GeometryFields, OperatorSet, assemble_operators, estimate_fields
from .families import (
    Cap,
    ClosedSphere,
    Cylinder,
    FlatDisk,
    MongePatch,
    cap_closed_forms,
    generate_mesh,
)
from .meshkit import Hyperplane, LabeledTriMesh, WallSet, load, refine, save, validate
from .stability import (
    IndexFormSystem,
    StabilityVerdict,
    assemble_index_form,
    build_test_function,
    min_constrained_eigenpair,
    stability_verdict,
)
from .wedge import WedgeSolution, classify, delta_max, solve_a

__version__ = "0.1.0"
