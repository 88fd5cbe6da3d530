"""caplab: numerical laboratory for capillary-surface stability in planar domains.

Closed-form families of capillary surfaces, discrete differential operators,
verification of the integral identities behind the rigidity proofs, the
volume-constrained index-form spectrum, and the wedge angle-window criterion.
"""

from . import discops, errors, families, identities, meshkit, reports, stability, wedge

__version__ = "0.1.0"
