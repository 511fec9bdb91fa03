"""Hybrid quasi-Monte Carlo point sets over GF(p)[X].

Construction of anchored hybrid point sets (n/p^m, Halton-type
coordinates, polynomial-lattice coordinates), exact star-discrepancy
evaluation, rigorous per-level bound certificates, and constructive
generator search.  The root holds the names the benchmark reads; every
other name lives in its module.
"""

from .gfpoly import (
    Poly,
    ResidueClass,
    poly_from_int,
    poly_is_irreducible,
    poly_parse,
    poly_to_int,
)
from .seqgen import HaltonConfig, box_to_residue_classes, hybrid_point_set
from .plattice import LatticeConfig, SubLatticeSpec
from .walsh import walsh_discrepancy_bound
from .discrepancy import (
    PointSetD,
    discrepancy_certificate,
    load_point_set,
    prefix_reduction_bound,
    star_discrepancy_exact,
)
from .search import nonzero_polys, search_exhaustive, search_korobov
from .suites import run_suite

__version__ = "0.1.0"
