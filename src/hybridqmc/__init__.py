"""Hybrid quasi-Monte Carlo point sets over GF(p)[X].

Construction of anchored hybrid point sets (n/p^m, Halton-type
coordinates, polynomial-lattice coordinates), exact star-discrepancy
evaluation, rigorous per-level bound certificates, and constructive
generator search.
"""

from .gfpoly import (
    NEG_INF,
    BasePRational,
    ParseError,
    Poly,
    PrimeModulus,
    ResidueClass,
    irreducible_poly,
    poly_egcd,
    poly_format,
    poly_from_int,
    poly_gcd,
    poly_is_irreducible,
    poly_parse,
    poly_pow_mod,
    poly_to_int,
    valuation,
)
from .seqgen import (
    HaltonConfig,
    SigmaBijection,
    box_to_residue_classes,
    halton_point,
    hybrid_point,
    hybrid_point_set,
    identity_sigma,
    radical_inverse_int,
    radical_inverse_poly,
    residue_classes_measure,
)
from .plattice import (
    GeneratingMatrix,
    LatticeConfig,
    SubLatticeSpec,
    build_generating_matrix,
    korobov_qvec,
    plattice_point_laurent,
    plattice_point_matrix,
    sublattice_affine,
    sublattice_enumerate,
    sublattice_indices,
)
from .walsh import (
    CharacterAccumulator,
    character_sum,
    count_low_valuation,
    dual_test_matrix,
    dual_test_valuation,
    walsh_discrepancy_bound,
    walsh_exponent,
    walsh_exponent_vec,
    walsh_weight,
    walsh_weight_total,
    walsh_weight_vec,
)
from .discrepancy import (
    BudgetExceededError,
    Certificate,
    PointSetD,
    counting_function,
    discrepancy_certificate,
    load_point_set,
    prefix_reduction_bound,
    save_point_set,
    star_discrepancy_1d,
    star_discrepancy_exact,
    superposition_bound,
)
from .search import (
    DualCounts,
    MeritReport,
    SearchResult,
    anchor_pair_set,
    average_bound_check,
    dual_solution_counts,
    negative_control_report,
    nonzero_polys,
    search_exhaustive,
    search_korobov,
)
from .suites import SUITES, SuiteResult, run_suite

__version__ = "0.1.0"
