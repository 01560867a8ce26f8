"""Finite subset spaces of spheres: simplicial-set models and exact homology.

The package builds truncated simplicial-set models of the spaces of at
most n points on a based complex (spheres, tori, user-supplied spaces),
computes their integral and rational homology with sparse exact integer
linear algebra, and cross-checks the results against symmetric-group
cohomology, configuration-space duality and the spectral sequence of
the points-count filtration.
"""

from .simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    load_space,
    nondegenerate,
    point_model,
    product,
    quotient,
    save_space,
    space_hash,
    sphere_model,
    torus_model,
    validate,
)
from .snf import SparseIntMatrix, invariant_factors, kernel_basis, rank, smith_normal_form
from .subsetspace import (
    BudgetError,
    FiltrationTower,
    exp,
    exp_based,
    keyed_complex,
    tower,
)
from .homology import (
    ChainComplex,
    HomologyBasis,
    HomologyGroup,
    HomologyMapDescription,
    connecting_free_index,
    connecting_map,
    euler_characteristic,
    homology,
    homology_basis,
    induced_map,
    les_check,
    normalized_complex,
    relative_complex,
    space_homology,
)
from .groupcoh import CoefficientAction, Permutation, bar_cochain_complex, group_cohomology
from .spectral import FilteredComplex, Page, advance, e1_page, einfty_totals, filtered_complex
from .claims import VerificationReport, run_claim

__version__ = "0.1.0"

__all__ = [
    "BasedSimplicialSet", "SimplexRef", "SimplicialMap", "SimplicialSet",
    "load_space", "nondegenerate", "point_model", "product", "quotient",
    "save_space", "space_hash", "sphere_model", "torus_model", "validate",
    "SparseIntMatrix", "invariant_factors", "kernel_basis", "rank",
    "smith_normal_form",
    "BudgetError", "FiltrationTower", "exp", "exp_based", "keyed_complex",
    "tower",
    "ChainComplex", "HomologyBasis", "HomologyGroup", "HomologyMapDescription",
    "connecting_free_index", "connecting_map", "euler_characteristic",
    "homology", "homology_basis", "induced_map", "les_check",
    "normalized_complex", "relative_complex", "space_homology",
    "CoefficientAction", "Permutation", "bar_cochain_complex",
    "group_cohomology",
    "FilteredComplex", "Page", "advance", "e1_page", "einfty_totals",
    "filtered_complex",
    "VerificationReport", "run_claim",
    "__version__",
]
