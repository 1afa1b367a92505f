"""Exact polynomial and harmonic-function spaces on torsion-free nilpotent groups."""

from .errors import (
    InternalInconsistency,
    InvariantFailure,
    NilharmonicError,
    ValidationError,
)
from .groups import (
    GroupElement,
    GroupSchema,
    ball,
    basis_element,
    check_coordinate_order,
    decomposition_order,
    heisenberg,
    identity,
    inv,
    lattice,
    mul,
    standard_generators,
    unitriangular,
)
from .laplacian import (
    GrowthRow,
    HarmonicBasisReport,
    Measure,
    action_is_trivial,
    apply_laplacian,
    dim_hk,
    generator_walk,
    growth_exponent_table,
    harmonic_basis,
    laplacian_matrix,
    lazy_generator_walk,
    solve_preimage,
    uniform_measure,
)
from .linalg import Inconsistent, RationalMatrix
from .polynomials import (
    Polynomial,
    dim_pk,
    left_derivative,
    pk_basis,
    restrict_to_sublattice,
    right_derivative,
    translate_left,
    translate_right,
)
from .verify import (
    check_derivative_vanishing,
    check_harmonic_batch,
    check_harmonic_on_ball,
    check_left_right_agreement,
    growth_profile,
)

__version__ = "0.1.0"
