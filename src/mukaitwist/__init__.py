"""Exact-arithmetic toolkit for the twisted Mukai lattice of an Enriques cover.

Everything is computed over Z or Q with arbitrary precision; there is no
floating point anywhere. No value changes after construction: every value
type, from IntMatrix, Lattice and MukaiVector to the result records
TrialConfig, VerificationReport and E4Page and the phi generator pool, is a
record that refuses assignment. Only a SplitMix64 generator changes state.
All operations are pure functions, so concurrent use needs no coordination.
"""
from .intmat import IntMatrix, determinant, hermite_normal_form, kernel_basis, smith_normal_form, solve
from .ktheory import CohomologySpec, E4Page, FGAbelianGroup, SpecFormatError, e4_page, k1_surface
from .lattices import (
    Isometry,
    Lattice,
    cover_involution_h2,
    direct_sum,
    fixed_sublattice,
    is_isometry,
    reflection,
    short_vectors,
    signature,
    standard_lattice,
)
from .mukai import (
    BField,
    MukaiVector,
    canonical_b_field,
    cover_involution,
    exp_b,
    full_lattice,
    mukai_pairing,
    point_class,
    twisted_involution,
    twisted_involution_matrix,
)
from .verify import (
    TrialConfig,
    VerificationReport,
    run_claims_suite,
    sample_equivariant_isometry,
    verify_characteristic_congruence,
    verify_invariant_lattice,
    verify_phi_integrality,
    verify_square_congruence,
)

__version__ = "0.1.0"

# The one integer kernel backend, named in run provenance.
KERNEL_BACKEND = "pure"

__all__ = [
    "BField",
    "CohomologySpec",
    "E4Page",
    "FGAbelianGroup",
    "IntMatrix",
    "Isometry",
    "KERNEL_BACKEND",
    "Lattice",
    "MukaiVector",
    "SpecFormatError",
    "TrialConfig",
    "VerificationReport",
    "canonical_b_field",
    "cover_involution",
    "cover_involution_h2",
    "determinant",
    "direct_sum",
    "e4_page",
    "exp_b",
    "fixed_sublattice",
    "full_lattice",
    "hermite_normal_form",
    "is_isometry",
    "k1_surface",
    "kernel_basis",
    "mukai_pairing",
    "point_class",
    "reflection",
    "run_claims_suite",
    "sample_equivariant_isometry",
    "short_vectors",
    "signature",
    "smith_normal_form",
    "solve",
    "standard_lattice",
    "twisted_involution",
    "twisted_involution_matrix",
    "verify_characteristic_congruence",
    "verify_invariant_lattice",
    "verify_phi_integrality",
    "verify_square_congruence",
]
