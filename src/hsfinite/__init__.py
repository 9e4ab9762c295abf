"""Exact-arithmetic Hilbert-Samuel sequences of graded Artinian quotients
K[x, y]/I, their finite-type classification, and explicit normal-form
catalogs with isomorphism evidence."""

from .errors import (
    DomainError,
    EmptyComponent,
    InhomogeneousInput,
    InvalidColength,
    InvalidParameters,
    InvalidPencil,
    InvalidSequence,
    NoCatalog,
    NotArtinian,
    PairingUndefined,
    ParseError,
    SamplingFailed,
    SingularChange,
)
from .rational_linalg import RowBasis, contains, rref, spaces_equal
from .forms import (
    BinaryForm,
    LinearChange,
    ZERO,
    binary_form,
    divides,
    form_divide,
    format_form,
    gcd_forms,
    monic,
    monomial,
    multiplicity_partition,
    multiply,
    parse_form,
    rational_root_points,
    scale,
    substitute,
)
from .ideals import (
    GradedComponent,
    GradedIdeal,
    common_factor,
    component,
    equal_ideals,
    form_to_vector,
    format_ideal,
    hilbert_samuel,
    monomials,
    parse_ideal_text,
    power_pairing,
    substitute_ideal,
    vector_to_form,
    verify_factor_structure,
)
from .sequences import (
    HSSequence,
    TypeLabel,
    classify,
    enumerate_sequences,
    format_sequence,
    gt_dimension,
    jump_indices,
    match_pattern,
    parse_sequence_text,
    row_dimension,
    sequence_for_label,
    sequence_for_row,
    validate,
)
from .catalog import (
    CatalogEntry,
    CatalogReport,
    IsoVerdict,
    StructuralInvariant,
    are_isomorphic,
    format_change,
    normal_forms,
    pencil_discriminant,
    sample_ideal,
    structural_invariant,
    verify_catalog,
)

__version__ = "0.1.0"
