"""Exact-arithmetic Hilbert-Samuel sequences of graded Artinian quotients
K[x, y]/I, their finite-type classification, and explicit normal-form
catalogs with isomorphism evidence."""

from .errors import (
    DomainError,
    EmptyComponent,
    InhomogeneousInput,
    InvalidColength,
    InvalidParameters,
    InvalidSequence,
    NoCatalog,
    NotArtinian,
    PairingUndefined,
    ParseError,
    SamplingFailed,
    SingularChange,
)
from .rational_linalg import RowBasis, contains, rref
from .forms import (
    BinaryForm,
    LinearChange,
    ZERO,
    binary_form,
    format_form,
    gcd_forms,
    monic,
    multiplicity_partition,
    multiply,
    parse_form,
    rational_root_points,
    substitute,
)
from .ideals import (
    GradedIdeal,
    common_factor,
    component,
    equal_ideals,
    format_ideal,
    hilbert_samuel,
    parse_ideal_text,
    power_pairing,
    substitute_ideal,
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
    sample_ideal,
    verify_catalog,
)

__version__ = "0.1.0"
