"""Kirkwood-Dirac classicality toolkit for DFT base pairs.

Quasiprobability tables and their marginals, enumeration of all classical
pure states, the entry-orbit structure and dimension of the real-table
operator space, constructive convex decompositions, hull-membership
certification, and seeded randomized probes of the hull conjecture.
"""

from .dft import BasisPair, basis_projector, dft_pair
from .engine import (
    ClassicalityVerdict,
    KDTable,
    StackVerdict,
    classicality,
    is_kd_real,
    kd_table,
    pure_classicality_criterion,
    support_counts,
)
from .exceptions import (
    BadDimension,
    BadFactorization,
    ConditionsFailed,
    IndexOutOfRange,
    KDError,
    MixedDimensions,
    NotClassical,
    NotHermitian,
    NotInSpan,
    NotNormalized,
    NotUnitTrace,
    SolverDidNotConverge,
    TooLarge,
    ValidationError,
    WrongFamilyKind,
    ZeroDirection,
)
from .families import (
    Factorization,
    FamilyIdentityReport,
    PureFamily,
    all_projectors,
    build_family,
    factorizations,
    family_identity_sums,
    psi_state,
    psi_state_b_form,
    pure_kd_set,
)
from .geometry import (
    DecompositionCertificate,
    MembershipVerdict,
    decompose_p2,
    decompose_pq_three,
    hull_membership,
    quadruple_conditions_p2,
    quadruple_violation,
    span_project,
)
from .harness import (
    ProbeReport,
    SampleConfig,
    perturbation_state,
    probe_conjecture,
    sample_hull_point,
    sample_kd_boundary,
)
from .kdreal import (
    EntryCategory,
    EntryPartition,
    b_side_condition,
    entry_partition,
    kd_real_basis,
    kd_real_condition,
    kd_real_dimension,
    render_partition,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    flatten_hermitian,
    is_density_matrix,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    real_span_rank,
)

__version__ = "0.1.0"
