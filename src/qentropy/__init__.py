"""Numerical toolkit for entropy-preserving quantum operations.

Decides whether a bi-stochastic channel preserves the von Neumann entropy of
a state, certifies why (fixed-point and block-structure characterizations),
constructs preserving pairs from block specifications, and carries the
classical (Shannon / doubly-stochastic) counterpart of the same equivalence.
"""

from .channels import (
    ChannelClass,
    KrausChannel,
    adjoint,
    apply_channel,
    channel_distance,
    classify,
    compose,
    kraus_channel,
    petz_recovery,
)
from .choi import (
    ChoiMatrix,
    channel_from_choi,
    choi_from_matrix,
    choi_matrix,
    map_entropy,
)
from .classical import (
    BridgeReport,
    ProbabilityVector,
    StochasticMatrix,
    bridge_check,
    channel_from_bistochastic,
    corollary_check,
    kraus_matrix,
    probability_vector,
    shannon_entropy,
    stochastic_matrix,
)
from .entropy_analysis import (
    Block,
    BlockSpec,
    BlockStructure,
    BlockVerification,
    FixedPointBasis,
    MonotonicityReport,
    block_form_residual,
    check_petz_equality,
    decompose_fixed_point_algebra,
    entropy_monotonicity_check,
    entropy_preservation_report,
    fixed_point_space,
    map_entropy_preservation_report,
    parse_block_spec,
    synthesize_pair,
    verify_block_structure,
)
from .errors import (
    AmbiguousGroupingError,
    DecompositionError,
    DimensionMismatchError,
    InvalidRankError,
    InvalidSpecError,
    NotAnAlgebraError,
    NotBistochasticError,
    NotDiagonalError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotStochasticError,
    PreconditionError,
    QentropyError,
    StructureMismatchError,
    SupportViolationError,
    TraceNotOneError,
    ValidationError,
)
from .generators import (
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_probability_vector,
    random_stochastic_channel,
    random_unitary,
)
from .states import (
    DensityMatrix,
    EquivalenceReport,
    Spectrum,
    relative_entropy,
    spectral_decomposition,
    state_spectrum,
    validate_state,
    von_neumann_entropy,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

__version__ = "0.1.0"
