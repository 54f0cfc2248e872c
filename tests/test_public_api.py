"""The package's public surface: each name declared once, in its defining module's ``__all__``."""

import importlib
import os
import subprocess
import sys

import qentropy

MODULES = (
    "channels", "choi", "classical", "entropy_analysis",
    "errors", "generators", "states", "tolerances",
)

# sorted public attributes of the package: 74 API names and the 8 modules above
PUBLIC = [
    "AmbiguousGroupingError", "Block", "BlockSpec", "BlockStructure", "BlockVerification",
    "BridgeReport", "ChannelClass", "ChoiMatrix", "DEFAULT_TOL", "DecompositionError",
    "DensityMatrix", "DimensionMismatchError", "EquivalenceReport", "FixedPointBasis",
    "InvalidRankError", "InvalidSpecError", "KrausChannel", "MonotonicityReport",
    "NotAnAlgebraError", "NotBistochasticError", "NotDiagonalError", "NotHermitianError",
    "NotPositiveError", "NotSquareError", "NotStochasticError", "PreconditionError",
    "ProbabilityVector", "QentropyError", "Spectrum", "StochasticMatrix",
    "StructureMismatchError", "SupportViolationError", "ToleranceConfig", "TraceNotOneError",
    "ValidationError", "adjoint", "apply_channel", "block_form_residual", "bridge_check",
    "channel_distance", "channel_from_bistochastic", "channel_from_choi", "channels",
    "check_petz_equality", "choi", "choi_from_matrix", "choi_matrix", "classical", "classify",
    "compose", "corollary_check", "decompose_fixed_point_algebra", "entropy_analysis",
    "entropy_monotonicity_check", "entropy_preservation_report", "errors", "fixed_point_space",
    "generators", "kraus_channel", "kraus_matrix", "map_entropy",
    "map_entropy_preservation_report", "parse_block_spec", "petz_recovery", "probability_vector",
    "random_bistochastic_channel", "random_bistochastic_matrix", "random_density",
    "random_probability_vector", "random_stochastic_channel", "random_unitary",
    "relative_entropy", "shannon_entropy", "spectral_decomposition", "state_spectrum", "states",
    "stochastic_matrix", "synthesize_pair", "tolerances", "validate_state",
    "verify_block_structure", "von_neumann_entropy",
]


def _declared(module) -> list[str]:
    """The module's ``__all__``; ``errors`` has none and exports every class it defines."""
    if module.__name__ == "qentropy.errors":
        return [n for n in vars(module) if not n.startswith("_")]
    return list(module.__all__)


def test_public_names_are_pinned():
    # a fresh interpreter: importing qentropy.cli elsewhere in the suite adds it to the package
    code = "import qentropy; print(*sorted(n for n in dir(qentropy) if not n.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == PUBLIC
    assert len(PUBLIC) == 82


def test_each_name_is_declared_once_by_the_module_defining_it():
    seen = {}
    for name in MODULES:
        module = importlib.import_module(f"qentropy.{name}")
        assert getattr(qentropy, name) is module
        for api in _declared(module):
            assert api not in seen, f"{api} declared by {seen[api]} and {name}"
            seen[api] = name
            obj = getattr(module, api)
            assert getattr(qentropy, api) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, api
    assert sorted([*seen, *MODULES]) == PUBLIC
