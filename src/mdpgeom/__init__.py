"""mdpgeom: geometric policy evaluation and advantage-based value iteration.

A single value construction covers discounted (gamma < 1) and average-reward
(gamma = 1) finite MDPs: policy values solve a shifted dense linear system
that stays invertible at gamma = 1 for unichain kernels, advantages become
inner products of per-SAP action vectors with the evaluated values, and the
advantage-based value iteration contracts the span seminorm at a verifiable
geometric rate.
"""

__version__ = "0.1.0"

from .chains import (
    ChainClassification,
    PrimitivityCertificate,
    classify_chain,
    primitivity_certificate,
    stationary_distribution,
    unichain_by_invertibility,
)
from .classic import (
    GainBias,
    OptimalPolicyResult,
    evaluate_average,
    evaluate_discounted,
    value_iteration,
)
from .convergence import (
    AssumptionDiagnostics,
    ContractionConstants,
    ConvergenceReport,
    run_vi,
    verify_contraction,
    vi_step,
)
from .errors import (
    AssumptionViolatedError,
    CriterionMismatchError,
    EnumerationTooLargeError,
    InvalidPolicyError,
    MdpError,
    ModelFormatError,
    NonFiniteRewardError,
    NotPrimitiveError,
    NotUnichainError,
    NumericalCheckError,
    SingularMatrixError,
    UnsupportedVersionError,
    ValidationFailedError,
)
from .generate import GenerationResult, GeneratorSpec, SplitMix64, generate_model
from .geometry import (
    ActionVector,
    GeometryConstants,
    PolicyVector,
    action_vector,
    advantage,
    advantages,
    bias,
    evaluate_policy,
    gain,
    mdp_constant,
    normalize_rewards,
    optimal_policy,
    to_classical_values,
)
from .model import (
    MdpModel,
    Policy,
    Sap,
    ValueVector,
    enumerate_policies,
    policy_kernel,
    span,
    validate_model,
)
from .modelfile import emit_model, parse_model, read_model, write_model

__all__ = [
    "__version__",
    "ActionVector",
    "AssumptionDiagnostics",
    "AssumptionViolatedError",
    "ChainClassification",
    "ContractionConstants",
    "ConvergenceReport",
    "CriterionMismatchError",
    "EnumerationTooLargeError",
    "GainBias",
    "GenerationResult",
    "GeneratorSpec",
    "GeometryConstants",
    "InvalidPolicyError",
    "MdpError",
    "MdpModel",
    "ModelFormatError",
    "NonFiniteRewardError",
    "NotPrimitiveError",
    "NotUnichainError",
    "NumericalCheckError",
    "OptimalPolicyResult",
    "Policy",
    "PolicyVector",
    "PrimitivityCertificate",
    "Sap",
    "SingularMatrixError",
    "SplitMix64",
    "UnsupportedVersionError",
    "ValidationFailedError",
    "ValueVector",
    "action_vector",
    "advantage",
    "advantages",
    "bias",
    "classify_chain",
    "emit_model",
    "enumerate_policies",
    "evaluate_average",
    "evaluate_discounted",
    "evaluate_policy",
    "gain",
    "generate_model",
    "mdp_constant",
    "normalize_rewards",
    "optimal_policy",
    "parse_model",
    "policy_kernel",
    "primitivity_certificate",
    "read_model",
    "run_vi",
    "span",
    "stationary_distribution",
    "to_classical_values",
    "unichain_by_invertibility",
    "validate_model",
    "value_iteration",
    "verify_contraction",
    "vi_step",
    "write_model",
]
