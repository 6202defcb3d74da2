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
    SolveTrace,
    evaluate_average,
    evaluate_discounted,
    optimal_policy,
    relative_value_iteration,
    value_iteration,
)
from .convergence import (
    AssumptionDiagnostics,
    ContractionConstants,
    ConvergenceReport,
    contraction_constants,
    product_expansion_check,
    run_vi,
    suboptimality_gap,
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
    to_classical_values,
)
from .model import (
    MdpModel,
    Policy,
    Sap,
    ValueVector,
    enumerate_policies,
    policy_kernel,
    policy_rewards,
    span,
    validate_model,
)
from .modelfile import emit_model, parse_model

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
    "NotPrimitiveError",
    "NotUnichainError",
    "NumericalCheckError",
    "OptimalPolicyResult",
    "Policy",
    "PolicyVector",
    "PrimitivityCertificate",
    "Sap",
    "SingularMatrixError",
    "SolveTrace",
    "SplitMix64",
    "UnsupportedVersionError",
    "ValidationFailedError",
    "ValueVector",
    "action_vector",
    "advantage",
    "advantages",
    "bias",
    "classify_chain",
    "contraction_constants",
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
    "policy_rewards",
    "primitivity_certificate",
    "product_expansion_check",
    "relative_value_iteration",
    "run_vi",
    "span",
    "stationary_distribution",
    "suboptimality_gap",
    "to_classical_values",
    "unichain_by_invertibility",
    "validate_model",
    "value_iteration",
    "verify_contraction",
    "vi_step",
]
