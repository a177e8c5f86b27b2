"""jetstar: exact deformation quantization of truncated Whitney-jet algebras.

Everything is computed over Gaussian rationals, so every algebraic claim in
the package (star-product axioms, Fedosov flatness, ideal stability, Hodge
and chain identities, Betti numbers) is checked as an exact equality.
"""

__version__ = "0.1.0"

from .elements import MixedElement, TruncationPolicy
from .errors import (
    ConvergenceError,
    DimensionMismatch,
    GuardrailError,
    JetstarError,
    ParseError,
    ValidationError,
)
from .fedosov import (
    ConnectionInput,
    FedosovData,
    build_A,
    c_k,
    curvature,
    nabla,
    quantize,
    star,
    symbol,
)
from .parsing import parse_element
from .scalars import Scalar, rational
from .weyl import (
    PoissonTensor,
    delta_inv,
    delta_op,
    fedosov_degree,
    moyal,
    moyal_base,
    pi_hat,
    star_commutator,
)
from .whitney import (
    Germ,
    JetEvaluator,
    SubsetModel,
    WhitneyAlgebra,
    WhitneyClass,
    builtin_subset,
    is_flat,
    verify_ideal_stability,
)

__all__ = [
    "MixedElement",
    "TruncationPolicy",
    "Scalar",
    "rational",
    "parse_element",
    "PoissonTensor",
    "pi_hat",
    "moyal",
    "moyal_base",
    "star_commutator",
    "fedosov_degree",
    "delta_op",
    "delta_inv",
    "ConnectionInput",
    "FedosovData",
    "build_A",
    "curvature",
    "nabla",
    "quantize",
    "symbol",
    "star",
    "c_k",
    "Germ",
    "SubsetModel",
    "builtin_subset",
    "JetEvaluator",
    "WhitneyAlgebra",
    "WhitneyClass",
    "is_flat",
    "verify_ideal_stability",
    "JetstarError",
    "ParseError",
    "ValidationError",
    "DimensionMismatch",
    "ConvergenceError",
    "GuardrailError",
]
