"""Exact toolkit for the diophantine counting machinery behind amplified
sup-norm bounds: integer-matrix arithmetic with determinantal divisors,
complete lattice enumeration under a positive definite form, congruence
pruning, radical-field linear algebra, kernel-exchange of the reference
form, goodness sieving of primes, the doubly-recursive chain driver, and
the exact exponent optimization.
"""

from .bounds import (
    BoundReport,
    DeltaResult,
    SpectralParameters,
    basic_estimate,
    c_function_norm,
    convexity_exponent,
    delta_calculator,
    laplace_eigenvalue,
    minimal_legal_parameters,
)
from .congruences import (
    ScalarWitness,
    min_pairwise_angle,
    scalar_congruence,
    verify_inner_congruence,
)
from .enumeration import (
    CountingInstance,
    SolutionSet,
    SymbolicSymMatrix,
    TargetScalar,
    enum_S,
    enum_norm_vectors,
    first_column_bound,
    verify_membership,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    IsocountError,
    NoPointFound,
    PrecisionExhausted,
    PreconditionFailed,
    ResourceBudgetError,
    ZeroKernel,
)
from .matrices import (
    IntegerMatrix,
    RationalSymMatrix,
    Region,
    denominator,
    determinantal_divisor,
    determinantal_divisor_oracle,
    determinantal_divisors,
    is_q_good,
    minor_set,
)
from .primes import (
    ResidueSystem,
    good_prime_set,
    linnik_report,
    residue_system,
    vonmangoldt_ap_sum,
)
from .radicals import (
    BalancedPair,
    FieldElement,
    RadicalFieldSpec,
    WellBalancedCertificate,
    distance_to_subspace,
    gram_schmidt,
    is_well_balanced,
    kernel_basis_bounded,
)
from .recursion import (
    EnumCache,
    PairCase,
    RecursionCertificate,
    classify_pair,
    inner_chain,
    outer_chain,
    proposition_driver,
)
from .xchg import (
    ExchangeReport,
    SymSubspace,
    exchange_step,
    find_q_prime,
    intersect_kernels,
)

__version__ = "0.1.0"
