"""Numerical laboratory for truncated q-deformed Fock spaces."""

from .fock import FockContext, GradedVector, GramBlock, gram, make_context, orthonormal_vectors, q_inner
from .operators import (
    FockOperator,
    adjoint,
    annihilation,
    bozejko_check,
    c_q,
    creation,
    gaussian,
    op_norm,
    right_annihilation,
    right_creation,
    trace_state,
    wick_word,
)
from .deformation import (
    ConstantsReport,
    HSElement,
    constants,
    xi_as_hs,
    xi_inverse_neumann,
    xi_multiplier,
)
from .derivations import (
    DOUBLING,
    FDQ,
    NCPoly,
    Q_COMMUTATOR,
    Q_SQRT,
    commutator_check,
    conjugate_variable,
    derive,
    dq_star,
    equivalence_check,
    fisher_estimate,
    lipschitz_diagnostic,
    number_check,
    partial_tau,
    q_truncated,
)
from .cocycle import (
    CocycleSpec,
    GroupSpec,
    SimReport,
    cocycle_value,
    hat_norm_sq,
    load_cocycle_spec,
    rate,
    simulate,
    transitions,
    z_splitting_spec,
)
from . import symgroup

__version__ = "0.1.0"
