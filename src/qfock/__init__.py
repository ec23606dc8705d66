"""Numerical laboratory for truncated q-deformed Fock spaces."""

from .fock import FockContext, GradedVector, GramBlock, gram, make_context, orthonormal_vectors, q_inner
from .operators import (
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
    wick_matrix,
)
from .deformation import (
    ConstantsReport,
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
    conjugate_variables,
    derive,
    dq_star,
    equivalence_check,
    fisher_estimate,
    lipschitz_norms,
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
