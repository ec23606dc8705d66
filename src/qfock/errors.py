"""Exception types and size-cap policy.

Every guard that rejects a request names the offending quantity so that a
failed run can be diagnosed from the message alone.  The global matrix
dimension cap can be overridden with the ``QFOCK_SIZE_CAP`` environment
variable or per call via ``cap_override`` arguments.
"""
from __future__ import annotations

import os

DEFAULT_DIM_CAP = 4096
# the plain word-operator stacks and the sandwiched store of the doubled
# norms hold dim**3 floats; a fixed limit that neither QFOCK_SIZE_CAP nor a
# cap override raises
DEFAULT_STACK_DIM_CAP = 192
MAX_PERM_LENGTH = 8


class QFockError(Exception):
    """Base class for the errors raised by this package on bad input or a
    capacity limit."""


class QRangeError(QFockError, ValueError):
    """Deformation parameter outside the open interval (-1, 1)."""


class AlphabetError(QFockError, ValueError):
    """Alphabet size or letter index out of range."""


class CapacityError(QFockError, ValueError):
    """A requested object exceeds the configured size cap."""


class ContextMismatchError(QFockError, ValueError):
    """Operands built over different contexts were combined."""


class DegenerateMetricError(QFockError, ArithmeticError):
    """A Gram block failed positive definiteness beyond tolerance."""


class LevelRangeError(QFockError, ValueError):
    """A level index outside the truncation 0..L, or a truncation too shallow."""


class HomogeneityError(QFockError, ValueError):
    """A vector required to live on a single level does not."""


class AbsorbingStateError(QFockError, ValueError):
    """Transition enumeration requested at a rate-zero state."""


class CocycleSpecError(QFockError, ValueError):
    """Malformed cocycle specification (bad schema or bad values)."""


class SimulationInputError(QFockError, ValueError):
    """A chain simulation cannot start: identity in the initial state, a
    jump budget below one or a negative path count."""


class SquareRootUnavailableError(QFockError, ArithmeticError):
    """The doubled-space deformation form is not PSD at this truncation."""


class EigensolverError(RuntimeError):
    """A Lanczos iteration (a doubled-space norm, or the top singular value
    of a large block) did not converge within its step cap.  A failure of
    the numerics, not of the input, so it is no :class:`QFockError`: the CLI
    reports it as an internal error (exit 3)."""


class NonConvergenceWarning(UserWarning):
    """Neumann-series residuals grew over several consecutive terms."""


def dim_cap(override: int | None = None) -> int:
    """Current matrix-dimension cap (env var beats default, argument beats env)."""
    if override is not None:
        return int(override)
    env = os.environ.get("QFOCK_SIZE_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_DIM_CAP


def check_dim(dim: int, what: str, override: int | None = None) -> None:
    cap = dim_cap(override)
    if dim > cap:
        raise CapacityError(
            f"{what} has dimension {dim}, exceeding the cap {cap}; "
            f"raise QFOCK_SIZE_CAP or pass a cap override to proceed"
        )

