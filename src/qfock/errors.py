"""Exception types and size-cap policy.

Every guard that rejects a request names the offending quantity so that a
failed run can be diagnosed from the message alone.  The global matrix
dimension cap can be overridden with the ``QFOCK_SIZE_CAP`` environment
variable or per call via ``cap_override`` arguments; the word-operator
stores have one fixed byte limit (:func:`check_store_bytes`) that neither
raises.
"""
from __future__ import annotations

import os

DEFAULT_DIM_CAP = 4096
# One fixed limit on the bytes of every word-operator store, which neither
# QFOCK_SIZE_CAP nor a cap override raises, checked before the store is
# built.  The plain stacks of the Neumann product hold dim**3 floats each:
# dim 127 passes, dim 255 (126.5 MiB) does not.  The sandwiched store of
# the doubled-space norms keeps only its nonzero level-parity blocks:
# 60.9 MiB at (N, L) = (2, 7) passes, 528 MiB at (2, 8) and 161 MiB at
# (3, 5) do not.
STORE_BYTE_CAP = 64 * 2**20
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
    """Current matrix-dimension cap (env var beats default, argument beats
    env).  A ``QFOCK_SIZE_CAP`` that is no integer is bad input:
    :class:`CapacityError` naming it."""
    if override is not None:
        return int(override)
    env = os.environ.get("QFOCK_SIZE_CAP")
    if env is None:
        return DEFAULT_DIM_CAP
    try:
        return int(env)
    except ValueError:
        raise CapacityError(f"QFOCK_SIZE_CAP must be an integer, got {env!r}") from None


def check_dim(dim: int, what: str, override: int | None = None) -> None:
    cap = dim_cap(override)
    if dim > cap:
        raise CapacityError(
            f"{what} has dimension {dim}, exceeding the cap {cap}; "
            f"raise QFOCK_SIZE_CAP or pass a cap override to proceed"
        )


def check_store_bytes(what: str, nbytes: int, dim: int) -> None:
    """Raise :class:`CapacityError` when a word-operator store of ``nbytes``
    bytes at dimension ``dim`` exceeds the fixed ``STORE_BYTE_CAP``."""
    if nbytes > STORE_BYTE_CAP:
        raise CapacityError(
            f"{what} needs {nbytes / 2**20:.1f} MiB at dim {dim} ({nbytes} > "
            f"{STORE_BYTE_CAP} bytes); {STORE_BYTE_CAP / 2**20:g} MiB is a fixed limit "
            f"on every word-operator store, which neither QFOCK_SIZE_CAP nor "
            f"--cap-override raises"
        )
