"""Exception hierarchy for the Risotto reproduction.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch library failures without also swallowing programming errors.

The bottom of this module is the *error taxonomy* for service
boundaries: :func:`classify_error` maps any exception to a typed
:class:`ErrorInfo` (stable code, message, retryable flag), so the
serve protocol and the sweep harness report failures identically
instead of letting raw tracebacks cross a process or socket boundary.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LitmusError(ReproError):
    """A litmus program is malformed (unknown register, bad operand...)."""


class ModelError(ReproError):
    """A memory-model definition was asked something it cannot answer."""


class MappingError(ReproError):
    """A mapping scheme cannot translate the given construct."""


class AssemblerError(ReproError):
    """Assembly source could not be parsed or encoded."""


class DecodeError(ReproError):
    """A byte sequence does not decode to a known instruction."""


class TranslationError(ReproError):
    """The DBT failed to translate a guest basic block."""


class MachineError(ReproError):
    """The simulated host machine hit an illegal state."""


class GuestFault(ReproError):
    """The emulated guest program faulted (bad memory access, bad opcode)."""


class LoaderError(ReproError):
    """A guest binary image or IDL file is malformed."""


class LinkError(LoaderError):
    """The dynamic host linker could not resolve or marshal a call."""


class JobError(ReproError):
    """A serve-protocol job is malformed (unknown kind, bad field...)."""


# ----------------------------------------------------------------------
# Error taxonomy for service boundaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorInfo:
    """One classified failure, safe to put on the wire.

    ``code`` is a stable, documented identifier (never a Python class
    name), ``message`` a single human-readable line, and ``retryable``
    whether the *same* request may succeed on resubmission — true only
    for environmental failures, never for deterministic ones (a job
    that faults the guest will fault it again).
    """

    code: str
    message: str
    retryable: bool = False


#: Exception type -> error code, most-specific first: subclasses must
#: precede their bases (LinkError before LoaderError), and the
#: ReproError family precedes the stdlib fallbacks.
ERROR_CODES: tuple[tuple[type, str], ...] = (
    (JobError, "bad-request"),
    (LitmusError, "litmus"),
    (ModelError, "model"),
    (MappingError, "mapping"),
    (AssemblerError, "assembler"),
    (DecodeError, "decode"),
    (TranslationError, "translation"),
    (GuestFault, "guest-fault"),
    (MachineError, "machine"),
    (LinkError, "link"),
    (LoaderError, "loader"),
    (ReproError, "repro"),
    (TimeoutError, "timeout"),
    (OSError, "io"),
)

#: Codes whose failures are environmental, not deterministic: the same
#: request may succeed if resubmitted ("unavailable" is minted by the
#: server when its worker pool dies, never by classify_error).
RETRYABLE_CODES = frozenset({"internal", "io", "timeout", "unavailable"})


def error_code(exc: BaseException) -> str:
    """The taxonomy code for an exception (``"internal"`` fallback)."""
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def classify_error(exc: BaseException) -> ErrorInfo:
    """Map any exception onto the typed service-boundary form."""
    code = error_code(exc)
    message = f"{type(exc).__name__}: {exc}"
    return ErrorInfo(code=code, message=message,
                     retryable=code in RETRYABLE_CODES)
