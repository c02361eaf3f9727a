"""Exception types shared across the package.

Guard violations (size caps) are distinct from retry exhaustion, which is
distinct from "ran fine, found nothing". Callers that need the difference
(the CLI exit codes) catch these separately; all of them inherit from
ShiftLabError for blanket handling.
"""

from __future__ import annotations


class ShiftLabError(Exception):
    """Base class for every error raised by this package."""


class GuardError(ShiftLabError, ValueError):
    """A hard size cap was exceeded (k, n or N outside the supported range)."""


class RetryExhaustedError(ShiftLabError, RuntimeError):
    """A retry loop hit its invocation budget without producing a result."""


class ConsumedElementError(ShiftLabError, RuntimeError):
    """A phase element was used twice; elements are strictly consume-once."""


class TamperError(ShiftLabError, RuntimeError):
    """reveal_secret was called on an instance created for measurement runs."""


class UsageError(ShiftLabError, ValueError):
    """Invalid flag combination or malformed CLI input."""


class AccountingError(ShiftLabError, RuntimeError):
    """A cost ledger or a cost_model tradeoff point broke one of its
    identities, or the labels a pipeline drew differ from the ones it built
    its stage-0 tables from."""
