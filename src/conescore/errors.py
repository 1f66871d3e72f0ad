"""Exception taxonomy shared across the package.

The split mirrors the CLI exit-code contract: bad user input (exit 2),
a blown resource cap (exit 3), and verification failure (exit 4).
NotPointedError exits 2 too: input too near degenerate for the tolerances.
"""


class ConescoreError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ConescoreError):
    """Malformed or inconsistent input (dimensions, empty data, bad schema)."""


class ResourceCapError(ConescoreError):
    """A configured enumeration cap was exceeded."""


class NotPointedError(ConescoreError):
    """An operation that requires a pointed cone received a non-pointed one."""


class VerificationError(ConescoreError):
    """A design failed its own verification oracle."""
