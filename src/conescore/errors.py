"""Exception taxonomy shared across the package.

Each class carries the CLI exit code it maps to (``exit_code``), so the
exit-code contract lives here: bad user input (2), a blown resource cap such
as an enumeration limit or the simplex iteration cap (3), and verification
failure (4).  NotPointedError exits 2 too: input too near degenerate for the
tolerances.  The CLI prints any of them as one ``error:`` line on stderr.
"""


class ConescoreError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InputError(ConescoreError):
    """Malformed or inconsistent input (dimensions, empty data, bad schema)."""


class ResourceCapError(ConescoreError):
    """A configured enumeration cap or the simplex iteration cap was exceeded."""

    exit_code = 3


class NotPointedError(ConescoreError):
    """An operation that requires a pointed cone received a non-pointed one."""


class VerificationError(ConescoreError):
    """A design or a rank witness failed its own verification check."""

    exit_code = 4
