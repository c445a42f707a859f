"""Exception hierarchy shared by all deltoids modules: one class per outcome.

Each class is one outcome that a caller acts on.  The CLI gives:

- DeltoidError, the base: exit 2 for any subclass not named below;
- InvalidInputError: exit 2, its one line names the broken rule;
- UnsupportedInfiniteGroupError: exit 2, or in ``deficiency`` the route
  is listed under ``skipped``;
- ResourceLimitError: exit 3, or in ``deficiency`` the route is listed
  under ``skipped``;
- InfiniteRhoError: exit 1 in ``partition``;
- NoConstructionError: exit 1 in ``construct``;
- InternalInconsistencyError: exit 4, a bug rather than bad input.
"""


class DeltoidError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(DeltoidError):
    """An argument or file breaks a rule of the call; the message names the rule."""


class UnsupportedInfiniteGroupError(DeltoidError):
    """Operation requires a finite group (free rank zero)."""


class ResourceLimitError(DeltoidError):
    """Input exceeds a configured enumeration or sweep bound."""


class NoConstructionError(DeltoidError):
    """No qualifying subgroup exists for the requested size and level."""


class InfiniteRhoError(DeltoidError):
    """Right partition number is infinite; the requested formula needs it finite."""


class InternalInconsistencyError(DeltoidError):
    """A result contradicts a guaranteed invariant; indicates a bug."""
