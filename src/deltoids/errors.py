"""Exception hierarchy shared by all deltoids modules."""


class DeltoidError(Exception):
    """Base class for every error raised by this package."""


class InvalidElementError(DeltoidError):
    """Coordinate vector does not fit the group (wrong dimension)."""


class GroupMismatchError(DeltoidError):
    """Two objects that must live in the same group do not."""


class InfiniteSubgroupError(DeltoidError):
    """A generating set with a nonzero free coordinate has infinite closure."""


class UnsupportedInfiniteGroupError(DeltoidError):
    """Operation requires a finite group (free rank zero)."""


class ResourceLimitError(DeltoidError):
    """Input exceeds a configured enumeration or sweep bound."""


class EmptySetError(DeltoidError):
    """A or B is empty; instances need nonempty sets."""


class SizeMismatchError(DeltoidError):
    """|A| != |B| after canonicalization."""


class IdentityInBError(DeltoidError):
    """The identity element may not appear in B."""


class NotASubsetError(DeltoidError):
    """Argument set is not a subset of A."""


class InvalidDefectError(DeltoidError):
    """Requested defect outside 0..|A|."""


class InvalidWitnessError(DeltoidError):
    """Witness inputs violate a stated precondition."""


class InvalidInputError(DeltoidError):
    """Transform preconditions (1 in R, SR within A, nonempty) violated."""


class InvalidParametersError(DeltoidError):
    """Existence-search parameters out of range or group unsuitable."""


class NoConstructionError(DeltoidError):
    """No qualifying subgroup exists for the requested size and level."""


class InfiniteRhoError(DeltoidError):
    """Right partition number is infinite; the requested formula needs it finite."""


class InternalInconsistencyError(DeltoidError):
    """A result contradicts a guaranteed invariant; indicates a bug."""
