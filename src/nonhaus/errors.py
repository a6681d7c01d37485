"""Exception types shared across the package."""


class NonHausError(Exception):
    """Base class for every domain error raised by this package."""


class OriginCountOutOfRange(NonHausError):
    """Origin count k outside the supported range."""


class BranchOutOfRange(NonHausError):
    """Branch label of a labeled representative is not in 1..k."""


class IndexOutOfRange(NonHausError):
    """Origin index outside 1..k."""


class ZeroCoordinate(NonHausError):
    """A nonzero coordinate was required."""


class NonpositiveRadius(NonHausError):
    """Radius of a basic open must be strictly positive."""


class IdenticalPoints(NonHausError):
    """A separation query needs two distinct points."""


class UnsupportedSequenceForm(NonHausError):
    """Sequence is outside the closed-form convergence catalog."""


class InexactSpiral(NonHausError):
    """Spiral embedding has no exact rational values."""


class SingularPoint(NonHausError):
    """The fibre over this base point is not a singleton."""


class EqualIndices(NonHausError):
    """Two distinct origin indices were required."""


class NonpositiveBasepoint(NonHausError):
    """Basepoint coordinate must be strictly positive."""


class ZeroPlateau(NonHausError):
    """Path stays at coordinate zero on a whole segment."""


class ZeroPlateau2D(NonHausError):
    """A triangle of a homotopy field is identically zero."""


class TooManyLifts(NonHausError):
    """Lift enumeration would build more than lifting.MAX_LIFTS lifts."""


class StartMismatch(NonHausError):
    """Start point does not project onto the path's initial value."""


class AssignmentDomainMismatch(NonHausError):
    """Origin assignment is not defined exactly on the zero times."""


class UnlabeledZeroTime(NonHausError):
    """A loop passes through coordinate zero at an unlabeled time."""


class NotNullhomotopic(NonHausError):
    """Loop class is nonempty; no contraction certificate exists."""


class GridTooCoarse(NonHausError):
    """Sampling grid is too coarse for the audit."""


class GridTooFine(NonHausError):
    """Sampling grid is finer than thickened.MAX_GRID_N."""


class RecheckFailure(NonHausError):
    """An embedded certificate failed its own re-check."""
