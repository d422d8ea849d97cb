"""Exception types shared across the package."""


class LinksigError(Exception):
    """Base class for all errors raised by linksig."""


class InvalidInput(LinksigError):
    """Bad arity, mismatched flags, schema violations, failed preconditions."""


class NotDivisible(LinksigError):
    """Exact division has no quotient in the Laurent ring."""


class NonSquare(InvalidInput):
    """A square matrix was required."""


class NotHermitian(InvalidInput):
    """Matrix is not Hermitian within the admissible tolerance."""


class EigensolverFailure(LinksigError):
    """A form or its scale is not finite, or the eigenvalue routine failed."""


class CoordinateOne(InvalidInput):
    """A torus coordinate equal to 1 where the formula requires otherwise."""


class AmbiguousSlope(LinksigError):
    """Rank-deficient system whose solution set does not pin down the slope."""


class NotReal(LinksigError):
    """A value expected to be real carries a non-negligible imaginary part."""


class Mu1NotApplicable(InvalidInput):
    """Operation defined only for more than one color."""


class Mu1Only(InvalidInput):
    """Operation defined only for one color."""


class BasePoint(InvalidInput):
    """The point (1, ..., 1) is excluded from the stratification."""


class UnknownKey(InvalidInput):
    """No catalog entry under the requested key."""


class MissingSeifertData(InvalidInput):
    """The link record carries no generalized Seifert matrices."""
