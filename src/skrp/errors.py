"""Exception types shared across the package."""


class SkrpError(Exception):
    """Base class for all package errors."""


class BadParams(SkrpError):
    """Family parameters violate their domain constraints."""


class PoleInInterval(SkrpError):
    """A rational-family profile has its pole inside the requested interval."""


class PoleAtOne(SkrpError):
    """The rational basis function F was requested at its pole t = 1."""


class NonPositive(SkrpError):
    """The profile is not positive on the interior of its interval."""


class NoRoot(SkrpError):
    """No root of Q was found inside the search box."""


class SeedNonPositive(SkrpError):
    """Q(seed) <= 0, so there is no positivity interval around the seed."""


class WrongFamily(SkrpError):
    """Operation applied to a profile of an unsupported family."""


class RangeContainsC(SkrpError):
    """The requested range contains the excluded value phi = c."""


class SolutionNonPositive(SkrpError):
    """An ODE solution for Q dropped to zero inside the requested range."""


class Inconsistent(SkrpError):
    """Mutually inconsistent classification inputs (eps != 0 without c)."""


class NonPositiveQ(SkrpError):
    """Q <= 0 where positivity is required."""


class AnchorOutOfRange(SkrpError):
    """Reparameterization anchor lies outside the profile interval."""


class SingularEndpoint(SkrpError):
    """Endpoint slope too small for the inverse-square-root substitution."""


class WrongEndpoint(SkrpError):
    """Endpoint does not satisfy the required root/slope normalization."""


class StencilOutOfDomain(SkrpError):
    """A finite-difference stencil leaves the chart domain."""


class SingularMetric(SkrpError):
    """Metric matrix is numerically singular at the probed point."""


class CriticalPoint(SkrpError):
    """|grad phi| is too small for an operation that requires d(phi) != 0."""


class PhiNearZero(SkrpError):
    """phi is too close to zero for the conformally rescaled metric."""


class MissingMeta(SkrpError):
    """Chart metadata lacks a field required by the operation."""


class SpecInvariantViolated(SkrpError):
    """Model-specification invariants do not hold."""


class TableRangeExceeded(SkrpError):
    """Requested radius lies outside the reparameterization table range."""


class ConfigError(SkrpError):
    """Invalid run configuration (unknown keys, missing fields, bad values)."""
