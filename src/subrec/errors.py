"""Exception types raised by the library.

All exceptions derive from :class:`SubrecError` so callers can catch the
library's failures with a single handler.  Numerical pass/fail outcomes
(correctability, tensor factorization) are returned as values carrying
residuals, not raised.
"""


class SubrecError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SubrecError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class MalformedInput(SubrecError, ValueError):
    """Wire input has the wrong type, nesting or [re, im] pair length."""


class NotFinite(SubrecError, ValueError):
    """An input matrix has a NaN or infinite entry."""


class NotHermitian(SubrecError, ValueError):
    """A matrix required to be Hermitian fails the symmetry check."""


class FactorMismatch(SubrecError, ValueError):
    """G^dag G does not match the announced positive factor squared."""


class NotPartialIsometry(SubrecError, ValueError):
    """V^dag V or V V^dag is not a projector within tolerance."""


class NotTracePreserving(SubrecError, ValueError):
    """Kraus operators do not sum to the identity in E_a^dag E_a."""


class NotUnital(SubrecError, ValueError):
    """Operation requires a unital channel."""


class NotAnAlgebra(SubrecError, ValueError):
    """Basis is not closed under adjoints/products or lacks a unit."""


class UnluckySeed(SubrecError, RuntimeError):
    """Random probing stayed degenerate after the internal retries."""


class CertificateMismatch(SubrecError, ValueError):
    """Certificate was not produced from the given channel/decomposition."""


class NumericalDegeneracy(SubrecError, RuntimeError):
    """The recovery of a loosely accepted certificate fails beyond tolerance."""


class BadParams(SubrecError, ValueError):
    """Demo parameters are outside their documented ranges."""
