"""Exception hierarchy shared across the package."""


class EmzvError(Exception):
    """Base class for all computational errors raised by this package."""


class ParseError(EmzvError):
    """A document (table file, coefficient string, CLI index) is malformed."""


class ConsistencyError(EmzvError):
    """A loaded table violates one of its structural invariants."""


class TableOverflow(EmzvError):
    """A coefficient product or regularized value exceeds the table's weight cap."""


class DimensionMismatch(EmzvError):
    """Matrix/vector shapes are incompatible."""


class DegreeMismatch(EmzvError):
    """Series or polynomials with different truncations were combined."""


class PreconditionViolated(EmzvError):
    """An operation was called outside its domain (e.g. exp of a series with constant term)."""


class ExtractionInconsistent(EmzvError):
    """A generating-series component does not lie in the span of index monomials."""


class FourierViolation(EmzvError):
    """A q-expansion that must be free of log(q) terms contains one."""
