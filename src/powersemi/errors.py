"""Structured exception types shared by every module in the package."""


class WorkbenchError(Exception):
    """Base class for all errors raised deliberately by this package."""


class IndexOutOfRange(WorkbenchError):
    """A table entry, element index, or mask falls outside the carrier."""


class NonAssociative(WorkbenchError):
    """A Cayley table fails associativity; carries the first bad triple."""

    def __init__(self, i, j, k):
        super().__init__(f"associativity fails at triple ({i}, {j}, {k})")
        self.triple = (i, j, k)


class NotCompatible(WorkbenchError):
    """A partition is incompatible with the operation; carries a witness."""

    def __init__(self, x1, y1, x2, y2):
        super().__init__(
            f"partition not compatible with products at "
            f"(x1={x1}, y1={y1}, x2={x2}, y2={y2})"
        )
        self.quadruple = (x1, y1, x2, y2)


class AmbientMismatch(WorkbenchError):
    """Subsets over different ambient semigroups were combined."""


class OrderCapExceeded(WorkbenchError):
    """Materialization was requested above a ceiling: a power semigroup
    above POWER_CAP_MAX, a subset family above FAMILY_MAX members, a
    numerical monoid's membership table above HORIZON_MAX entries, its
    non-cancellativity witness for a set above WITNESS_MAX members, or the
    congruences of a carrier above CONGRUENCE_MAX elements."""


class OrderUnsupported(WorkbenchError):
    """Requested order is outside the supported enumeration range."""


class PreconditionViolated(WorkbenchError):
    """An operation was invoked outside its documented hypotheses."""


class TheoremViolation(WorkbenchError):
    """A runtime re-verification of a proved guarantee failed.

    Nothing in the package is expected to raise this on valid inputs; the
    checks exist so that a genuine mathematical surprise halts loudly
    instead of being silently absorbed.
    """


class NonMemberInput(WorkbenchError):
    """An input set contains an element outside the ambient monoid."""
