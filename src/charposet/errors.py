"""Exception hierarchy.

Four buckets fix the CLI's failure policy: input errors (bad tables, unknown
families, malformed files), domain precondition errors (valid input, invalid
request), witness precondition errors, and internal-check errors that signal
a bug in the exact arithmetic or in an existence argument and should never
fire on correct code.  Each bucket class carries its exit code and the label
of its stderr line as the class attributes ``exit_code`` and ``label``;
InputError inherits CharposetError's 2 and "error".  The CLI reads both from
the exception it catches, so a subclass defined in any module exits as its
bucket does.
"""


class CharposetError(Exception):
    """Base class for all library errors."""

    exit_code = 2
    label = "error"


class InputError(CharposetError):
    """The supplied data does not describe a valid object."""


class DomainError(CharposetError):
    """Valid object, but the requested operation is not defined for it."""

    exit_code = 3


class WitnessError(CharposetError):
    """A connectivity-witness construction cannot start from these endpoints."""

    exit_code = 4
    label = "witness precondition failed"


class InternalCheckError(CharposetError):
    """An invariant that must hold mathematically failed: implementation bug."""

    exit_code = 5
    label = "internal check failed"


# -- input ------------------------------------------------------------------

class NotAssociative(InputError):
    pass


class NoIdentity(InputError):
    pass


class NoInverse(InputError):
    pass


class ClosureTooLarge(InputError):
    pass


class UnknownFamily(InputError):
    pass


class OrderCapExceeded(InputError):
    pass


# -- domain -----------------------------------------------------------------

class NotPGroup(DomainError):
    pass


class LatticeTooLarge(DomainError):
    pass


class NotNormal(DomainError):
    pass


class NotAbelian(DomainError):
    pass


class EmptyInput(DomainError):
    pass


class NotASubgroup(DomainError):
    pass


class ConductorMismatch(DomainError):
    pass


class InvalidExponent(DomainError):
    pass


class NotMonomial(DomainError):
    """A subgroup that is not a p-group has an irreducible character induced
    from no linear character, so the monomial search cannot complete it."""


# -- witness preconditions --------------------------------------------------

class PreconditionFailed(WitnessError):
    pass


# -- bug signals ------------------------------------------------------------

class NotRationalInteger(InternalCheckError):
    pass


class NotDivisible(InternalCheckError):
    pass


class IncompleteIrr(InternalCheckError):
    pass


class NoConstituent(InternalCheckError):
    pass


class ChoiceExhausted(InternalCheckError):
    pass


class NotMultipleOfLinear(InternalCheckError):
    pass


class ComponentCoverageError(InternalCheckError):
    pass


class BoundViolation(InternalCheckError):
    pass


class CriterionViolation(InternalCheckError):
    pass
