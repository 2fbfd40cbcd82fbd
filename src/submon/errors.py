"""Exception types shared across the package."""


class SubmonError(Exception):
    """Base class for every error raised by this package."""


class TableValidationError(SubmonError):
    """A Cayley table failed one of the monoid axioms.

    The offending elements are kept in ``witness``.
    """

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class CommutativityViolation(TableValidationError):
    pass


class AssociativityViolation(TableValidationError):
    pass


class IdentityViolation(TableValidationError):
    pass


class NotIdempotent(SubmonError):
    """Raised when an operation requires x*x == x for every element."""


class NotALattice(SubmonError):
    """A partial order is missing a meet or a join."""


class SizeLimitExceeded(SubmonError):
    """An enumeration would exceed the configured budget."""


class MonoidSpecError(SubmonError):
    """A monoid description string or JSON document cannot be parsed."""


class IndexOutOfRange(SubmonError):
    """A row, column, or formula index lies outside its valid range."""


class DegenerateSystem(SubmonError):
    """A linear system that should be uniquely solvable is singular."""


class NonIntegerCount(SubmonError):
    """A closed-form count failed to be an integer (arithmetic bug)."""


class FormulaMismatch(SubmonError):
    """Two formulas that must agree returned different values."""


class InvariantViolation(SubmonError):
    """A computed object broke a structural invariant (a bug or tampered input)."""


class NonUniqueMinimal(SubmonError):
    """A connected component had no unique minimal element."""
