"""Exceptions shared across the library.

Every failure caused by input outside an operation's mathematical domain
derives from DomainError; the CLI maps that family to exit code 1 with a
structured error object.  Genuine programming errors stay ordinary Python
exceptions.  Each rule has one class, whichever module checks it.  The ten
are DomainError itself, ConstraintError (side conditions such as coprime
indices), NotDivisible, NotLSpaceShape (the shape, duality and growth of a
polynomial or gap set), ParseError, InfiniteComplement, NotIteratedTorus,
NotLSpace (a cable below the bound q >= p(2g - 1)), OutOfDomain and
Undefined.
"""


class DomainError(Exception):
    """Input lies outside the mathematical domain of an operation."""


class NotDivisible(DomainError):
    """Exact polynomial division was requested but a nonzero remainder is left."""


class NotLSpaceShape(DomainError):
    """A polynomial or gap set is not shaped like that of an L-space knot.

    Covers polynomials whose coefficients do not alternate +1/-1 from a
    constant term 1 with even degree, and gap sets violating duality or growth.
    """


class ConstraintError(DomainError):
    """A structurally valid expression carries indices violating a side condition."""


class ParseError(DomainError):
    """Unparseable text; ``position`` is the byte offset where parsing stopped."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class InfiniteComplement(DomainError):
    pass


class NotIteratedTorus(DomainError):
    pass


class NotLSpace(DomainError):
    pass


class OutOfDomain(DomainError):
    pass


class Undefined(DomainError):
    pass
