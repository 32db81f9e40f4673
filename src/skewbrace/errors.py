"""Exception types raised by structural validation across the package."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for every structural failure this package reports."""


class ParseError(AlgebraError):
    """Malformed input data (bad JSON shape, ragged tables, out-of-range entries)."""


class NoIdentity(AlgebraError):
    """The table admits no two-sided identity element."""


class NoInverse(AlgebraError):
    """Some element has no two-sided inverse."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAssociative(AlgebraError):
    """Associativity fails on a witness triple."""

    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"associativity fails on triple ({x}, {y}, {z})")


class NotASubgroup(AlgebraError):
    """The given element set is not a subgroup."""


class NotNormal(AlgebraError):
    """The given subgroup is not normal."""


class IdentityMismatch(AlgebraError):
    """The two group operations do not share the identity at index 0."""


class BraceRelationFails(AlgebraError):
    """The brace relation fails on a witness triple."""

    def __init__(self, a: int, b: int, c: int, detail: str = ""):
        self.witness = (a, b, c)
        msg = f"brace relation fails on triple ({a}, {b}, {c})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class LambdaNotHomomorphism(AlgebraError):
    """The lambda map fails to be a homomorphism on a witness pair."""

    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"lambda map is not a homomorphism at pair ({a}, {b})")


class NotARing(AlgebraError):
    """Ring axioms fail on a witness."""

    def __init__(self, reason: str, witness: tuple = ()):
        self.witness = witness
        super().__init__(f"not a ring: {reason}" + (f" at {witness}" if witness else ""))


class NotRadical(AlgebraError):
    """The adjoint circle operation of the ring is not a group."""


class NotALeftIdeal(AlgebraError):
    """The given set is not a left ideal."""


class NotAnIdeal(AlgebraError):
    """The given set is not an ideal."""


class TooLarge(AlgebraError):
    """The computation exceeds the size limits of this implementation."""


class TooLargeForIdealEnumeration(TooLarge):
    """Ideal enumeration was requested beyond the supported order."""


class BadIndices(AlgebraError):
    """Series indices outside the valid range n >= 1, 0 <= k <= n-1."""


class BadParameters(AlgebraError):
    """Constructor parameters violate the family's preconditions."""


class BadPrime(BadParameters):
    """The prime parameter is composite or below the family's lower bound."""


class NotInvertible(AlgebraError):
    """A structure matrix is singular over F_p."""


class NonCommutingFamily(AlgebraError):
    """Basis matrices of one structure family do not commute pairwise."""


class ConditionViolated(AlgebraError):
    """The compatibility condition between the two matrix actions fails."""

    def __init__(self, basis_index: int, detail: str = ""):
        self.basis_index = basis_index
        msg = f"compatibility condition fails at basis vector {basis_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
