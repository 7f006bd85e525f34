"""Exception types shared across the package."""

from __future__ import annotations


class CachewrightError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(CachewrightError):
    """The requested field modulus is composite."""


class EvenModulus(CachewrightError):
    """The requested field modulus is 2; division by 2 is impossible there."""


class DivisionByZero(CachewrightError):
    """Inversion of zero in the field."""


class SymbolOutOfByteRange(CachewrightError):
    """A symbol >= 256 was handed to the plain byte decoder (coded content?)."""


class ConfigMismatch(CachewrightError):
    """Inputs disagree with each other or with the network configuration."""


class DemandNotInD(CachewrightError):
    """Demand does not request every file; the scheme's guarantees hold only on D."""


class LengthMismatch(CachewrightError):
    """Symbol vectors of incompatible lengths were combined."""


class OutOfRange(CachewrightError):
    """Argument outside the domain of a closed-form rate formula."""


class OutsideCharacterizedRegion(CachewrightError):
    """Cache size below the region where the exact tradeoff is known."""


class DegenerateInput(CachewrightError):
    """Point set unsuitable for building a tradeoff curve."""


class OutOfCaseRange(CachewrightError):
    """(N, K) outside the regime a converse construction supports."""


class IndexOutOfRange(CachewrightError):
    """A user, file, or demand index outside its valid range."""


class CertificateError(CachewrightError):
    """Problem with a specific axiom instance inside a certificate."""

    def __init__(self, index: int, message: str):
        super().__init__(f"axiom {index}: {message}")
        self.index = index


class MalformedAxiom(CertificateError):
    """Axiom instance violates its structural side conditions."""


class SymmetryOutsideTable(CertificateError):
    """A permutation maps some broadcast variable outside the demand table."""


class NegativeMultiplierOnInequality(CertificateError):
    """Inequality axioms must enter a certificate with non-negative weight."""
