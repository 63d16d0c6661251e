"""Exception hierarchy shared by all bealschur modules.

Every domain failure raises a named subclass of BealSchurError so callers
(and the CLI) can map failures to stable error names.
"""


class BealSchurError(Exception):
    """Base class for all domain errors raised by this package."""


# -- modular arithmetic ------------------------------------------------------

class ModulusTooSmall(BealSchurError):
    """Modulus below the minimum the operation supports."""


class ModulusTooLarge(BealSchurError):
    """Modulus beyond the reach of an operation that builds N-sized arrays."""


class NotPrime(BealSchurError):
    """A value that must be prime failed certification."""


class NonResidue(BealSchurError):
    """Requested a k-th root of an element that has none."""


# -- triplets / contexts -----------------------------------------------------

class ExponentTooSmall(BealSchurError):
    """Exponents must be at least 2."""


class InvalidContext(BealSchurError):
    """A (p, q, r, N) context violates its invariants."""


class NotIntraDivisible(InvalidContext):
    """Exponent triplet fails the pairwise divisibility conditions."""


class NotIndiscernible(InvalidContext):
    """Prime modulus does not exceed the 32 p^2 q^2 r^2 threshold."""


class MixedModuli(BealSchurError):
    """Residues from different moduli were combined."""


class RetryExhausted(BealSchurError):
    """A randomized search hit its retry cap (pathological parameters)."""


class DegenerateInput(BealSchurError):
    """Real-field solver input outside its admissible domain."""


class NegativeRadicand(BealSchurError):
    """Even root of a negative quantity requested (no real solution)."""


# -- encryption --------------------------------------------------------------

class SchemeMismatch(BealSchurError):
    """Key or ciphertext used with the wrong scheme."""


class ChecksumMismatch(BealSchurError):
    """Block checksum failed (wrong root chosen or data corrupted)."""


class MalformedPadding(BealSchurError):
    """Decoded payload stream has an invalid length prefix or padding."""


class NoValidRoot(BealSchurError):
    """No candidate root produced a block with a valid checksum."""


class AmbiguousRoot(BealSchurError):
    """Two or more candidate roots passed the checksum; refusing to guess."""


class PartitionMismatch(BealSchurError):
    """Partition or split does not cover the message/segments exactly."""


class FileAccessError(BealSchurError):
    """A named file cannot be read, decoded as UTF-8 or written."""


# -- key generation ----------------------------------------------------------

class BoundsInfeasible(BealSchurError):
    """Key generation bounds admit no valid (triplet, prime) combination."""


class MalformedKeyFile(BealSchurError):
    """Key file fails structural parsing."""


class InvariantViolated(BealSchurError):
    """Parsed key material fails a semantic check (named in .check)."""

    def __init__(self, check: str, message: str = ""):
        super().__init__(f"{check}: {message}" if message else check)
        self.check = check
