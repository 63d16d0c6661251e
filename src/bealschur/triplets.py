"""Exponent triplets, Beal-Schur contexts and solution search.

A triplet (p, q, r) of exponents > 1 is intra-divisible when each pair is
linked by divisibility; a prime N is indiscernible for it when
N > 32 p^2 q^2 r^2.  Under those conditions x^p + y^q = z^r (mod N) has
nontrivial solutions, which find_bs_pair samples.  solve_real_beal is the
companion real-field construction: given y, z and real exponents it
produces x with x^p + y^q = z^r exactly (up to roundoff).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

from .errors import (
    DegenerateInput,
    ExponentTooSmall,
    MixedModuli,
    NegativeRadicand,
    NotIndiscernible,
    NotIntraDivisible,
    NotPrime,
    RetryExhausted,
)
from .modmath import (
    PrimeModulus,
    Residue,
    _residue_value,
    as_prime_modulus,
    kth_residue_test,
    kth_root_mod,
)

FIND_PAIR_RETRY_FACTOR = 64


def is_intra_divisible(p: int, q: int, r: int, *, literal: bool = False) -> bool:
    """True iff (q|r or r|q) and (p|r or r|p) and (q|p or p|q).

    ``literal=True`` switches the middle clause to (p|r or r|q), the
    asymmetric variant; the default symmetric reading is what the rest of
    the package uses.
    """
    return ExponentTriplet(p, q, r).is_intra_divisible(literal=literal)


def indiscernibility_threshold(p: int, q: int, r: int) -> int:
    """The bound 32 p^2 q^2 r^2 a prime modulus must strictly exceed."""
    return 32 * p * p * q * q * r * r


@dataclass(frozen=True)
class ExponentTriplet:
    """Exponents (p, q, r), each at least 2."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        for name in ("p", "q", "r"):
            e = operator.index(getattr(self, name))
            object.__setattr__(self, name, e)
            if e < 2:
                raise ExponentTooSmall(f"exponent {e} < 2")

    @classmethod
    def validated(cls, p: int, q: int, r: int) -> "ExponentTriplet":
        """Construct and require intra-divisibility."""
        return _require_intra_divisible(cls(p, q, r))

    def is_intra_divisible(self, *, literal: bool = False) -> bool:
        p, q, r = self.p, self.q, self.r
        first = r % q == 0 or q % r == 0
        third = p % q == 0 or q % p == 0
        if literal:
            middle = r % p == 0 or q % r == 0
        else:
            middle = r % p == 0 or p % r == 0
        return first and middle and third

    def threshold(self) -> int:
        return indiscernibility_threshold(self.p, self.q, self.r)


def _require_intra_divisible(t: ExponentTriplet) -> ExponentTriplet:
    if not t.is_intra_divisible():
        raise NotIntraDivisible(f"({t.p}, {t.q}, {t.r}) is not intra-divisible")
    return t


def is_indiscernible(N, triplet: ExponentTriplet) -> bool:
    """True iff N is a certified prime strictly above the triplet threshold."""
    try:
        Nm = as_prime_modulus(N)
    except (NotPrime, TypeError, ValueError):
        return False
    return Nm.value > triplet.threshold()


@dataclass(frozen=True)
class BSContext:
    """A validated working context: intra-divisible triplet + indiscernible prime."""

    triplet: ExponentTriplet
    modulus: PrimeModulus

    def __post_init__(self):
        _require_intra_divisible(self.triplet)
        bound = self.triplet.threshold()
        if self.modulus.value <= bound:
            raise NotIndiscernible(
                f"modulus {self.modulus.value} <= threshold {bound}"
            )

    @classmethod
    def create(cls, p: int, q: int, r: int, N) -> "BSContext":
        return cls(ExponentTriplet(p, q, r), as_prime_modulus(N))

    @property
    def p(self) -> int:
        return self.triplet.p

    @property
    def q(self) -> int:
        return self.triplet.q

    @property
    def r(self) -> int:
        return self.triplet.r

    @property
    def N(self) -> int:
        return self.modulus.value


@dataclass(frozen=True)
class BSTriplet:
    """A solution (x, y, z) of x^p + y^q = z^r (mod N) for some context."""

    x: Residue
    y: Residue
    z: Residue

    def __post_init__(self):
        if not (self.x.modulus == self.y.modulus == self.z.modulus):
            raise MixedModuli("triplet components have different moduli")

    @property
    def nontrivial(self) -> bool:
        """N does not divide x*y*z."""
        return self.x.value != 0 and self.y.value != 0 and self.z.value != 0


def is_bs_triplet(x, y, z, ctx: BSContext) -> bool:
    """True iff x^p + y^q = z^r (mod N) in the given context."""
    N = ctx.N
    xv, yv, zv = (_residue_value(v, N) for v in (x, y, z))
    return (pow(xv, ctx.p, N) + pow(yv, ctx.q, N)) % N == pow(zv, ctx.r, N)


def find_bs_pair(z, ctx: BSContext, rng: random.Random) -> tuple[Residue, Residue]:
    """Sample (x, y), both nonzero, with x^p + y^q = z^r (mod N).

    Draw x uniformly from [1, N-1], accept when t = z^r - x^p is a nonzero
    q-th residue, and extract y as a q-th root of t.  Acceptance chance per
    draw is about 1/gcd(q, N-1), so the retry cap of
    64*gcd(q, N-1) draws is unreachable for sane contexts.
    """
    N = ctx.N
    zv = _residue_value(z, N)
    zr = pow(zv, ctx.r, N)
    cap = FIND_PAIR_RETRY_FACTOR * math.gcd(ctx.q, N - 1)
    for _ in range(cap):
        xv = rng.randrange(1, N)
        t = (zr - pow(xv, ctx.p, N)) % N
        if t == 0:
            continue
        if kth_residue_test(t, ctx.q, ctx.modulus):
            y = kth_root_mod(t, ctx.q, ctx.modulus, rng)
            return Residue(xv, N), y
    raise RetryExhausted(
        f"no Beal-Schur pair found for z={zv} after {cap} draws (N={N})"
    )


@dataclass(frozen=True)
class RealBealSolution:
    """Real numbers with x^p + y^q = z^r, plus the intermediates that built x.

    tau = y^(q-2) / z^(r-2) and e_term = 1 / (z^2 - tau*y^2); the defining
    identity is then z^r - y^q = z^(r-2) / e_term, whose p-th root is x.
    """

    x: float
    y: float
    z: float
    p: float
    q: float
    r: float
    tau: float
    e_term: float

    def defect(self) -> float:
        """Relative residual |x^p + y^q - z^r| / max(|x^p|, |y^q|, |z^r|)."""
        xp = _real_pow(self.x, self.p)
        yq = _real_pow(self.y, self.q)
        zr = _real_pow(self.z, self.r)
        scale = max(abs(xp), abs(yq), abs(zr))
        return abs(xp + yq - zr) / scale if scale else 0.0


def _real_pow(base: float, exponent: float) -> float:
    """base**exponent over the reals; negative base needs an integer exponent."""
    if base >= 0:
        return math.pow(base, exponent)
    if float(exponent).is_integer():
        mag = math.pow(-base, exponent)
        return -mag if int(exponent) % 2 else mag
    raise DegenerateInput(
        f"({base})**{exponent} is not real (negative base, fractional exponent)"
    )


def solve_real_beal(y: float, z: float, p: float, q: float, r: float) -> RealBealSolution:
    """Construct x so that x^p + y^q = z^r over the reals.

    Steps: tau = y^(q-2)/z^(r-2); e_term = 1/(z^2 - tau*y^2); then
    z^r - y^q = z^(r-2)/e_term and x is its p-th root.
    """
    if y in (0.0, 1.0, -1.0) or z in (0.0, 1.0, -1.0):
        raise DegenerateInput("y and z must avoid {0, 1, -1}")
    if p == 0 or q == 0 or r == 0:
        raise DegenerateInput("exponents must be nonzero")
    yq = _real_pow(y, q)
    zr = _real_pow(z, r)
    if yq == zr:
        raise DegenerateInput(f"z^r = y^q = {zr}; no gap to take a root of")
    zr2 = _real_pow(z, r - 2.0)
    yq2 = _real_pow(y, q - 2.0)
    tau = yq2 / zr2
    gap = z * z - tau * y * y
    if gap == 0 or not math.isfinite(gap):
        raise DegenerateInput("z^2 - tau*y^2 degenerate")
    e_term = 1.0 / gap
    radicand = zr2 / e_term  # equals z^r - y^q
    if radicand < 0:
        if float(p).is_integer() and int(p) % 2 == 1:
            x = -math.pow(-radicand, 1.0 / p)
        else:
            raise NegativeRadicand(
                f"z^r - y^q = {radicand} < 0 has no real root for p = {p}"
            )
    else:
        x = math.pow(radicand, 1.0 / p)
    return RealBealSolution(x=x, y=y, z=z, p=p, q=q, r=r, tau=tau, e_term=e_term)
