"""Exact modular arithmetic over a prime modulus.

Exponentiation, primality certification, k-th power residue testing and
k-th root extraction.  Primality has one rule, Miller-Rabin on the fewest
fixed bases proven to decide n (``_proven_bases``: {2} below 2047 up to
Sinclair's seven below 2^64, then 2..41 up to psi_13; ``is_probable_prime``),
and so does residuosity (``_is_power``:
the Jacobi symbol at d = 2, Euler's criterion above).  With d = gcd(k, N-1),
when gcd(k, (N-1)/d) = 1 the k-th root is c^e, e = k^-1 mod (N-1)/d, one
exponentiation (this covers d = 1 and d = 2 with N = 3 mod 4).  That is the
root an Adleman-Manders-Miller extraction returns there.  Otherwise AMM runs
prime power by prime power through d, a chain of pi-th roots per pi^a || d
(any pi-th root of a pi^j-th power is a pi^(j-1)-th power when pi^j | N-1),
recombining the roots by modular inverses.  Both paths take AMM's draws from
a caller's ``random.Random`` through one function (``_amm_draws``), so both
leave it in the same state.
``factorize`` is trial division below 10^6, then Pollard's rho with Floyd's
cycle finding on the cofactor.
``all_kth_roots`` turns one root into all d from the element of order d
cached per (d, N) (``_unity``).  AMM's non-residues, generators and
``_unity`` each take the first draw that is a pi-th power for no pi in a set
of primes (``_non_power``).
A caller's value must be an integer (``operator.index``, so a float raises
TypeError) or a Residue of the same modulus (else MixedModuli).

All functions are pure; randomness enters only through an explicit
``random.Random`` argument, so seeded callers are fully reproducible.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass

from .errors import MixedModuli, ModulusTooSmall, NonResidue, NotPrime

DEFAULT_MR_ROUNDS = 40

# Bases 2..41 decide primality deterministically for n < psi_13
# (Sorenson & Webster, Math. Comp. 86, 2017); only from psi_13 on are
# random extra bases appended past rounds=13.
_MR_FIXED_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

# Fewer bases decide every n below each bound (OEIS A014233; Sinclair's seven
# below 2^64, checked against Feitsma and Galway's base-2 strong pseudoprimes).
# Each odd bound is a strong pseudoprime to its own set, which so stops there.
_PROVEN_BASES = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)

_FALLBACK_SEED = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class Residue:
    """An element of Z_modulus, always stored reduced."""

    value: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "value", operator.index(self.value))
        object.__setattr__(self, "modulus", operator.index(self.modulus))
        if self.modulus < 2:
            raise ModulusTooSmall(f"modulus {self.modulus} < 2")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"residue {self.value} not reduced mod {self.modulus}")

    def __index__(self) -> int:
        return self.value


@dataclass(frozen=True)
class PrimeModulus:
    """A certified prime.

    Below psi_13 the fixed Miller-Rabin bases of ``_proven_bases`` prove the
    value prime (one to seven of them below 2^64, the 13 bases 2..41 above);
    from psi_13 on ``rounds`` records the round count of the probable-prime
    test.  Construction re-certifies, so an instance is always valid.
    """

    value: int
    rounds: int = DEFAULT_MR_ROUNDS

    def __post_init__(self):
        object.__setattr__(self, "value", operator.index(self.value))
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if not is_probable_prime(self.value, self.rounds):
            raise NotPrime(f"{self.value} failed primality certification")

    @property
    def certainty(self) -> str:
        if self.value < _PSI_13:
            return "proven-by-fixed-bases"
        return f"probable({self.rounds})"

    def __index__(self) -> int:
        return self.value


def as_prime_modulus(n) -> PrimeModulus:
    """Certify an integer as a PrimeModulus, or pass a PrimeModulus through."""
    if isinstance(n, PrimeModulus):
        return n
    return PrimeModulus(n)


def _residue_value(v, N: int) -> int:
    """v as an int in [0, N): a Residue must be mod N, anything else an integer."""
    if isinstance(v, Residue):
        if v.modulus != N:
            raise MixedModuli(f"residue mod {v.modulus} used in a mod-{N} context")
        return v.value
    return operator.index(v) % N


def mod_pow(base, exponent: int, modulus: int) -> Residue:
    """base**exponent reduced mod modulus, as a Residue."""
    if modulus < 2:
        raise ModulusTooSmall(f"modulus {modulus} < 2")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return Residue(pow(_residue_value(base, modulus), exponent, modulus), modulus)


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    """True if a proves n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _proven_bases(n: int) -> tuple[int, ...]:
    """The fixed bases that decide n: the first set of _PROVEN_BASES whose bound
    exceeds n, else the 13 bases 2..41.  Every base is below n on the 2^64 branch."""
    for bound, bases in _PROVEN_BASES:
        if n < bound:
            return bases
    return _MR_FIXED_BASES


def is_probable_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Trial division by 2..41, then Miller-Rabin on the fixed bases of
    ``_proven_bases``, whatever ``rounds`` is.

    They decide primality for every n < psi_13 ~ 3.3e24; from psi_13 on,
    rounds - 13 further bases come from a generator seeded by n.
    """
    if n < 2:
        return False
    for p in _MR_FIXED_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _proven_bases(n):
        if _mr_witness(a, d, s, n):
            return False
    if n >= _PSI_13:
        rng = random.Random(n ^ _FALLBACK_SEED)
        for _ in range(rounds - len(_MR_FIXED_BASES)):
            if _mr_witness(rng.randrange(2, n - 1), d, s, n):
                return False
    return True


# -- factorization (desk scale: trial division + Pollard rho) ----------------

def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite n (Pollard's rho, Floyd's cycle finding)."""
    while True:
        x = y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
        if g != n:
            return g


def factorize(n: int, rng: random.Random | None = None) -> dict[int, int]:
    """Prime factorization {prime: multiplicity} of n >= 1."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    rng = rng or random.Random(_FALLBACK_SEED)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n and f < 10**6:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return factors


def find_generator(N, rng: random.Random | None = None) -> int:
    """A generator mod the prime N: the first draw that is a pi-th power for
    no prime pi | N-1.  Needs the factorization of N-1, so desk-scale N only."""
    Nm = as_prime_modulus(N)
    n = Nm.value - 1
    if n == 1:
        return 1
    rng = rng or random.Random(_FALLBACK_SEED)
    return _non_power(factorize(n, rng), Nm.value, rng)


# -- k-th residues and roots --------------------------------------------------

def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity.

    For a prime n it is the Legendre symbol: 1 for a nonzero square mod n,
    -1 for a non-square and 0 for a = 0 (mod n).
    """
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 2:  # both are 3 mod 4
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _checked_input(c, k: int, N) -> tuple[int, int]:
    """(c mod N, N) for the k-th power functions, after certifying N and k >= 1."""
    Nv = as_prime_modulus(N).value
    if k < 1:
        raise ValueError("k must be positive")
    return _residue_value(c, Nv), Nv


def _is_power(c: int, d: int, N: int) -> bool:
    """Whether the nonzero c is a d-th power mod the prime N, d | N-1: always
    at d = 1, by the Jacobi symbol at d = 2, else by Euler's criterion."""
    if d == 1:
        return True
    if d == 2:
        return _jacobi(c, N) == 1
    return pow(c, (N - 1) // d, N) == 1


@functools.lru_cache(maxsize=256)
def _unity(d: int, N: int) -> int:
    """An element of exact order d mod the prime N (d | N-1), cached per (d, N):
    u^((N-1)/d) for the first draw u of a fixed-seed rng that is a pi-th power
    for no prime pi | d."""
    if d <= 2:  # 1 has order 1, and N-1 = -1 has order 2
        return 1 if d == 1 else N - 1
    u = _non_power(factorize(d), N, random.Random(_FALLBACK_SEED))
    return pow(u, (N - 1) // d, N)


def kth_residue_test(t, k: int, N) -> bool:
    """True iff some y in Z_N satisfies y**k = t (mod N).

    t == 0 is always a residue; otherwise t must be a d-th power with
    d = gcd(k, N-1).
    """
    tv, Nv = _checked_input(t, k, N)
    return tv == 0 or _is_power(tv, math.gcd(k, Nv - 1), Nv)


def _non_power(primes, N: int, rng: random.Random) -> int:
    """The first draw u = rng.randrange(2, N) that is a pi-th power mod N for
    no pi in primes (each prime, pi | N-1); NonResidue after 4096 draws."""
    for _ in range(4096):
        u = rng.randrange(2, N)
        if not any(_is_power(u, pi, N) for pi in primes):
            return u
    raise NonResidue(f"no non-power for the primes {list(primes)} mod {N} in 4096 draws")


def _amm_draws(d: int, N: int, rng: random.Random) -> dict[int, list[int]]:
    """AMM's non-residue draws for a d-th root mod N: for each pi^a || d, in
    factorize(d, rng) order, the last a of 1 + a draws _non_power((pi,), N, rng).
    The first draw per prime is made only so a seeded rng ends in the same state."""
    primes = factorize(d, rng)
    return {pi: [_non_power((pi,), N, rng) for _ in range(1 + a)][1:] for pi, a in primes.items()}


def _prime_root(c: int, pi: int, N: int, u: int) -> int:
    """One pi-th root of the pi-th residue c mod N (prime pi | N-1); u is no pi-th power.

    Adleman-Manders-Miller: split N-1 = pi^s * m, guess via the inverse of
    pi mod m, then correct inside the pi^s-torsion subgroup by digit-wise
    discrete log base a subgroup generator.  As c is a pi-th power, t is a
    power of b^pi, so the log's lowest digit is 0 and the search starts at the
    next; each digit is found.
    """
    s, m = 0, N - 1
    while m % pi == 0:
        s += 1
        m //= pi
    b = pow(u, m, N)  # order exactly pi^s
    y = pow(c, pow(pi, -1, m), N)  # at m = 1, pow(pi, -1, 1) = 0 and y = 1
    t = c * pow(y, -pi, N) % N  # lies in <b>, and is a pi-th power there
    gamma = pow(b, pi ** (s - 1), N)  # primitive pi-th root of unity
    # digit-extract e with b^e = t, base-pi digits low to high from the second
    e = 0
    for j in range(1, s):
        w = pow(t * pow(b, -e, N) % N, pi ** (s - 1 - j), N)
        acc = 1
        for digit in range(pi):
            if acc == w:
                break
            acc = acc * gamma % N
        e += digit * pi**j
    return y * pow(b, e // pi, N) % N


def _one_root(c: int, k: int, N: int, rng: random.Random | None) -> int:
    """One k-th root of c mod N (N certified prime, 0 < c < N), else NonResidue.

    With d = gcd(k, N-1) and gcd(k, (N-1)/d) = 1, every prime pi | d has
    v_pi(N-1) = v_pi(d), so AMM's correction digits are all 0 and it
    returns exactly c^e, e = k^-1 mod (N-1)/d; its draws (_amm_draws) only
    advance the rng, so they are made and dropped.  Otherwise AMM solves
    y^d = c^alpha by a chain of a pi-th roots per pi^a || d, one per draw of
    _amm_draws (rng's, or a fixed seed's); any pi-th root serves, as every
    pi-th root of a pi^j-th power is a pi^(j-1)-th power when pi^j | N-1.
    """
    n = N - 1
    d = math.gcd(k, n)
    m = n // d
    if math.gcd(k, m) == 1:
        y = pow(c, pow(k, -1, m), N)
        if pow(y, k, N) != c:
            raise NonResidue(f"{c} is not a {k}th residue mod {N}")
        if rng is not None:
            _amm_draws(d, N, rng)
        return y
    if not _is_power(c, d, N):
        raise NonResidue(f"{c} is not a {k}th residue mod {N}")
    # same solution set as y^k = c, since c is a residue
    target = pow(c, pow(k // d, -1, m), N)
    # root_i^s_i = target for s_i = pi^a; u_i = (d/s_i)^-1 mod s_i gives
    # sum u_i d/s_i = 1 + j d, so y = target^-j prod root_i^u_i has y^d = target
    y, excess = 1, -1
    for pi, draws in _amm_draws(d, N, rng or random.Random(_FALLBACK_SEED)).items():
        s = pi ** len(draws)
        u = pow(d // s, -1, s)
        root = target
        for v in draws:
            root = _prime_root(root, pi, N, v)
        y = y * pow(root, u, N) % N
        excess += u * (d // s)
    return y * pow(target, -(excess // d), N) % N


def kth_root_mod(c, k: int, N, rng: random.Random | None = None) -> Residue:
    """Some y with y**k = c (mod N); NonResidue, before any draw, if none.

    With d = gcd(k, N-1): when gcd(k, (N-1)/d) = 1 (always when d = 1),
    y = c^(k^-1 mod (N-1)/d).  Otherwise Adleman-Manders-Miller solves y^d
    prime power by prime power, recombining the roots by modular inverses.
    Both paths take the same AMM draws from rng, so a seeded caller's
    generator ends in the same state whichever path runs.
    """
    cv, Nv = _checked_input(c, k, N)
    if cv == 0:
        return Residue(0, Nv)
    return Residue(_one_root(cv, k, Nv, rng), Nv)


def all_kth_roots(c, k: int, N) -> set[Residue]:
    """The full set of k-th roots of c mod N: gcd(k, N-1) of them, or {0}.

    One root y comes from the single-root helper with no rng (one
    exponentiation when gcd(k, (N-1)/d) = 1, no draws); the rest are y
    times the powers of the element of order d = gcd(k, N-1), cached per (d, N).
    """
    cv, Nv = _checked_input(c, k, N)
    if cv == 0:
        return {Residue(0, Nv)}
    d = math.gcd(k, Nv - 1)
    omega = _unity(d, Nv)
    y = _one_root(cv, k, Nv, None)
    roots = set()
    for _ in range(d):
        roots.add(Residue(y, Nv))
        y = y * omega % Nv
    return roots
