"""Exact modular arithmetic over a prime modulus.

Exponentiation, primality certification, k-th power residue testing and
k-th root extraction.  One private helper finds a single k-th root for both
``kth_root_mod`` and ``all_kth_roots``.  With d = gcd(k, N-1), when
gcd(k, (N-1)/d) = 1 the root is c^e with e = k^-1 mod (N-1)/d, a single
exponentiation (this covers d = 1 and d = 2 with N = 3 mod 4).  That is the
root an Adleman-Manders-Miller extraction returns there, so given a
caller's ``random.Random`` the helper replays the non-residue draws AMM
would make and leaves the generator in the same state.  Any other (k, N)
runs AMM prime power by prime power through d.  ``all_kth_roots`` turns the
one root into all d from an element of order d cached per (k, N).  The
quadratic character (d = 2) is the Jacobi symbol, by quadratic reciprocity.

All functions are pure; randomness enters only through an explicit
``random.Random`` argument, so seeded callers are fully reproducible.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .errors import ModulusTooSmall, NonResidue, NotPrime

# Below this bound primality is settled by trial division (proven);
# above it Miller-Rabin is used.
TRIAL_DIVISION_LIMIT = 10**8

DEFAULT_MR_ROUNDS = 40

# Bases 2..41 decide primality deterministically for n < psi_13
# (Sorenson & Webster, Math. Comp. 86, 2017); only from psi_13 on are
# random extra bases appended past rounds=13.
_MR_FIXED_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

_FALLBACK_SEED = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class Residue:
    """An element of Z_modulus, always stored reduced."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ModulusTooSmall(f"modulus {self.modulus} < 2")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"residue {self.value} not reduced mod {self.modulus}")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


@dataclass(frozen=True)
class PrimeModulus:
    """A certified prime.

    ``rounds`` records the Miller-Rabin round count used above the trial
    division band; below the band the value is proven outright.
    Construction re-certifies, so an instance is always valid.
    """

    value: int
    rounds: int = DEFAULT_MR_ROUNDS

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if not is_probable_prime(self.value, self.rounds):
            raise NotPrime(f"{self.value} failed primality certification")

    @property
    def certainty(self) -> str:
        if self.value < TRIAL_DIVISION_LIMIT:
            return "proven-by-trial-division"
        return f"probable({self.rounds})"

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def as_prime_modulus(n, rounds: int = DEFAULT_MR_ROUNDS) -> PrimeModulus:
    """Coerce an int (or pass through a PrimeModulus), certifying primality."""
    if isinstance(n, PrimeModulus):
        return n
    return PrimeModulus(int(n), rounds)


def mod_pow(base, exponent: int, modulus: int) -> Residue:
    """base**exponent reduced mod modulus, as a Residue."""
    if modulus < 2:
        raise ModulusTooSmall(f"modulus {modulus} < 2")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return Residue(pow(int(base), exponent, modulus), modulus)


def _trial_division(n: int) -> bool:
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


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


def is_probable_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Primality test: trial division below TRIAL_DIVISION_LIMIT, else Miller-Rabin.

    The first min(rounds, 13) Miller-Rabin bases are fixed small primes.
    All 13 decide primality below psi_13 ~ 3.3e24, so remaining rounds draw
    random bases only for n >= psi_13.
    """
    if n < 2:
        return False
    if n < TRIAL_DIVISION_LIMIT:
        return _trial_division(n)
    for p in _MR_FIXED_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_FIXED_BASES[:rounds]:
        if _mr_witness(a, d, s, n):
            return False
    if rounds > len(_MR_FIXED_BASES) and n >= _PSI_13:
        rng = random.Random(n ^ _FALLBACK_SEED)
        for _ in range(rounds - len(_MR_FIXED_BASES)):
            if _mr_witness(rng.randrange(2, n - 1), d, s, n):
                return False
    return True


# -- factorization (desk scale: trial division + Pollard rho) ----------------

def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
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
        if n % f == 0:
            while n % f == 0:
                factors[f] = factors.get(f, 0) + 1
                n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return factors


def find_generator(N, rng: random.Random | None = None) -> int:
    """A generator of the multiplicative group mod prime N.

    Requires the full factorization of N-1, so intended for desk-scale N.
    """
    Nm = as_prime_modulus(N)
    n = Nm.value - 1
    if n == 1:
        return 1
    rng = rng or random.Random(_FALLBACK_SEED)
    prime_factors = list(factorize(n, rng))
    while True:
        g = rng.randrange(2, Nm.value)
        if all(pow(g, n // p, Nm.value) != 1 for p in prime_factors):
            return g


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
    return int(c) % Nv, Nv


def _is_power(c: int, d: int, N: int) -> bool:
    """Euler's criterion for a nonzero c and d | N-1 (for d = 2, the Jacobi symbol)."""
    if d == 2:
        return _jacobi(c, N) == 1
    return pow(c, (N - 1) // d, N) == 1


def kth_residue_test(t, k: int, N) -> bool:
    """True iff some y in Z_N satisfies y**k = t (mod N).

    t == 0 is always a residue; otherwise t must be a d-th power with
    d = gcd(k, N-1).
    """
    tv, Nv = _checked_input(t, k, N)
    return tv == 0 or _is_power(tv, math.gcd(k, Nv - 1), Nv)


def _find_non_residue(pi: int, N: int, rng: random.Random) -> int:
    """Random element that is not a pi-th power mod N (pi prime, pi | N-1)."""
    for _ in range(4096):
        rho = rng.randrange(2, N)
        if not _is_power(rho, pi, N):
            return rho
    raise NonResidue(f"could not find a non-{pi}th-residue mod {N}")


def _prime_root(c: int, pi: int, N: int, rng: random.Random) -> int:
    """One pi-th root of the pi-th residue c mod N (pi prime, pi | N-1).

    Adleman-Manders-Miller: split N-1 = pi^s * m, guess via the inverse of
    pi mod m, then correct inside the pi^s-torsion subgroup by digit-wise
    discrete log base a subgroup generator.
    """
    n = N - 1
    s, m = 0, n
    while m % pi == 0:
        s += 1
        m //= pi
    rho = _find_non_residue(pi, N, rng)
    b = pow(rho, m, N)  # order exactly pi^s
    if m > 1:
        y = pow(c, pow(pi, -1, m), N)
    else:
        y = 1
    t = c * pow(y, -pi, N) % N  # lies in <b>, and is a pi-th power there
    gamma = pow(b, pi ** (s - 1), N)  # primitive pi-th root of unity
    # digit-extract e with b^e = t, base-pi digits low to high
    e = 0
    for j in range(s):
        w = pow(t * pow(b, -e, N) % N, pi ** (s - 1 - j), N)
        digit, acc = None, 1
        for cand in range(pi):
            if acc == w:
                digit = cand
                break
            acc = acc * gamma % N
        if digit is None:
            raise NonResidue(f"{c} is not a {pi}th residue mod {N}")
        e += digit * pi**j
    if e % pi != 0:
        raise NonResidue(f"{c} is not a {pi}th residue mod {N}")
    return y * pow(b, e // pi, N) % N


def _prime_power_root(c: int, pi: int, a: int, N: int, rng: random.Random) -> int:
    """One pi^a-th root of c mod N; c must be a pi^a-th residue, pi^a | N-1."""
    n = N - 1
    zeta = pow(_find_non_residue(pi, N, rng), n // pi, N)  # order pi
    t = c
    for remaining in range(a - 1, -1, -1):
        w = _prime_root(t, pi, N, rng)
        if remaining > 0:
            # steer onto a pi^remaining-th residue; some pi-th root of t is one
            need = n // pi**remaining
            for _ in range(pi):
                if pow(w, need, N) == 1:
                    break
                w = w * zeta % N
            else:
                raise NonResidue(f"{c} is not a {pi**a}th residue mod {N}")
        t = w
    return t


def _one_root(c: int, k: int, N: int, rng: random.Random | None) -> int:
    """One k-th root of c mod N (N certified prime, 0 < c < N), else NonResidue.

    With d = gcd(k, N-1) and gcd(k, (N-1)/d) = 1, every prime pi | d has
    v_pi(N-1) = v_pi(d), so AMM's correction digits are all 0 and it
    returns exactly c^e, e = k^-1 mod (N-1)/d; its draws only advance the
    rng, so they are replayed: factorize(d), then 1 + a non-residue draws
    for each pi^a || d.  Otherwise AMM runs on y^d = c^alpha, prime power by
    prime power, with a fixed-seed rng if none is given.
    """
    n = N - 1
    d = math.gcd(k, n)
    m = n // d
    if math.gcd(k, m) == 1:
        y = pow(c, pow(k, -1, m), N)
        if pow(y, k, N) != c:
            raise NonResidue(f"{c} is not a {k}th residue mod {N}")
        if rng is not None:
            for pi, a in factorize(d, rng).items():
                for _ in range(1 + a):
                    _find_non_residue(pi, N, rng)
        return y
    if not _is_power(c, d, N):
        raise NonResidue(f"{c} is not a {k}th residue mod {N}")
    rng = rng or random.Random(_FALLBACK_SEED)
    # same solution set as y^k = c, since c is a residue
    target = pow(c, pow(k // d, -1, m), N)
    parts = [
        (_prime_power_root(target, pi, a, N, rng), pi**a)
        for pi, a in factorize(d, rng).items()
    ]
    coeffs = _bezout_combination([d // size for _, size in parts])
    y = 1
    for (root, _), u in zip(parts, coeffs):
        y = y * pow(root, u, N) % N
    return y


def kth_root_mod(c, k: int, N, rng: random.Random | None = None) -> Residue:
    """Some y with y**k = c (mod N); NonResidue, before any draw, if none.

    With d = gcd(k, N-1): when gcd(k, (N-1)/d) = 1 (always when d = 1),
    y = c^(k^-1 mod (N-1)/d) and the draws an Adleman-Manders-Miller
    extraction would make are replayed on rng, so seeded callers consume it
    exactly as AMM does.  Otherwise AMM solves y^d prime power by prime
    power, recombining with Bezout coefficients.
    """
    cv, Nv = _checked_input(c, k, N)
    if cv == 0:
        return Residue(0, Nv)
    return Residue(_one_root(cv, k, Nv, rng), Nv)


def _bezout_combination(values: list[int]) -> list[int]:
    """Coefficients u_i with sum(u_i * values_i) = gcd(values) (here 1)."""
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        g2, a, b = _xgcd(g, v)
        coeffs = [u * a for u in coeffs]
        coeffs.append(b)
        g = g2
    return coeffs


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        qt, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - qt * x1
        y0, y1 = y1, y0 - qt * y1
    return a, x0, y0


@functools.lru_cache(maxsize=256)
def _root_plan(k: int, N: int) -> tuple[int, int]:
    """(d, omega) for k-th roots mod the prime N, computed once per (k, N).

    d = gcd(k, N-1) is the number of roots of a nonzero residue and omega an
    element of order exactly d, found by a deterministic scan.  N must
    already be certified prime.
    """
    n = N - 1
    d = math.gcd(k, n)
    if d <= 2:  # 1 has order 1, and N-1 = -1 has order 2
        return d, 1 if d == 1 else N - 1
    prime_factors = list(factorize(d))
    u = 2
    while any(pow(u, n // pi, N) == 1 for pi in prime_factors):
        u += 1
    return d, pow(u, n // d, N)


def all_kth_roots(c, k: int, N) -> set[Residue]:
    """The full set of k-th roots of c mod N: gcd(k, N-1) of them, or {0}.

    One root y comes from the single-root helper with no rng (one
    exponentiation when gcd(k, (N-1)/d) = 1, no draws); the rest are y
    times the powers of the cached element of order d = gcd(k, N-1).
    """
    cv, Nv = _checked_input(c, k, N)
    if cv == 0:
        return {Residue(0, Nv)}
    d, omega = _root_plan(k, Nv)
    y = _one_root(cv, k, Nv, None)
    roots = set()
    for _ in range(d):
        roots.add(Residue(y, Nv))
        y = y * omega % Nv
    return roots
