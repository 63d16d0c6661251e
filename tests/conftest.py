"""Shared fixtures and independent oracles used across the suite.

The helpers here deliberately avoid the library's own code paths: sieve
primality, exhaustive power enumeration, the FFT convolution and FFT
exponential sums of enumerated power histograms, the O(N^3) triple loop and
a frozen Adleman-Manders-Miller root extraction (Euler criterion throughout)
serve as ground truth for the fast implementations.
"""

import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from bealschur.modmath import factorize

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def src_on_child_pythonpath(monkeypatch):
    """Child interpreters import bealschur from src/ whatever their cwd."""
    inherited = os.environ.get("PYTHONPATH")
    paths = [str(SRC)] + ([inherited] if inherited else [])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(paths))


def sieve_primes(limit):
    """All primes <= limit by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def trial_division_prime(n):
    """Primality by trial division, the independent oracle."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def next_prime(n):
    n += 1
    while not trial_division_prime(n):
        n += 1
    return n


def brute_force_count(p, q, r, N):
    """O(N^3) triple loop over all residue triples."""
    xp = [pow(x, p, N) for x in range(N)]
    yq = [pow(y, q, N) for y in range(N)]
    zr = [pow(z, r, N) for z in range(N)]
    return sum(
        1
        for a in xp
        for b in yq
        for c in zr
        if (a + b - c) % N == 0
    )


def enumerated_histogram(ell, N):
    """freq[a] = #{x : x^ell = a (mod N)} by evaluating every x."""
    return np.bincount([pow(x, ell, N) for x in range(N)], minlength=N)


def _cyclic_convolution(fp, fq, N):
    """Cyclic convolution of two integer histograms by FFT.

    The oracle for the exact count: it fails when an entry lies farther
    than 1e-3 from its rounded integer, so a lost margin never passes.
    """
    approx = np.fft.irfft(np.fft.rfft(fp) * np.fft.rfft(fq), n=N)
    conv = np.rint(approx).astype(np.int64)
    assert np.max(np.abs(approx - conv)) <= 1e-3, "rounding margin exceeded"
    return conv


def fft_exp_sum_table(ell, N):
    """All N exponential sums S_k(ell) by one FFT of the enumerated histogram.

    The oracle for the Gauss-period tables: the library evaluates no FFT.
    """
    # fft uses kernel exp(-2 pi i k a / N); conjugate flips the sign
    return np.conj(np.fft.fft(enumerated_histogram(ell, N).astype(np.float64)))


def brute_force_witness(p, q, r, N):
    """Smallest nontrivial (x, y, z) by x, then y, then exhaustive z search."""
    zr = [pow(z, r, N) for z in range(N)]
    for x in range(1, N):
        for y in range(1, N):
            c = (pow(x, p, N) + pow(y, q, N)) % N
            if c and c in zr:
                return x, y, zr.index(c, 1)
    return None


def _amm_non_residue(pi, N, rng):
    e = (N - 1) // pi
    for _ in range(4096):
        rho = rng.randrange(2, N)
        if pow(rho, e, N) != 1:
            return rho
    raise AssertionError(f"no non-{pi}th-residue mod {N} in 4096 draws")


def _amm_prime_root(c, pi, N, rng):
    """One pi-th root of c: guess c^(pi^-1 mod m), then correct in <b>."""
    n = N - 1
    s, m = 0, n
    while m % pi == 0:
        s += 1
        m //= pi
    b = pow(_amm_non_residue(pi, N, rng), m, N)  # order exactly pi^s
    y = pow(c, pow(pi, -1, m), N) if m > 1 else 1
    t = c * pow(y, -pi, N) % N
    gamma = pow(b, pi ** (s - 1), N)
    e = 0
    for j in range(s):
        w = pow(t * pow(b, -e, N) % N, pi ** (s - 1 - j), N)
        e += [pow(gamma, i, N) for i in range(pi)].index(w) * pi**j
    assert e % pi == 0
    return y * pow(b, e // pi, N) % N


def _amm_prime_power_root(c, pi, a, N, rng):
    n = N - 1
    zeta = pow(_amm_non_residue(pi, N, rng), n // pi, N)
    t = c
    for remaining in range(a - 1, -1, -1):
        w = _amm_prime_root(t, pi, N, rng)
        for _ in range(pi if remaining else 0):
            if pow(w, n // pi**remaining, N) == 1:
                break
            w = w * zeta % N
        t = w
    return t


def _bezout(values):
    """Coefficients u_i with sum(u_i * values_i) = 1, by chained xgcd."""
    coeffs, g = [1], values[0]
    for v in values[1:]:
        x0, x1, y0, y1, a, b = 1, 0, 0, 1, g, v
        while b:
            qt, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - qt * x1
            y0, y1 = y1, y0 - qt * y1
        coeffs = [u * x0 for u in coeffs] + [y0]
        g = a
    return coeffs


def amm_root_reference(c, k, N, rng):
    """One k-th root of the nonzero k-th residue c mod the prime N by AMM.

    The extraction kth_root_mod made before it replayed draws: exponent
    inversion when gcd(k, N-1) = 1, otherwise y^d = c^alpha solved prime
    power by prime power with non-residues drawn from rng, recombined by
    Bezout.  Its root and its use of rng are what kth_root_mod must match.
    """
    n = N - 1
    d = math.gcd(k, n)
    if d == 1:
        return pow(c, pow(k, -1, n) if n > 1 else 0, N)
    assert pow(c, n // d, N) == 1, "not a residue"
    nd = n // d
    target = pow(c, pow(k // d, -1, nd) if nd > 1 else 1, N)
    parts = [
        (_amm_prime_power_root(target, pi, a, N, rng), pi**a)
        for pi, a in factorize(d, rng).items()
    ]
    y = 1
    for (root, _), u in zip(parts, _bezout([d // size for _, size in parts])):
        y = y * pow(root, u, N) % N
    return y


def kth_powers(k, N):
    """The set {y^k mod N : y in Z_N} by exhaustive enumeration."""
    return {pow(y, k, N) for y in range(N)}


@pytest.fixture
def rng():
    return random.Random(0xBEA15C)


# Deterministic large primes used by the crypto tests (verified in-suite).
# The 66- and 74-bit ones are 3 mod 4 with bit length not 1 mod 8: then the
# complementary root N - z of any valid block always overflows the block
# byte width, so honest decryptions can never abort as ambiguous.
PRIME_66_BIT = 2**65 + 131           # gcd(2, N-1) = 2
PRIME_57_BIT = 2**56 + 97            # N = 2 mod 3, so gcd(3, N-1) = 1
PRIME_74_BIT = 2**73 + 291           # gcd(8, N-1) = 2
FERMAT_65537 = 65537

# spellings of a decimal token v that int() accepts besides the canonical v
NON_CANONICAL = {
    "leading-zero": lambda v: "0" + v,
    "plus-sign": lambda v: "+" + v,
    "underscore": lambda v: v[0] + "_" + v[1:],
    "space": lambda v: " " + v,
    "arabic-indic": lambda v: v.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}
