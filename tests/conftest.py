"""Shared fixtures and independent oracles used across the suite.

The helpers here deliberately avoid the library's own code paths: sieve
primality, exhaustive power enumeration, the FFT convolution of enumerated
power histograms and the O(N^3) triple loop serve as ground truth for the
fast implementations.
"""

import os
import random
from pathlib import Path

import numpy as np
import pytest

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


def brute_force_witness(p, q, r, N):
    """Smallest nontrivial (x, y, z) by x, then y, then exhaustive z search."""
    zr = [pow(z, r, N) for z in range(N)]
    for x in range(1, N):
        for y in range(1, N):
            c = (pow(x, p, N) + pow(y, q, N)) % N
            if c and c in zr:
                return x, y, zr.index(c, 1)
    return None


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
