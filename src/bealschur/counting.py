"""Counting solutions of x^p + y^q = z^r (mod N) and the bound chain.

The exact count comes from an O(N log N) FFT convolution of power
histograms (frequency tables of the maps x -> x^ell mod N), rounded to
integers under a checked rounding margin.  The trivial count (x*y*z = 0)
is closed form.  A Fourier-side evaluation through the exponential sums
S_k(ell) = sum_x exp(2 pi i k x^ell / N) is a floating cross-check that
runs only when SolutionCount.fourier is read (``count --fourier``).
verify_bound_chain evaluates the full inequality chain that forces a
nontrivial solution once N exceeds 32 p^2 q^2 r^2, and finds a witness.

Desk scale by design: moduli must fit in 31 bits so int64 vector math
stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidContext
from .modmath import all_kth_roots, as_prime_modulus, kth_residue_test
from .triplets import BSContext, BSTriplet, Residue

_MAX_COUNTING_MODULUS = 1 << 31


def _counting_modulus(N) -> int:
    Nv = as_prime_modulus(N).value
    if Nv >= _MAX_COUNTING_MODULUS:
        raise ValueError(
            f"counting supports moduli below 2^31 (int64 exactness), got {Nv}"
        )
    return Nv


def _powmod_vector(values: np.ndarray, exponent: int, N: int) -> np.ndarray:
    """Elementwise values**exponent mod N, square-and-multiply in int64."""
    result = np.ones_like(values)
    base = values % N
    e = exponent
    while e:
        if e & 1:
            result = result * base % N
        base = base * base % N
        e >>= 1
    return result


@dataclass(frozen=True)
class PowerHistogram:
    """freq[a] = #{x in Z_N : x^ell = a (mod N)}."""

    ell: int
    modulus: int
    freq: np.ndarray

    @property
    def support_size(self) -> int:
        """Number of attained values, i.e. |image of x -> x^ell|."""
        return int(np.count_nonzero(self.freq))

    @property
    def nonzero_image_size(self) -> int:
        """|{a^ell : a nonzero}|, the power subgroup size."""
        return self.support_size - (1 if self.freq[0] else 0)


def power_histogram(ell: int, N) -> PowerHistogram:
    """Build the frequency table of x -> x^ell mod N in one pass."""
    if ell < 1:
        raise ValueError("ell must be positive")
    Nv = _counting_modulus(N)
    powers = _powmod_vector(np.arange(Nv, dtype=np.int64), ell, Nv)
    freq = np.bincount(powers, minlength=Nv).astype(np.int64)
    return PowerHistogram(ell=ell, modulus=Nv, freq=freq)


@dataclass(frozen=True)
class ExpSum:
    """S_k(ell) = sum_{x=0}^{N-1} exp(2 pi i k x^ell / N) with its provenance."""

    k: int
    ell: int
    modulus: int
    value: complex


def exp_sum(k: int, ell: int, N) -> ExpSum:
    """One exponential sum, evaluated termwise from the power histogram."""
    Nv = _counting_modulus(N)
    if not 0 <= k < Nv:
        raise ValueError(f"k must lie in [0, {Nv - 1}]")
    hist = power_histogram(ell, Nv)
    phases = np.exp((2j * math.pi * k / Nv) * np.arange(Nv))
    return ExpSum(k=k, ell=ell, modulus=Nv, value=complex(hist.freq @ phases))


def exp_sum_table(ell: int, N) -> np.ndarray:
    """All N exponential sums S_k(ell), k = 0..N-1, via one FFT."""
    Nv = _counting_modulus(N)
    hist = power_histogram(ell, Nv)
    # fft uses kernel exp(-2 pi i k a / N); conjugate flips the sign
    return np.conj(np.fft.fft(hist.freq.astype(np.float64)))


def count_power_matches(p: int, q: int, N) -> int:
    """#{(x, y) in Z_N^2 : x^p = y^q (mod N)}, exact."""
    Nv = _counting_modulus(N)
    fp = power_histogram(p, Nv).freq
    fq = power_histogram(q, Nv).freq
    return int(fp @ fq)


def count_trivial(p: int, q: int, r: int, N) -> int:
    """Exact number of solutions with x*y*z = 0 (mod N), in closed form.

    Each power histogram is f_e = delta_0 + d_e * 1_{H_e}, d_e = gcd(e, N-1),
    H_e the d_e-th powers.  Inclusion-exclusion over the zero coordinate
    (two zeros force the third) then gives 1 + (N-1) * (gcd(d_q, d_r) +
    gcd(d_p, d_r) + [g if -1 is a g-th power]), with g = gcd(d_p, d_q).
    """
    if min(p, q, r) < 1:
        raise ValueError("exponents must be positive")
    Nv = _counting_modulus(N)
    n = Nv - 1
    dp, dq, dr = (math.gcd(e, n) for e in (p, q, r))
    g = math.gcd(dp, dq)
    z_zero = g if pow(n, n // g, Nv) == 1 else 0  # n = -1 (mod N)
    return 1 + (math.gcd(dq, dr) + math.gcd(dp, dr) + z_zero) * n


def trivial_upper_bound(p: int, q: int, r: int, N) -> int:
    """Closed-form cap 1 + (min(q,r) + min(p,r) + min(p,q)) * (N-1)."""
    Nv = int(N)
    return 1 + (min(q, r) + min(p, r) + min(p, q)) * (Nv - 1)


def count_lower_bound(p: int, q: int, r: int, N) -> float:
    """The guaranteed floor N^2 - (2N)^(3/2) * p*q*r on the solution count."""
    Nv = int(N)
    return Nv * Nv - (2 * Nv) ** 1.5 * p * q * r


def _cyclic_convolution(fp: np.ndarray, fq: np.ndarray, N: int) -> np.ndarray:
    """Exact cyclic convolution of two integer histograms, by FFT.

    Raises ArithmeticError when any entry lies farther than 1e-3 from its
    rounded integer, so a lost rounding margin never passes silently.
    """
    approx = np.fft.irfft(np.fft.rfft(fp) * np.fft.rfft(fq), n=N)
    conv = np.rint(approx).astype(np.int64)
    if np.max(np.abs(approx - conv)) > 1e-3:
        raise ArithmeticError("convolution rounding margin exceeded")
    return conv


@dataclass(frozen=True)
class SolutionCount:
    """Exact count of solutions of x^p + y^q = z^r (mod N) and its trivial split."""

    p: int
    q: int
    r: int
    N: int
    total: int
    trivial: int
    nontrivial: int

    @property
    def fourier(self) -> float:
        """The Fourier-side cross-check of total, evaluated on each read."""
        return count_solutions_fourier(self.p, self.q, self.r, self.N)


def count_solutions_exact(p: int, q: int, r: int, N) -> SolutionCount:
    """Exact #{(x,y,z) : x^p + y^q = z^r (mod N)} plus the trivial split.

    The count is sum over c of (f_p conv f_q)[c] * f_r[c] with one power
    histogram per distinct exponent and an FFT convolution, O(N log N)
    time and O(N) space; the trivial count is closed form.
    """
    Nv = _counting_modulus(N)
    freq = {e: power_histogram(e, Nv).freq for e in {p, q, r}}
    conv = _cyclic_convolution(freq[p], freq[q], Nv)
    total = int(conv @ freq[r])
    trivial = count_trivial(p, q, r, Nv)
    return SolutionCount(p, q, r, Nv, total, trivial, total - trivial)


def count_solutions_fourier(p: int, q: int, r: int, N) -> float:
    """Fourier-side count N^2 + (1/N) sum_{k>=1} S_k(p) S_k(q) conj(S_k(r))."""
    Nv = _counting_modulus(N)
    sp = exp_sum_table(p, Nv)
    sq = exp_sum_table(q, Nv)
    sr = exp_sum_table(r, Nv)
    tail = np.sum(sp[1:] * sq[1:] * np.conj(sr[1:]))
    return float(Nv * Nv + tail.real / Nv)


def count_solutions_bruteforce(p: int, q: int, r: int, N) -> int:
    """Reference O(N^3) triple loop; for cross-checks at tiny N only."""
    Nv = _counting_modulus(N)
    xp = [pow(x, p, Nv) for x in range(Nv)]
    yq = [pow(y, q, Nv) for y in range(Nv)]
    zr = [pow(z, r, Nv) for z in range(Nv)]
    count = 0
    for a in xp:
        for b in yq:
            c = (a + b) % Nv
            for d in zr:
                if c == d:
                    count += 1
    return count


@dataclass(frozen=True)
class ChainCheck:
    """One named inequality in the bound chain, with its operands."""

    name: str
    lhs: float
    rel: str
    rhs: float
    passed: bool

    def render(self) -> str:
        def num(v):
            return str(v) if isinstance(v, int) else f"{v:.6f}"

        status = "pass" if self.passed else "fail"
        return f"CHECK {self.name} {num(self.lhs)} {self.rel} {num(self.rhs)} {status}"


@dataclass(frozen=True)
class BoundChainReport:
    """Outcome of the nontrivial-solution bound chain for one context."""

    p: int
    q: int
    r: int
    N: int
    total: int
    trivial: int
    nontrivial: int
    lower_bound: float
    trivial_upper: int
    checks: list[ChainCheck] = field(default_factory=list)
    witness: BSTriplet | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        if self.witness is not None:
            w = self.witness
            lines.append(f"WITNESS {w.x.value} {w.y.value} {w.z.value}")
        return "\n".join(lines)


def _find_nontrivial_witness(ctx: BSContext) -> BSTriplet | None:
    """Deterministic scan for a nontrivial solution: smallest (x, y, z).

    x, then y, run upward from 1; the first c = x^p + y^q that is a nonzero
    r-th residue fixes the witness, with z the smallest of its r-th roots.
    """
    p, q, r, N = ctx.p, ctx.q, ctx.r, ctx.N
    for x in range(1, N):
        xp = pow(x, p, N)
        for y in range(1, N):
            c = (xp + pow(y, q, N)) % N
            if c and kth_residue_test(c, r, ctx.modulus):
                z = min(root.value for root in all_kth_roots(c, r, ctx.modulus))
                return BSTriplet(Residue(x, N), Residue(y, N), Residue(z, N))
    return None


def verify_bound_chain(ctx: BSContext) -> BoundChainReport:
    """Evaluate the inequality chain guaranteeing a nontrivial solution.

    All comparisons involving the irrational (2N)^(3/2) term are decided
    in exact integer arithmetic by squaring; displayed operands may be
    floats but pass/fail never depends on floating point.
    """
    if not isinstance(ctx, BSContext):
        raise InvalidContext("verify_bound_chain needs a BSContext")
    p, q, r, N = ctx.p, ctx.q, ctx.r, ctx.N
    counts = count_solutions_exact(p, q, r, N)
    M = counts.total
    lower = count_lower_bound(p, q, r, N)
    tub = trivial_upper_bound(p, q, r, N)
    lin = 1 + (p + q + r) * N
    pqr = p * q * r
    sqrt_term = 7.0 * math.sqrt(N / 32.0) * N

    # M >= N^2 - (2N)^(3/2) pqr  <=>  (N^2 - M)^2 <= 8 N^3 (pqr)^2 when M < N^2
    gap = N * N - M
    count_above_lower = gap <= 0 or gap * gap <= 8 * N**3 * pqr * pqr
    checks = [
        ChainCheck("count-above-root-bound", M, ">=", lower, count_above_lower),
        # N^2 - (2N)^(3/2) pqr >= N^2/2  <=>  N >= 32 (pqr)^2
        ChainCheck(
            "root-bound-above-half-square", lower, ">=", N * N / 2.0,
            N >= 32 * pqr * pqr,
        ),
        ChainCheck(
            "count-above-half-square", M, ">=", N * N / 2.0, 2 * M >= N * N
        ),
        ChainCheck(
            "half-square-beats-linear", N * N / 2.0, ">", lin,
            N * N > 2 * lin,
        ),
        # 7 sqrt(N/32) N > 7 (p+q+r) N  <=>  N > 32 (p+q+r)^2
        ChainCheck(
            "root-term-beats-linear", sqrt_term, ">", 7 * (p + q + r) * N,
            N > 32 * (p + q + r) ** 2,
        ),
        # N^2/2 > 7 sqrt(N/32) N  <=>  8 N > 49
        ChainCheck(
            "half-square-beats-root-term", N * N / 2.0, ">", sqrt_term,
            8 * N > 49,
        ),
        ChainCheck(
            "scaled-linear-beats-linear", 7 * (p + q + r) * N, ">", lin,
            7 * (p + q + r) * N > lin,
        ),
        ChainCheck("count-beats-linear", M, ">", lin, M > lin),
        ChainCheck("count-beats-trivial-cap", M, ">", tub, M > tub),
    ]
    witness = _find_nontrivial_witness(ctx)
    return BoundChainReport(
        p=p, q=q, r=r, N=N,
        total=M,
        trivial=counts.trivial,
        nontrivial=counts.nontrivial,
        lower_bound=lower,
        trivial_upper=tub,
        checks=checks,
        witness=witness,
    )
