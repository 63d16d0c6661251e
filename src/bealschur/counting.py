"""Counting solutions of x^p + y^q = z^r (mod N) and the bound chain.

The exact count is a closed form plus one O(N) integer count over a
discrete-log table: no floats.  The trivial count (x*y*z = 0) and the
power-match count are closed forms.  A Fourier-side evaluation through the
exponential sums S_k(ell) = sum_x exp(2 pi i k x^ell / N), which for k != 0
are Gauss periods of one O(N) pass over a generator's powers, is a floating
cross-check that runs only when SolutionCount.fourier is read
(``count --fourier``).  The discrete-log table, the power histograms and
the Gauss periods all index one list of a generator's powers g^k, k < N-1.
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
from .modmath import (
    PrimeModulus,
    all_kth_roots,
    as_prime_modulus,
    find_generator,
    kth_residue_test,
)
from .triplets import BSContext, BSTriplet, Residue

_MAX_COUNTING_MODULUS = 1 << 31


def _count_modulus(N, *exponents: int) -> PrimeModulus:
    """The certified modulus below 2^31, after requiring every exponent >= 1."""
    if any(e < 1 for e in exponents):
        raise ValueError("exponents must be positive")
    modulus = as_prime_modulus(N)
    if modulus.value >= _MAX_COUNTING_MODULUS:
        raise ValueError(
            f"counting supports moduli below 2^31 (int64 exactness), got {int(N)}"
        )
    return modulus


def _powers(a: int, count: int, N: int) -> np.ndarray:
    """[a^0, a^1, ..., a^(count-1)] mod N, doubling the list each step."""
    out = np.ones(1, dtype=np.int64)
    while out.size < count:
        out = np.concatenate((out, out * pow(a, out.size, N) % N))
    return out[:count]


def _generator_powers(modulus: PrimeModulus) -> np.ndarray:
    """[g^0, g^1, ..., g^(N-2)] mod N for a generator g, as int64.

    Giant steps g^(m i) times baby steps g^j give g^(m i + j); N < 2^31 keeps
    each product below 2^62, and the in-place reduction keeps one N-sized array.
    """
    N = modulus.value
    g = find_generator(modulus)
    m = math.isqrt(N - 2) + 1  # m * m >= N - 1
    prod = _powers(pow(g, m, N), m, N)[:, None] * _powers(g, m, N)
    prod %= N
    return prod.ravel()[: N - 1]


@dataclass(frozen=True)
class PowerHistogram:
    """freq[a] = #{x in Z_N : x^ell = a (mod N)}."""

    ell: int
    modulus: int
    freq: np.ndarray

    @property
    def nonzero_image_size(self) -> int:
        """|{a^ell : a nonzero}|, the power subgroup size."""
        return int(np.count_nonzero(self.freq[1:]))


def power_histogram(ell: int, N) -> PowerHistogram:
    """Frequency table of x -> x^ell mod N, in O(N) steps.

    With d = gcd(ell, N-1), the nonzero ell-th powers are the (N-1)/d
    powers g^(d k) of a generator g, each attained d times; 0 maps to 0.
    """
    modulus = _count_modulus(N, ell)
    Nv = modulus.value
    d = math.gcd(ell, Nv - 1)
    freq = np.zeros(Nv, dtype=np.int64)
    freq[_generator_powers(modulus)[::d]] = d
    freq[0] = 1
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
    modulus = _count_modulus(N)
    Nv = modulus.value
    if not 0 <= k < Nv:
        raise ValueError(f"k must lie in [0, {Nv - 1}]")
    hist = power_histogram(ell, modulus)
    phases = np.exp((2j * math.pi * k / Nv) * np.arange(Nv))
    return ExpSum(k=k, ell=ell, modulus=Nv, value=complex(hist.freq @ phases))


def _gauss_periods(D: int, modulus: PrimeModulus) -> tuple[np.ndarray, np.ndarray]:
    """powers[m] = g^m mod N (m < N-1) for a generator g, and the Gauss
    periods eta[j] = sum_{m = j (mod D)} exp(2 pi i g^m / N), j < D, D | N-1."""
    powers = _generator_powers(modulus)
    phases = (2j * math.pi / modulus.value) * powers
    return powers, np.exp(phases, out=phases).reshape(-1, D).sum(axis=0)


def exp_sum_table(ell: int, N) -> np.ndarray:
    """All N exponential sums S_k(ell) in O(N): S_0 = N and, from the Gauss
    periods eta_d of a generator g, S_{g^j}(ell) = 1 + d eta_d[j mod d] with
    d = gcd(ell, N-1), since ell's power histogram is delta_0 + d 1_{H_d}."""
    modulus = _count_modulus(N, ell)
    n = modulus.value - 1
    d = math.gcd(ell, n)
    powers, eta = _gauss_periods(d, modulus)
    table = np.full(n + 1, n + 1, dtype=np.complex128)  # S_0 = N; powers fill the rest
    table[powers] = np.tile(1 + d * eta, n // d)
    return table


def count_power_matches(p: int, q: int, N) -> int:
    """#{(x, y) in Z_N^2 : x^p = y^q (mod N)} = 1 + (N-1) gcd(d_p, d_q), exact.

    With d_e = gcd(e, N-1), x^p runs d_p times over the d_p-th powers H_{d_p},
    and |H_{d_p} & H_{d_q}| = (N-1) / lcm(d_p, d_q).
    """
    n = _count_modulus(N, p, q).value - 1
    return 1 + n * math.gcd(p, q, n)


def count_trivial(p: int, q: int, r: int, N) -> int:
    """Exact number of solutions with x*y*z = 0 (mod N), in closed form.

    With d_e = gcd(e, N-1) and g = gcd(d_p, d_q), inclusion-exclusion over
    the zero coordinate (two zeros force the third) gives 1 + (N-1) *
    (gcd(d_q, d_r) + gcd(d_p, d_r) + [g if -1 is a g-th power]).
    """
    Nv = _count_modulus(N, p, q, r).value
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


@dataclass(frozen=True)
class SolutionCount:
    """Exact count of solutions of x^p + y^q = z^r (mod N) and its trivial split."""

    p: int
    q: int
    r: int
    modulus: PrimeModulus
    total: int
    trivial: int
    nontrivial: int

    @property
    def N(self) -> int:
        return self.modulus.value

    @property
    def fourier(self) -> float:
        """The Fourier-side cross-check of total, evaluated on each read."""
        return count_solutions_fourier(self.p, self.q, self.r, self.modulus)


def count_solutions_exact(p: int, q: int, r: int, N) -> SolutionCount:
    """Exact #{(x,y,z) : x^p + y^q = z^r (mod N)} plus the trivial split.

    Exact O(N) count from one discrete-log table, no floats (the Gauss
    periods run only for --fourier).  With n = N-1, d_e = gcd(e, n), D =
    lcm(d_p, d_q, d_r), each power histogram is delta_0 + d_e 1_{H_e} (d_e-th powers).
    The solutions with x*y*z = 0 are count_trivial's closed form, and the
    rest number d_p d_q d_r (n/D) T, where T counts the ratios t = b/a in
    [1, N-2] with gcd(d_p,d_q) | ind t, gcd(d_p,d_r) | ind(1+t) and
    gcd(d_q,d_r) | ind t - ind(1+t); by the generalized CRT each admits
    n/D values of a.  All three gcds 1 give T = N-2 with no table.
    """
    modulus = _count_modulus(N, p, q, r)
    Nv = modulus.value
    n = Nv - 1
    dp, dq, dr = (math.gcd(e, n) for e in (p, q, r))
    gpq, gpr, gqr = math.gcd(dp, dq), math.gcd(dp, dr), math.gcd(dq, dr)
    T = Nv - 2
    if gpq * gpr * gqr > 1:
        ind = np.zeros(Nv, dtype=np.int32)  # ind[g^k] = k; ind[0] is unused
        ind[_generator_powers(modulus)] = np.arange(n, dtype=np.int32)
        t, t1 = ind[1:-1], ind[2:]
        admissible = (t % gpq == 0) & (t1 % gpr == 0) & ((t - t1) % gqr == 0)
        T = int(np.count_nonzero(admissible))
    nontrivial = dp * dq * dr * (n // math.lcm(dp, dq, dr)) * T
    trivial = count_trivial(p, q, r, modulus)
    return SolutionCount(p, q, r, modulus, trivial + nontrivial, trivial, nontrivial)


def count_solutions_fourier(p: int, q: int, r: int, N) -> float:
    """Fourier-side count N^2 + (1/N) sum_{k>=1} S_k(p) S_k(q) conj(S_k(r)).

    S_{g^j}(ell) = 1 + d eta_d[j mod d] depends on j only mod D = lcm(d_p,
    d_q, d_r), so the sum over k = g^j is (N-1)/D times the sum over j < D.
    """
    modulus = _count_modulus(N, p, q, r)
    Nv = modulus.value
    ds = [math.gcd(e, Nv - 1) for e in (p, q, r)]
    D = math.lcm(*ds)
    _, eta = _gauss_periods(D, modulus)
    # eta_d is the fold of eta mod d; S_{g^j} for j < D tiles 1 + d eta_d
    sp, sq, sr = (1 + d * np.tile(eta.reshape(-1, d).sum(axis=0), D // d) for d in ds)
    tail = (Nv - 1) // D * np.sum(sp * sq * np.conj(sr))
    return float(Nv * Nv + tail.real / Nv)


def count_solutions_bruteforce(p: int, q: int, r: int, N) -> int:
    """Reference O(N^3) triple loop; for cross-checks at tiny N only."""
    Nv = _count_modulus(N, p, q, r).value
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
    counts = count_solutions_exact(p, q, r, ctx.modulus)
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
