"""Counting solutions of x^p + y^q = z^r (mod N) and the bound chain.

Every count is exact integer arithmetic.  The trivial and power-match counts,
and the nontrivial count where at most one pairwise gcd of the exponents
exceeds 1 or their lcm is at most 4, are closed forms at any modulus; other
gcd patterns count over a discrete-log table.  A Fourier-side evaluation
through the exponential sums S_k(ell) = sum_x exp(2 pi i k x^ell / N), which
for k != 0 are Gauss periods of one O(N) pass over a generator's powers (half
of them when each coset is closed under x -> -x, and none of the last
period's when the D periods tile F_N^* and so sum to -1), is a floating
cross-check that runs only when SolutionCount.fourier is read (``count
--fourier``).  Every walk over a generator's powers goes in blocks of about
4096, each reduced mod N by floor division: the discrete-log table, a power
histogram and exp_sum_table fill their N-sized output from the blocks in
O(sqrt(N)) working memory, and the Gauss periods fold them in O(sqrt(N) + D).
Only these use numpy, with N < 2^31 for exact int64 products.
verify_bound_chain evaluates the chain that forces a nontrivial solution once
N > 32 p^2 q^2 r^2, and finds a witness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InvalidContext, ModulusTooLarge
from .modmath import (
    PrimeModulus,
    _is_power,
    _unity,
    all_kth_roots,
    as_prime_modulus,
    find_generator,
    kth_residue_test,
)
from .triplets import BSContext, BSTriplet, Residue

if TYPE_CHECKING:
    import numpy as np


def _count_modulus(N, *exponents: int) -> PrimeModulus:
    """The certified modulus, after requiring every exponent >= 1."""
    if any(e < 1 for e in exponents):
        raise ValueError("exponents must be positive")
    return as_prime_modulus(N)


def _array_modulus(N, *exponents: int) -> PrimeModulus:
    """_count_modulus for the array paths: N < 2^31 keeps residue products exact in int64."""
    modulus = _count_modulus(N, *exponents)
    if modulus.value >= 1 << 31:
        raise ModulusTooLarge(f"array paths need N below 2^31, got {modulus.value}")
    return modulus


def _powers(a: int, count: int, N: int) -> np.ndarray:
    """[a^0, a^1, ..., a^(count-1)] mod N, doubling the list each step."""
    import numpy as np
    out = np.ones(1, dtype=np.int64)
    while out.size < count:
        out = np.concatenate((out, out * pow(a, out.size, N) % N))
    return out[:count]


# powers per block, counting only those a walk keeps: a _gauss_periods block's complex
# temporaries then stay within 64 KiB.  At 8192 powers, freeing one lifts the heap's free
# top past glibc's 128 KiB trim threshold, so every block faults its pages back in: half
# the time of a walk
_BLOCK = 1 << 12


def _power_blocks(
    a: int, count: int, N: int, D: int = 1, start: int = 1, kept: int | None = None
):
    """start a^t mod N for t < count with t mod D < kept (every t by default), in int64
    blocks of at most _BLOCK elements (one row if a row is longer).  Each block is whole
    rows start a^(m i) [a^0 ... a^(m-1)], with m ~ sqrt(count) a multiple of D | count,
    so it starts at t = 0 (mod D), and the cut last row is a multiple of D long; each
    row keeps the first kept of every D powers.  A walk holds O(sqrt(count) + _BLOCK)
    memory, and per-block temporaries below glibc's trim threshold, so it takes no page
    faults.  N < 2^31 keeps each product below 2^62, and floor division by the scalar N
    reduces the non-negative products faster than %."""
    kept = D if kept is None else kept
    if not kept:
        return
    m = -(-math.isqrt(count) // D) * D
    rows = -(-count // m)
    baby = _powers(a, m, N).reshape(-1, D)[:, :kept].ravel()
    giant = _powers(pow(a, m, N), rows, N) * start % N
    step = max(1, _BLOCK // baby.size)
    for i in range(0, rows, step):
        block = giant[i : i + step, None] * baby
        block -= block // N * N
        yield block.ravel()[: (count - m * i) // D * kept]


@dataclass(frozen=True)
class PowerHistogram:
    """freq[a] = #{x in Z_N : x^ell = a (mod N)}, for the ell and N it was built from."""

    freq: np.ndarray

    @property
    def nonzero_image_size(self) -> int:
        """|{a^ell : a nonzero}|, the power subgroup size."""
        return int((self.freq[1:] != 0).sum())


def power_histogram(ell: int, N) -> PowerHistogram:
    """Frequency table of x -> x^ell mod N, in O(N) steps.

    With d = gcd(ell, N-1), the nonzero ell-th powers are the (N-1)/d
    powers of g^d for a generator g, each attained d times; 0 maps to 0.
    """
    import numpy as np
    modulus = _array_modulus(N, ell)
    Nv = modulus.value
    d = math.gcd(ell, Nv - 1)
    freq = np.zeros(Nv, dtype=np.int64)
    for x in _power_blocks(pow(find_generator(modulus), d, Nv), (Nv - 1) // d, Nv):
        freq[x] = d
    freq[0] = 1
    return PowerHistogram(freq=freq)


@dataclass(frozen=True)
class ExpSum:
    """S_k(ell) = sum_{x=0}^{N-1} exp(2 pi i k x^ell / N) at the frequency k."""

    k: int
    value: complex


def exp_sum(k: int, ell: int, N) -> ExpSum:
    """One exponential sum: S_0 = N and, for k != 0, S_k(ell) = 1 + d sum_h
    exp(2 pi i k h / N) over the d-th powers h = g^(d t), d = gcd(ell, N-1)."""
    k = operator.index(k)
    modulus = _array_modulus(N, ell)
    Nv = modulus.value
    if not 0 <= k < Nv:
        raise ValueError(f"k must lie in [0, {Nv - 1}]")
    value = Nv
    if k:
        d = math.gcd(ell, Nv - 1)
        value = 1 + d * _gauss_periods(1, modulus, d, k)[0]
    return ExpSum(k=k, value=complex(value))


def _gauss_periods(D: int, modulus: PrimeModulus, d: int = 1, k: int = 1) -> np.ndarray:
    """eta[j] = sum of exp(2 pi i k g^(d t) / N) over t < c = (N-1)/d, t = j (mod D), j < D,
    a generator g and D d | N-1 (the Gauss periods at d = k = 1), in O(sqrt(N) + D)
    memory.  Each block of _power_blocks starts at t = 0 (mod D), so it folds straight
    into eta.  exp(2 pi i x / N) is hi[x >> s] lo[x & (2^s - 1)], from two tables of
    about sqrt(N) phases reduced mod N.  When 2D | c, g^(d c/2) = -1 and t + c/2 = t
    (mod D): each period holds x and -x, and is P + conj(P) with P over t < c/2.  At
    d = 1 the D cosets tile F_N^*, so the periods sum to -1 and the last one is not
    walked: eta[D-1] = -1 - sum_{j<D-1} eta[j] (Gauss and Jacobi Sums, Berndt, Evans
    and Williams)."""
    import numpy as np
    N = modulus.value
    s = (N.bit_length() + 1) // 2
    lo = np.exp((2j * math.pi / N) * np.arange(1 << s))
    hi = np.exp((2j * math.pi / N) * ((np.arange(((N - 1) >> s) + 1) << s) % N))
    eta = np.zeros(D, dtype=np.complex128)
    a = pow(find_generator(modulus), d, N)
    c = (N - 1) // d
    walk = c // 2 if c % (2 * D) == 0 else c
    kept = D - (d == 1)
    for x in _power_blocks(a, walk, N, D, k, kept):
        eta[:kept] += np.einsum(
            "ij->j", (hi[x >> s] * lo[x & ((1 << s) - 1)]).reshape(-1, kept)
        )
    if walk < c:
        eta += eta.conj()
    if kept < D:
        eta[-1] = -1 - eta[:-1].sum()
    return eta


def exp_sum_table(ell: int, N) -> np.ndarray:
    """All N exponential sums S_k(ell) in O(N): S_0 = N and, from the Gauss
    periods eta_d of a generator g, S_{g^j}(ell) = 1 + d eta_d[j mod d] with
    d = gcd(ell, N-1), since ell's power histogram is delta_0 + d 1_{H_d}."""
    import numpy as np
    modulus = _array_modulus(N, ell)
    n = modulus.value - 1
    d = math.gcd(ell, n)
    table = np.full(n + 1, n + 1, dtype=np.complex128)  # S_0 = N; powers fill the rest
    periods = 1 + d * _gauss_periods(d, modulus)
    for x in _power_blocks(find_generator(modulus), n, n + 1, d):  # x[0] = g^j, d | j
        table[x] = np.tile(periods, x.size // d)
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
    z_zero = g if _is_power(n, g, Nv) else 0  # n = -1 (mod N)
    return 1 + (math.gcd(dq, dr) + math.gcd(dp, dr) + z_zero) * n


def trivial_upper_bound(p: int, q: int, r: int, N) -> int:
    """Closed-form cap 1 + (min(q,r) + min(p,r) + min(p,q)) * (N-1)."""
    return 1 + (min(q, r) + min(p, r) + min(p, q)) * (operator.index(N) - 1)


def count_lower_bound(p: int, q: int, r: int, N) -> float:
    """The guaranteed floor N^2 - (2N)^(3/2) * p*q*r on the solution count."""
    Nv = operator.index(N)
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
    def fourier(self) -> float:
        """The Fourier-side cross-check of total, evaluated on each read."""
        return count_solutions_fourier(self.p, self.q, self.r, self.modulus)


def _cornacchia(d: int, root: int, N: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = N, from 0 < root < N with root^2 = -d (Cornacchia)."""
    a, b = N, root
    while b * b > N:
        a, b = b, a % b
    return b, math.isqrt((N - b * b) // d)


def _quartic_a(N: int) -> int:
    """The odd a = 1 (mod 4) of N = a^2 + b^2, for a prime N = 1 (mod 4),
    by Cornacchia from the element of order 4 that modmath._unity finds."""
    x, y = _cornacchia(1, _unity(4, N), N)  # an element of order 4 squares to -1
    a = x if x % 2 else y
    return a if a % 4 == 1 else -a


def _cubic_l(N: int) -> int:
    """The L = 1 (mod 3) of 4N = L^2 + 27 M^2, for a prime N = 1 (mod 3),
    by Cornacchia from the element w of order 3 that modmath._unity finds."""
    w = _unity(3, N)
    A, B = _cornacchia(3, (2 * w + 1) % N, N)  # w^2 + w + 1 = 0, so (2w + 1)^2 = -3
    # 4N = (2A)^2 + 12 B^2 = (A + 3B)^2 + 3 (A - B)^2 = (A - 3B)^2 + 3 (A + B)^2
    L = 2 * A if B % 3 == 0 else A + 3 * B if (A - B) % 3 == 0 else A - 3 * B
    return L if L % 3 == 1 else -L


def _closed_form_T(pattern: tuple[int, int, int], N: int) -> int | None:
    """count_solutions_exact's T in closed form, or None if the pattern has none here.

    With (A, B, C) = (gcd(d_p,d_q), gcd(d_p,d_r), gcd(d_q,d_r)), T counts t != 0,
    -1 with t in H_A, 1+t in H_B and t/(1+t) in H_C.  If only m > 1, t runs over
    H_m less -1, or 1+t or t/(1+t) (a bijection of t != -1 onto u != 1) over H_m
    less 1.  Else 1_{H_m}(x) = (1/m) sum_{chi^m = 1} chi(x) gives T = (1/ABC)
    sum K(alpha gamma, beta/gamma) over alpha^A = beta^B = gamma^C = 1, where
    K(chi, psi) = sum_{t != 0,-1} chi(t) psi(1+t): K(1, 1) = N-2, K(chi, 1) =
    -chi(-1), K(1, psi) = K(chi, 1/chi) = -1, else chi(-1) J(chi, psi), a
    Jacobi sum.  Let rho be the quadratic character.  For a quartic chi, with
    s = chi(-1) (1 iff N = 1 mod 8), J(chi, rho) = s J(chi, chi) and
    Re J(chi, chi) = -a, for the odd a = 1 (mod 4) of N = a^2 + b^2; for a cubic
    omega, 2 Re J(omega, omega) = L, the L = 1 (mod 3) of 4N = L^2 + 27 M^2
    (Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 2-3).  Collecting
    terms: (2,2,2) (N-4-rho(-1))/4; (2,2,4), (2,4,2) (N-7-2sa)/8; (4,2,2)
    (N-5-2s-2a)/8; (4,4,4) (N-9-2s-(2+4s)a)/16; (3,3,3) (N-8+L)/9.
    """
    n = N - 1
    m = math.prod(pattern)
    if m == pattern[0]:
        return n // m - _is_power(n, m, N)  # minus t = -1 = n if it lies in H_m
    if m in pattern:
        return n // m - 1
    if pattern == (2, 2, 2):
        return (N - 5) // 4 if N % 4 == 1 else (N - 3) // 4
    if pattern == (3, 3, 3):
        return (N - 8 + _cubic_l(N)) // 9
    if pattern not in ((2, 2, 4), (2, 4, 2), (4, 2, 2), (4, 4, 4)):
        return None
    a, s = _quartic_a(N), 1 if N % 8 == 1 else -1
    if pattern == (4, 4, 4):
        return (N - 9 - 2 * s - (2 + 4 * s) * a) // 16
    if pattern == (4, 2, 2):
        return (N - 5 - 2 * s - 2 * a) // 8
    return (N - 7 - 2 * s * a) // 8


def count_solutions_exact(p: int, q: int, r: int, N) -> SolutionCount:
    """Exact #{(x,y,z) : x^p + y^q = z^r (mod N)} plus the trivial split.

    With n = N-1, d_e = gcd(e, n), D = lcm(d_p, d_q, d_r), each power histogram
    is delta_0 + d_e 1_{H_e} (d_e-th powers).  The solutions with x*y*z = 0 are
    count_trivial's closed form, and the rest number d_p d_q d_r (n/D) T, where
    T counts the ratios t = b/a in [1, N-2] with gcd(d_p,d_q) | ind t,
    gcd(d_p,d_r) | ind(1+t) and gcd(d_q,d_r) | ind t - ind(1+t); by the
    generalized CRT each admits n/D values of a.  T is _closed_form_T's
    cyclotomic number at any modulus, else an O(N) count over a discrete-log table.
    """
    modulus = _count_modulus(N, p, q, r)
    Nv = modulus.value
    n = Nv - 1
    dp, dq, dr = (math.gcd(e, n) for e in (p, q, r))
    gpq, gpr, gqr = math.gcd(dp, dq), math.gcd(dp, dr), math.gcd(dq, dr)
    T = _closed_form_T((gpq, gpr, gqr), Nv)
    if T is None:
        import numpy as np
        ind = np.zeros(_array_modulus(modulus).value, dtype=np.int32)  # ind[g^k] = k
        k = 0
        for x in _power_blocks(find_generator(modulus), n, Nv):
            ind[x] = np.arange(k, k + x.size, dtype=np.int32)
            k += x.size
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
    import numpy as np
    modulus = _array_modulus(N, p, q, r)
    Nv = modulus.value
    ds = [math.gcd(e, Nv - 1) for e in (p, q, r)]
    D = math.lcm(*ds)
    eta = _gauss_periods(D, modulus)
    # eta_d is the fold of eta mod d; S_{g^j} for j < D tiles 1 + d eta_d
    sp, sq, sr = (1 + d * np.tile(eta.reshape(-1, d).sum(axis=0), D // d) for d in ds)
    tail = (Nv - 1) // D * np.sum(sp * sq * np.conj(sr))
    return float(Nv * Nv + tail.real / Nv)


def count_solutions_bruteforce(p: int, q: int, r: int, N) -> int:
    """Reference count over all triples, O(N^2) through a Counter of the z^r, for
    cross-checks at small N: N above 2^12 raises ModulusTooLarge (4093 takes seconds)."""
    from collections import Counter
    Nv = _count_modulus(N, p, q, r).value
    if Nv >= 1 << 12:
        raise ModulusTooLarge(f"the brute force needs N below 2^12, got {Nv}")
    xp = [pow(x, p, Nv) for x in range(Nv)]
    yq = [pow(y, q, Nv) for y in range(Nv)]
    zr = Counter(pow(z, r, Nv) for z in range(Nv))
    return sum(zr[(a + b) % Nv] for a in xp for b in yq)


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

    total: int
    nontrivial: int
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
    return BoundChainReport(total=M, nontrivial=counts.nontrivial, checks=checks,
                            witness=_find_nontrivial_witness(ctx))
