import cmath
import math

import numpy as np
import pytest

from bealschur.counting import (
    _cyclic_convolution,
    count_lower_bound,
    count_power_matches,
    count_solutions_exact,
    count_solutions_fourier,
    count_trivial,
    exp_sum,
    exp_sum_table,
    power_histogram,
    trivial_upper_bound,
    verify_bound_chain,
)
from bealschur.errors import NotPrime
from bealschur.triplets import BSContext, is_bs_triplet

from conftest import brute_force_count, brute_force_witness, sieve_primes

PRIMES_31 = sieve_primes(31)
PRIMES_101 = sieve_primes(101)


class TestPowerHistogram:
    def test_identity_map(self):
        h = power_histogram(1, 11)
        assert list(h.freq) == [1] * 11

    def test_squares_mod_3(self):
        assert list(power_histogram(2, 3).freq) == [1, 2, 0]

    def test_squares_mod_7(self):
        h = power_histogram(2, 7)
        assert set(np.flatnonzero(h.freq)) == {0, 1, 2, 4}
        assert all(v in (0, 1, 2) for v in h.freq)

    def test_mass_and_zero_cell(self):
        for N in PRIMES_101:
            for ell in (1, 2, 3, 4, 6):
                h = power_histogram(ell, N)
                assert int(h.freq.sum()) == N
                assert h.freq[0] == 1
                # image size of the nonzero part is (N-1)/gcd(ell, N-1)
                assert h.nonzero_image_size == (N - 1) // math.gcd(ell, N - 1)

    def test_requires_prime(self):
        with pytest.raises(NotPrime):
            power_histogram(2, 15)


class TestExpSum:
    def test_zero_frequency_is_exactly_n(self):
        s = exp_sum(0, 3, 11)
        assert s.value == 11 + 0j
        assert s.value.imag == 0.0

    def test_linear_map_cancels(self):
        for N in (3, 7, 31):
            for k in (1, 2, N - 1):
                assert abs(exp_sum(k, 1, N).value) < 1e-9

    def test_quadratic_gauss_sum(self):
        direct = sum(cmath.exp(2j * cmath.pi * pow(x, 2, 5) / 5) for x in range(5))
        assert direct == pytest.approx(math.sqrt(5), abs=1e-9)
        s = exp_sum(1, 2, 5).value
        assert s.real == pytest.approx(math.sqrt(5), abs=1e-9)
        assert abs(s.imag) < 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            N = rng.choice(PRIMES_101[1:])
            k = rng.randrange(0, N)
            ell = rng.choice((1, 2, 3, 4, 6))
            assert abs(exp_sum(k, ell, N).value) <= N + 1e-9

    def test_table_matches_pointwise(self):
        for N in (7, 31, 101):
            for ell in (2, 3, 6):
                table = exp_sum_table(ell, N)
                for k in range(N):
                    assert table[k] == pytest.approx(exp_sum(k, ell, N).value, abs=1e-7)

    def test_orthogonality(self):
        # sum over k of e^(2 pi i k w / N) is N at w = 0 mod N, else cancels
        for N in PRIMES_101:
            ks = np.arange(N)
            for w in range(N):
                total = np.exp(2j * np.pi * ks * w / N).sum()
                if w % N == 0:
                    assert abs(total - N) < 1e-6
                else:
                    assert abs(total) < 1e-6


class TestExactCount:
    def test_linear_case(self):
        counts = count_solutions_exact(1, 1, 1, 7)
        assert counts.total == 49
        assert counts.trivial == 19
        assert counts.nontrivial == 30

    def test_all_squares_mod_3(self):
        counts = count_solutions_exact(2, 2, 2, 3)
        assert counts.total == 9
        assert counts.trivial == 9
        assert counts.nontrivial == 0
        assert brute_force_count(2, 2, 2, 3) == 9

    def test_matches_brute_force(self):
        for N in PRIMES_31[:5]:  # acceptance covers the full grid
            for p in (1, 2, 3):
                for q in (1, 2, 4):
                    for r in (2, 3):
                        assert (
                            count_solutions_exact(p, q, r, N).total
                            == brute_force_count(p, q, r, N)
                        ), (p, q, r, N)

    def test_symmetry_in_x_y(self):
        for N in (7, 13, 31):
            for p, q, r in ((2, 3, 2), (4, 6, 2), (2, 4, 8)):
                a = count_solutions_exact(p, q, r, N).total
                b = count_solutions_exact(q, p, r, N).total
                assert a == b

    def test_fourier_field_is_close(self):
        for N in (7, 31, 101):
            counts = count_solutions_exact(2, 2, 2, N)
            assert abs(counts.fourier - counts.total) < 0.5


class TestFourierCount:
    def test_linear_case(self):
        assert count_solutions_fourier(1, 1, 1, 7) == pytest.approx(49.0, abs=1e-6)

    def test_small_square_case(self):
        assert count_solutions_fourier(2, 2, 2, 3) == pytest.approx(9.0, abs=1e-6)

    def test_rounds_to_exact(self):
        for N in PRIMES_101:
            for p, q, r in ((2, 2, 2), (2, 3, 4), (3, 6, 2), (4, 4, 4)):
                exact = count_solutions_exact(p, q, r, N).total
                fourier = count_solutions_fourier(p, q, r, N)
                assert round(fourier) == exact
                assert abs(fourier - exact) < 1e-3


class TestTrivialCount:
    def test_linear_case(self):
        assert count_trivial(1, 1, 1, 7) == 19

    def test_all_trivial_case(self):
        assert count_trivial(2, 2, 2, 3) == 9

    def test_brute_force_agreement(self):
        for N in PRIMES_31:
            for p, q, r in ((1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 2, 6)):
                expected = sum(
                    1
                    for x in range(N)
                    for y in range(N)
                    for z in range(N)
                    if (x * y * z) % N == 0
                    and (pow(x, p, N) + pow(y, q, N) - pow(z, r, N)) % N == 0
                )
                assert count_trivial(p, q, r, N) == expected, (p, q, r, N)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            count_trivial(0, 2, 2, 7)

    def test_never_exceeds_total(self):
        for N in PRIMES_101[:10]:
            for p, q, r in ((2, 2, 2), (2, 4, 2), (3, 3, 3)):
                counts = count_solutions_exact(p, q, r, N)
                assert counts.trivial <= counts.total


class TestBounds:
    def test_trivial_upper_bound_values(self):
        assert trivial_upper_bound(2, 2, 2, 2053) == 1 + 6 * 2052 == 12313
        N = 131101
        assert trivial_upper_bound(2, 4, 8, N) == 1 + (4 + 2 + 2) * (N - 1)

    def test_trivial_bound_dominates_exact_count(self):
        for N in PRIMES_101:
            for p, q, r in ((2, 2, 2), (2, 4, 8), (3, 3, 3), (2, 2, 4), (8, 2, 4)):
                assert count_trivial(p, q, r, N) <= trivial_upper_bound(p, q, r, N)

    def test_lower_bound_values(self):
        got = count_lower_bound(2, 2, 2, 2053)
        assert got == pytest.approx(2053**2 - 4106**1.5 * 8)
        assert got > 0
        approx = count_lower_bound(1, 1, 1, 10**6)
        assert approx == pytest.approx(10**12 - 2**1.5 * 10**9)

    def test_lower_bound_below_exact_count(self):
        for p, q, r, N in ((2, 2, 2, 2053), (2, 2, 2, 2069), (3, 3, 3, 23333)):
            counts = count_solutions_exact(p, q, r, N)
            assert counts.total >= count_lower_bound(p, q, r, N)


class TestPowerMatches:
    def test_identity_exponents(self):
        assert count_power_matches(1, 1, 13) == 13

    def test_squares_mod_3(self):
        assert count_power_matches(2, 2, 3) == 5

    def test_exponential_sum_identity(self):
        # sum_k S_k(p) conj(S_k(q)) = N * #{x^p = y^q}
        for N in PRIMES_101:
            for p in (1, 2, 3, 4, 6):
                for q in (1, 2, 3, 4, 6):
                    sp = exp_sum_table(p, N)
                    sq = exp_sum_table(q, N)
                    lhs = np.sum(sp * np.conj(sq))
                    rhs = N * count_power_matches(p, q, N)
                    assert abs(lhs - rhs) < 1e-3, (p, q, N)

    def test_divisible_pair_bound(self):
        # A_{p,q} <= 1 + min(p, q) (N - 1) whenever p | q or q | p
        for N in PRIMES_101:
            for p, q in ((2, 2), (2, 4), (4, 2), (2, 6), (3, 6), (6, 3), (3, 3)):
                bound = 1 + min(p, q) * (N - 1)
                assert count_power_matches(p, q, N) <= bound


class TestConvolutionPaths:
    def test_fft_path_matches_direct(self):
        # 4099 is prime; the np.roll loop below is the direct oracle
        N = 4099
        fp = power_histogram(2, N).freq
        fq = power_histogram(3, N).freq
        via_fft = _cyclic_convolution(fp, fq, N)
        direct = np.zeros(N, dtype=np.int64)
        for a in np.flatnonzero(fp):
            direct += int(fp[a]) * np.roll(fq, a)
        assert np.array_equal(via_fft, direct)

    def test_large_modulus_count_consistent(self):
        # FFT path result must still satisfy the Fourier cross-check
        counts = count_solutions_exact(2, 4, 8, 131101)
        assert abs(counts.fourier - counts.total) < 0.5


class TestBoundChain:
    @pytest.mark.parametrize("N", [2053, 2069])
    def test_desk_scale_contexts_pass(self, N):
        report = verify_bound_chain(BSContext.create(2, 2, 2, N))
        assert report.all_passed
        assert report.nontrivial >= 1
        assert report.witness is not None
        assert report.witness.nontrivial

    def test_wide_exponent_context(self):
        # threshold 32 * (2*4*8)^2 = 131072; 131101 is the next prime
        ctx = BSContext.create(2, 4, 8, 131101)
        report = verify_bound_chain(ctx)
        assert report.all_passed
        assert report.witness is not None
        assert is_bs_triplet(report.witness.x, report.witness.y, report.witness.z, ctx)

    def test_report_render_format(self):
        report = verify_bound_chain(BSContext.create(2, 2, 2, 2053))
        lines = report.render().splitlines()
        assert len(lines) == 10
        for line in lines[:-1]:
            parts = line.split()
            assert parts[0] == "CHECK"
            assert parts[3] in (">=", ">")
            assert parts[5] in ("pass", "fail")
        assert lines[-1].startswith("WITNESS ")
        x, y, z = map(int, lines[-1].split()[1:])
        ctx = BSContext.create(2, 2, 2, 2053)
        assert is_bs_triplet(x, y, z, ctx)

    @pytest.mark.parametrize(
        "p, q, r, N", [(2, 2, 2, 2053), (2, 2, 2, 2069), (2, 4, 8, 131101)]
    )
    def test_witness_matches_brute_force(self, p, q, r, N):
        w = verify_bound_chain(BSContext.create(p, q, r, N)).witness
        assert (w.x.value, w.y.value, w.z.value) == brute_force_witness(p, q, r, N)

    def test_witness_at_2053(self):
        assert brute_force_witness(2, 2, 2, 2053) == (1, 3, 808)

    def test_witness_deterministic(self):
        r1 = verify_bound_chain(BSContext.create(2, 2, 2, 2053))
        r2 = verify_bound_chain(BSContext.create(2, 2, 2, 2053))
        assert r1.witness == r2.witness
        assert r1.render() == r2.render()


class TestSubgroupBound:
    def test_image_size_floor(self):
        # p * |{a^p : a nonzero}| >= N - 1
        for N in PRIMES_101:
            for p in (2, 3, 4, 6):
                image = power_histogram(p, N).nonzero_image_size
                assert p * image >= N - 1
