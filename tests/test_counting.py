import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from bealschur import counting, modmath
from bealschur.counting import (
    count_lower_bound,
    count_power_matches,
    count_solutions_bruteforce,
    count_solutions_exact,
    count_solutions_fourier,
    count_trivial,
    exp_sum,
    exp_sum_table,
    power_histogram,
    trivial_upper_bound,
    verify_bound_chain,
)
from bealschur.errors import InvalidContext, ModulusTooLarge, NotPrime
from bealschur.modmath import PrimeModulus, find_generator
from bealschur.triplets import BSContext, is_bs_triplet

from conftest import (
    _cyclic_convolution,
    brute_force_count,
    brute_force_witness,
    enumerated_histogram,
    fft_exp_sum_table,
    sieve_primes,
)

PRIMES_31 = sieve_primes(31)
PRIMES_101 = sieve_primes(101)
PRIMES_499 = sieve_primes(499)


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

    def test_matches_enumeration(self):
        for N in PRIMES_101 + [4099]:
            for ell in (1, 2, 3, 4, 5, 6, 12, N - 1, N + 5):
                got = power_histogram(ell, N).freq
                assert np.array_equal(got, enumerated_histogram(ell, N)), (ell, N)

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

    @pytest.mark.parametrize("N", [131101, 1000003, 1000033, 2000003])
    def test_quadratic_gauss_sum_at_large_k(self, N):
        # S_k(2) = (k/N) sqrt(N) for N = 1 (mod 4), (k/N) i sqrt(N) for N = 3 (mod 4)
        unit = 1 if N % 4 == 1 else 1j
        for k in (1, 2, 12345, N // 2, N - 2, N - 1):
            legendre = 1 if pow(k, (N - 1) // 2, N) == 1 else -1
            want = legendre * unit * math.sqrt(N)
            assert abs(exp_sum(k, 2, N).value - want) < 1e-8, k

    def test_float_frequency_refused(self):
        with pytest.raises(TypeError):
            exp_sum(1.5, 2, 13)
        assert type(exp_sum(np.int64(1), 2, 13).k) is int

    def test_frequency_outside_field_refused(self):
        with pytest.raises(ValueError, match="k must lie in"):
            exp_sum(13, 2, 13)

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

    def test_table_matches_fft_oracle(self):
        for N in PRIMES_499:
            for ell in (1, 2, 3, 4, 6, N - 1):
                got, want = exp_sum_table(ell, N), fft_exp_sum_table(ell, N)
                assert np.max(np.abs(got - want)) < 1e-7, (ell, N)

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

    @pytest.mark.parametrize("N", [101, 4099, 131101, 1000033, 2000003])
    def test_matches_fsum_of_reduced_phases(self, N):
        # S_k(ell) = sum_x exp(2 pi i (k x^ell mod N) / N), each phase reduced exactly
        x = np.arange(N, dtype=np.int64)
        power = np.ones(N, dtype=np.int64)
        for ell in range(1, 7):
            power = power * x % N
            k = random.Random(N + ell).randrange(1, N)
            angle = (k * power % N) * (2 * math.pi / N)
            want = complex(math.fsum(np.cos(angle)), math.fsum(np.sin(angle)))
            assert abs(exp_sum(k, ell, N).value - want) < 1e-9, (k, ell)


class TestGaussPeriods:
    def test_matches_definition(self):
        # every D | N-1 covers D = 1, D = N-1, D > sqrt(N) and a partial last row
        cases = 0
        for N in sieve_primes(399):
            modulus = PrimeModulus(N)
            g = find_generator(modulus)
            phases = [cmath.exp(2j * cmath.pi * pow(g, k, N) / N) for k in range(N - 1)]
            for D in (D for D in range(1, N) if (N - 1) % D == 0):
                eta = counting._gauss_periods(D, modulus)
                want = np.array([sum(phases[j::D]) for j in range(D)])
                assert eta.shape == (D,) and np.max(np.abs(eta - want)) < 1e-9, (N, D)
                cases += 1
        assert cases == 689

    def test_matches_definition_at_every_d_and_k(self):
        # every d | N-1 and D | c = (N-1)/d, at k = 1 and one seeded k; 2D | c walks half
        branches = set()
        for N in sieve_primes(399):
            modulus = PrimeModulus(N)
            g = find_generator(modulus)
            for d in (d for d in range(1, N) if (N - 1) % d == 0):
                c = (N - 1) // d
                for k in (1, random.Random(N * N + d).randrange(1, N)):
                    phases = [cmath.exp(2j * cmath.pi * (k * pow(g, d * t, N) % N) / N)
                              for t in range(c)]
                    for D in (D for D in range(1, c + 1) if c % D == 0):
                        eta = counting._gauss_periods(D, modulus, d, k)
                        want = np.array([sum(phases[j::D]) for j in range(D)])
                        assert eta.shape == (D,), (N, d, k, D)
                        assert np.max(np.abs(eta - want)) < 1e-9, (N, d, k, D)
                        branches.add(c % (2 * D) == 0)
        assert branches == {True, False}

    @pytest.mark.parametrize(
        # Fourier: D = 3 divides (N-1)/2 = 500016, D = 2 not the odd 500001; at d = 1
        # the last of the D periods is -1 less the others, so (D-1)/D of those are walked.
        # exp_sum at d = 2: D = 1, so c = (N-1)/2 halves when it is even
        "call, powers",
        [
            (lambda: count_solutions_fourier(3, 3, 3, 1000033), [333344]),
            (lambda: count_solutions_fourier(2, 2, 2, 1000003), [500001]),
            (lambda: exp_sum(1, 2, 1000033), [250008]),
            (lambda: exp_sum(1, 2, 1000003), [500001]),
        ],
        ids=["fourier_333_half", "fourier_222_whole", "exp_sum_half", "exp_sum_whole"],
    )
    def test_walks_half_the_powers_when_cosets_hold_negatives(self, walks, call, powers):
        call()
        assert [sum(sizes) for sizes in walks] == powers

    def test_one_period_walks_no_power(self, walks):
        # D = d = 1: the one period is the sum over F_N^*, -1, so S_k(1) = 0 exactly
        N = 1000003
        assert round(count_solutions_fourier(1, 1, 1, N)) == count_solutions_exact(1, 1, 1, N).total
        assert exp_sum(5, 1, N).value == 0
        assert [sum(sizes) for sizes in walks] == [0, 0]


class TestWorkingMemory:
    """The Fourier count and exp_sum hold no N-sized array (numpy reports its buffers)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_solutions_fourier(3, 3, 3, 1000033),
            lambda: exp_sum(1, 2, 1000003),
            lambda: exp_sum(1, 1000002, 1000003),  # d = N-1: one period of a 1-element subgroup
        ],
        ids=["count_solutions_fourier", "exp_sum", "exp_sum_d_N-1"],
    )
    def test_peak_below_4_mib(self, call):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    def test_power_histogram_holds_one_subgroup_beyond_its_table(self):
        # the (N-1)/6 powers of g^6, not all N-1 powers of g
        tracemalloc.start()
        try:
            hist = power_histogram(6, 2000113)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hist.freq.nbytes + (4 << 20), peak

    def test_power_histogram_holds_no_whole_walk(self):
        # all N-1 powers of g: a whole-walk int64 block would double freq
        tracemalloc.start()
        try:
            hist = power_histogram(1, 2000113)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hist.freq.nbytes + (1 << 20), peak

    def test_table_count_below_14_bytes_per_residue(self):
        # 6 | N-1: gcd pattern (6, 6, 6) counts through the int32 discrete-log table
        N = 2000029
        tracemalloc.start()
        try:
            count_solutions_exact(6, 6, 6, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * N, peak


@pytest.fixture
def walks(monkeypatch):
    """The block sizes of each _power_blocks walk, one list per walk, in call order."""
    seen = []
    power_blocks = counting._power_blocks

    def record(*args):
        sizes = []
        seen.append(sizes)
        for x in power_blocks(*args):
            sizes.append(x.size)
            yield x

    monkeypatch.setattr(counting, "_power_blocks", record)
    return seen


class TestBlockedWalks:
    """The array paths fill their N-sized output over several blocks, the last one cut."""

    @staticmethod
    def assert_blocks(blocks):
        assert len(blocks) >= 3 and blocks[-1] < blocks[0], blocks

    @pytest.mark.parametrize("p, q, r", [(6, 6, 6), (2, 8, 8)])
    def test_table_count_matches_fft_oracle(self, walks, p, q, r):
        N = 60169  # 24 | N-1: gcd patterns (6, 6, 6) and (2, 2, 8), with no closed form
        assert not _has_closed_form(_gcd_pattern(p, q, r, N))
        fp, fq, fr = (enumerated_histogram(e, N) for e in (p, q, r))
        expected = int(_cyclic_convolution(fp, fq, N) @ fr)
        assert count_solutions_exact(p, q, r, N).total == expected
        self.assert_blocks(walks[-1])

    @pytest.mark.parametrize("ell", [2, 3, 6])
    def test_exp_sum_table_matches_fft_oracle(self, walks, ell):
        N = 20011
        got, want = exp_sum_table(ell, N), fft_exp_sum_table(ell, N)
        assert np.max(np.abs(got - want)) < 1e-7
        self.assert_blocks(walks[-1])  # the table's walk, after the Gauss periods'

    @pytest.mark.parametrize(
        "ell, N", [(1, 60169), (2, 60169), (3, 60169), (6, 60169), (1, 20011), (2, 20011)]
    )
    def test_power_histogram_matches_enumeration(self, walks, ell, N):
        assert np.array_equal(power_histogram(ell, N).freq, enumerated_histogram(ell, N))
        self.assert_blocks(walks[-1])


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

    def test_exponent_below_one_rejected(self):
        for bad in ((0, 2, 2), (2, 0, 2), (2, 2, -1)):
            with pytest.raises(ValueError, match="exponents must be positive"):
                count_solutions_exact(*bad, 7)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, -1)])
    @pytest.mark.parametrize(
        "count", [count_trivial, count_solutions_exact, count_solutions_bruteforce]
    )
    def test_every_count_rejects_exponent_below_one(self, count, bad):
        # pow(x, 0, N) is 1, so an unchecked brute force would count (0, 1, 1, 7) as 49
        with pytest.raises(ValueError, match="exponents must be positive"):
            count(*bad, 7)

    def test_bruteforce_matches_and_refuses_above_2_12(self):
        for N in (13, 101, 401):
            for p, q, r in ((2, 4, 8), (3, 3, 3), (6, 6, 6)):
                want = count_solutions_exact(p, q, r, N).total
                assert count_solutions_bruteforce(p, q, r, N) == want, (p, q, r, N)
        with pytest.raises(ModulusTooLarge, match="below 2\\^12"):
            count_solutions_bruteforce(1, 1, 1, 4099)

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

    def test_matches_identity_on_oracle_tables(self):
        # the criterion-3 grid, with every S_k from the FFT oracle
        exponents = (1, 2, 3, 4, 6)
        for N in PRIMES_101:
            tables = {e: fft_exp_sum_table(e, N)[1:] for e in exponents}
            for p in exponents:
                for q in exponents:
                    for r in exponents:
                        tail = np.sum(tables[p] * tables[q] * np.conj(tables[r]))
                        want = N * N + tail.real / N
                        got = count_solutions_fourier(p, q, r, N)
                        assert abs(got - want) < 1e-6, (p, q, r, N)

    @pytest.mark.parametrize(
        # r = N-1 makes D = lcm(d_p, d_q, d_r) = N-1 and H_r = {1};
        # (3, 3, 3, 1000033) is the count --fourier benchmark rung
        "p, q, r, N", [(5, 10, 131100, 131101), (2, 2, 4098, 4099), (3, 3, 3, 1000033)]
    )
    def test_rounds_to_exact_at_large_moduli(self, p, q, r, N):
        exact = count_solutions_exact(p, q, r, N).total
        fourier = count_solutions_fourier(p, q, r, N)
        assert round(fourier) == exact
        assert abs(fourier - exact) < 1e-2

    def test_runs_no_histogram_or_fft(self, monkeypatch):
        class NoFFT:
            def __getattr__(self, name):
                raise AssertionError(f"np.fft.{name} called")

        def refuse(*args):
            raise AssertionError("power histogram built")

        monkeypatch.setattr(np, "fft", NoFFT())
        monkeypatch.setattr(counting, "power_histogram", refuse)
        fourier = count_solutions_fourier(2, 4, 8, 131101)
        table = exp_sum_table(3, 131101)
        assert round(fourier) == count_solutions_exact(2, 4, 8, 131101).total
        assert table[0] == 131101 and table.shape == (131101,)


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

    @pytest.mark.parametrize(
        "fn", [count_solutions_exact, count_trivial, count_lower_bound, trivial_upper_bound]
    )
    def test_float_modulus_refused(self, fn):
        # no truncation to 13: a modulus must be an integer
        with pytest.raises(TypeError):
            fn(2, 2, 2, 13.5)
        assert fn(2, 2, 2, np.int64(13)) == fn(2, 2, 2, 13)


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

    def test_closed_form_matches_histograms(self):
        for N in PRIMES_101:
            hists = {e: enumerated_histogram(e, N) for e in range(1, 13)}
            for p in hists:
                for q in hists:
                    want = int(hists[p] @ hists[q])
                    assert count_power_matches(p, q, N) == want, (p, q, N)

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

    @pytest.mark.parametrize(
        "p, q, r, N",
        [
            (2, 4, 8, 4099), (3, 3, 3, 4099), (2, 3, 5, 4099), (2, 2, 4098, 4099),
            (2, 4, 8, 65537), (4, 2, 16, 65537), (3, 5, 7, 65537), (2, 2, 65536, 65537),
            (2, 4, 8, 131101), (3, 6, 3, 131101), (4, 3, 5, 131101),
            (5, 10, 131100, 131101),
        ],
    )
    def test_exact_count_matches_fft_oracle(self, p, q, r, N):
        # (2,3,5), (3,5,7), (4,3,5): pairwise coprime gcd(e, N-1), the T = N-2
        # branch with no discrete-log table; r = N-1 makes H_r = {1}
        fp, fq, fr = (enumerated_histogram(e, N) for e in (p, q, r))
        expected = int(_cyclic_convolution(fp, fq, N) @ fr)
        assert count_solutions_exact(p, q, r, N).total == expected

    def test_large_modulus_count_consistent(self):
        # the exact count must still satisfy the Fourier cross-check
        counts = count_solutions_exact(2, 4, 8, 131101)
        assert abs(counts.fourier - counts.total) < 0.5


def _no_array(*args, **kwargs):
    raise AssertionError("N-sized array built")


def _gcd_pattern(p, q, r, N):
    dp, dq, dr = (math.gcd(e, N - 1) for e in (p, q, r))
    return math.gcd(dp, dq), math.gcd(dp, dr), math.gcd(dq, dr)


ORDER_2_3_4 = {(2, 2, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2), (4, 4, 4), (3, 3, 3)}


def _has_closed_form(pattern):
    return pattern in ORDER_2_3_4 or sorted(pattern)[1] == 1  # at most one gcd > 1


class TestClosedForms:
    def test_grid_matches_fft_oracle(self, monkeypatch):
        # every prime 5 <= N < 400, p, q in 1..12, r in {1,2,3,4,6,8,12}; the
        # patterns with a closed form run with np.zeros refused, the rest
        # exercise the table
        closed_seen, table_seen = set(), set()
        for N in sieve_primes(399)[2:]:
            modulus = PrimeModulus(N)
            hists = {e: enumerated_histogram(e, N) for e in range(1, 13)}
            for p in range(1, 13):
                for q in range(1, 13):
                    conv = _cyclic_convolution(hists[p], hists[q], N)
                    for r in (1, 2, 3, 4, 6, 8, 12):
                        pattern = _gcd_pattern(p, q, r, N)
                        with monkeypatch.context() as patched:
                            if _has_closed_form(pattern):
                                patched.setattr(np, "zeros", _no_array)
                                closed_seen.add(pattern)
                            else:
                                table_seen.add(pattern)
                            got = count_solutions_exact(p, q, r, modulus).total
                        assert got == int(conv @ hists[r]), (p, q, r, N)
        assert ORDER_2_3_4 <= closed_seen
        for m in (2, 3, 4, 6, 12):
            assert {(m, 1, 1), (1, m, 1), (1, 1, m)} <= closed_seen, m
        assert {(2, 2, 8), (6, 6, 6), (12, 12, 12)} <= table_seen

    @pytest.mark.parametrize(
        "p, q, r, N, total",
        [
            (2, 4, 8, 131101, 17226540001),
            (2, 2, 2, 1000003, 1000006000009),
            (2, 4, 8, 1000033, 998239942657),
            (8, 4, 2, 1000033, 998239942657),
            (4, 4, 4, 1000033, 994587825793),
            (3, 3, 3, 1000033, 1001363042593),
            (2, 3, 6, 2000003, 4000012000009),
        ],
    )
    def test_large_counts_build_no_table(self, monkeypatch, p, q, r, N, total):
        # totals pinned from the discrete-log table
        monkeypatch.setattr(np, "zeros", _no_array)
        assert count_solutions_exact(p, q, r, N).total == total

    def test_counts_beyond_2_31(self):
        N = 2**65 + 131  # the scheme I modulus; N = 3 (mod 4)
        counts = count_solutions_exact(2, 2, 2, N)
        assert counts.nontrivial == 8 * (N - 1) // 2 * ((N - 3) // 4)
        assert counts.trivial == count_trivial(2, 2, 2, N) == 1 + 4 * (N - 1)
        assert count_power_matches(2, 4, N) == 1 + 2 * (N - 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda N: count_solutions_exact(6, 6, 6, N),
            lambda N: count_solutions_fourier(2, 2, 2, N),
            lambda N: count_solutions_bruteforce(1, 1, 1, N),
            lambda N: power_histogram(2, N),
            lambda N: exp_sum(1, 2, N),
            lambda N: exp_sum_table(2, N),
        ],
    )
    def test_array_paths_refuse_beyond_2_31(self, call):
        with pytest.raises(ModulusTooLarge):
            call(2**31 + 11)  # prime, and 6 | N - 1


N_CERT = 131101  # factorize(N-1) also certifies the cofactor 23
COUNT_CALLS = {
    "count_solutions_exact": lambda N: count_solutions_exact(2, 4, 8, N),
    "count_solutions_exact.fourier": lambda N: count_solutions_exact(2, 4, 8, N).fourier,
    "count_solutions_fourier": lambda N: count_solutions_fourier(2, 4, 8, N),
    "count_trivial": lambda N: count_trivial(2, 4, 8, N),
    "count_power_matches": lambda N: count_power_matches(2, 4, N),
    "exp_sum_table": lambda N: exp_sum_table(3, N),
    "exp_sum": lambda N: exp_sum(5, 3, N),
    "power_histogram": lambda N: power_histogram(3, N),
}


class TestCertifyOnce:
    """A counting call certifies an int modulus once and a PrimeModulus never."""

    MODULUS = PrimeModulus(N_CERT)
    CONTEXT = BSContext.create(2, 4, 8, N_CERT)

    @pytest.fixture
    def certified(self, monkeypatch):
        seen = []
        real = modmath.is_probable_prime

        def counted(n, *args, **kwargs):
            seen.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(modmath, "is_probable_prime", counted)
        return seen

    @pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS)
    def test_int_modulus_certified_once(self, certified, call):
        call(N_CERT)
        assert certified.count(N_CERT) == 1

    @pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS)
    def test_prime_modulus_not_recertified(self, certified, call):
        call(self.MODULUS)
        assert certified.count(N_CERT) == 0

    def test_bound_chain_not_recertified(self, certified):
        assert verify_bound_chain(self.CONTEXT).all_passed
        assert certified.count(N_CERT) == 0


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

    def test_tuple_context_refused(self):
        with pytest.raises(InvalidContext):
            verify_bound_chain((2, 2, 2, 2053))

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
