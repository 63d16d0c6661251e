import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealschur import modmath
from bealschur.crypto import decrypt_I, decrypt_II, encrypt_I, encrypt_II
from bealschur.errors import MixedModuli, ModulusTooSmall, NonResidue, NotPrime
from bealschur.modmath import (
    PrimeModulus,
    Residue,
    _is_power,
    _jacobi,
    _unity,
    all_kth_roots,
    as_prime_modulus,
    factorize,
    find_generator,
    is_probable_prime,
    kth_residue_test,
    kth_root_mod,
    mod_pow,
)

from conftest import (
    PRIME_57_BIT,
    PRIME_66_BIT,
    PRIME_74_BIT,
    amm_root_reference,
    kth_powers,
    sieve_primes,
    trial_division_prime,
)

SMALL_PRIMES = sieve_primes(101)
ROOT_EXPONENTS = (2, 3, 4, 6)

# (N, k) for the AMM replay oracle: d = gcd(k, N-1) is 2, 2, 2 and 6 (two
# primes) with gcd(k, (N-1)/d) = 1, then five contexts where it is not: two
# with d = 6 and 8, one with d = 30 (three primes; N - 1 = 2^4 3^2 5^2 ...)
# recombined from three prime-power roots, and d = 16 with v_2(N-1) = 23 and
# d = 27 with v_3(N-1) = 5, chains of four square and three cube roots
REPLAY_CONTEXTS = [
    (PRIME_66_BIT, 2),
    (PRIME_74_BIT, 4),
    (PRIME_74_BIT, 8),
    (2**89 - 1, 6),
    (2**61 - 1, 6),
    (1000033, 8),
    (999999997201, 30),
    (998244353, 16),
    (1000000891, 27),
]


def slow_pow(base, exponent, modulus):
    """Repeated-multiplication oracle."""
    acc = 1
    for _ in range(exponent):
        acc = acc * base % modulus
    return acc


class TestModPow:
    def test_zero_exponent_is_one(self):
        assert mod_pow(5, 0, 7).value == 1

    def test_direct_arithmetic(self):
        assert mod_pow(2, 10, 1000).value == 24

    def test_against_repeated_multiplication(self):
        assert slow_pow(8, 7, 11) == 2
        assert mod_pow(8, 7, 11).value == 2
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(2, 1000)
            b = rng.randrange(0, n)
            e = rng.randrange(0, 50)
            assert mod_pow(b, e, n).value == slow_pow(b, e, n)

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmall):
            mod_pow(3, 4, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mod_pow(3, -1, 7)

    @given(
        a=st.integers(0, 10**6),
        m=st.integers(0, 10**4),
        n=st.integers(0, 10**4),
        mod=st.integers(2, 10**6),
    )
    @settings(max_examples=200)
    def test_exponent_addition_law(self, a, m, n, mod):
        lhs = mod_pow(a, m + n, mod).value
        rhs = mod_pow(a, m, mod).value * mod_pow(a, n, mod).value % mod
        assert lhs == rhs


class TestResidueTypes:
    def test_residue_invariants(self):
        r = Residue(3, 7)
        assert int(r) == 3
        with pytest.raises(ValueError):
            Residue(7, 7)
        with pytest.raises(ModulusTooSmall):
            Residue(0, 1)

    def test_prime_modulus_certainty(self):
        assert as_prime_modulus(2053).certainty == "proven-by-fixed-bases"
        assert as_prime_modulus(2**64 + 13).certainty == "proven-by-fixed-bases"
        assert as_prime_modulus(2**89 - 1).certainty == "probable(40)"
        with pytest.raises(NotPrime):
            as_prime_modulus(2051)

    def test_prime_modulus_passthrough(self):
        pm = as_prime_modulus(7)
        assert as_prime_modulus(pm) is pm


class TestInputRule:
    """A caller's value is an integer or a Residue of the same modulus."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda v: kth_residue_test(v, 2, 13),
            lambda v: kth_root_mod(v, 2, 13),
            lambda v: all_kth_roots(v, 2, 13),
            lambda v: mod_pow(v, 3, 13),
        ],
        ids=["kth_residue_test", "kth_root_mod", "all_kth_roots", "mod_pow"],
    )
    def test_residue_of_another_modulus_refused(self, call):
        with pytest.raises(MixedModuli):
            call(Residue(4, 7))
        assert call(Residue(4, 13)) == call(4)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_prime_modulus(7.9),
            lambda: PrimeModulus(65537.0),
            lambda: kth_root_mod(4.7, 2, 13),
            lambda: kth_root_mod(4, 2, 13.0),
            lambda: mod_pow(2.5, 3, 13),
            lambda: Residue(3.5, 7),
            lambda: Residue(3, 7.0),
        ],
        ids=["as_prime_modulus", "PrimeModulus", "root-c", "root-N", "mod_pow",
             "Residue-value", "Residue-modulus"],
    )
    def test_float_refused(self, call):
        with pytest.raises(TypeError):
            call()

    def test_integer_types_accepted(self):
        import numpy as np

        pm = as_prime_modulus(np.int64(65537))
        assert pm.value == 65537 and type(pm.value) is int
        assert PrimeModulus(PrimeModulus(13)).value == 13
        assert kth_root_mod(np.int64(4), 2, np.int64(13)) == kth_root_mod(4, 2, 13)
        assert int(pm) == 65537  # int() falls back to __index__
        r = Residue(np.int64(3), np.int64(7))
        assert r == Residue(3, 7) and type(r.value) is int and type(r.modulus) is int


class TestPrimality:
    def test_frozen_examples(self):
        assert trial_division_prime(2053)
        assert is_probable_prime(2053, 20)
        assert not is_probable_prime(2048, 20)
        assert not is_probable_prime(1, 20)
        assert not is_probable_prime(0) and not is_probable_prime(-7)

    def test_agrees_with_trial_division(self):
        for n in range(2, 3000):
            assert is_probable_prime(n) == trial_division_prime(n), n

    def test_matches_sieve_below_200000(self):
        primes = set(sieve_primes(200000))
        for n in range(200000):
            assert is_probable_prime(n) == (n in primes), n

    def test_odd_sample_near_10_8_matches_trial_division(self):
        # odd n from 10^7 to just past 10^8, against the trial-division oracle
        rng = random.Random(2017)
        for _ in range(300):
            n = rng.randrange(10**7, 10**8 + 10**6) | 1
            assert is_probable_prime(n) == trial_division_prime(n), n

    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751])
    def test_small_strong_pseudoprimes_rejected(self, n):
        # strong pseudoprimes to bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7
        assert not is_probable_prime(n)

    def test_miller_rabin_band(self):
        assert is_probable_prime(2**64 + 13)
        assert not is_probable_prime(2**64 + 15)
        # strong pseudoprime to several bases, still composite
        assert not is_probable_prime(341550071728321)
        assert is_probable_prime(2**61 - 1)

    def test_fixed_bases_decide_below_psi13(self):
        # strong pseudoprime to bases 2..23, caught by a later fixed base
        assert not is_probable_prime(3825123056546413051)
        # psi_12 is a strong pseudoprime to bases 2..37; base 41 catches it
        assert not is_probable_prime(318665857834031151167461, rounds=13)
        # psi_13 passes all 13 fixed bases; only the random rounds, which
        # start at psi_13 itself, reject it
        psi_13 = 3317044064679887385961981
        assert is_probable_prime(psi_13, rounds=13)
        assert not is_probable_prime(psi_13)

    @staticmethod
    def passes_bases(n, bases):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        return not any(modmath._mr_witness(a, d, s, n) for a in bases)

    def test_each_proven_bound_fools_its_own_bases(self):
        # each odd bound is a strong pseudoprime to the set that decides below it, so
        # that set cannot reach past it; the next set, or trial division, rejects it
        odd = [(b, bases) for b, bases in modmath._PROVEN_BASES if b % 2]
        odd.append((modmath._PSI_13, modmath._MR_FIXED_BASES))
        assert [b for b, _ in odd] == [2047, 1373653, 25326001, 3215031751, 2152302898747,
                                       3317044064679887385961981]
        for bound, bases in odd:
            assert self.passes_bases(bound, bases), bound
            assert not is_probable_prime(bound), bound

    def test_proven_bases_agree_with_the_13_fixed_bases(self):
        # seeded odd n of 11..64 bits, about one in twenty of them prime
        rng = random.Random(2011)
        verdicts = set()
        for _ in range(4000):
            bits = rng.randrange(11, 65)
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            fixed = all(n % p for p in modmath._MR_FIXED_BASES)
            fixed = fixed and self.passes_bases(n, modmath._MR_FIXED_BASES)
            assert is_probable_prime(n) == fixed, n
            verdicts.add((fixed, len(modmath._proven_bases(n))))
        assert {v for v, _ in verdicts} == {True, False}
        assert {k for _, k in verdicts} == {1, 2, 3, 4, 5, 7}

    def test_certainty_recorded_rounds(self):
        pm = PrimeModulus(2**89 - 1, rounds=20)
        assert pm.certainty == "probable(20)"


def euler_character(a, N):
    """Legendre symbol of a mod the odd prime N by Euler's criterion."""
    v = pow(a, (N - 1) // 2, N)
    return -1 if v == N - 1 else v


class TestJacobi:
    def test_equals_euler_for_small_primes(self):
        for N in sieve_primes(2000)[1:]:
            for a in range(N):
                assert _jacobi(a, N) == euler_character(a, N), (a, N)

    @pytest.mark.parametrize("N", [PRIME_57_BIT, PRIME_66_BIT, PRIME_74_BIT])
    def test_equals_euler_at_scheme_moduli(self, rng, N):
        for _ in range(1000):
            a = rng.randrange(N)
            assert _jacobi(a, N) == euler_character(a, N)

    def test_multiplicative_in_odd_modulus(self):
        for n in range(3, 500, 2):
            for a in range(-20, 60):
                expected = 1
                for pi, e in factorize(n).items():
                    expected *= euler_character(a % pi, pi) ** e
                assert _jacobi(a, n) == expected, (a, n)


class TestSharedRule:
    """_is_power and _unity decide every k-th power fact mod N."""

    def test_is_power_is_euler_for_every_divisor(self):
        for N in SMALL_PRIMES:
            for d in (d for d in range(1, N) if (N - 1) % d == 0):
                for c in range(1, N):
                    euler = pow(c, (N - 1) // d, N) == 1
                    assert _is_power(c, d, N) == euler, (c, d, N)

    def test_unity_has_exact_order(self):
        for N in SMALL_PRIMES:
            for d in (d for d in range(1, N) if (N - 1) % d == 0):
                w = _unity(d, N)
                order = next(e for e in range(1, N) if pow(w, e, N) == 1)
                assert order == d, (d, N)


class TestKthResidue:
    def test_zero_is_always_residue(self):
        assert kth_residue_test(0, 3, 7)

    def test_constructed_residues(self, rng):
        for _ in range(100):
            N = rng.choice(SMALL_PRIMES[2:])
            k = rng.choice(ROOT_EXPONENTS)
            a = rng.randrange(0, N)
            assert kth_residue_test(pow(a, k, N), k, N)

    def test_non_square(self):
        # squares mod 7 are {0, 1, 2, 4}
        assert kth_powers(2, 7) == {0, 1, 2, 4}
        assert not kth_residue_test(3, 2, 7)

    def test_exhaustive_agreement(self):
        for N in SMALL_PRIMES:
            for k in ROOT_EXPONENTS:
                attained = kth_powers(k, N)
                for t in range(N):
                    assert kth_residue_test(t, k, N) == (t in attained)

    def test_composite_modulus_rejected(self):
        with pytest.raises(NotPrime):
            kth_residue_test(2, 3, 15)


class TestKthRoot:
    def test_unique_root_when_coprime(self):
        # gcd(3, 10) = 1, so 8 has exactly one cube root mod 11
        assert {y for y in range(11) if pow(y, 3, 11) == 8} == {2}
        assert kth_root_mod(8, 3, 11).value == 2
        assert all_kth_roots(8, 3, 11) == {Residue(2, 11)}

    def test_zero_root(self):
        assert kth_root_mod(0, 5, 13).value == 0
        assert all_kth_roots(0, 5, 13) == {Residue(0, 13)}

    def test_square_roots_mod_7(self):
        assert kth_root_mod(4, 2, 7).value in (2, 5)
        assert {r.value for r in all_kth_roots(4, 2, 7)} == {2, 5}

    def test_one_always_roots_to_one(self, rng):
        for _ in range(50):
            N = rng.choice(SMALL_PRIMES[1:])
            k = rng.choice(ROOT_EXPONENTS)
            assert Residue(1, N) in all_kth_roots(1, k, N)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("c", [0, 3])
    @pytest.mark.parametrize("fn", [kth_residue_test, kth_root_mod, all_kth_roots])
    def test_k_below_one_rejected(self, fn, c, k):
        # c = 0 has a root for every k >= 1, so it must not skip the k check
        with pytest.raises(ValueError, match="k must be positive"):
            fn(c, k, 7)

    def test_non_residue_raises(self):
        with pytest.raises(NonResidue):
            kth_root_mod(3, 2, 7)
        with pytest.raises(NonResidue):
            all_kth_roots(3, 2, 7)

    def test_every_root_verifies_exhaustively(self):
        for N in SMALL_PRIMES:
            for k in ROOT_EXPONENTS:
                for c in sorted(kth_powers(k, N)):
                    root = kth_root_mod(c, k, N)
                    assert pow(root.value, k, N) == c % N

    def test_root_set_matches_enumeration(self):
        for N in SMALL_PRIMES:
            for k in ROOT_EXPONENTS:
                for c in range(N):
                    expected = {y for y in range(N) if pow(y, k, N) == c}
                    if not expected:
                        with pytest.raises(NonResidue):
                            all_kth_roots(c, k, N)
                        continue
                    got = {r.value for r in all_kth_roots(c, k, N)}
                    assert got == expected

    @pytest.mark.parametrize(
        "N,k,exponent_path",
        [
            (PRIME_66_BIT, 2, True),   # d = 2, N = 3 mod 4
            (PRIME_74_BIT, 8, True),   # d = 2, gcd(8, (N-1)/2) = 1
            (PRIME_57_BIT, 3, True),   # d = 1
            (1000033, 8, False),       # d = 8, gcd(8, (N-1)/8) = 4
        ],
    )
    def test_large_modulus_root_set(self, rng, N, k, exponent_path):
        d = math.gcd(k, N - 1)
        m = (N - 1) // d
        assert (math.gcd(k, m) == 1) == exponent_path
        for _ in range(5):
            c = pow(rng.randrange(2, N), k, N)
            roots = all_kth_roots(c, k, N)
            assert len(roots) == d
            assert all(pow(y.value, k, N) == c for y in roots)
            if exponent_path:
                assert Residue(pow(c, pow(k, -1, m), N), N) in roots

    def test_root_count_is_gcd(self):
        for N in SMALL_PRIMES:
            for k in ROOT_EXPONENTS:
                d = math.gcd(k, N - 1)
                for c in sorted(kth_powers(k, N) - {0}):
                    assert len(all_kth_roots(c, k, N)) == d

    def test_prime_power_orders(self):
        # N-1 = 72 = 8 * 9 exercises multi-digit extraction for 2 and 3
        N = 73
        for k in (8, 9, 12, 18, 24, 72):
            for c in sorted(kth_powers(k, N) - {0}):
                got = {r.value for r in all_kth_roots(c, k, N)}
                assert got == {y for y in range(N) if pow(y, k, N) == c}

    def test_fermat_prime_all_power_of_two(self):
        # N-1 = 2^8: the odd part of N-1 is 1
        N = 257
        for k in (2, 4, 8, 16):
            for c in sorted(kth_powers(k, N) - {0}):
                root = kth_root_mod(c, k, N).value
                assert pow(root, k, N) == c

    def test_large_modulus_root(self, rng):
        N = 2**64 + 13
        for k in (2, 3, 8):
            a = rng.randrange(2, N)
            c = pow(a, k, N)
            root = kth_root_mod(c, k, N, rng).value
            assert pow(root, k, N) == c

    def test_decrypt_needs_no_search(self, monkeypatch):
        # schemes I and II decrypt by one exponentiation per block: no
        # non-residue search and no factorization, even for a fresh plan
        rng = random.Random(3)
        msg = bytes(rng.randrange(256) for _ in range(200))
        ct_one = encrypt_I(msg, (2, PRIME_66_BIT), (2, 2), rng)
        ct_two = encrypt_II(msg, (2, 4, 8), PRIME_74_BIT, rng)

        def refuse(*args):
            raise AssertionError("root search ran during decryption")

        _unity.cache_clear()
        monkeypatch.setattr(modmath, "_non_power", refuse)
        monkeypatch.setattr(modmath, "factorize", refuse)
        assert decrypt_I(ct_one, (2, PRIME_66_BIT), (2, 2)) == msg
        assert decrypt_II(ct_two, (2, 4, 8), PRIME_74_BIT) == msg

    @pytest.mark.parametrize("N,k", REPLAY_CONTEXTS)
    def test_replays_amm_draws(self, N, k):
        # same root and same final rng state as the AMM extraction
        make_c = random.Random(N ^ k)
        ours, reference = random.Random(7), random.Random(7)
        modulus = PrimeModulus(N)
        for _ in range(500):
            c = pow(make_c.randrange(1, N), k, N)
            assert kth_root_mod(c, k, modulus, ours).value == amm_root_reference(
                c, k, N, reference
            )
            assert ours.getstate() == reference.getstate()

    def test_replays_amm_draws_exhaustively(self):
        for N in sieve_primes(200):
            for k in range(1, 13):
                ours, reference = random.Random(N), random.Random(N)
                for c in sorted(kth_powers(k, N) - {0}):
                    assert kth_root_mod(c, k, N, ours).value == amm_root_reference(
                        c, k, N, reference
                    )
                assert ours.getstate() == reference.getstate(), (N, k)

    @pytest.mark.parametrize("N,k", REPLAY_CONTEXTS)
    def test_non_residue_draws_nothing(self, N, k):
        d = math.gcd(k, N - 1)
        gen = random.Random(N)
        c = gen.randrange(2, N)
        while pow(c, (N - 1) // d, N) == 1:
            c = gen.randrange(2, N)
        ours = random.Random(7)
        before = ours.getstate()
        with pytest.raises(NonResidue):
            kth_root_mod(c, k, N, ours)
        assert ours.getstate() == before

    def test_seeded_rng_reproducible(self):
        N, k, c = 73, 8, pow(5, 8, 73)
        r1 = kth_root_mod(c, k, N, random.Random(5)).value
        r2 = kth_root_mod(c, k, N, random.Random(5)).value
        assert r1 == r2


class TestGeneratorAndFactorization:
    def test_factorize_small(self):
        assert factorize(1) == {}
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(2053) == {2053: 1}
        assert factorize(10403) == {101: 1, 103: 1}

    @pytest.mark.parametrize(
        "n, expected",
        [
            (1000036000099, {1000003: 1, 1000033: 1}),
            (1000039000207000297, {1000003: 2, 1000033: 1}),
            (1000073001431003663, {1000003: 1, 1000033: 1, 1000037: 1}),
            (8957424251969, {1060937: 1, 8442937: 1}),
            (9444733215912546281111, {34359739151: 1, 274877907961: 1}),
        ],
        ids=["pq", "p2q", "pqr", "mid-size", "35-and-38-bit"],
    )
    def test_factorize_rho_path(self, n, expected):
        # every prime factor lies beyond the trial ladder, so rho splits n;
        # dicts compare without order, which depends on the factor rho finds
        assert factorize(n) == expected

    def test_generator_has_full_order(self):
        for N in SMALL_PRIMES[1:]:
            g = find_generator(N, random.Random(N))
            assert len({pow(g, e, N) for e in range(N - 1)}) == N - 1

    @pytest.mark.parametrize(
        "N,default,seeded,next_bits",
        [
            (131101, 125909, 30485, 3475283521191744929),
            (1000003, 503633, 540940, 5905430642995485387),
            (1000033, 598808, 964411, 6156587842274027006),
        ],
    )
    def test_generator_draws_pinned(self, N, default, seeded, next_bits):
        # the generators and rng end states the Fourier cross-check relies on
        assert find_generator(N) == default
        rng = random.Random(N)
        assert find_generator(N, rng) == seeded
        assert rng.getrandbits(64) == next_bits
