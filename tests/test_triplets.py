import math
import random

import pytest

from bealschur.errors import (
    DegenerateInput,
    ExponentTooSmall,
    MixedModuli,
    NegativeRadicand,
    NotIndiscernible,
    NotIntraDivisible,
    NotPrime,
)
from bealschur.modmath import Residue, mod_pow
from bealschur.triplets import (
    BSContext,
    BSTriplet,
    ExponentTriplet,
    find_bs_pair,
    indiscernibility_threshold,
    is_bs_triplet,
    is_indiscernible,
    is_intra_divisible,
    solve_real_beal,
)

from conftest import trial_division_prime


class TestIntraDivisible:
    def test_chain(self):
        assert is_intra_divisible(2, 4, 8)

    def test_equal_exponents(self):
        assert is_intra_divisible(2, 2, 2)
        for a in range(2, 20):
            assert is_intra_divisible(a, a, a)

    def test_unrelated(self):
        assert not is_intra_divisible(2, 3, 5)

    def test_too_small(self):
        with pytest.raises(ExponentTooSmall):
            is_intra_divisible(1, 2, 2)

    def test_literal_variant_differs(self):
        # (8, 2, 4): r | p holds but neither p | r nor r | q does
        assert is_intra_divisible(8, 2, 4)
        assert not is_intra_divisible(8, 2, 4, literal=True)
        # (2, 4, 8): both readings agree
        assert is_intra_divisible(2, 4, 8, literal=True)

    def test_triplet_type(self):
        t = ExponentTriplet.validated(2, 4, 8)
        assert t.threshold() == 32 * 4 * 16 * 64
        with pytest.raises(NotIntraDivisible):
            ExponentTriplet.validated(2, 3, 5)
        with pytest.raises(ExponentTooSmall):
            ExponentTriplet(1, 2, 2)


class TestIndiscernible:
    def test_threshold_value(self):
        assert indiscernibility_threshold(2, 2, 2) == 2048

    def test_smallest_admissible_prime(self):
        t = ExponentTriplet(2, 2, 2)
        assert is_indiscernible(2053, t)
        assert not is_indiscernible(2048, t)  # not prime
        assert 2051 == 7 * 293
        assert not is_indiscernible(2051, t)
        # prime scan: nothing between the threshold and 2053 qualifies
        admissible = [n for n in range(2049, 2054) if is_indiscernible(n, t)]
        assert admissible == [2053]
        assert [n for n in range(2049, 2053) if trial_division_prime(n)] == []

    def test_threshold_is_strict(self):
        # a prime equal to the threshold would be rejected; use a triplet
        # whose threshold is itself prime-adjacent to confirm strictness
        t = ExponentTriplet(2, 2, 2)
        assert not is_indiscernible(2047, t)


class TestContext:
    def test_create(self):
        ctx = BSContext.create(2, 2, 2, 2053)
        assert (ctx.p, ctx.q, ctx.r, ctx.N) == (2, 2, 2, 2053)

    def test_rejects_non_intra_divisible(self):
        with pytest.raises(NotIntraDivisible):
            BSContext.create(2, 3, 5, 101)

    def test_rejects_small_modulus(self):
        with pytest.raises(NotIndiscernible):
            BSContext.create(2, 4, 8, 2053)  # threshold 131072

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            BSContext.create(2, 2, 2, 2051)

    def test_float_exponent_refused(self):
        with pytest.raises(TypeError):
            ExponentTriplet(2.0, 2, 2)
        with pytest.raises(TypeError):
            BSContext.create(2.0, 2, 2, 2053)

    def test_integer_exponents_stored_as_int(self):
        import numpy as np

        t = ExponentTriplet(np.int64(2), 4, np.int64(8))
        assert t == ExponentTriplet(2, 4, 8)
        assert all(type(e) is int for e in (t.p, t.q, t.r))


class TestBSTriplet:
    def test_zero_triplet(self):
        ctx = BSContext.create(2, 2, 2, 2053)
        assert is_bs_triplet(0, 0, 0, ctx)
        t = BSTriplet(Residue(0, 2053), Residue(0, 2053), Residue(0, 2053))
        assert not t.nontrivial

    def test_constructed_with_zero_y(self):
        ctx = BSContext.create(2, 2, 2, 2053)
        # x^p = z^r with y = 0: take z = x = 4 so 16 + 0 = 16
        assert is_bs_triplet(4, 0, 4, ctx)

    def test_mixed_moduli(self):
        ctx = BSContext.create(2, 2, 2, 2053)
        with pytest.raises(MixedModuli):
            is_bs_triplet(Residue(1, 7), 0, 0, ctx)
        with pytest.raises(MixedModuli):
            BSTriplet(Residue(1, 7), Residue(0, 11), Residue(0, 11))


class _CountingRandom(random.Random):
    """Counts the x draws find_bs_pair makes (randrange(1, N))."""

    def __new__(cls, seed, N):
        inst = super().__new__(cls, seed)
        inst.x_draws = 0
        inst._N = N
        return inst

    def __init__(self, seed, N):
        super().__init__(seed)

    def randrange(self, start, stop=None, step=1):
        if start == 1 and stop == self._N:
            self.x_draws += 1
        return super().randrange(start, stop, step)


CONTEXTS = [(2, 2, 2, 2053), (3, 3, 3, 23333), (2, 4, 8, 131101)]


class TestFindBSPair:
    @pytest.mark.parametrize("p,q,r,N", CONTEXTS)
    def test_solutions_verify(self, p, q, r, N):
        ctx = BSContext.create(p, q, r, N)
        rng = random.Random(99)
        for _ in range(340):  # >= 1000 trials across the three contexts
            z = rng.randrange(0, N)
            x, y = find_bs_pair(z, ctx, rng)
            assert 1 <= x.value <= N - 1
            assert 1 <= y.value <= N - 1
            assert is_bs_triplet(x, y, z, ctx)
            lhs = (mod_pow(x, p, N).value + mod_pow(y, q, N).value) % N
            assert lhs == mod_pow(z, r, N).value

    def test_zero_target(self):
        ctx = BSContext.create(2, 2, 2, 2053)
        x, y = find_bs_pair(0, ctx, random.Random(3))
        assert (pow(x.value, 2, 2053) + pow(y.value, 2, 2053)) % 2053 == 0
        assert x.value != 0 and y.value != 0

    def test_expected_draw_count(self):
        p, q, r, N = 2, 2, 2, 2053
        ctx = BSContext.create(p, q, r, N)
        d = math.gcd(q, N - 1)
        total = 0
        for seed in range(1000):
            rng = _CountingRandom(seed, N)
            find_bs_pair(seed % N, ctx, rng)
            total += rng.x_draws
        assert total / 1000 <= 2 * d


class TestRealSolver:
    def test_cube_example(self):
        sol = solve_real_beal(y=2.0, z=3.0, p=3.0, q=3.0, r=3.0)
        assert sol.x == pytest.approx(19 ** (1 / 3), rel=1e-12)
        assert sol.x**3 + 2.0**3 == pytest.approx(3.0**3, rel=1e-12)

    def test_mixed_exponents(self):
        sol = solve_real_beal(y=2.0, z=2.0, p=2.0, q=3.0, r=5.0)
        assert sol.x == pytest.approx(math.sqrt(32 - 8), rel=1e-12)

    def test_intermediate_fields(self):
        sol = solve_real_beal(y=2.0, z=3.0, p=3.0, q=3.0, r=3.0)
        assert sol.tau == pytest.approx(2.0 / 3.0)
        assert sol.e_term == pytest.approx(1.0 / (9.0 - sol.tau * 4.0))
        # the defining identity: z^r - y^q = z^(r-2) / e_term
        assert 27.0 - 8.0 == pytest.approx(3.0 / sol.e_term)

    def test_degenerate_equal_powers(self):
        with pytest.raises(DegenerateInput):
            solve_real_beal(y=2.0, z=2.0, p=4.0, q=3.0, r=3.0)

    @pytest.mark.parametrize(
        "y,z,p,q,r",
        [(2.0, 3.0, 0.0, 3.0, 3.0), (-2.0, 3.0, 2.0, 2.5, 3.0)],
        ids=["zero-exponent", "negative-base-fractional-exponent"],
    )
    def test_degenerate_exponents(self, y, z, p, q, r):
        with pytest.raises(DegenerateInput):
            solve_real_beal(y=y, z=z, p=p, q=q, r=r)

    def test_forbidden_base_values(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(DegenerateInput):
                solve_real_beal(y=bad, z=3.0, p=2.0, q=3.0, r=3.0)
            with pytest.raises(DegenerateInput):
                solve_real_beal(y=2.0, z=bad, p=2.0, q=3.0, r=3.0)

    def test_negative_radicand_even_p(self):
        # y^q = 27 > z^r = 8
        with pytest.raises(NegativeRadicand):
            solve_real_beal(y=3.0, z=2.0, p=2.0, q=3.0, r=3.0)

    def test_negative_radicand_odd_p(self):
        sol = solve_real_beal(y=3.0, z=2.0, p=3.0, q=3.0, r=3.0)
        assert sol.x == pytest.approx(-((19) ** (1 / 3)), rel=1e-12)
        assert sol.defect() <= 1e-9

    def test_randomized_admissible_inputs(self):
        rng = random.Random(77)
        checked = 0
        while checked < 100:
            y = rng.uniform(1.2, 4.0)
            z = rng.uniform(1.2, 4.0)
            p = rng.uniform(2.0, 6.0)
            q = rng.uniform(2.0, 6.0)
            r = rng.uniform(2.0, 6.0)
            if z**r - y**q <= 1e-6:  # fractional p needs a positive radicand
                continue
            sol = solve_real_beal(y=y, z=z, p=p, q=q, r=r)
            assert sol.defect() <= 1e-9
            checked += 1
