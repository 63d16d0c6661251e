import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealschur.crypto import (
    Ciphertext,
    block_capacity,
    decode_message,
    decrypt_I,
    decrypt_II,
    decrypt_III,
    encode_message,
    encrypt_I,
    encrypt_II,
    encrypt_III,
)
from bealschur.errors import (
    AmbiguousRoot,
    ChecksumMismatch,
    MalformedPadding,
    ModulusTooSmall,
    NoValidRoot,
    NotIndiscernible,
    NotIntraDivisible,
    PartitionMismatch,
    SchemeMismatch,
)
from bealschur.triplets import BSContext, is_bs_triplet

from conftest import FERMAT_65537, PRIME_57_BIT, PRIME_66_BIT, PRIME_74_BIT


KEYS_I = ((2, PRIME_66_BIT), (2, 2))            # pub (r, N), priv (p, q)
KEYS_II = ((2, 4, 8), PRIME_74_BIT)             # pub (p, q, r), priv N
KEYS_I_UNIQUE = ((3, PRIME_57_BIT), (3, 3))     # gcd(r, N-1) = 1

CONTEXTS_III = [
    (2, 2, 2, PRIME_66_BIT),
    (3, 3, 3, PRIME_57_BIT),
    (2, 4, 8, PRIME_74_BIT),
]

# near-miss ciphertexts: BSCT v1 headers and integer pair lines with
# arbitrary values, mixed with arbitrary text in every position
_token = st.integers(-(10**30), 10**30).map(str) | st.text(max_size=6)
_ciphertext_text = st.one_of(
    st.text(),
    st.builds(
        lambda head, rows: "\n".join([head, *rows]),
        st.builds(
            "BSCT v1 {} {}".format,
            st.sampled_from(["scheme=I", "scheme=II", "scheme=III", "scheme", ""])
            | st.text(max_size=12),
            st.integers(-2, 6).map("blocks={}".format) | st.text(max_size=12),
        ),
        st.lists(st.lists(_token, max_size=4).map(" ".join), max_size=6),
    ),
)


def random_message(rng, size):
    return bytes(rng.randrange(256) for _ in range(size))


class TestBlockCapacity:
    def test_small_modulus_rejected(self):
        with pytest.raises(ModulusTooSmall):
            block_capacity(2053)

    def test_66_bit(self):
        assert PRIME_66_BIT.bit_length() == 66
        assert block_capacity(PRIME_66_BIT) == 7

    def test_521_bit(self):
        mersenne = 2**521 - 1
        assert block_capacity(mersenne) == 64

    def test_floor_is_one_byte(self):
        assert block_capacity(FERMAT_65537) == 1


class TestMessageCoding:
    def test_empty_message(self):
        assert encode_message(b"", PRIME_66_BIT) == []
        assert decode_message([], PRIME_66_BIT) == b""

    def test_blocks_below_modulus(self, rng):
        for _ in range(20):
            msg = random_message(rng, rng.randrange(0, 200))
            for block in encode_message(msg, PRIME_66_BIT):
                assert 0 <= block.value < PRIME_66_BIT

    @given(data=st.binary(min_size=0, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, data):
        blocks = encode_message(data, PRIME_66_BIT)
        assert decode_message(blocks, PRIME_66_BIT) == data

    def test_roundtrip_one_byte_capacity(self, rng):
        for size in (0, 1, 2, 17):
            msg = random_message(rng, size)
            blocks = encode_message(msg, FERMAT_65537)
            assert decode_message(blocks, FERMAT_65537) == msg

    def test_roundtrip_many_sizes(self, rng):
        for _ in range(200):
            msg = random_message(rng, rng.randrange(0, 300))
            blocks = encode_message(msg, PRIME_66_BIT)
            assert decode_message(blocks, PRIME_66_BIT) == msg

    def test_single_byte_corruption_detected(self, rng):
        capacity = block_capacity(PRIME_66_BIT)
        msg = random_message(rng, 64)
        blocks = [b.value for b in encode_message(msg, PRIME_66_BIT)]
        detected = 0
        trials = 1000
        for _ in range(trials):
            target = rng.randrange(len(blocks))
            raw = bytearray(blocks[target].to_bytes(capacity + 1, "big"))
            pos = rng.randrange(len(raw))
            old = raw[pos]
            raw[pos] = rng.choice([v for v in range(256) if v != old])
            corrupted = list(blocks)
            corrupted[target] = int.from_bytes(raw, "big")
            try:
                out = decode_message(corrupted, PRIME_66_BIT)
                if out != msg:
                    continue  # slipped past the checksum, counted as undetected
                detected += 1  # corruption landed on a redundant encoding
            except (ChecksumMismatch, MalformedPadding):
                detected += 1
        assert detected >= 990

    def test_truncated_stream(self):
        blocks = encode_message(b"hello world", PRIME_66_BIT)
        with pytest.raises(MalformedPadding):
            decode_message(blocks[:-1], PRIME_66_BIT)


class TestSchemeI:
    def test_roundtrip_seeded(self, rng):
        pub, priv = KEYS_I
        for trial in range(20):
            msg = random_message(rng, rng.randrange(0, 600))
            ct = encrypt_I(msg, pub, priv, random.Random(trial))
            assert decrypt_I(ct, pub, priv) == msg

    def test_pair_outside_range_rejected(self):
        # x + N and y + N have the same powers; accepting them would make
        # every ciphertext malleable
        pub, priv = KEYS_I
        N = pub[1]
        ct = encrypt_I(b"canonical", pub, priv, random.Random(5))
        (x, y), *rest = ct.pairs
        for pair in ((x + N, y), (x, y + N), (x - N, y), (x, -1)):
            shifted = Ciphertext("I", (pair, *rest))
            with pytest.raises(SchemeMismatch):
                decrypt_I(shifted, pub, priv)
        assert decrypt_I(ct, pub, priv) == b"canonical"

    def test_empty_message(self):
        pub, priv = KEYS_I
        ct = encrypt_I(b"", pub, priv, random.Random(0))
        assert ct.pairs == ()
        assert decrypt_I(ct, pub, priv) == b""

    def test_pairs_satisfy_congruence(self):
        pub, priv = KEYS_I
        r, N = pub
        p, q = priv
        ctx = BSContext.create(p, q, r, N)
        msg = b"congruence check"
        blocks = encode_message(msg, N)
        ct = encrypt_I(msg, pub, priv, random.Random(5))
        assert len(ct.pairs) == len(blocks)
        for (x, y), z in zip(ct.pairs, blocks):
            assert is_bs_triplet(x, y, z, ctx)

    def test_unique_root_context(self, rng):
        pub, priv = KEYS_I_UNIQUE
        assert math.gcd(pub[0], pub[1] - 1) == 1
        msg = random_message(rng, 100)
        ct = encrypt_I(msg, pub, priv, rng)
        assert decrypt_I(ct, pub, priv) == msg

    def test_multi_root_context_exercised(self):
        pub, priv = KEYS_I
        assert math.gcd(pub[0], pub[1] - 1) > 1

    def test_tampered_pair_detected_with_high_probability(self, rng):
        # A 1-byte checksum leaves a ~1/251-scale residual, so a rare
        # tampered block can slip through; detection must dominate.
        pub, priv = KEYS_I
        msg = random_message(rng, 120)
        ct = encrypt_I(msg, pub, priv, rng)
        silent = 0
        raised_no_valid_root = 0
        for trial in range(50):
            idx = rng.randrange(len(ct.pairs))
            x, y = ct.pairs[idx]
            pairs = list(ct.pairs)
            pairs[idx] = ((x + 1 + trial) % pub[1], y)
            tampered = Ciphertext("I", tuple(pairs))
            try:
                out = decrypt_I(tampered, pub, priv)
                if out != msg:
                    silent += 1
            except NoValidRoot:
                raised_no_valid_root += 1
            except (ChecksumMismatch, MalformedPadding, AmbiguousRoot):
                pass
        assert silent <= 2
        assert raised_no_valid_root >= 45

    def test_scheme_tag_checked(self):
        pub, priv = KEYS_I
        ct = encrypt_I(b"x", pub, priv, random.Random(1))
        with pytest.raises(SchemeMismatch):
            decrypt_II(ct, (2, 2, 2), pub[1])

    def test_invalid_context_rejected(self):
        with pytest.raises(NotIntraDivisible):
            encrypt_I(b"x", (5, PRIME_66_BIT), (2, 3), random.Random(0))
        with pytest.raises(NotIndiscernible):
            encrypt_I(b"x", (8, 131071), (2, 4), random.Random(0))  # below 131072
        with pytest.raises(ModulusTooSmall):
            encrypt_I(b"x", (2, 2053), (2, 2), random.Random(0))


class TestSchemeII:
    def test_roundtrip_seeded(self, rng):
        pub, priv = KEYS_II
        for trial in range(15):
            msg = random_message(rng, rng.randrange(0, 600))
            ct = encrypt_II(msg, pub, priv, random.Random(trial))
            assert ct.scheme == "II"
            assert decrypt_II(ct, pub, priv) == msg

    def test_scheme_tag_checked(self):
        pub, priv = KEYS_II
        ct = encrypt_II(b"x", pub, priv, random.Random(1))
        with pytest.raises(SchemeMismatch):
            decrypt_I(ct, (pub[2], priv), (pub[0], pub[1]))

    def test_pairs_satisfy_congruence(self):
        pub, priv = KEYS_II
        ctx = BSContext.create(*pub, priv)
        msg = b"scheme two"
        ct = encrypt_II(msg, pub, priv, random.Random(3))
        for (x, y), z in zip(ct.pairs, encode_message(msg, priv)):
            assert is_bs_triplet(x, y, z, ctx)


class TestSchemeIII:
    SPLIT = ([2], [1, 3])

    def test_roundtrip_mixed_split(self, rng):
        for trial in range(10):
            msg = random_message(rng, 400)
            partition = [150, 200, 50]
            ct = encrypt_III(msg, partition, CONTEXTS_III, self.SPLIT, random.Random(trial))
            assert ct.scheme == "III"
            assert decrypt_III(ct, CONTEXTS_III, self.SPLIT) == msg

    def test_empty_segment(self, rng):
        msg = random_message(rng, 100)
        partition = [60, 0, 40]
        ct = encrypt_III(msg, partition, CONTEXTS_III, self.SPLIT, rng)
        assert decrypt_III(ct, CONTEXTS_III, self.SPLIT) == msg

    def test_degenerate_single_segment_equals_scheme_I(self):
        msg = b"degenerate partition"
        ct3 = encrypt_III(
            msg, [len(msg)], [CONTEXTS_III[0]], ([1], []), random.Random(12)
        )
        ct1 = encrypt_I(msg, (2, PRIME_66_BIT), (2, 2), random.Random(12))
        assert ct3.pairs == ct1.pairs

    def test_partition_must_cover_message(self):
        with pytest.raises(PartitionMismatch):
            encrypt_III(b"abcd", [1, 1], CONTEXTS_III[:2], ([1], [2]), random.Random(0))

    def test_split_must_cover_segments(self):
        with pytest.raises(PartitionMismatch):
            encrypt_III(
                b"abcd", [2, 2], CONTEXTS_III[:2], ([1], [1]), random.Random(0)
            )

    def test_wrong_split_raises_named_error(self, rng):
        msg = random_message(rng, 300)
        partition = [100, 100, 100]
        ct = encrypt_III(msg, partition, CONTEXTS_III, self.SPLIT, rng)
        with pytest.raises((NoValidRoot, ChecksumMismatch)):
            decrypt_III(ct, CONTEXTS_III, ([1], [2, 3]))

    def test_context_indices_follow_split_order(self, rng):
        msg = random_message(rng, 30)
        partition = [10, 10, 10]
        ct = encrypt_III(msg, partition, CONTEXTS_III, self.SPLIT, rng)
        seen = []
        for idx in ct.ctx_indices:
            if not seen or seen[-1] != idx:
                seen.append(idx)
        assert seen == [2, 1, 3]


class TestRootDisambiguation:
    def test_ambiguous_root_aborts(self):
        # At N = 65537 = 0x10001 with r = 2, the roots of a block pair up
        # as (z, N - z) and both stay inside the 2-byte window with
        # complementary checksums for most payload bytes, so decryption
        # must refuse to guess.
        pub, priv = (2, FERMAT_65537), (2, 2)
        ct = encrypt_I(b"A", pub, priv, random.Random(0))
        with pytest.raises(AmbiguousRoot):
            decrypt_I(ct, pub, priv)

    def test_checksum_disambiguates_two_roots(self, rng):
        # generic payloads at the same modulus decode fine
        pub, priv = (2, PRIME_66_BIT), (2, 2)
        for trial in range(10):
            msg = random_message(rng, 40)
            ct = encrypt_I(msg, pub, priv, random.Random(trial))
            assert decrypt_I(ct, pub, priv) == msg

    def test_exhaustive_roots_never_pick_wrong_block(self):
        # Enumerate every possible payload byte at the smallest allowed
        # modulus: for each encoded block, the true residue must be among
        # the checksum-valid candidates, so decryption either returns the
        # encoded block or aborts as ambiguous, never the complement alone.
        from bealschur.crypto import _block_payload, _block_value

        N = FERMAT_65537
        ambiguous = []
        for b in range(256):
            z = _block_value(bytes([b]))
            assert _block_payload(z, 1) == bytes([b])
            other = N - z
            valid = [c for c in (z, other) if _block_payload(c, 1) is not None]
            assert z in valid
            if len(valid) == 2:
                ambiguous.append(b)
        # N = 0x10001 makes the complement's checksum land right for most
        # payload bytes; the point is that those abort instead of decoding
        assert ambiguous
        assert 65 in ambiguous  # the byte the abort test encrypts


class TestNondeterminism:
    def test_different_seeds_differ(self):
        pub, priv = KEYS_I
        msg = b"the same message every time"
        seen = set()
        for seed in range(40):
            ct = encrypt_I(msg, pub, priv, random.Random(seed))
            seen.add(ct.pairs)
        assert len(seen) == 40

    def test_same_seed_is_identical(self):
        pub, priv = KEYS_I
        msg = b"determinism"
        a = encrypt_I(msg, pub, priv, random.Random(123))
        b = encrypt_I(msg, pub, priv, random.Random(123))
        assert a == b


class TestCiphertextFormat:
    def test_text_roundtrip(self, rng):
        msg = random_message(rng, 100)
        ct = encrypt_III(msg, [50, 30, 20], CONTEXTS_III, ([2], [1, 3]), rng)
        assert Ciphertext.from_text(ct.to_text()) == ct

    def test_header_shape(self):
        ct = encrypt_I(b"ab", *KEYS_I, random.Random(0))
        first = ct.to_text().splitlines()[0]
        assert first == f"BSCT v1 scheme=I blocks={len(ct.pairs)}"

    def test_bad_header_rejected(self):
        with pytest.raises(SchemeMismatch):
            Ciphertext.from_text("BOGUS v9\n1 2\n")

    def test_block_count_checked(self):
        with pytest.raises(SchemeMismatch):
            Ciphertext.from_text("BSCT v1 scheme=I blocks=2\n1 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "BSCT v1 scheme=I blocks=1\n12345\n",
            "BSCT v1 scheme=I blocks\n1 2\n",
            "BSCT v1 scheme=I blocks=one\n1 2\n",
            "BSCT v1 scheme=III blocks=1\n1 2 3 4\n",
            "BSCT v1 scheme=I blocks=1\n1 two\n",
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(SchemeMismatch):
            Ciphertext.from_text(text)

    @given(text=_ciphertext_text)
    @settings(max_examples=300, deadline=None)
    def test_parse_raises_only_scheme_mismatch(self, text):
        try:
            ct = Ciphertext.from_text(text)
        except SchemeMismatch:
            return
        assert Ciphertext.from_text(ct.to_text()) == ct
