import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealschur.errors import (
    BoundsInfeasible,
    InvariantViolated,
    MalformedKeyFile,
    MixedModuli,
)
from bealschur.keygen import (
    _FIELD_ORDERS,
    KeyHalf,
    KeyPair,
    assemble_keypair,
    keygen_scheme1,
    keygen_scheme2,
    parse_key,
    sample_indiscernible_prime,
    sample_intra_divisible_triplet,
    serialize_fields,
    serialize_key,
)
from bealschur.modmath import Residue
from bealschur.triplets import is_bs_triplet, is_indiscernible, is_intra_divisible

from conftest import NON_CANONICAL

DATA = Path(__file__).parent / "data"

BOUNDS = (4, (18, 24))

_HEADERS = [
    f"BSKEY v1 {role} scheme={scheme}"
    for role in ("PUBLIC", "PRIVATE")
    for scheme in ("KG1", "KG2", "I", "II", "III")
]
_NAMES = ["n", "p", "q", "r", "N", "x", "y", "z", "p1", "q1", "r1", "N1"]

# near-miss key files: valid headers and field names with arbitrary values,
# mixed with arbitrary text in every position
_key_text = st.one_of(
    st.text(),
    st.builds(
        lambda head, body, tail: "\n".join([head, *body, tail]),
        st.sampled_from(_HEADERS) | st.text(max_size=30),
        st.lists(
            st.builds(
                "{}={}".format,
                st.sampled_from(_NAMES) | st.text(max_size=4),
                st.integers(-3, 10**7).map(str) | st.text(max_size=8),
            ),
            max_size=8,
        ),
        st.just("end") | st.text(max_size=5),
    ),
)


def check_key_invariants(key: KeyPair):
    ctx = key.context
    assert is_intra_divisible(ctx.p, ctx.q, ctx.r)
    assert is_indiscernible(ctx.N, ctx.triplet)
    assert ctx.N > 1 << 16
    assert is_bs_triplet(key.x, key.y, key.z, ctx)
    assert key.x % ctx.N != 0 and key.y % ctx.N != 0 and key.z % ctx.N != 0


class TestSampling:
    def test_triplets_are_intra_divisible(self):
        rng = random.Random(0)
        for _ in range(200):
            t = sample_intra_divisible_triplet(6, rng)
            assert t.is_intra_divisible()
            assert 2 <= min(t.p, t.q, t.r) and max(t.p, t.q, t.r) <= 6

    def test_exponent_max_two_forces_all_twos(self):
        rng = random.Random(0)
        for _ in range(20):
            t = sample_intra_divisible_triplet(2, rng)
            assert (t.p, t.q, t.r) == (2, 2, 2)

    def test_prime_sampling_respects_bits_and_floor(self):
        rng = random.Random(1)
        t = sample_intra_divisible_triplet(4, rng)
        for _ in range(20):
            N = sample_indiscernible_prime(t, (18, 24), rng)
            assert 18 <= N.value.bit_length() <= 24
            assert N.value > max(t.threshold(), 1 << 16)

    def test_infeasible_bit_range(self):
        rng = random.Random(2)
        with pytest.raises(BoundsInfeasible):
            keygen_scheme1(2, (8, 11), rng)  # threshold 2048 needs 12+ bits
        with pytest.raises(BoundsInfeasible):
            keygen_scheme1(2, (12, 16), rng)  # 2^16 floor unreachable


class TestGeneration:
    def test_kg1_invariants(self):
        for seed in range(20):
            key = keygen_scheme1(*BOUNDS, random.Random(seed))
            assert key.scheme == "KG1"
            check_key_invariants(key)

    def test_kg2_invariants(self):
        for seed in range(20):
            key = keygen_scheme2(*BOUNDS, random.Random(seed))
            assert key.scheme == "KG2"
            check_key_invariants(key)

    def test_explicit_z(self):
        key = keygen_scheme1(4, (18, 24), random.Random(3), z=12345)
        assert key.z == 12345
        check_key_invariants(key)

    def test_explicit_z_of_another_modulus_refused(self):
        with pytest.raises(MixedModuli):
            keygen_scheme1(4, (18, 24), random.Random(3), z=Residue(5, 7))
        with pytest.raises(TypeError):
            keygen_scheme1(4, (18, 24), random.Random(3), z=12345.0)

    def test_public_field_sets(self):
        k1 = keygen_scheme1(*BOUNDS, random.Random(0))
        assert set(k1.public_fields()) == {"N", "z"}
        assert set(k1.private_fields()) == {"p", "q", "r", "x", "y"}
        k2 = keygen_scheme2(*BOUNDS, random.Random(0))
        assert set(k2.public_fields()) == {"p", "q", "r", "z"}
        assert set(k2.private_fields()) == {"N", "x", "y"}

    def test_literal_role_variant(self):
        key = keygen_scheme2(*BOUNDS, random.Random(1), literal_roles=True)
        assert set(key.public_fields()) == {"p", "q", "r", "x", "y"}
        assert set(key.private_fields()) == {"N", "x", "y"}

    def test_deterministic_under_seed(self):
        a = keygen_scheme1(*BOUNDS, random.Random(99))
        b = keygen_scheme1(*BOUNDS, random.Random(99))
        assert a == b


class TestSerialization:
    def test_roundtrip_both_schemes(self):
        for seed in range(30):
            for gen in (keygen_scheme1, keygen_scheme2):
                key = gen(*BOUNDS, random.Random(seed))
                pub = parse_key(serialize_key(key, "PUBLIC"))
                priv = parse_key(serialize_key(key, "PRIVATE"))
                assert assemble_keypair(pub, priv) == key

    def test_public_file_reveals_only_public_fields(self):
        k1 = keygen_scheme1(*BOUNDS, random.Random(5))
        pub = parse_key(serialize_key(k1, "PUBLIC"))
        assert set(pub.fields) == {"N", "z"}
        k2 = keygen_scheme2(*BOUNDS, random.Random(5))
        pub2 = parse_key(serialize_key(k2, "PUBLIC"))
        assert set(pub2.fields) == {"p", "q", "r", "z"}

    def test_file_shape(self):
        key = keygen_scheme1(*BOUNDS, random.Random(7))
        text = serialize_key(key, "PUBLIC")
        lines = text.splitlines()
        assert lines[0] == "BSKEY v1 PUBLIC scheme=KG1"
        assert lines[-1] == "end"
        assert lines[1].startswith("N=") and lines[2].startswith("z=")

    def test_literal_variant_roundtrip(self):
        key = keygen_scheme2(*BOUNDS, random.Random(8), literal_roles=True)
        pub = parse_key(serialize_key(key, "PUBLIC"))
        assert set(pub.fields) == {"p", "q", "r", "x", "y"}
        priv = parse_key(serialize_key(key, "PRIVATE"))
        rebuilt = assemble_keypair(pub, priv)
        # z is not serialized in this variant; the rebuilt z still solves
        # the congruence even if it differs from the generated one
        assert rebuilt.context == key.context
        assert (rebuilt.x, rebuilt.y) == (key.x, key.y)
        assert is_bs_triplet(rebuilt.x, rebuilt.y, rebuilt.z, rebuilt.context)

    def test_empty_file(self):
        with pytest.raises(MalformedKeyFile):
            parse_key("")

    def test_structural_errors(self):
        with pytest.raises(MalformedKeyFile):
            parse_key("BSKEY v2 PUBLIC scheme=KG1\nend\n")
        with pytest.raises(MalformedKeyFile):
            parse_key("BSKEY v1 PUBLIC scheme=KG1\nN=11\nz=3\n")  # no end
        with pytest.raises(MalformedKeyFile):
            parse_key("BSKEY v1 PUBLIC scheme=KG9\nend\n")
        with pytest.raises(MalformedKeyFile):
            parse_key("BSKEY v1 PUBLIC scheme=KG1\nN=eleven\nz=3\nend\n")
        with pytest.raises(MalformedKeyFile):
            # wrong field set for the scheme/role
            parse_key("BSKEY v1 PUBLIC scheme=KG1\np=2\nq=2\nend\n")
        with pytest.raises(MalformedKeyFile, match="duplicate"):
            parse_key("BSKEY v1 PUBLIC scheme=KG1\nN=11\nz=3\nz=4\nend\n")

    @pytest.mark.parametrize(
        "old,new",
        [
            ("N=4732703\nz=2822420\n", "z=2822420\nN=4732703\n"),
            ("\nz=", "\n\nz="),
            ("z=2822420", "  z=2822420 "),
            ("KG1\n", "KG1 \n"),
            ("end\n", "end"),
        ],
        ids=["field-order", "blank-line", "padded-line", "padded-header", "no-final-newline"],
    )
    def test_non_canonical_layout_rejected(self, old, new):
        text = (DATA / "kg1_seed4242.pub").read_text()
        assert parse_key(text).fields == {"N": 4732703, "z": 2822420}
        assert old in text
        with pytest.raises(MalformedKeyFile):
            parse_key(text.replace(old, new))

    def test_scheme3_field_order_checked(self):
        groups = [{f"p{i}": 2, f"q{i}": 4, f"r{i}": 8} for i in (1, 2)]
        canonical = serialize_fields("III", "PUBLIC", {"n": 2, **groups[0], **groups[1]})
        assert parse_key(canonical).fields["r2"] == 8
        for fields in ({**groups[1], "n": 2, **groups[0]}, {"n": 2, **groups[1], **groups[0]}):
            with pytest.raises(MalformedKeyFile):
                parse_key(serialize_fields("III", "PUBLIC", fields))

    @pytest.mark.parametrize("spelling", NON_CANONICAL.values(), ids=NON_CANONICAL)
    def test_non_canonical_token_rejected(self, spelling):
        text = (DATA / "kg1_seed4242.pub").read_text()
        with pytest.raises(MalformedKeyFile):
            parse_key(text.replace("N=4732703", f"N={spelling('4732703')}"))

    def test_negative_token_reaches_canonical_check(self):
        pub = parse_key((DATA / "kg1_seed4242.pub").read_text())
        priv_text = (DATA / "kg1_seed4242.priv").read_text()
        priv = parse_key(priv_text.replace("x=33926", "x=-33926"))
        assert priv.fields["x"] == -33926
        with pytest.raises(InvariantViolated) as err:
            assemble_keypair(pub, priv)
        assert err.value.check == "canonical"

    def test_scheme3_count_checked_before_names(self):
        for n in (10**7, -1):
            start = time.perf_counter()
            with pytest.raises(MalformedKeyFile):
                parse_key(f"BSKEY v1 PUBLIC scheme=III\nn={n}\nend\n")
            assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("scheme,role", list(_FIELD_ORDERS))
    def test_every_layout_roundtrips(self, scheme, role):
        for order in _FIELD_ORDERS[(scheme, role)]:
            if scheme == "III":  # two contexts, names numbered after the count
                order = ("n", *(f"{name}{i}" for i in (1, 2) for name in order))
            fields = {name: 2 if name == "n" else 100 + i for i, name in enumerate(order)}
            text = serialize_fields(scheme, role, fields)
            assert parse_key(text) == KeyHalf(scheme, role, fields)

    @pytest.mark.parametrize(
        "header",
        ["PUBLIC scheme=KG2L", "PRIVATE scheme=KG2L", "SECRET scheme=KG1", "PUBLIC scheme=IV"],
        ids=["KG2L-public", "KG2L-private", "unknown-role", "unknown-scheme"],
    )
    def test_header_without_layout_rejected(self, header):
        with pytest.raises(MalformedKeyFile, match="no layout"):
            parse_key(f"BSKEY v1 {header}\np=2\nq=2\nr=2\nx=1\ny=3\nend\n")

    @pytest.mark.parametrize("role", ["PUBLIC", "PRIVATE"])
    def test_scheme3_count_required(self, role):
        assert parse_key(f"BSKEY v1 {role} scheme=III\nn=0\nend\n").fields == {"n": 0}
        for body in ("", "N1=2053\n", "n=-1\n", "n=-1\nN1=2053\n"):
            with pytest.raises(MalformedKeyFile):
                parse_key(f"BSKEY v1 {role} scheme=III\n{body}end\n")

    @given(text=_key_text)
    @settings(max_examples=300, deadline=None)
    def test_parse_raises_only_malformed_key_file(self, text):
        try:
            h = parse_key(text)
        except MalformedKeyFile:
            return
        assert serialize_fields(h.scheme, h.role, h.fields) == text

    @pytest.mark.parametrize(
        "scheme,role,fields",
        [
            ("I", "PUBLIC", {"r": 2}),
            ("I", "PUBLIC", {"N": 65537, "r": 2}),
            ("KG2L", "PUBLIC", {"p": 2, "q": 2, "r": 2, "x": 1, "y": 3}),
            ("III", "PRIVATE", {"n": 2, "N1": 65537}),
        ],
        ids=["missing-field", "reordered", "unknown-scheme-role", "scheme3-count"],
    )
    def test_writer_refuses_what_reader_refuses(self, scheme, role, fields):
        with pytest.raises(MalformedKeyFile):
            serialize_fields(scheme, role, fields)
        lines = [f"BSKEY v1 {role} scheme={scheme}", *(f"{k}={v}" for k, v in fields.items())]
        with pytest.raises(MalformedKeyFile):
            parse_key("\n".join([*lines, "end"]) + "\n")

    def test_writer_refuses_non_integer_value(self):
        with pytest.raises(TypeError):
            serialize_fields("I", "PRIVATE", {"p": 2.0, "q": 2})

    @given(
        scheme=st.sampled_from(["KG1", "KG2", "KG2L", "I", "II", "III"]),
        role=st.sampled_from(["PUBLIC", "PRIVATE", "SECRET"]),
        names=st.lists(st.sampled_from(_NAMES), unique=True, max_size=5),
        n=st.integers(-1, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_writer_output_parses_back(self, scheme, role, names, n):
        fields = {name: n if name == "n" else 100 + i for i, name in enumerate(names)}
        try:
            text = serialize_fields(scheme, role, fields)
        except MalformedKeyFile:
            return
        assert parse_key(text) == KeyHalf(scheme, role, fields)

    @given(seed=st.integers(0, 2**32), variant=st.sampled_from(["KG1", "KG2", "KG2L"]))
    @settings(max_examples=30, deadline=None)
    def test_serialize_parse_assemble_roundtrip(self, seed, variant):
        rng = random.Random(seed)
        if variant == "KG1":
            key = keygen_scheme1(*BOUNDS, rng)
        else:
            key = keygen_scheme2(*BOUNDS, rng, literal_roles=variant == "KG2L")
        texts = [serialize_key(key, role) for role in ("PUBLIC", "PRIVATE")]
        rebuilt = assemble_keypair(*map(parse_key, texts))
        if variant == "KG2L":
            # z is not in the files; the rebuilt key serializes identically
            assert [serialize_key(rebuilt, role) for role in ("PUBLIC", "PRIVATE")] == texts
            check_key_invariants(rebuilt)
        else:
            assert rebuilt == key

    @pytest.mark.parametrize("p,q,r", [(2, 3, 5), (1, 2, 2)])
    def test_intra_divisible_checked_before_prime(self, p, q, r):
        pub = KeyHalf("KG1", "PUBLIC", {"N": 3 * 5 * 7 * 11 * 13 * 17, "z": 5})
        priv = KeyHalf("KG1", "PRIVATE", {"p": p, "q": q, "r": r, "x": 2, "y": 3})
        with pytest.raises(InvariantViolated) as err:
            assemble_keypair(pub, priv)
        assert err.value.check == "intra-divisible"

    def test_tampered_modulus(self):
        key = keygen_scheme1(*BOUNDS, random.Random(11))
        pub_text = serialize_key(key, "PUBLIC")
        tampered = pub_text.replace(f"N={key.context.N}", f"N={key.context.N + 2}")
        pub = parse_key(tampered)
        priv = parse_key(serialize_key(key, "PRIVATE"))
        with pytest.raises(InvariantViolated) as err:
            assemble_keypair(pub, priv)
        assert err.value.check == "indiscernible-prime"

    def test_tampered_solution(self):
        key = keygen_scheme1(*BOUNDS, random.Random(13))
        priv_text = serialize_key(key, "PRIVATE")
        tampered = priv_text.replace(f"x={key.x}", f"x={(key.x + 1) % key.context.N}")
        pub = parse_key(serialize_key(key, "PUBLIC"))
        with pytest.raises(InvariantViolated) as err:
            assemble_keypair(pub, parse_key(tampered))
        assert err.value.check == "bs-congruence"

    @pytest.mark.parametrize(
        "maker,role,field,spelling",
        [
            # x + N and z - N solve the congruence exactly like x and z
            (keygen_scheme1, "PRIVATE", "x", lambda v, N: v + N),
            (keygen_scheme1, "PUBLIC", "z", lambda v, N: v - N),
            (keygen_scheme2, "PRIVATE", "y", lambda v, N: -v),
        ],
    )
    def test_non_canonical_field_rejected(self, maker, role, field, spelling):
        key = maker(*BOUNDS, random.Random(19))
        halves = {half: parse_key(serialize_key(key, half)) for half in ("PUBLIC", "PRIVATE")}
        halves[role].fields[field] = spelling(getattr(key, field), key.context.N)
        with pytest.raises(InvariantViolated) as err:
            assemble_keypair(halves["PUBLIC"], halves["PRIVATE"])
        assert err.value.check == "canonical"

    @pytest.mark.parametrize(
        "pub,priv,check,detail",
        [
            (
                KeyHalf("KG1", "PUBLIC", {"N": 1000003, "z": 5}),
                KeyHalf("KG2", "PRIVATE", {"N": 1000003, "x": 3, "y": 4}),
                "scheme-match", "KG1 public with KG2 private",
            ),
            (
                KeyHalf("KG2", "PUBLIC", {"p": 2, "q": 2, "r": 2, "x": 3, "y": 4}),
                KeyHalf("KG2", "PRIVATE", {"N": 1000003, "x": 5, "y": 4}),
                "field-consistency", "x differs",
            ),
            (
                KeyHalf("KG1", "PUBLIC", {"N": 1000003, "z": 5}),
                KeyHalf("KG1", "PRIVATE", {"p": 2, "q": 2, "r": 2, "x": 0, "y": 5}),
                "nontrivial", "N divides",
            ),
            # 1 + 1 = 2 is no square mod 1000003 = 3 (mod 8), so no z exists
            (
                KeyHalf("KG2", "PUBLIC", {"p": 2, "q": 2, "r": 2, "x": 1, "y": 1}),
                KeyHalf("KG2", "PRIVATE", {"N": 1000003, "x": 1, "y": 1}),
                "bs-congruence", "has no 2th root",
            ),
        ],
        ids=["scheme-match", "field-consistency", "nontrivial", "no-z"],
    )
    def test_hand_made_halves_name_their_check(self, pub, priv, check, detail):
        with pytest.raises(InvariantViolated, match=detail) as err:
            assemble_keypair(pub, priv)
        assert err.value.check == check

    def test_role_mismatch(self):
        key = keygen_scheme1(*BOUNDS, random.Random(17))
        pub = parse_key(serialize_key(key, "PUBLIC"))
        with pytest.raises(InvariantViolated):
            assemble_keypair(pub, pub)


GOLDEN_NAMES = ["kg1_seed4242", "kg2_seed4242", "kg1_48_64_seed4242", "kg2_48_64_seed4242"]


class TestGolden:
    """Frozen serializations pin generation determinism across releases."""

    @pytest.mark.parametrize(
        "name,maker",
        [
            ("kg1_seed4242", lambda: keygen_scheme1(4, (18, 24), random.Random(4242))),
            ("kg2_seed4242", lambda: keygen_scheme2(4, (18, 24), random.Random(4242))),
            # 48..64 bits: N is proven prime by the seven bases of the 2^64 branch
            ("kg1_48_64_seed4242", lambda: keygen_scheme1(8, (48, 64), random.Random(4242))),
            ("kg2_48_64_seed4242", lambda: keygen_scheme2(8, (48, 64), random.Random(4242))),
        ],
    )
    def test_matches_golden_file(self, name, maker):
        key = maker()
        for role, suffix in (("PUBLIC", "pub"), ("PRIVATE", "priv")):
            golden = (DATA / f"{name}.{suffix}").read_text()
            assert serialize_key(key, role) == golden

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize(
        "field,check",
        [("N", "indiscernible-prime")]
        + [(e, "intra-divisible") for e in "pqr"]
        + [(v, "bs-congruence") for v in "xyz"],
    )
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_single_field_edit_names_its_check(self, name, field, check, delta):
        texts = {}
        for suffix in ("pub", "priv"):
            lines = (DATA / f"{name}.{suffix}").read_text().splitlines()
            for i, line in enumerate(lines):
                if line.startswith(f"{field}="):
                    lines[i] = f"{field}={int(line[2:]) + delta}"
            texts[suffix] = "\n".join(lines) + "\n"
        with pytest.raises(InvariantViolated) as err:
            assemble_keypair(parse_key(texts["pub"]), parse_key(texts["priv"]))
        assert err.value.check == check

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_files_assemble(self, name):
        halves = [parse_key((DATA / f"{name}.{suffix}").read_text()) for suffix in ("pub", "priv")]
        check_key_invariants(assemble_keypair(*halves))
