"""Key generation for the Beal-Schur schemes, plus key file serialization.

Scheme KG1 publishes (N, z) and keeps (p, q, r, x, y); scheme KG2
publishes (p, q, r, z) and keeps (N, x, y).  Either way (x, y, z) is a
nontrivial solution of x^p + y^q = z^r (mod N) for an intra-divisible
triplet and an indiscernible prime.

KG2's key-role split follows the per-component annotations; pass
``literal_roles=True`` to publish (p, q, r, x, y) instead, the variant
stated in the scheme's summary line.  The default is the conservative
reading: publishing x, y and z together with the exponents would let
anyone sift candidate moduli.

Key file format (text, bit exact):
    BSKEY v1 <PUBLIC|PRIVATE> scheme=<KG1|KG2|I|II|III>
    <name>=<decimal>      (fixed order per scheme and role)
    end
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import index

from .errors import (
    BoundsInfeasible,
    ExponentTooSmall,
    InvariantViolated,
    MalformedKeyFile,
    NonResidue,
    NotIndiscernible,
    NotIntraDivisible,
    NotPrime,
)
from .crypto import MIN_ENCRYPTION_MODULUS
from .modmath import PrimeModulus, _residue_value, all_kth_roots, as_prime_modulus
from .modmath import is_probable_prime
from .triplets import BSContext, ExponentTriplet, find_bs_pair, is_bs_triplet

_PRIME_SEARCH_CAP = 100_000
_TRIPLET_SEARCH_CAP = 1000

# every field order a key half may take, per (scheme, role): KG2's public
# half lists the default order first and the literal-role one last, and
# scheme III's names are numbered 1..n after the count n
_FIELD_ORDERS = {
    ("KG1", "PUBLIC"): (("N", "z"),),
    ("KG1", "PRIVATE"): (("p", "q", "r", "x", "y"),),
    ("KG2", "PUBLIC"): (("p", "q", "r", "z"), ("p", "q", "r", "x", "y")),
    ("KG2", "PRIVATE"): (("N", "x", "y"),),
    ("I", "PUBLIC"): (("r", "N"),),
    ("I", "PRIVATE"): (("p", "q"),),
    ("II", "PUBLIC"): (("p", "q", "r"),),
    ("II", "PRIVATE"): (("N",),),
    ("III", "PUBLIC"): (("p", "q", "r"),),
    ("III", "PRIVATE"): (("N",),),
}


@dataclass(frozen=True)
class KeyPair:
    """Generated key material: the full context plus the solution triplet."""

    scheme: str  # KG1 or KG2
    context: BSContext
    x: int
    y: int
    z: int
    literal_roles: bool = False

    def public_fields(self) -> dict[str, int]:
        return self._fields("PUBLIC")

    def private_fields(self) -> dict[str, int]:
        return self._fields("PRIVATE")

    def _fields(self, role: str) -> dict[str, int]:
        """This half's named integers, in its _FIELD_ORDERS order."""
        ctx = self.context
        values = {"p": ctx.p, "q": ctx.q, "r": ctx.r, "N": ctx.N,
                  "x": self.x, "y": self.y, "z": self.z}
        orders = _FIELD_ORDERS[(self.scheme, role)]
        return {name: values[name] for name in orders[-1 if self.literal_roles else 0]}


def sample_intra_divisible_triplet(max_exponent: int, rng: random.Random) -> ExponentTriplet:
    """Sample exponents as a shuffled divisor chain b | b*k1 | b*k1*k2.

    Every permutation of a divisor chain is intra-divisible, so no
    rejection loop is needed for the divisibility conditions themselves.
    """
    if max_exponent < 2:
        raise BoundsInfeasible(f"max exponent {max_exponent} < 2")
    b = rng.randint(2, max_exponent)
    m = b * rng.randint(1, max_exponent // b)
    t = m * rng.randint(1, max_exponent // m)
    chain = [b, m, t]
    rng.shuffle(chain)
    return ExponentTriplet(*chain)


def sample_indiscernible_prime(
    triplet: ExponentTriplet, bit_range: tuple[int, int], rng: random.Random
) -> PrimeModulus:
    """Random prime with the given bit length, above both size floors."""
    lo_bits, hi_bits = bit_range
    if lo_bits < 2 or hi_bits < lo_bits:
        raise BoundsInfeasible(f"bad bit range {lo_bits}..{hi_bits}")
    floor = max(triplet.threshold(), MIN_ENCRYPTION_MODULUS)
    low = max(1 << (lo_bits - 1), floor + 1)
    high = (1 << hi_bits) - 1
    if low > high:
        raise BoundsInfeasible(
            f"no {lo_bits}..{hi_bits}-bit prime can exceed {floor}"
        )
    for _ in range(_PRIME_SEARCH_CAP):
        candidate = rng.randrange(low, high + 1) | 1
        if is_probable_prime(candidate):
            return as_prime_modulus(candidate)
    raise BoundsInfeasible(
        f"no prime found in [{low}, {high}] after {_PRIME_SEARCH_CAP} draws"
    )


def _generate(
    scheme: str,
    max_exponent: int,
    bit_range: tuple[int, int],
    rng: random.Random,
    z=None,
    literal_roles: bool = False,
) -> KeyPair:
    hi_bits = bit_range[1]
    for _ in range(_TRIPLET_SEARCH_CAP):
        triplet = sample_intra_divisible_triplet(max_exponent, rng)
        if max(triplet.threshold(), MIN_ENCRYPTION_MODULUS) < (1 << hi_bits) - 1:
            break
    else:
        raise BoundsInfeasible(
            f"no triplet with exponents <= {max_exponent} fits below 2^{hi_bits}"
        )
    modulus = sample_indiscernible_prime(triplet, bit_range, rng)
    ctx = BSContext(triplet, modulus)
    zv = rng.randrange(1, ctx.N) if z is None else _residue_value(z, ctx.N)
    x, y = find_bs_pair(zv, ctx, rng)
    return KeyPair(
        scheme=scheme,
        context=ctx,
        x=x.value,
        y=y.value,
        z=zv,
        literal_roles=literal_roles,
    )


def keygen_scheme1(
    max_exponent: int, bit_range: tuple[int, int], rng: random.Random, z=None
) -> KeyPair:
    """KG1: private (p, q, r) and (x, y); public (N, z)."""
    return _generate("KG1", max_exponent, bit_range, rng, z)


def keygen_scheme2(
    max_exponent: int,
    bit_range: tuple[int, int],
    rng: random.Random,
    z=None,
    literal_roles: bool = False,
) -> KeyPair:
    """KG2: public (p, q, r) and z; private N and (x, y)."""
    return _generate("KG2", max_exponent, bit_range, rng, z, literal_roles)


# -- serialization ------------------------------------------------------------

@dataclass(frozen=True)
class KeyHalf:
    """One parsed key file: role, scheme tag and its named integers."""

    scheme: str
    role: str
    fields: dict[str, int]


def serialize_key(key: KeyPair, role: str) -> str:
    """Render one half of a key pair in the BSKEY v1 format."""
    role = role.upper()
    if role not in ("PUBLIC", "PRIVATE"):
        raise ValueError(f"role must be PUBLIC or PRIVATE, got {role!r}")
    return serialize_fields(key.scheme, role, key._fields(role))


def serialize_fields(scheme: str, role: str, fields: dict[str, int]) -> str:
    """BSKEY rendering for raw field maps (used for scheme I/II/III files);
    fields not in a _FIELD_ORDERS layout raise MalformedKeyFile."""
    try:
        orders = _FIELD_ORDERS[(scheme, role)]
    except KeyError:
        raise MalformedKeyFile(f"no layout for scheme {scheme!r} role {role!r}") from None
    if scheme == "III":
        names, n = orders[0], fields.get("n")
        # the count check comes first, so n never builds more names than fields holds
        if n is None or len(fields) != 1 + len(names) * n:
            raise MalformedKeyFile(
                f"scheme III {role} needs n=<count> and n groups of {names}"
            )
        orders = (("n", *(f"{name}{i}" for i in range(1, n + 1) for name in names)),)
    if tuple(fields) not in orders:
        raise MalformedKeyFile(
            f"scheme {scheme} {role} fields {list(fields)} not in a canonical order"
        )
    lines = [f"BSKEY v1 {role} scheme={scheme}"]
    lines += [f"{name}={index(value)}" for name, value in fields.items()]
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_key(text: str) -> KeyHalf:
    """Parse a BSKEY v1 file; only the exact text serialize_fields writes for
    its fields is accepted, any other text raises MalformedKeyFile."""
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4:
        raise MalformedKeyFile(f"bad header {lines[:1]}")
    role, scheme = header[2], header[3].removeprefix("scheme=")
    fields: dict[str, int] = {}
    for ln in lines[1:-1]:  # the round trip checks the BSKEY v1 tokens and the end line
        name, _, value = ln.partition("=")
        if name in fields:
            raise MalformedKeyFile(f"duplicate field {name!r}")
        try:
            fields[name] = int(value)
        except ValueError:
            raise MalformedKeyFile(f"bad field line {ln!r}") from None
    if serialize_fields(scheme, role, fields) != text:  # the writer checks the layout
        raise MalformedKeyFile("not the canonical text of its fields")
    return KeyHalf(scheme=scheme, role=role, fields=fields)


def assemble_keypair(pub: KeyHalf, priv: KeyHalf) -> KeyPair:
    """Join two parsed halves into a validated KeyPair.

    Semantic failures raise InvariantViolated with the failing check named:
    scheme-match, intra-divisible, indiscernible-prime, canonical (x, y
    and z lie in [0, N), so a key has one spelling), bs-congruence,
    nontrivial.
    """
    if pub.role != "PUBLIC" or priv.role != "PRIVATE":
        raise InvariantViolated("role", f"got {pub.role} + {priv.role}")
    if pub.scheme != priv.scheme or pub.scheme not in ("KG1", "KG2"):
        raise InvariantViolated(
            "scheme-match", f"{pub.scheme} public with {priv.scheme} private"
        )
    scheme = pub.scheme
    literal = scheme == "KG2" and "x" in pub.fields
    for name in set(pub.fields) & set(priv.fields):
        if pub.fields[name] != priv.fields[name]:
            raise InvariantViolated(
                "field-consistency", f"{name} differs between halves"
            )
    merged = dict(priv.fields)
    merged.update(pub.fields)
    p, q, r = merged["p"], merged["q"], merged["r"]
    N = merged["N"]
    x, y = merged["x"], merged["y"]
    z = merged.get("z")
    try:
        triplet = ExponentTriplet.validated(p, q, r)
    except (ExponentTooSmall, NotIntraDivisible):
        raise InvariantViolated("intra-divisible", f"({p}, {q}, {r})") from None
    try:
        ctx = BSContext(triplet, as_prime_modulus(N))
    except (NotPrime, NotIndiscernible) as exc:
        raise InvariantViolated("indiscernible-prime", str(exc)) from None
    for name, value in (("x", x), ("y", y), ("z", z)):
        if value is not None and not 0 <= value < N:  # else x + N would load like x
            raise InvariantViolated("canonical", f"{name}={value} outside [0, N)")
    if z is None:
        z = _recover_z(ctx, x, y)
    if not is_bs_triplet(x, y, z, ctx):
        raise InvariantViolated("bs-congruence", f"x={x} y={y} z={z}")
    if 0 in (x, y, z):
        raise InvariantViolated("nontrivial", "N divides x*y*z")
    return KeyPair(
        scheme=scheme,
        context=ctx,
        x=x,
        y=y,
        z=z,
        literal_roles=literal,
    )


def _recover_z(ctx: BSContext, x: int, y: int) -> int:
    """Literal-role KG2 files carry no z; rebuild the smallest valid one."""
    c = (pow(x, ctx.p, ctx.N) + pow(y, ctx.q, ctx.N)) % ctx.N
    try:
        roots = all_kth_roots(c, ctx.r, ctx.modulus)
    except NonResidue:
        raise InvariantViolated(
            "bs-congruence", f"x^p + y^q = {c} has no {ctx.r}th root"
        )
    return min(root.value for root in roots)
