"""Reference encryption schemes over the Beal-Schur congruence.

A message is encoded into residues z < N block by block; each block is
encrypted as a pair (x, y) with x^p + y^q = z^r (mod N) and decrypted by
taking r-th roots of x^p + y^q.  When gcd(r, N-1) > 1 the root is not
unique, so every block carries a one-byte checksum that singles out the
intended root; decryption aborts with a named error rather than ever
guessing.

Block wire format (bit exact): the payload stream is a 4-byte big-endian
message length, the message bytes, then zero padding up to a multiple of
the block capacity C = floor((bitlen(N) - 1) / 8) - 1.  Each C-byte chunk
is followed by one checksum byte (sum of chunk bytes + C, mod 251) and the
C+1 bytes are read big-endian as the block residue z < N.

This is a research reference, not production cryptography: no semantic
security padding, no constant-time guarantees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    AmbiguousRoot,
    ChecksumMismatch,
    MalformedPadding,
    ModulusTooSmall,
    NonResidue,
    NoValidRoot,
    PartitionMismatch,
    SchemeMismatch,
)
from .modmath import Residue, all_kth_roots, as_prime_modulus
from .triplets import BSContext, find_bs_pair

SCHEMES = ("I", "II", "III")

_LENGTH_PREFIX_BYTES = 4
_CHECKSUM_MODULUS = 251
MIN_ENCRYPTION_MODULUS = 1 << 16


def block_capacity(N) -> int:
    """Payload bytes per block: floor((bitlen(N) - 1) / 8) - 1, at least 1."""
    Nv = as_prime_modulus(N).value
    if Nv <= MIN_ENCRYPTION_MODULUS:
        raise ModulusTooSmall(
            f"modulus {Nv} leaves no payload room; need N > 2^16"
        )
    return (Nv.bit_length() - 1) // 8 - 1


def _checksum(payload: bytes) -> int:
    return (sum(payload) + len(payload)) % _CHECKSUM_MODULUS


def _block_value(payload: bytes) -> int:
    return int.from_bytes(payload + bytes([_checksum(payload)]), "big")


def _block_payload(z: int, capacity: int) -> bytes | None:
    """Recover the payload from a block value, or None if invalid."""
    width = capacity + 1
    if z < 0 or z >= 1 << (8 * width):
        return None
    raw = z.to_bytes(width, "big")
    payload, check = raw[:-1], raw[-1]
    if check != _checksum(payload):
        return None
    return payload


def encode_message(msg: bytes, N) -> list[Residue]:
    """Encode bytes as checksummed residues below N; empty message -> []."""
    Nm = as_prime_modulus(N)
    capacity = block_capacity(Nm)
    if not msg:
        return []
    stream = len(msg).to_bytes(_LENGTH_PREFIX_BYTES, "big") + msg
    pad = (-len(stream)) % capacity
    stream += bytes(pad)
    blocks = []
    for i in range(0, len(stream), capacity):
        blocks.append(Residue(_block_value(stream[i : i + capacity]), Nm.value))
    return blocks


def decode_message(blocks, N) -> bytes:
    """Inverse of encode_message; validates checksums, length and padding."""
    Nm = as_prime_modulus(N)
    capacity = block_capacity(Nm)
    if not blocks:
        return b""
    stream = bytearray()
    for i, block in enumerate(blocks):
        payload = _block_payload(int(block), capacity)
        if payload is None:
            raise ChecksumMismatch(f"block {i} failed its checksum")
        stream += payload
    if len(stream) < _LENGTH_PREFIX_BYTES:
        raise MalformedPadding("payload stream shorter than its length prefix")
    length = int.from_bytes(stream[:_LENGTH_PREFIX_BYTES], "big")
    body = stream[_LENGTH_PREFIX_BYTES:]
    if length > len(body) or len(body) - length >= capacity:
        raise MalformedPadding(f"length prefix {length} inconsistent with {len(body)} bytes")
    if any(body[length:]):
        raise MalformedPadding("nonzero padding bytes")
    return bytes(body[:length])


@dataclass(frozen=True)
class Ciphertext:
    """Scheme-tagged pair list; scheme III also records a context index per pair."""

    scheme: str
    pairs: tuple[tuple[int, int], ...]
    ctx_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SchemeMismatch(f"unknown scheme {self.scheme!r}")
        if self.ctx_indices is not None and len(self.ctx_indices) != len(self.pairs):
            raise ValueError("one context index per pair required")

    def to_text(self) -> str:
        lines = [f"BSCT v1 scheme={self.scheme} blocks={len(self.pairs)}"]
        for i, (x, y) in enumerate(self.pairs):
            if self.ctx_indices is not None:
                lines.append(f"{x} {y} {self.ctx_indices[i]}")
            else:
                lines.append(f"{x} {y}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Ciphertext":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("BSCT v1 "):
            raise SchemeMismatch("not a BSCT v1 ciphertext")
        fields = [f.partition("=") for f in lines[0].split()[2:]]
        if not all(sep for _, sep, _ in fields):
            raise SchemeMismatch("header field without '='")
        header = {key: value for key, _, value in fields}
        scheme = header.get("scheme", "")
        try:
            count = int(header.get("blocks", "-1"))
            rows = [tuple(map(int, ln.split())) for ln in lines[1:]]
        except ValueError:
            raise SchemeMismatch("non-integer blocks= or pair token") from None
        if count != len(rows):
            raise SchemeMismatch(f"expected {count} blocks, found {len(rows)}")
        if any(len(row) not in (2, 3) for row in rows):
            raise SchemeMismatch("a pair line needs 2 or 3 integers")
        pairs = tuple(row[:2] for row in rows)
        indices = tuple(row[2] for row in rows if len(row) == 3)
        if indices and len(indices) != len(pairs):
            raise SchemeMismatch("context indices missing on some blocks")
        return cls(scheme, pairs, indices or None)


def _encrypt_blocks(msg: bytes, ctx: BSContext, rng: random.Random) -> list[tuple[int, int]]:
    pairs = []
    for z in encode_message(msg, ctx.modulus):
        x, y = find_bs_pair(z, ctx, rng)
        pairs.append((x.value, y.value))
    return pairs


def _decrypt_blocks(pairs, ctx: BSContext) -> bytes:
    """Recover each block's z by r-th roots, keeping the checksummed one."""
    N = ctx.N
    capacity = block_capacity(ctx.modulus)
    blocks = []
    for i, (x, y) in enumerate(pairs):
        c = (pow(x, ctx.p, N) + pow(y, ctx.q, N)) % N
        try:
            roots = all_kth_roots(c, ctx.r, ctx.modulus)
        except NonResidue:
            raise NoValidRoot(f"block {i}: x^p + y^q has no {ctx.r}th root")
        candidates = sorted(root.value for root in roots)
        valid = [z for z in candidates if _block_payload(z, capacity) is not None]
        if not valid:
            raise NoValidRoot(f"block {i}: none of {len(candidates)} roots decode")
        if len(valid) > 1:
            raise AmbiguousRoot(f"block {i}: {len(valid)} roots pass the checksum")
        blocks.append(Residue(valid[0], N))
    return decode_message(blocks, ctx.modulus)


def _scheme_context(p: int, q: int, r: int, N) -> BSContext:
    ctx = BSContext.create(p, q, r, N)
    block_capacity(ctx.modulus)  # enforce the encryption size floor
    return ctx


def encrypt_I(msg: bytes, pub: tuple, priv: tuple, rng: random.Random) -> Ciphertext:
    """Scheme I: public (r, N), private (p, q)."""
    r, N = pub
    p, q = priv
    ctx = _scheme_context(p, q, r, N)
    return Ciphertext("I", tuple(_encrypt_blocks(msg, ctx, rng)))


def decrypt_I(ct: Ciphertext, pub: tuple, priv: tuple) -> bytes:
    if ct.scheme != "I":
        raise SchemeMismatch(f"scheme {ct.scheme} ciphertext given to scheme I")
    r, N = pub
    p, q = priv
    return _decrypt_blocks(ct.pairs, _scheme_context(p, q, r, N))


def encrypt_II(msg: bytes, pub: tuple, priv, rng: random.Random) -> Ciphertext:
    """Scheme II: public (p, q, r), private N."""
    p, q, r = pub
    ctx = _scheme_context(p, q, r, priv)
    return Ciphertext("II", tuple(_encrypt_blocks(msg, ctx, rng)))


def decrypt_II(ct: Ciphertext, pub: tuple, priv) -> bytes:
    if ct.scheme != "II":
        raise SchemeMismatch(f"scheme {ct.scheme} ciphertext given to scheme II")
    p, q, r = pub
    return _decrypt_blocks(ct.pairs, _scheme_context(p, q, r, priv))


def _as_context(c) -> BSContext:
    if isinstance(c, BSContext):
        block_capacity(c.modulus)
        return c
    return _scheme_context(*c)


def _check_split(split, n: int) -> list[int]:
    ones, twos = split
    order = list(ones) + list(twos)
    if sorted(order) != list(range(1, n + 1)):
        raise PartitionMismatch(
            f"split {split} does not cover segments 1..{n} exactly once"
        )
    return order


def encrypt_III(
    msg: bytes, partition, contexts, split, rng: random.Random
) -> Ciphertext:
    """Scheme III: split the message into segments, each under its own context.

    ``partition`` gives the segment lengths; ``split`` = (indices run with
    the scheme I key roles, indices run with scheme II), 1-based, jointly
    covering every segment.  Segments are encrypted in split order, which
    is also the pair order in the ciphertext; each pair records its
    segment index.
    """
    if sum(partition) != len(msg):
        raise PartitionMismatch(
            f"partition sums to {sum(partition)}, message has {len(msg)} bytes"
        )
    n = len(partition)
    if len(contexts) != n:
        raise PartitionMismatch(f"{n} segments but {len(contexts)} contexts")
    ctxs = [_as_context(c) for c in contexts]
    order = _check_split(split, n)
    segments = []
    offset = 0
    for length in partition:
        segments.append(msg[offset : offset + length])
        offset += length
    pairs: list[tuple[int, int]] = []
    indices: list[int] = []
    for i in order:
        block_pairs = _encrypt_blocks(segments[i - 1], ctxs[i - 1], rng)
        pairs.extend(block_pairs)
        indices.extend([i] * len(block_pairs))
    return Ciphertext("III", tuple(pairs), tuple(indices))


def decrypt_III(ct: Ciphertext, contexts, split) -> bytes:
    """Invert encrypt_III; the split assigns contexts to the recorded runs.

    A wrong split pairs runs with the wrong moduli, which surfaces as
    NoValidRoot or ChecksumMismatch instead of silent garbage.
    """
    if ct.scheme != "III":
        raise SchemeMismatch(f"scheme {ct.scheme} ciphertext given to scheme III")
    n = len(contexts)
    ctxs = [_as_context(c) for c in contexts]
    order = _check_split(split, n)
    if ct.ctx_indices is None:
        raise PartitionMismatch("scheme III ciphertext lacks context indices")
    runs: list[list[tuple[int, int]]] = []
    previous = None
    for pair, idx in zip(ct.pairs, ct.ctx_indices):
        if idx != previous:
            runs.append([])
            previous = idx
        runs[-1].append(pair)
    # empty segments produce no pairs, so runs <= n
    if len(runs) > n:
        raise PartitionMismatch(f"{len(runs)} pair runs for {n} segments")
    present = set(ct.ctx_indices)
    nonempty = [i for i in order if i in present]
    if len(runs) != len(nonempty):
        raise PartitionMismatch("run structure does not match the split")
    segments: dict[int, bytes] = {i: b"" for i in order}
    for i, run in zip(nonempty, runs):
        segments[i] = _decrypt_blocks(run, ctxs[i - 1])
    return b"".join(segments[i] for i in sorted(segments))

