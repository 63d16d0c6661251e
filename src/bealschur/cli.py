"""Command line interface.

Subcommands: keygen, encrypt, decrypt, verify, count, sums, root.
Exit codes: 0 success, 1 failed verification, 2 usage error,
3 domain error, file failure or out of memory (named error printed to stderr).

Every randomized subcommand accepts --seed; identical argv plus identical
seed reproduces stdout and all output files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import counting, crypto, keygen
from .errors import (
    BealSchurError,
    FileAccessError,
    PartitionMismatch,
    SchemeMismatch,
)
from .modmath import all_kth_roots, kth_root_mod
from .triplets import BSContext

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _bit_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected LO..HI, e.g. 18..24")
    return int(lo), int(hi)


def _int_list(text: str) -> list[int]:
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _file(path: str, mode: str, data: str | bytes | None = None):
    """Read (mode r, rb) or write (w, wb) one file; failures are FileAccessError."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
            return f.read() if data is None else f.write(data)
    except UnicodeDecodeError:
        raise FileAccessError(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise FileAccessError(f"{path}: {exc.strerror}") from None


def _rng(seed) -> random.Random:
    return random.Random(seed if seed is not None else random.SystemRandom().getrandbits(64))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every run."""
    parser = argparse.ArgumentParser(
        prog="bealschur",
        description="Beal-Schur congruence toolkit: counting, verification "
        "and reference encryption (not production cryptography).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.set_defaults(handler=_cmd_keygen)
    kg.add_argument("--scheme", required=True, choices=["kg1", "kg2"])
    kg.add_argument("--max-exp", required=True, type=int)
    kg.add_argument("--prime-bits", required=True, type=_bit_range, metavar="LO..HI")
    kg.add_argument("--seed", type=int)
    kg.add_argument("--out-pub", required=True)
    kg.add_argument("--out-priv", required=True)
    kg.add_argument("--literal-6-2", dest="literal_roles", action="store_true",
                    help="KG2 only: publish (p,q,r,x,y) instead of (p,q,r,z)")

    for name, handler in (("encrypt", _cmd_encrypt), ("decrypt", _cmd_decrypt)):
        ps = sub.add_parser(name, help=f"{name} a file")
        ps.set_defaults(handler=handler)
        ps.add_argument("--scheme", required=True, choices=crypto.SCHEMES)
        ps.add_argument("--pub", required=True)
        ps.add_argument("--priv", required=True)
        ps.add_argument("--in", dest="infile", required=True)
        ps.add_argument("--out", dest="outfile", required=True)
        ps.add_argument("--seed", type=int)
        ps.add_argument("--partition", type=_int_list,
                        help="scheme III: comma separated segment lengths")
        ps.add_argument("--split-I", dest="split_one", type=_int_list,
                        help="scheme III: 1-based segment indices run as scheme I")

    vf = sub.add_parser("verify", help="run the nontrivial-solution bound chain")
    vf.set_defaults(handler=_cmd_verify)
    for flag in ("--p", "--q", "--r", "--modulus"):
        vf.add_argument(flag, required=True, type=int)

    ct = sub.add_parser("count", help="count solutions of x^p + y^q = z^r")
    ct.set_defaults(handler=_cmd_count)
    for flag in ("--p", "--q", "--r", "--modulus"):
        ct.add_argument(flag, required=True, type=int)
    ct.add_argument("--fourier", action="store_true")
    ct.add_argument("--brute", action="store_true")

    sm = sub.add_parser("sums", help="evaluate one exponential sum")
    sm.set_defaults(handler=_cmd_sums)
    sm.add_argument("--k", required=True, type=int)
    sm.add_argument("--ell", required=True, type=int)
    sm.add_argument("--modulus", required=True, type=int)

    rt = sub.add_parser("root", help="k-th root(s) modulo a prime")
    rt.set_defaults(handler=_cmd_root)
    rt.add_argument("--c", required=True, type=int)
    rt.add_argument("--k", required=True, type=int)
    rt.add_argument("--modulus", required=True, type=int)
    rt.add_argument("--all", action="store_true")
    rt.add_argument("--seed", type=int)

    return parser


def _cmd_keygen(args) -> int:
    rng = _rng(args.seed)
    if args.scheme == "kg1":
        key = keygen.keygen_scheme1(args.max_exp, args.prime_bits, rng)
    else:
        key = keygen.keygen_scheme2(
            args.max_exp, args.prime_bits, rng, literal_roles=args.literal_roles
        )
    _file(args.out_pub, "w", keygen.serialize_key(key, "PUBLIC"))
    _file(args.out_priv, "w", keygen.serialize_key(key, "PRIVATE"))
    return EXIT_OK


def _scheme_keys(args):
    """The two key arguments of crypto's scheme functions, from the key files."""
    halves = []
    for role, path in (("PUBLIC", args.pub), ("PRIVATE", args.priv)):
        half = keygen.parse_key(_file(path, "r"))
        if (half.scheme, half.role) != (args.scheme, role):
            raise SchemeMismatch(
                f"scheme {args.scheme} {role} key requested but {path}"
                f" holds a scheme {half.scheme} {half.role} key"
            )
        halves.append(half.fields)
    f, g = halves
    if args.scheme == "I":
        return (f["r"], f["N"]), (g["p"], g["q"])
    if args.scheme == "II":
        return (f["p"], f["q"], f["r"]), g["N"]
    n = f["n"]
    if g["n"] != n:
        raise PartitionMismatch("key halves disagree on n")
    indices = range(1, n + 1)
    contexts = [(f[f"p{i}"], f[f"q{i}"], f[f"r{i}"], g[f"N{i}"]) for i in indices]
    ones = list(args.split_one or [])
    return contexts, (ones, [i for i in indices if i not in ones])


def _cmd_encrypt(args) -> int:
    keys = _scheme_keys(args)
    rng = _rng(args.seed)
    msg = _file(args.infile, "rb")
    partition = ()
    if args.scheme == "III":
        if not args.partition:
            _build_parser().error("scheme III needs --partition")
        partition = (args.partition,)
    ct = getattr(crypto, f"encrypt_{args.scheme}")(msg, *partition, *keys, rng)
    _file(args.outfile, "w", ct.to_text())
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    keys = _scheme_keys(args)
    ct = crypto.Ciphertext.from_text(_file(args.infile, "r"))
    _file(args.outfile, "wb", getattr(crypto, f"decrypt_{args.scheme}")(ct, *keys))
    return EXIT_OK


def _cmd_verify(args) -> int:
    ctx = BSContext.create(args.p, args.q, args.r, args.modulus)
    report = counting.verify_bound_chain(ctx)
    print(report.render())
    return EXIT_OK if report.all_passed and report.witness else EXIT_VERIFY_FAILED


def _cmd_count(args) -> int:
    """Compute every requested line before printing, so a failure prints nothing."""
    context = (args.p, args.q, args.r, args.modulus)
    counts = counting.count_solutions_exact(*context)
    lines = [f"M={counts.total} trivial={counts.trivial} nontrivial={counts.nontrivial}"]
    if args.fourier:
        lines.append(f"fourier={counts.fourier:.6f}")
    if args.brute:
        lines.append(f"brute={counting.count_solutions_bruteforce(*context)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sums(args) -> int:
    s = counting.exp_sum(args.k, args.ell, args.modulus)
    re = round(s.value.real, 9) + 0.0  # avoid negative zero
    im = round(s.value.imag, 9) + 0.0
    print(f"S={re:.9f},{im:.9f}")
    return EXIT_OK


def _cmd_root(args) -> int:
    if args.all:
        roots = sorted(r.value for r in all_kth_roots(args.c, args.k, args.modulus))
        print("roots=" + " ".join(str(r) for r in roots))
    else:
        root = kth_root_mod(args.c, args.k, args.modulus, _rng(args.seed))
        print(f"root={root.value}")
    return EXIT_OK


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BealSchurError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # a modulus whose O(N) tables do not fit in memory
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
