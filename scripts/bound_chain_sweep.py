#!/usr/bin/env python3
"""Sweep exponent triplets and verify the nontrivial-solution bound chain.

For each triplet the modulus is the first prime strictly above the
32 p^2 q^2 r^2 threshold, i.e. the hardest admissible case.  Prints one
table row per context plus the witness found.
"""

import argparse
import sys
import time

from bealschur.counting import verify_bound_chain
from bealschur.errors import BealSchurError
from bealschur.modmath import is_probable_prime
from bealschur.triplets import BSContext, indiscernibility_threshold

DEFAULT_TRIPLETS = [
    (2, 2, 2),
    (2, 2, 4),
    (2, 4, 4),
    (3, 3, 3),
    (2, 4, 8),
]


def first_prime_above(n):
    candidate = n + 1 if n % 2 == 0 else n + 2
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def triplet_list(text):
    """'p,q,r;p,q,r;...' as a list of integer triplets."""
    try:
        triplets = [tuple(int(v) for v in part.split(",")) for part in text.split(";")]
        if all(len(t) == 3 for t in triplets):
            return triplets
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected p,q,r triplets, got {text!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--triplets", type=triplet_list, default=DEFAULT_TRIPLETS,
        help="semicolon separated p,q,r triplets, e.g. '2,2,2;3,3,3'",
    )
    args = parser.parse_args()
    try:
        contexts = [
            BSContext.create(p, q, r, first_prime_above(indiscernibility_threshold(p, q, r)))
            for p, q, r in args.triplets
        ]
        print(f"{'p,q,r':>8} {'threshold':>10} {'N':>8} {'M':>14} "
              f"{'nontrivial':>12} {'chain':>6} {'time':>7}  witness")
        for ctx in contexts:
            start = time.monotonic()
            report = verify_bound_chain(ctx)
            elapsed = time.monotonic() - start
            w = report.witness
            witness = f"({w.x.value}, {w.y.value}, {w.z.value})" if w else "-"
            status = "pass" if report.all_passed else "FAIL"
            print(f"{ctx.p},{ctx.q},{ctx.r:>2} {ctx.triplet.threshold():>10} {ctx.N:>8} "
                  f"{report.total:>14} {report.nontrivial:>12} {status:>6} "
                  f"{elapsed:>6.2f}s  {witness}")
    except BealSchurError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
