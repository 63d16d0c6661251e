#!/usr/bin/env python3
"""Sweep exponent triplets and verify the nontrivial-solution bound chain.

For each triplet the modulus is the first prime strictly above the
32 p^2 q^2 r^2 threshold, i.e. the hardest admissible case.  Prints one
table row per context plus the witness found.
"""

import argparse
import time

from bealschur.counting import verify_bound_chain
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--triplets", default=None,
        help="semicolon separated p,q,r triplets, e.g. '2,2,2;3,3,3'",
    )
    args = parser.parse_args()
    triplets = DEFAULT_TRIPLETS
    if args.triplets:
        triplets = [
            tuple(int(v) for v in part.split(","))
            for part in args.triplets.split(";")
        ]

    print(f"{'p,q,r':>8} {'threshold':>10} {'N':>8} {'M':>14} "
          f"{'nontrivial':>12} {'chain':>6} {'time':>7}  witness")
    for p, q, r in triplets:
        bound = indiscernibility_threshold(p, q, r)
        N = first_prime_above(bound)
        start = time.monotonic()
        report = verify_bound_chain(BSContext.create(p, q, r, N))
        elapsed = time.monotonic() - start
        w = report.witness
        witness = f"({w.x.value}, {w.y.value}, {w.z.value})" if w else "-"
        status = "pass" if report.all_passed else "FAIL"
        print(f"{p},{q},{r:>2} {bound:>10} {N:>8} {report.total:>14} "
              f"{report.nontrivial:>12} {status:>6} {elapsed:>6.2f}s  {witness}")


if __name__ == "__main__":
    main()
