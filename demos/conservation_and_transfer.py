"""Correlations with a reference are conserved, not destroyed.

A pure bipartite state carries a fixed amount of correlation between the
reference R and the partner A.  Any isometric splitting of A into a kept
factor B and a discarded factor E only moves that amount around:
I(R:B) + I(R:E) always equals the original I(R:A).  The twirl splitting is
the extreme case, pushing every bit into the discarded factor while the kept
output decouples completely.
"""

from __future__ import annotations

import argparse

from pqdec import (
    DimSig,
    Isometry,
    apply_isometry,
    max_entangled,
    mutual_information,
    random_pure,
    random_unitary,
    to_density,
    twirl_isometry,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=5)
    args = ap.parse_args()

    print("random splittings of random pure states")
    print(f"{'I(R:A)':>10} {'I(R:B)':>10} {'I(R:E)':>10} {'B+E':>10}")
    for k in range(args.samples):
        rho = to_density(random_pure([2, 3], args.seed + k, labels=("R", "A")))
        v = Isometry(random_unitary(9, args.seed + 100 + k)[:, :3], DimSig((3, 3), ("B", "E")), 3)
        out = apply_isometry(rho, v)
        i_ra = mutual_information(rho, "R", "A")
        i_rb = mutual_information(out, "R", "B")
        i_re = mutual_information(out, "R", "E")
        print(f"{i_ra:10.6f} {i_rb:10.6f} {i_re:10.6f} {i_rb + i_re:10.6f}")

    print()
    print("twirl splitting on the maximally entangled pair")
    bell = to_density(max_entangled(2))
    out = apply_isometry(bell, twirl_isometry(2))
    print(f"  before: I(R:A) = {mutual_information(bell, 'R', 'A'):.6f}")
    print(f"  kept:   I(R:B) = {mutual_information(out, 'R', 'B'):.2e}")
    print(f"  leaked: I(R:E) = {mutual_information(out, 'R', 'E'):.6f}")
    print("every bit that left B shows up in E, none is gone")


if __name__ == "__main__":
    main()
