"""Non-existence results, witnessed exactly.

Three obstruction stories: cyclic cubic field discriminants are perfect
squares and the squarefree-kernel test rules out A_n realizations; the
quadratic search certifies that A2 lives only over radicand 3; and the
split-prime construction produces the odd diag(1,1,4) lattice that shares
its discriminant group with A3 without being A3.
"""

import math
from fractions import Fraction as F

from tracelattice import (
    an_exclusion,
    classify_root_type,
    disc_group,
    equation_order,
    falsify_a2,
    fake_a3_variants,
    family_distinctness,
    galois_stable,
    maximal_order,
    odd_trace_witness,
)


def square_discriminants():
    print("=" * 64)
    print("Field discriminants of cyclic cubics are perfect squares")
    print("=" * 64)
    for t in (F(1), F(0), F(2), F(5), F(1, 2), F(7, 3)):
        d = maximal_order(equation_order(t)).disc
        print(f"  t = {str(t):>4}: d_F = {d:>6} = {math.isqrt(d)}^2")
    print()
    print("Squarefree-kernel exclusions:")
    for d_f, disc, label in ((169, 5, "A4-type ideal"), (229, 4, "A3-type ideal")):
        verdict = an_exclusion(d_f, disc)
        print(f"  d_F = {d_f}, lattice det {disc} ({label}): {verdict}")
    print()


def quadratic_frontier():
    print("=" * 64)
    print("A2 in imaginary quadratic fields: radicand 3 and nothing else")
    print("=" * 64)
    fam = family_distinctness(6)
    print(f"  d = 3: {len(fam)} distinct A2 lattices at height 6")
    for d in (1, 2, 5, 6, 7):
        found = falsify_a2(d, 30)
        status = "no A2 lattice" if found is None else "FOUND (unexpected)"
        print(f"  d = {d}: {status} up to height 30")
    print()


def fake_a3_story():
    print("=" * 64)
    print("The imposter: odd, disc group Z/4, not Galois stable")
    print("=" * 64)
    order = maximal_order(equation_order(F(1, 2)))
    print(f"  field: splitting field of the t = 1/2 cubic, d_F = {order.disc}")
    for L in fake_a3_variants(order):
        w = odd_trace_witness(L)
        print(
            f"  variant: type {classify_root_type(L)}, disc group {disc_group(L)}, "
            f"odd witness {w}, galois stable: {galois_stable(L)}"
        )
    print()
    print("Each variant matches A3 on the discriminant group (Z/4Z) but is")
    print("odd, so no fractional ideal of this field realizes A3 itself.")


if __name__ == "__main__":
    square_discriminants()
    quadratic_frontier()
    fake_a3_story()
