"""The A_{p-1} ladder in cyclotomic fields.

For the odd primes p from 3 to 31, the fractional ideal generated by
(1 - zeta_p)^(-(p-3)/2) carries the Hermitian trace form Tr(x conj(y)),
and the resulting lattice is a root lattice of type A_{p-1}. The same
machinery accepts arbitrary generators written as expressions in z.
"""

import time

from tracelattice import (
    ap_lattice,
    classify_root_type,
    cyc_field,
    det,
    disc_group,
    principal_ideal_lattice,
)
from tracelattice.serialize import parse_generator


def ladder():
    print("=" * 64)
    print("Preset ideals (1 - zeta_p)^(-(p-3)/2)")
    print("=" * 64)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        start = time.monotonic()
        L = ap_lattice(p)
        label = classify_root_type(L)
        elapsed = time.monotonic() - start
        print(
            f"  p = {p:>2}: type {label:<4} det {int(det(L.gram)):>3} "
            f"disc group {disc_group(L)}   ({elapsed:.2f}s)"
        )
    print()


def custom_generators():
    print("=" * 64)
    print("User-supplied generators, parsed as expressions in z")
    print("=" * 64)
    k = cyc_field(5)
    for expr in ("1", "(1-z)^-1", "2", "(1+z)*(1-z)"):
        g = parse_generator(k, expr)
        L = principal_ideal_lattice(k, g)
        print(f"  n = 5, generator {expr!r}: type {classify_root_type(L)}, det {det(L.gram)}")
    print()
    print("The unit ideal of Q(zeta_3) is the hexagonal lattice:")
    k3 = cyc_field(3)
    L = principal_ideal_lattice(k3, k3.one())
    for i in range(L.gram.rows):
        print("    [" + "  ".join(str(x) for x in L.gram.row(i)) + "]")


if __name__ == "__main__":
    ladder()
    custom_generators()
