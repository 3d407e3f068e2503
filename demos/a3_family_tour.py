"""Tour of the A3 construction in cyclic cubic fields.

Starts from the classical t = 0 lattice with its normal basis, then sweeps
conic points at t = 1 to print an infinite-family sample, and closes with a
reparametrization round trip showing different t values can present the
same field.  Field elements are their coordinates in the power basis
(1, eps, eps^2), and the field's *_coords methods act on them.
"""

from fractions import Fraction as F

from tracelattice import (
    Matrix,
    TraceLattice,
    canonical_key,
    classify_root_type,
    galois_stable,
    new_field,
    reparametrize,
    scan_family,
    to_a3_basis,
)


def show_matrix(m: Matrix, indent="    "):
    for i in range(m.rows):
        print(indent + show_coords(m.row(i)))


def show_coords(coords) -> str:
    return "[" + "  ".join(str(x) for x in coords) + "]"


def classic_t0():
    print("=" * 64)
    print("The t = 0 lattice: beta_i = (2 - eps^(sigma^i)) / 3")
    print("=" * 64)
    k = new_field(0)
    beta0 = k.element(("2/3", "-1/3", "0"))
    beta1 = k.galois_coords(beta0)
    beta2 = k.galois_coords(beta1)
    for name, beta in (("beta0", beta0), ("beta1", beta1), ("beta2", beta2)):
        print(f"{name} = {show_coords(beta)} in (1, eps, eps^2)")
    L = TraceLattice.from_rows(k, [beta0, beta1, beta2])
    print("Gram of the normal basis (beta0, beta1, beta2):")
    show_matrix(L.gram)
    Lp = to_a3_basis(L)
    print("Gram after the unimodular base change diag-differencing:")
    show_matrix(Lp.gram)
    print(f"classified: {classify_root_type(Lp)}")
    print(f"same lattice in both bases: {canonical_key(L) == canonical_key(Lp)}")
    print()


def family_sweep(t=F(1), height=5):
    print("=" * 64)
    print(f"Sweeping chords of x^2 + 3y^2 = delta_t at t = {t}, height {height}")
    print("=" * 64)
    scan = scan_family(t, height)
    print(f"{len(scan.members)} pairwise-distinct lattices ({scan.skipped} degenerate points skipped)")
    for m in scan.members[:4]:
        slope = "inf" if m.slope is None else m.slope
        print(f"  slope {slope}: point ({m.point.x}, {m.point.y})")
        print(f"    lambda = {tuple(str(c) for c in m.lam)}")
        print(f"    type {m.lattice.type_tag}, galois stable: {galois_stable(m.lattice)}")
    print("  ...")
    print()


def reparametrize_round_trip():
    print("=" * 64)
    print("Reparametrization: a trace-zero element hands back a new t")
    print("=" * 64)
    k = new_field(1)
    alpha = k.element((-3, 9, 0))  # 9*eps - 3 has trace 3*(-3) + 9*Tr(eps) = 0
    print(f"alpha = {show_coords(alpha)} in (1, eps, eps^2), trace {k.trace_coords(alpha)}")
    t_new = reparametrize(k, alpha)
    print(f"t' = {t_new}; the unit u = alpha^(sigma-1) satisfies f_t'(u) = 0")
    k2 = new_field(t_new)
    scan = scan_family(t_new, 3)
    print(f"the t' = {t_new} presentation also carries A3 lattices: {len(scan.members)} at height 3")
    print()


if __name__ == "__main__":
    classic_t0()
    family_sweep()
    reparametrize_round_trip()
