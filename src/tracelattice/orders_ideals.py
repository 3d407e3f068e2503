"""Orders and fractional ideals in the cyclic cubic fields.

The maximal order is reached from the equation order Z[q*eps] by repeated
p-enlargement: the p-radical of O/pO is the kernel of the linearized
Frobenius iterate x -> x^(p^e) with p^e >= 3, its preimage J is an O-ideal,
and the idealizer {x : xJ <= J} strictly contains O exactly when O is not
p-maximal.  Each step is a mod-p nullspace computation, so the whole climb
is exact integer linear algebra.

On top of the maximal order: the trace-dual ideal D^-1; its square root in
closed form, prod p^-1 P_p^2 over the tame primes p of the conductor times
3^-1 P_3 when 3 ramifies (P_p the p-radical), certified by squaring it back
to D^-1 exactly; the primes above 2 read off from the 8-element quotient
algebra; and the rank-3 odd lattices obtained by multiplying a prime above 2
into the square root of the trace dual.  The quadratic-residue exclusion test
for root-lattice discriminants lives here too, as an_exclusion.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple, Sequence

from ._intfactor import factor, is_square, squarefree_kernel
from .errors import NotFound, NotMaximal, TwoInert
from .exact_linalg import Matrix, det, hnf_rows, inverse
from .lattice_core import (
    TraceLattice,
    classify_root_type,
    disc_group,
    dual,
    galois_stable,
    gram_of,
    odd_trace_witness,
)
from .shanks_field import ShanksField, new_field

F = Fraction


def _hnf_span(rows, rank: int = 3) -> Matrix:
    """Canonical basis of the Z-span of possibly redundant rational rows:
    clear denominators, row-reduce to Hermite form, drop zero rows, rescale."""
    rows = [tuple(F(x) for x in r) for r in rows]
    scale = lcm(*(x.denominator for r in rows for x in r))
    h = hnf_rows([[x.numerator * (scale // x.denominator) for x in r] for r in rows])
    kept = [r for r in h if any(r)]
    if len(kept) != rank:
        raise ValueError(f"span has rank {len(kept)}, expected {rank}")
    return Matrix([[F(x, scale) for x in r] for r in kept])


class CubicOrder:
    """A multiplication-closed rank-3 lattice containing 1, with its trace
    Gram and discriminant; the basis is kept in canonical Hermite form."""

    __slots__ = ("ambient", "basis", "gram", "disc")

    def __init__(self, ambient: ShanksField, basis: Matrix | Sequence):
        rows = basis if isinstance(basis, Matrix) else Matrix.from_rows(basis)
        rows = _hnf_span([rows.row(i) for i in range(rows.rows)])
        binv = inverse(rows)
        one = Matrix([[1, 0, 0]]) * binv
        if not one.is_integer():
            raise ValueError("order must contain 1")
        for i in range(3):
            for j in range(i, 3):
                prod = ambient.mul_coords(rows.row(i), rows.row(j))
                if not (Matrix([list(prod)]) * binv).is_integer():
                    raise ValueError("order basis is not multiplication-closed")
        gram = gram_of(rows, ambient)
        d = det(gram)
        assert d.denominator == 1 and d > 0
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "disc", int(d))

    def __setattr__(self, name, value):
        raise AttributeError("CubicOrder is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, CubicOrder)
            and self.ambient.descriptor() == other.ambient.descriptor()
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"CubicOrder(t={self.ambient.t}, disc={self.disc})"

    def lattice(self) -> TraceLattice:
        return TraceLattice(self.ambient, self.basis, gram=self.gram)


class IdealLattice(NamedTuple):
    """A fractional ideal of a cubic order, held as a canonical basis."""

    order: CubicOrder
    basis: Matrix

    def lattice(self) -> TraceLattice:
        return TraceLattice(self.order.ambient, self.basis)


def _make_ideal(order: CubicOrder, rows) -> IdealLattice:
    basis = _hnf_span(rows)
    binv = inverse(basis)
    for i in range(3):
        for j in range(3):
            prod = order.ambient.mul_coords(basis.row(i), order.basis.row(j))
            if not (Matrix([list(prod)]) * binv).is_integer():
                raise ValueError("module is not stable under the order")
    return IdealLattice(order, basis)


def module_product(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    """The ideal generated by all pairwise basis products."""
    ambient = a.order.ambient
    rows = [
        ambient.mul_coords(a.basis.row(i), b.basis.row(j))
        for i in range(3)
        for j in range(3)
    ]
    return _make_ideal(a.order, rows)


def equation_order(t) -> CubicOrder:
    """Z[theta] for theta = q * eps, the least positive multiple of eps with
    an integral minimal polynomial (q the denominator of t)."""
    field = new_field(t)
    q = F(t).denominator
    basis = Matrix.from_rows([[1, 0, 0], [0, q, 0], [0, 0, q * q]])
    return CubicOrder(field, basis)


def _nullspace_mod(rows: list[list[int]], p: int, width: int) -> list[list[int]]:
    """Basis of the kernel of the stacked matrix over the p-element field."""
    a = [[x % p for x in row] for row in rows]
    pivots = {}
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(a)) if a[i][c] % p), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv_p = pow(a[r][c], -1, p)
        a[r] = [(x * inv_p) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    out = []
    for c in range(width):
        if c in pivots:
            continue
        v = [0] * width
        v[c] = 1
        for pc, pr in pivots.items():
            v[pc] = (-a[pr][c]) % p
        out.append(v)
    return out


def _structure_mod(o: CubicOrder, p: int) -> list[list[list[int]]]:
    """Structure constants of O/pO: table[i][j] = coords of o_i * o_j."""
    binv = inverse(o.basis)
    table = []
    for i in range(3):
        row = []
        for j in range(3):
            prod = o.ambient.mul_coords(o.basis.row(i), o.basis.row(j))
            coeffs = Matrix([list(prod)]) * binv
            row.append([int(coeffs[0, k]) % p for k in range(3)])
        table.append(row)
    return table


def _mul_mod(table, u, v, p):
    out = [0, 0, 0]
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = table[i][j]
            for k in range(3):
                out[k] = (out[k] + ui * vj * c[k]) % p
    return out


def _p_radical(o: CubicOrder, p: int) -> Matrix:
    """The radical of O/pO lifted to O, as integer rows in O-coordinates."""
    table = _structure_mod(o, p)
    e = 1
    while p ** e < 3:
        e += 1
    columns = []
    for k in range(3):
        v = [int(i == k) for i in range(3)]
        power = v
        for _ in range(e):
            # x -> x^p is linear over the p-element field, so iterating it
            # on basis vectors determines the map everywhere
            acc = v_pow = power
            for _ in range(p - 1):
                acc = _mul_mod(table, acc, v_pow, p)
            power = acc
        columns.append(power)
    frob = [[columns[k][i] for k in range(3)] for i in range(3)]
    kernel = _nullspace_mod(frob, p, 3)
    rows = [[p * int(i == j) for j in range(3)] for i in range(3)] + kernel
    return Matrix([r for r in hnf_rows(rows) if any(r)])


def _enlarge_at(o: CubicOrder, p: int) -> CubicOrder:
    """One idealizer step: O' = {x : x J <= J} for J the p-radical ideal."""
    hj = _p_radical(o, p)
    jmat = hj * o.basis
    jinv = inverse(jmat)
    stacked = []
    for k in range(3):
        block = []
        for m in range(3):
            prod = o.ambient.mul_coords(o.basis.row(m), jmat.row(k))
            coeffs = Matrix([list(prod)]) * jinv
            assert coeffs.is_integer()  # J is an O-ideal
            block.append([int(coeffs[0, i]) for i in range(3)])
        for i in range(3):
            stacked.append([block[m][i] for m in range(3)])
    kernel = _nullspace_mod(stacked, p, 3)
    rows = [o.basis.row(i) for i in range(3)]
    for y in kernel:
        lifted = Matrix([[F(c, p) for c in y]]) * o.basis
        rows.append(lifted.row(0))
    return CubicOrder(o.ambient, _hnf_span(rows))


def dedekind_maximalize(o: CubicOrder, p: int) -> CubicOrder:
    """The p-maximal order over o: enlarge until the discriminant stops
    dropping; each strict step divides it by an even power of p."""
    while True:
        bigger = _enlarge_at(o, p)
        if bigger.disc == o.disc:
            return o
        quot, rem = divmod(o.disc, bigger.disc)
        assert rem == 0 and is_square(quot) and quot % (p * p) == 0
        o = bigger


def maximal_order(t) -> CubicOrder:
    """The ring of integers: enlarge the equation order at every prime whose
    square divides its discriminant.  The result's discriminant is a perfect
    square, as it must be for a cyclic cubic field."""
    o = equation_order(t)
    for p, e in sorted(factor(o.disc).items()):
        if e >= 2:
            o = dedekind_maximalize(o, p)
    assert is_square(o.disc)
    return o


def is_maximal(o: CubicOrder) -> bool:
    """True iff every idealizer step at a square-dividing prime is a fixed
    point."""
    for p, e in factor(o.disc).items():
        if e >= 2 and _enlarge_at(o, p).disc != o.disc:
            return False
    return True


def different_inverse(o: CubicOrder) -> IdealLattice:
    """The trace-dual of the maximal order, {x : Tr(x y) in Z for y in Z_F}.

    The dual of any order is a module over it, so stability cannot witness
    maximality; non-maximal input is caught by an explicit fixed-point
    check before the dual is taken."""
    if not is_maximal(o):
        raise NotMaximal(f"order of discriminant {o.disc} is not maximal")
    d = dual(o.lattice())
    index = det(o.basis) / det(d.basis)
    assert abs(index) == o.disc
    return _make_ideal(o, [d.basis.row(i) for i in range(3)])


def sqrt_different_inverse(
    o: CubicOrder, dinv: IdealLattice | None = None
) -> IdealLattice:
    """The ideal C with C^2 = D^-1, the trace dual of the maximal order.

    Every ramified prime of a cyclic cubic field is totally ramified,
    pZ_F = P_p^3, and the different is prod P_p^2 over the tame p with P_3^4
    at 3 (Erez, Math. Z. 208, 1991).  Hence C = prod p^-1 P_p^2 (tame p | m)
    * 3^-1 P_3 (if 3 | m), m the conductor, with P_p the p-radical.  C is
    unique by ideal factorization; the result is certified by squaring it
    back to the trace dual exactly and by checking that it contains Z_F.
    A caller that already holds different_inverse(o) passes it as dinv."""
    m = isqrt(o.disc)
    if m * m != o.disc:
        raise NotFound(f"discriminant {o.disc} is not a square")
    if dinv is None:
        dinv = different_inverse(o)
    root = IdealLattice(o, o.basis)
    for p in factor(m):
        rad = IdealLattice(o, _p_radical(o, p) * o.basis)
        # pZ_F = P_p^3, so P_p^-1 = p^-1 P_p^2 and P_3^-2 = 3^-1 P_3
        power = rad if p == 3 else module_product(rad, rad)
        root = module_product(root, IdealLattice(o, power.basis * F(1, p)))
    if module_product(root, root).basis != dinv.basis:
        raise NotFound("the closed-form root does not square to the trace dual")
    if not (o.basis * inverse(root.basis)).is_integer():
        raise NotFound("the closed-form root does not contain the order")
    return root


def primes_above_2(o: CubicOrder) -> list[IdealLattice]:
    """Maximal ideals of the 8-element algebra Z_F/2Z_F, lifted to ideals.

    Three candidates of index 2 when 2 splits (t with even denominator),
    the single ideal 2 Z_F when 2 stays inert; cyclic cubics admit nothing
    in between at an unramified prime."""
    table = _structure_mod(o, 2)
    ideals = []
    for w in range(1, 8):
        wvec = [(w >> i) & 1 for i in range(3)]
        space = [v for v in _nullspace_mod([wvec], 2, 3)]
        assert len(space) == 2
        stable = all(
            sum(x * y for x, y in zip(wvec, _mul_mod(table, e, v, 2))) % 2 == 0
            for v in space
            for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
        )
        if stable:
            ideals.append(space)
    assert len(ideals) in (0, 3)
    if not ideals:
        return [_make_ideal(o, [tuple(2 * x for x in o.basis.row(i)) for i in range(3)])]
    out = []
    for space in ideals:
        rows = [[2 * int(i == j) for j in range(3)] for i in range(3)] + space
        out.append(Matrix([r for r in hnf_rows(rows) if any(r)]))
    out.sort(key=lambda h: tuple(tuple(int(x) for x in h.row(i)) for i in range(3)))
    return [_make_ideal(o, [(h * o.basis).row(i) for i in range(3)]) for h in out]


def fake_a3(o: CubicOrder, root: IdealLattice | None = None) -> TraceLattice:
    """The odd determinant-4 lattice: (prime above 2) * (square root of the
    trace dual), built from the lexicographically least prime.  A caller
    that already holds sqrt_different_inverse(o) passes it as root.

    Every call re-certifies the four defining properties: odd, discriminant
    group Z/4, classified as the diagonal (1,1,4) form, and not stable under
    the field automorphisms (so no normal basis exists)."""
    primes = primes_above_2(o)
    if len(primes) == 1:
        raise TwoInert("2 is inert here; the construction needs a split prime")
    if root is None:
        root = sqrt_different_inverse(o)
    lattice = module_product(primes[0], root).lattice()
    assert odd_trace_witness(lattice) is not None
    assert disc_group(lattice) == (1, 1, 4)
    assert classify_root_type(lattice) == "diag114"
    assert not galois_stable(lattice)
    return lattice.with_type("diag114")


def fake_a3_variants(o: CubicOrder) -> list[TraceLattice]:
    """All three determinant-4 lattices, one per prime above 2."""
    primes = primes_above_2(o)
    if len(primes) == 1:
        raise TwoInert("2 is inert here; the construction needs a split prime")
    root = sqrt_different_inverse(o)
    return [module_product(p, root).lattice() for p in primes]


def an_exclusion(d_f: int, disc_order: int) -> str:
    """Square-class obstruction: a root lattice of discriminant disc_order
    inside a field of discriminant d_f needs the two to agree up to squares."""
    if d_f == 0:
        raise ValueError("field discriminant must be nonzero")
    if squarefree_kernel(d_f) != squarefree_kernel(disc_order):
        return "excluded"
    return "not excluded by this criterion"
