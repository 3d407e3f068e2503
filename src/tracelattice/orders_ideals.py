"""Orders and fractional ideals in a number field of any degree n.

An Order is a multiplication-closed rank-n lattice containing 1 in a
PowerBasisField of degree n, kept in canonical Hermite form.  Its integer
structure constants c_ijk, o_i o_j = sum_k c_ijk o_k, are computed once:
their integrality certifies closure, and all arithmetic of O/pO reads them.
Every "is this row in the Z-span of that basis, and with which
coefficients?" is span_coords against the basis's hnf_span, no inverse;
a canonical basis is a Matrix whose integer rows are that HNF, and the
products of two bases come from PowerBasisField.products, in int.

The maximal order is reached by repeated p-enlargement (Pohst-Zassenhaus;
Cohen, GTM 138, Sec. 6.1): the p-radical of O/pO is the kernel of the
linearized Frobenius iterate x -> x^(p^e) with p^e >= n (square-and-multiply,
so a large p costs O(log p) products), its preimage J is
an O-ideal, and the idealizer {x : xJ <= J} strictly contains O exactly
when O is not p-maximal.  Each step is a mod-p nullspace computation, so
the whole climb is exact integer linear algebra.  The trace dual D^-1 and
the primes above 2 (the kernels of the ring maps O -> F_2) work at any n.

Cubic only, as their mathematics is: equation_order(t) and maximal_order(t)
take the Shanks parameter; sqrt_different_inverse is the cyclic-cubic closed
form prod p^-1 P_p^2 over the tame primes p of the conductor times 3^-1 P_3
when 3 ramifies (P_p the p-radical), certified by squaring it back to D^-1,
so elsewhere it raises NotFound; fake_a3 multiplies a prime above 2 into it.
The square-class exclusion test for root lattices is an_exclusion.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul
from typing import NamedTuple, Sequence

from ._intfactor import factor, is_probable_prime, is_square
from .errors import NotFound, NotMaximal, TwoInert
from .exact_linalg import Matrix, det, hnf_coords
from .lattice_core import (
    TraceLattice,
    classify_root_type,
    disc_group,
    dual,
    galois_stable,
    gram_of,
    hnf_span,
    odd_trace_witness,
    span_coords,
)
from .power_basis import PowerBasisField
from .shanks_field import new_field

F = Fraction


class Order:
    """A multiplication-closed rank-n lattice containing 1 in a
    PowerBasisField of degree n, with its trace Gram, its discriminant and
    its structure constants: table[i][j] holds the integer coordinates of
    o_i * o_j.  The basis is kept in canonical Hermite form.  The ideals
    derived from it (different_inverse, sqrt_different_inverse,
    primes_above_2) are computed on first use and kept."""

    __slots__ = (
        "ambient", "basis", "gram", "disc", "table", "_dinv", "_root", "_primes2",
    )

    def __init__(self, ambient: PowerBasisField, basis: Matrix | Sequence):
        n = ambient.degree
        scale, h = hnf_span(basis)
        if len(h) != n:
            raise ValueError(f"span has rank {len(h)}, expected {n}")
        rows = Matrix.scaled(h, scale)
        if span_coords(rows, Matrix.scaled([[int(j == 0) for j in range(n)]])) is None:
            raise ValueError("order must contain 1")
        table = span_coords(rows, ambient.products(rows, rows))
        if table is None:
            raise ValueError("order basis is not multiplication-closed")
        gram = gram_of(rows, ambient)
        d = det(gram)
        assert d.denominator == 1 and d > 0
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "disc", int(d))
        object.__setattr__(
            self, "table", tuple(tuple(map(tuple, table[i : i + n])) for i in range(0, n * n, n))
        )
        for slot in ("_dinv", "_root", "_primes2"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("Order is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Order)
            and self.ambient.descriptor() == other.ambient.descriptor()
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Order({self.ambient!r}, disc={self.disc})"

    def lattice(self) -> TraceLattice:
        return TraceLattice(self.ambient, self.basis, gram=self.gram)

    def _first_use(self, slot: str, compute):
        """The value kept in slot, filled with compute(self) on first use."""
        value = getattr(self, slot)
        if value is None:
            value = compute(self)
            object.__setattr__(self, slot, value)
        return value


class IdealLattice(NamedTuple):
    """A fractional ideal of an order, held as a canonical basis."""

    order: Order
    basis: Matrix

    def lattice(self) -> TraceLattice:
        return TraceLattice(self.order.ambient, self.basis)


def _make_ideal(order: Order, rows: Matrix | Sequence) -> IdealLattice:
    scale, h = hnf_span(rows)
    assert len(h) == order.ambient.degree, "an ideal has full rank"
    basis = Matrix.scaled(h, scale)
    if span_coords(basis, order.ambient.products(basis, order.basis)) is None:
        raise ValueError("module is not stable under the order")
    return IdealLattice(order, basis)


def module_product(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    """The ideal generated by all pairwise basis products."""
    return _make_ideal(a.order, a.order.ambient.products(a.basis, b.basis))


def equation_order(t) -> Order:
    """Z[theta] for theta = q * eps, the least positive multiple of eps with
    an integral minimal polynomial (q the denominator of t)."""
    field = new_field(t)
    q = F(t).denominator
    basis = Matrix.from_rows([[1, 0, 0], [0, q, 0], [0, 0, q * q]])
    return Order(field, basis)


def _scalar_rows(n: int, p: int) -> list[list[int]]:
    """The rows of p I_n."""
    return [[p * int(i == j) for j in range(n)] for i in range(n)]


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


def _mul_mod(table, u, v, p: int) -> list[int]:
    """u * v in O/pO, for coordinate rows u and v over the structure table."""
    terms = [(x * y, c) for x, row in zip(u, table) for y, c in zip(v, row) if x * y]
    return [sum(s * c[k] for s, c in terms) % p for k in range(len(u))]


def _pow_mod(table, v, e: int, p: int) -> list[int]:
    """v^e in O/pO for e >= 1, by square-and-multiply with _mul_mod."""
    power = None
    while True:
        if e & 1:
            power = v if power is None else _mul_mod(table, power, v, p)
        e >>= 1
        if not e:
            return power
        v = _mul_mod(table, v, v, p)


def _p_radical(o: Order, p: int) -> Matrix:
    """The radical of O/pO lifted to O, as the integer HNF rows of the
    p-radical in O-coordinates, worked out in O/pO on the structure table.

    O/pO has dimension n, so its radical is nilpotent of index at most n and
    is the kernel of x -> x^q as soon as q = p^e >= n.  That map is the
    Frobenius iterated e times, linear over the p-element field, so its
    values on the basis vectors determine it; each is formed by
    square-and-multiply, O(log q) products however large p is."""
    n = len(o.table)
    q = p
    while q < n:
        q *= p
    columns = [_pow_mod(o.table, [int(i == k) for i in range(n)], q, p) for k in range(n)]
    kernel = _nullspace_mod(list(zip(*columns)), p, n)
    _, h = hnf_span(Matrix.scaled(_scalar_rows(n, p) + kernel))
    return Matrix.scaled(h)


def _enlarge_at(o: Order, p: int) -> Order:
    """One idealizer step: O' = {x : x J <= J} for J the p-radical ideal.

    With H the integer HNF of J in O-coordinates, o_m * j_k = sum_l H_kl c_ml
    is read against H; x = sum_m y_m o_m maps J into pJ exactly when those
    J-coordinates, weighted by y, vanish mod p, and then x / p is in O'."""
    h = _p_radical(o, p).ints
    stacked = []
    for hk in h:
        block = [hnf_coords(h, [sum(map(mul, hk, c)) for c in zip(*cm)]) for cm in o.table]
        assert None not in block  # J is an O-ideal
        stacked.extend(zip(*block))
    ys = _nullspace_mod(stacked, p, len(h))
    # O' is spanned by the rows of (p I; Y) / p in O-coordinates
    return Order(o.ambient, Matrix.scaled(_scalar_rows(len(h), p) + ys, p) * o.basis)


def dedekind_maximalize(o: Order, p: int) -> Order:
    """The p-maximal order over o: enlarge until the discriminant stops
    dropping; each strict step divides it by an even power of p."""
    while True:
        bigger = _enlarge_at(o, p)
        if bigger.disc == o.disc:
            return o
        quot, rem = divmod(o.disc, bigger.disc)
        assert rem == 0 and is_square(quot) and quot % (p * p) == 0
        o = bigger


def maximal_order(t) -> Order:
    """The ring of integers: enlarge the equation order at every prime whose
    square divides its discriminant.  The result's discriminant is a perfect
    square, as it must be for a cyclic cubic field."""
    o = equation_order(t)
    for p, e in sorted(factor(o.disc).items()):
        if e >= 2:
            o = dedekind_maximalize(o, p)
    assert is_square(o.disc)
    return o


def is_maximal(o: Order) -> bool:
    """True iff every idealizer step at a square-dividing prime is a fixed
    point."""
    for p, e in factor(o.disc).items():
        if e >= 2 and _enlarge_at(o, p).disc != o.disc:
            return False
    return True


def different_inverse(o: Order) -> IdealLattice:
    """The trace-dual of the maximal order, {x : Tr(x y) in Z for y in Z_F},
    computed on first use and kept on the order.

    The dual of any order is a module over it, so stability cannot witness
    maximality; non-maximal input is caught by an explicit fixed-point
    check before the dual is taken."""
    return o._first_use("_dinv", _trace_dual)


def _trace_dual(o: Order) -> IdealLattice:
    if not is_maximal(o):
        raise NotMaximal(f"order of discriminant {o.disc} is not maximal")
    d = dual(o.lattice())
    index = det(o.basis) / det(d.basis)
    assert abs(index) == o.disc
    return _make_ideal(o, d.basis)


def sqrt_different_inverse(o: Order) -> IdealLattice:
    """The ideal C with C^2 = D^-1, the trace dual of the maximal order,
    computed on first use and kept on the order.

    Every ramified prime of a cyclic cubic field is totally ramified,
    pZ_F = P_p^3, and the different is prod P_p^2 over the tame p with P_3^4
    at 3 (Erez, Math. Z. 208, 1991).  Hence C = prod p^-1 P_p^2 (tame p | m)
    * 3^-1 P_3 (if 3 | m), m the conductor, with P_p the p-radical.  C is
    unique by ideal factorization; the result is certified by squaring it
    back to different_inverse(o) exactly and by checking that it contains
    Z_F."""
    return o._first_use("_root", _closed_form_root)


def _closed_form_root(o: Order) -> IdealLattice:
    m = isqrt(o.disc)
    if m * m != o.disc:
        raise NotFound(f"discriminant {o.disc} is not a square")
    dinv = o._first_use("_dinv", _trace_dual)  # different_inverse(o), from its slot
    root = IdealLattice(o, o.basis)
    for p in factor(m):
        rad = IdealLattice(o, _p_radical(o, p) * o.basis)
        # pZ_F = P_p^3, so P_p^-1 = p^-1 P_p^2 and P_3^-2 = 3^-1 P_3
        power = rad if p == 3 else module_product(rad, rad)
        root = module_product(root, IdealLattice(o, power.basis * F(1, p)))
    if module_product(root, root).basis != dinv.basis:
        raise NotFound("the closed-form root does not square to the trace dual")
    if span_coords(root.basis, o.basis) is None:
        raise NotFound("the closed-form root does not contain the order")
    return root


def primes_above_2(o: Order) -> list[IdealLattice]:
    """The primes of residue degree 1 above 2 in HNF order, or [2 O] when 2
    is inert, found on first use and kept on the order; each call returns a
    new list.  They are the kernels of the ring maps O -> F_2: the nonzero
    w in F_2^n with w(o_i o_j) = w(o_i) w(o_j), among 2^n - 1 candidates.
    In a Galois field where 2 is unramified there are n of them or none;
    none makes 2 inert only at prime n (residue degree 1 or n), so at
    composite n it raises NotFound: Q(zeta_7) has two primes of degree 3.
    Any other count means 2 ramifies (Z[i]: one map), and raises NotFound."""
    return list(o._first_use("_primes2", _ring_map_primes))


def _ring_map_primes(o: Order) -> tuple[IdealLattice, ...]:
    n = o.ambient.degree
    kernels = []
    for m in range(1, 2**n):
        w = [(m >> i) & 1 for i in range(n)]
        if all(
            (sum(map(mul, w, c)) - w[i] * w[j]) % 2 == 0
            for i, row in enumerate(o.table)
            for j, c in enumerate(row)
        ):
            kernels.append(_nullspace_mod([w], 2, n))
    if len(kernels) not in (0, n):
        raise NotFound(f"2 ramifies: {len(kernels)} ring maps to F_2 in degree {n}")
    if not kernels:
        if not is_probable_prime(n):
            raise NotFound(f"2 has no prime of residue degree 1 in degree {n}, not a prime")
        return (_make_ideal(o, o.basis * 2),)
    two = _scalar_rows(n, 2)
    primes = sorted(hnf_span(Matrix.scaled(two + k))[1] for k in kernels)
    return tuple(_make_ideal(o, Matrix.scaled(h) * o.basis) for h in primes)


def fake_a3(o: Order) -> TraceLattice:
    """The odd determinant-4 lattice: (prime above 2) * (square root of the
    trace dual), built from the lexicographically least prime; both factors
    are the ones kept on the order.

    Every call re-certifies the four defining properties: odd, discriminant
    group Z/4, classified as the diagonal (1,1,4) form, and not stable under
    the field automorphisms (so no normal basis exists)."""
    primes = primes_above_2(o)
    if len(primes) == 1:
        raise TwoInert("2 is inert here; the construction needs a split prime")
    lattice = module_product(primes[0], sqrt_different_inverse(o)).lattice()
    assert odd_trace_witness(lattice) is not None
    assert disc_group(lattice) == (1, 1, 4)
    assert classify_root_type(lattice) == "diag114"
    assert not galois_stable(lattice)
    return lattice.with_type("diag114")


def fake_a3_variants(o: Order) -> list[TraceLattice]:
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
    if disc_order == 0:
        raise ValueError("0 has no square class")
    # nonzero a and b share a square class iff a*b is a square: no factoring
    if not is_square(d_f * disc_order):
        return "excluded"
    return "not excluded by this criterion"
