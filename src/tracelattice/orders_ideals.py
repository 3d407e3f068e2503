"""Orders and fractional ideals in a number field of any degree n.

An Order is a multiplication-closed rank-n lattice containing 1 in a
PowerBasisField of degree n, kept in canonical Hermite form.  Its integer
structure constants c_ijk, o_i o_j = sum_k c_ijk o_k, are computed once:
their integrality certifies closure, and all arithmetic of O/pO reads them.
Every basis is the canonical one hnf_basis gives, and every "is this row
in the Z-span of that basis, and with which coefficients?" is span_coords
against it, no inverse; the products of two bases come from
PowerBasisField.products, in int.

maximal_order(o) climbs from any order by repeated p-enlargement
(Pohst-Zassenhaus; Cohen, GTM 138, Sec. 6.1): the p-radical of O/pO is the
kernel of the linearized Frobenius iterate x -> x^(p^e) with p^e >= n
(square-and-multiply, so a large p costs O(log p) products), its preimage J
is an O-ideal, and the idealizer {x : xJ <= J} strictly contains O exactly
when O is not p-maximal.  Each step is a mod-p nullspace computation, so
the whole climb is exact integer linear algebra, and the order it returns
records that it is maximal.  The trace dual D^-1, the primes above 2 (from
the primitive idempotents of O/2O) and, in a Galois field of odd degree,
the square root of D^-1 (D^-1 times powers of p-radicals, certified by
squaring) work at any n.

Cubic only, as their mathematics is: equation_order(t) takes the Shanks
parameter; fake_a3 multiplies a prime above 2 into the root.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from ._intfactor import factor, is_square
from .errors import DependentBasis, NotFound, NotMaximal, TwoInert, number_text
from .exact_linalg import Matrix, det, hnf_basis, hnf_coords, span_coords
from .lattice_core import (
    TraceLattice,
    classify_root_type,
    disc_group,
    dual,
    galois_stable,
    gram_of,
    odd_trace_witness,
)
from .power_basis import PowerBasisField
from .shanks_field import new_field

F = Fraction


class Order:
    """A multiplication-closed rank-n lattice containing 1 in a
    PowerBasisField of degree n, with its trace Gram, its discriminant and
    its structure constants: table[i][j] holds the integer coordinates of
    o_i * o_j.  The basis is kept in canonical Hermite form.  The
    factorization of the discriminant, whether the order is maximal, its
    p-radicals and the ideals derived from it (different_inverse,
    sqrt_different_inverse, primes_above_2) are computed on first use and
    kept; maximal_order fills the first two on the order it returns."""

    __slots__ = (
        "ambient", "basis", "gram", "disc", "table",
        "_factors", "_maximal", "_radicals", "_dinv", "_root", "_primes2",
    )

    def __init__(self, ambient: PowerBasisField, basis: Matrix | Sequence):
        n = ambient.degree
        try:
            rows = hnf_basis(basis)
        except DependentBasis as exc:
            raise ValueError(str(exc)) from None
        if span_coords(rows, Matrix([ambient.one()])) is None:
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
        for slot in ("_factors", "_maximal", "_radicals", "_dinv", "_root", "_primes2"):
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
    basis = hnf_basis(rows)
    if span_coords(basis, order.ambient.products(basis, order.basis)) is None:
        raise ValueError("module is not stable under the order")
    return IdealLattice(order, basis)


def module_product(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    """The ideal generated by all pairwise basis products."""
    return _make_ideal(a.order, a.order.ambient.products(a.basis, b.basis))


def equation_order(t) -> Order:
    """Z[theta] for theta = q * eps, the least positive multiple of eps with
    an integral minimal polynomial (q the denominator of t).  Its
    discriminant is a square, and maximal_order divides it by squares."""
    field = new_field(t)
    q = F(t).denominator
    o = Order(field, Matrix.from_rows([[1, 0, 0], [0, q, 0], [0, 0, q * q]]))
    assert is_square(o.disc)
    return o


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
    return hnf_basis(Matrix.scaled(_scalar_rows(n, p) + kernel))


def _radical(o: Order, p: int) -> Matrix:
    """_p_radical(o, p), kept on the order by p for the climb and the root."""
    radicals = o._first_use("_radicals", lambda o: {})
    if p not in radicals:
        radicals[p] = _p_radical(o, p)
    return radicals[p]


def _enlarge_at(o: Order, p: int) -> Order | None:
    """One idealizer step: O' = {x : x J <= J} for J the p-radical ideal, or
    None when O' = O.

    With H the integer HNF of J in O-coordinates, o_m * j_k = sum_l H_kl c_ml
    is read against H; x = sum_m y_m o_m maps J into pJ exactly when those
    J-coordinates, weighted by y, vanish mod p, and then x / p is in O'.  The
    y in pO give O itself, and any y nonzero mod p gives an x / p outside O,
    so O' = O exactly when that kernel mod p is zero."""
    h = _radical(o, p).ints
    stacked = []
    for hk in h:
        block = [hnf_coords(h, [sum(map(mul, hk, c)) for c in zip(*cm)]) for cm in o.table]
        assert None not in block  # J is an O-ideal
        stacked.extend(zip(*block))
    ys = _nullspace_mod(stacked, p, len(h))
    if not ys:
        return None
    # O' is spanned by the rows of (p I; Y) / p in O-coordinates
    return Order(o.ambient, Matrix.scaled(_scalar_rows(len(h), p) + ys, p) * o.basis)


def _disc_factors(o: Order) -> dict[int, int]:
    """The prime factorization of disc(O), in increasing primes, computed on
    first use and kept on the order."""
    return o._first_use("_factors", lambda o: factor(o.disc))


def _factor_over(n: int, primes) -> dict[int, int]:
    """The factorization of n, whose prime factors are all among primes."""
    out = {}
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out[p] = e
    assert n == 1, "a prime factor outside the given primes"
    return out


def maximal_order(o: Order) -> Order:
    """The maximal order over o: at every prime p whose square divides
    disc(o), enlarge until the idealizer step is a fixed point; each strict
    step divides the discriminant by an even power of p.  A step at q != p
    changes the index by a power of q only, so p-maximality survives it and
    the result is recorded as maximal.  disc(o) is the one number factored:
    the result's factorization is read off its primes and kept."""
    primes = _disc_factors(o)
    for p, e in primes.items():
        while e >= 2 and (bigger := _enlarge_at(o, p)) is not None:
            quot, rem = divmod(o.disc, bigger.disc)
            assert rem == 0 and is_square(quot) and quot % (p * p) == 0
            o = bigger
    o._first_use("_factors", lambda o: _factor_over(o.disc, primes))
    o._first_use("_maximal", lambda o: True)
    return o


def is_maximal(o: Order) -> bool:
    """True iff every idealizer step at a square-dividing prime is a fixed
    point; kept on the order, where maximal_order records it."""
    return o._first_use(
        "_maximal",
        lambda o: all(e < 2 or _enlarge_at(o, p) is None for p, e in _disc_factors(o).items()),
    )


def different_inverse(o: Order) -> IdealLattice:
    """The trace-dual of the maximal order, {x : Tr(x y) in Z for y in Z_F},
    computed on first use and kept on the order.

    The dual of any order is a module over it, so stability cannot witness
    maximality; non-maximal input is caught by is_maximal before the dual
    is taken."""
    return o._first_use("_dinv", _trace_dual)


def _trace_dual(o: Order) -> IdealLattice:
    if not is_maximal(o):
        raise NotMaximal(f"order of discriminant {number_text(o.disc)} is not maximal")
    d = dual(o.lattice())
    index = det(o.basis) / det(d.basis)
    assert abs(index) == o.disc
    return _make_ideal(o, d.basis)


def sqrt_different_inverse(o: Order) -> IdealLattice:
    """The ideal C with C^2 = D^-1, the trace dual of the maximal order,
    computed on first use and kept on the order.

    In a Galois field the primes above p share e, f and the different
    exponent d_p, so the p-part of the different is R_p^(d_p), R_p the
    p-radical, and d_p = v_p(disc O) / fg, where p^(fg) = [O : R_p] is the
    product of R_p's HNF pivots.  By Hilbert's formula d_p is even when the
    degree is odd (a cyclic cubic has d_p = 2 at tame p and 4 at p = 3), and
    C = D^-1 prod R_p^(d_p / 2), unique by ideal factorization.  C is
    certified by squaring it back to different_inverse(o) exactly, which
    rejects an odd d_p, and by containing O; NotFound when disc(O) is not a
    square or a certificate fails."""
    return o._first_use("_root", _radical_root)


def _radical_root(o: Order) -> IdealLattice:
    if not is_square(o.disc):
        raise NotFound(f"discriminant {number_text(o.disc)} is not a square")
    root = dinv = o._first_use("_dinv", _trace_dual)  # different_inverse(o), from its slot
    for p, v in _disc_factors(o).items():
        h = _radical(o, p)
        fg = sum(row[i] == p for i, row in enumerate(h.ints))
        rad = _make_ideal(o, h * o.basis)
        for _ in range(v // (2 * fg)):
            root = module_product(root, rad)
    if module_product(root, root).basis != dinv.basis:
        raise NotFound("the root does not square to the trace dual")
    if span_coords(root.basis, o.basis) is None:
        raise NotFound("the root does not contain the order")
    return root


def primes_above_2(o: Order) -> list[IdealLattice]:
    """The primes above 2 in HNF order, found on first use and kept on the
    order; each call returns a new list.  Squaring is F_2-linear on O/2O; a
    nonzero kernel means O/2O is not reduced (2 ramifies or divides the
    index of O) and raises NotFound.  Otherwise O/2O is a product of g
    fields F_(2^f), its squaring-fixed elements F_2^g are spanned by the
    primitive idempotents, and splitting 1 by a basis of them yields those
    idempotents e (Berlekamp 1967; Cohen, GTM 138, Sec. 6.2).  The prime of
    e is 2O + {a : ea = 0}, of index 2^f; when 2 is inert that is 2O."""
    return list(o._first_use("_primes2", _idempotent_primes))


def _idempotent_primes(o: Order) -> tuple[IdealLattice, ...]:
    table = o.table
    n = len(table)
    units = _scalar_rows(n, 1)
    # the matrix of x -> x^2 on O/2O, whose columns are the squares of the o_k
    square = list(zip(*(_mul_mod(table, u, u, 2) for u in units)))
    if _nullspace_mod(square, 2, n):
        raise NotFound("O/2O is not reduced: 2 ramifies or divides the index of the order")
    fixed = _nullspace_mod([[a - b for a, b in zip(r, u)] for r, u in zip(square, units)], 2, n)
    # 1 in O-coordinates may have entries other than 0 and 1; as an element
    # of O/2O it is reduced mod 2 like every other
    (one,) = span_coords(o.basis, Matrix([o.ambient.one()]))
    parts = [[x % 2 for x in one]]
    for b in fixed:
        split = [(e, _mul_mod(table, e, b, 2)) for e in parts]
        parts = [q for e, eb in split for q in (eb, [x ^ y for x, y in zip(e, eb)]) if any(q)]
    two, primes = _scalar_rows(n, 2), []
    for e in parts:
        times_e = list(zip(*(_mul_mod(table, e, u, 2) for u in units)))
        primes.append(hnf_basis(Matrix.scaled(two + _nullspace_mod(times_e, 2, n))))
    primes.sort(key=lambda h: h.ints)
    return tuple(_make_ideal(o, h * o.basis) for h in primes)


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
