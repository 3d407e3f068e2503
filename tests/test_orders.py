"""Orders, duals, primes above 2, and the odd determinant-4 lattices.

sympy's round_two is the independent oracle for maximal-order
discriminants, an exhaustive sublattice search (tests/oracles.py) for the
square root of the trace dual at small conductors, and a scan of all 2^n - 1
candidate ring maps O -> F_2 for the primes of index 2; everything else is
checked against frozen hand values and the index-discriminant law
disc(suborder) = index^2 * disc(order).  The rank-n orders are checked on
Z[zeta_n] against the known |disc Q(zeta_n)| = 5^3, 7^5, 3^9, and their
primes above 2 against the Dedekind-Kummer count.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, QQ
from sympy.abc import x as _x
from sympy.polys.numberfields.basis import round_two

from oracles import index_two_primes_by_scan, same_lattice, sqrt_dual_by_search
from tracelattice._intfactor import an_exclusion, is_square, squarefree_kernel
from tracelattice.cyclotomic_ideals import cyc_field
from tracelattice.errors import (
    NotFound,
    NotMaximal,
    Reducible,
    TwoInert,
)
from tracelattice.exact_linalg import Matrix, det, inverse
from tracelattice.lattice_core import (
    canonical_key,
    classify_root_type,
    disc_group,
    dual,
    galois_stable,
    odd_trace_witness,
)
from tracelattice.orders_ideals import (
    IdealLattice,
    Order,
    different_inverse,
    equation_order,
    fake_a3,
    fake_a3_variants,
    is_maximal,
    maximal_order,
    module_product,
    primes_above_2,
    sqrt_different_inverse,
    _enlarge_at,
    _make_ideal,
    _mul_mod,
    _nullspace_mod,
    _p_radical,
)
from tracelattice.shanks_field import new_field

F = Fraction


def _in_family(t) -> bool:
    try:
        new_field(t)
        return True
    except Reducible:
        return False


def _theta_minpoly_disc_oracle(t: Fraction) -> int:
    """disc of x^3 - p x^2 - q(p+3q) x - q^3 for theta = q*eps."""
    p, q = t.numerator, t.denominator
    return q * q * (p * p + 3 * p * q + 9 * q * q) ** 2


def _round_two_disc(t: Fraction) -> int:
    p, q = t.numerator, t.denominator
    poly = Poly(
        _x**3 - p * _x**2 - q * (p + 3 * q) * _x - q**3, _x, domain=QQ
    )
    _, dk = round_two(poly)
    return int(dk)


def _contains(outer: Matrix, inner: Matrix) -> bool:
    return (inner * inverse(outer)).is_integer()


def _rows(m: Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


# ---------------------------------------------------------------------------
# equation orders


def test_equation_order_frozen():
    assert equation_order(1).disc == 169
    assert equation_order(0).disc == 81
    eo = equation_order(F(1, 2))
    assert eo.disc == 7396  # 4 * 43^2
    assert eo.basis == Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 4]])


def test_equation_order_rejects_reducible_t():
    with pytest.raises(Reducible):
        equation_order(F(-3, 2))


@given(
    st.fractions(
        min_value=-12, max_value=12, max_denominator=6
    ).filter(_in_family)
)
@settings(max_examples=40, deadline=None)
def test_equation_order_disc_formula(t):
    assert equation_order(t).disc == _theta_minpoly_disc_oracle(F(t))


def test_order_constructor_enforces_closure():
    field = new_field(1)
    with pytest.raises(ValueError):
        Order(field, [[1, 0, 0], [0, F(1, 2), 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        Order(field, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
        ([[F(1, 2), 0, 0], [1, 0, 0], [0, 0, 0]], 1),
    ],
    ids=["rank0", "rank1"],
)
def test_order_constructor_reports_a_deficient_rank(rows, rank):
    with pytest.raises(ValueError, match=f"^span has rank {rank}, expected 3$"):
        Order(new_field(1), rows)


# ---------------------------------------------------------------------------
# maximalization


def test_maximalize_fixed_point_at_conductor_nine():
    eo = equation_order(0)
    assert eo.disc == 81 and maximal_order(eo) == eo


def test_maximalize_strips_even_index():
    eo = equation_order(F(1, 2))
    assert eo.disc == 4 * 1849 and maximal_order(eo).disc == 1849


@pytest.mark.parametrize(
    "t,dk",
    [
        (F(1), 169),
        (F(0), 81),
        (F(2), 361),
        (F(3), 81),
        (F(5), 49),
        (F(1, 2), 1849),
    ],
)
def test_maximal_order_frozen_discs(t, dk):
    assert maximal_order(equation_order(t)).disc == dk


@pytest.mark.parametrize(
    "t", [F(1), F(3), F(1, 2), F(2, 3), F(-5, 4), F(7, 3), F(11, 5)]
)
def test_maximal_order_matches_round_two(t):
    assert maximal_order(equation_order(t)).disc == _round_two_disc(t)


@given(
    st.fractions(
        min_value=-10, max_value=10, max_denominator=5
    ).filter(_in_family)
)
@settings(max_examples=25, deadline=None)
def test_field_disc_is_square_and_index_law(t):
    eo = equation_order(t)
    mo = maximal_order(eo)
    assert is_square(mo.disc)
    index = det(eo.basis) / det(mo.basis)
    assert index.denominator == 1
    assert eo.disc == int(index) ** 2 * mo.disc
    assert _contains(mo.basis, eo.basis)


def test_is_maximal_predicate(call_counts):
    # the answer is kept on the order, and the climb records it on the order
    # it returns, so neither runs an idealizer step again
    eo = equation_order(F(1, 2))
    assert call_counts([_enlarge_at], is_maximal, eo) == (False, 1)
    assert call_counts([_enlarge_at], is_maximal, eo) == (False, 0)
    assert call_counts([_enlarge_at], is_maximal, maximal_order(eo)) == (True, 0)


# ---------------------------------------------------------------------------
# the trace dual and its square root


@pytest.mark.parametrize("t", [F(0), F(1), F(2)])
def test_different_inverse_index_is_field_disc(t):
    mo = maximal_order(equation_order(t))
    d = different_inverse(mo)
    assert det(mo.basis) / det(d.basis) == mo.disc
    assert _contains(d.basis, mo.basis)


def test_different_inverse_trace_pairs_integral():
    mo = maximal_order(equation_order(F(1, 2)))
    d = different_inverse(mo)
    for i in range(3):
        for j in range(3):
            prod = mo.ambient.mul_coords(d.basis.row(i), mo.basis.row(j))
            tr = mo.ambient.trace_coords(prod)
            assert tr.denominator == 1


def test_different_inverse_requires_maximal():
    with pytest.raises(NotMaximal):
        different_inverse(equation_order(F(1, 2)))
    with pytest.raises(NotMaximal):
        different_inverse(equation_order(F(7, 3)))


@pytest.mark.parametrize("t", [F(0), F(1, 2)])
def test_sqrt_different_inverse_squares_to_the_dual(t):
    mo = maximal_order(equation_order(t))
    d = different_inverse(mo)
    c = sqrt_different_inverse(mo)
    assert module_product(c, c).basis == d.basis
    # sandwiched between the order and the dual, index = conductor each side
    assert _contains(c.basis, mo.basis)
    assert _contains(d.basis, c.basis)
    m = det(mo.basis) / det(c.basis)
    assert m * m == mo.disc


@pytest.mark.parametrize("t", [F(0), F(1, 2)])
def test_sqrt_different_inverse_unimodular_odd(t):
    c = sqrt_different_inverse(maximal_order(equation_order(t))).lattice()
    assert det(c.gram) == 1
    assert classify_root_type(c) == "unimodular_odd"


@pytest.mark.parametrize(
    "t", [F(0), F(1), F(2), F(-5), F(1, 2), F(-1, 2), F(4), F(3, 2)]
)
def test_sqrt_different_inverse_matches_search_oracle(t):
    # conductors 9, 13, 19, 19, 43, 31, 37, 63: wild only, tame only, both
    mo = maximal_order(equation_order(t))
    d = different_inverse(mo)
    hits = sqrt_dual_by_search(t, _rows(mo.basis), _rows(d.basis))
    assert len(hits) == 1
    assert same_lattice(hits[0], _rows(sqrt_different_inverse(mo).basis))


@pytest.mark.parametrize("t,m", [(F(13), 217), (F(9, 2), 171)])
def test_sqrt_different_inverse_large_conductors(t, m):
    # 217 = 7 * 31 and 171 = 9 * 19: conductors an index-m search cannot reach
    mo = maximal_order(equation_order(t))
    assert mo.disc == m * m
    d = different_inverse(mo)
    c = sqrt_different_inverse(mo)
    assert module_product(c, c).basis == d.basis
    assert _contains(c.basis, mo.basis) and _contains(d.basis, c.basis)
    assert det(mo.basis) / det(c.basis) == m
    assert det(c.basis) / det(d.basis) == m
    assert classify_root_type(c.lattice()) == "unimodular_odd"


@pytest.mark.parametrize(
    "n,reason",
    [
        # disc Z[zeta_5] = 5^3
        (5, "not a square"),
        # disc Z[zeta_12] = 2^4 3^2 is a square, but 3 = P^2 with P of index
        # 9, so the different exponent at 3 is 1, which is odd
        (12, "does not square to the trace dual"),
    ],
)
def test_sqrt_different_inverse_not_found(n, reason):
    o = Order(cyc_field(n), Matrix.identity(4))
    with pytest.raises(NotFound, match=reason):
        sqrt_different_inverse(o)


# ---------------------------------------------------------------------------
# primes above 2


def test_two_splits_with_even_denominator():
    mo = maximal_order(equation_order(F(1, 2)))
    primes = primes_above_2(mo)
    assert len(primes) == 3
    keys = {canonical_key(p.lattice()) for p in primes}
    assert len(keys) == 3
    for p in primes:
        assert det(mo.basis) / det(p.basis) == F(1, 2)  # index 2 over Z_F


@pytest.mark.parametrize("t", [F(1), F(0)])
def test_two_inert_for_two_adic_integer_t(t):
    mo = maximal_order(equation_order(t))
    primes = primes_above_2(mo)
    assert len(primes) == 1
    doubled = Matrix([[2 * x for x in mo.basis.row(i)] for i in range(3)])
    assert primes[0].basis == doubled


def test_primes_above_2_deterministic_order():
    mo = maximal_order(equation_order(F(1, 2)))
    a = [p.basis for p in primes_above_2(mo)]
    b = [p.basis for p in primes_above_2(mo)]
    assert a == b


def test_primes_above_2_cannot_be_changed_through_the_returned_list():
    mo = maximal_order(equation_order(F(1, 2)))
    first = primes_above_2(mo)
    expected = list(first)
    first.reverse()
    first.pop()
    first.append(sqrt_different_inverse(mo))
    assert primes_above_2(mo) == expected
    assert primes_above_2(mo) is not primes_above_2(mo)


# ---------------------------------------------------------------------------
# rank n: the cyclotomic orders Z[zeta_n], of rank phi(n)


def _diagonal_order(n, diagonal):
    field = cyc_field(n)
    rank = field.degree
    return Order(field, [[d * int(i == j) for j in range(rank)] for i, d in enumerate(diagonal)])


@pytest.mark.parametrize("n,disc", [(5, 125), (7, 16807), (9, 19683)])
def test_cyclotomic_integers_are_maximal(n, disc):
    # |disc Q(zeta_n)|: 5^3, 7^5 and 3^9
    o = Order(cyc_field(n), Matrix.identity(cyc_field(n).degree))
    assert o.disc == disc
    assert is_maximal(o)


@pytest.mark.parametrize("n,p", [(5, 2), (5, 5), (7, 2), (7, 7), (9, 2), (9, 3)])
def test_suborders_maximalize_to_cyclotomic_integers(n, p):
    rank = cyc_field(n).degree
    identity = Matrix.identity(rank)
    maximal = Order(cyc_field(n), identity).disc
    # Z + p Z[zeta] has index p^(rank-1), Z[p zeta] index p^(0+1+...+rank-1)
    for o, index in (
        (_diagonal_order(n, [1] + [p] * (rank - 1)), p ** (rank - 1)),
        (_diagonal_order(n, [p**i for i in range(rank)]), p ** (rank * (rank - 1) // 2)),
    ):
        assert o.disc == index**2 * maximal
        assert not is_maximal(o)
        assert maximal_order(o).basis == identity


def test_climb_from_a_maximal_order_returns_an_equal_order(call_counts):
    # Z[zeta_7] is maximal: the climb's one step, at 7, is a fixed point,
    # and the order it returns is recorded as maximal
    o = Order(cyc_field(7), Matrix.identity(6))
    mo, steps = call_counts([_enlarge_at], maximal_order, Order(cyc_field(7), o.basis))
    assert mo == o and steps == 1
    assert call_counts([_enlarge_at], is_maximal, mo) == (True, 0)


def test_p_radical_of_wild_prime_at_rank_six():
    # 3 Z[zeta_9] = P^6 with P = (1 - zeta_9) of index 3; x -> x^3 alone
    # would leave P^2, of index 9
    o = Order(cyc_field(9), Matrix.identity(6))
    assert det(_p_radical(o, 3)) == 3


def _order_of_2(n: int) -> int:
    f, power = 1, 2 % n
    while power != 1:
        f, power = f + 1, power * 2 % n
    return f


@pytest.mark.parametrize("n", [7, 9, 11, 15, 17, 21, 31])
def test_primes_above_2_in_cyclotomic_integers(n):
    # Dedekind-Kummer: for odd n, 2 Z[zeta_n] is a product of phi(n)/f
    # distinct primes of index 2^f, f the order of 2 mod n; f = phi(n) at
    # n = 9 and 11, where 2 is inert
    phi = sum(math.gcd(k, n) == 1 for k in range(1, n))
    f = _order_of_2(n)
    o = Order(cyc_field(n), Matrix.identity(phi))
    primes = primes_above_2(o)
    assert len(primes) == phi // f
    assert all(det(p.basis) == 2**f for p in primes)
    product = primes[0]
    for p in primes[1:]:
        product = module_product(product, p)
    assert product.basis == o.basis * 2


def test_primes_above_2_work_at_rank_30(call_counts):
    # Z[zeta_31], n = 30 and g = 6: the squaring map takes n products, the
    # split of 1 at most 2g and each prime's multiplication map n; one
    # nullspace for the kernels of squaring and of squaring - 1, one per prime
    o = Order(cyc_field(31), Matrix.identity(30))
    primes, products, nullspaces = call_counts([_mul_mod, _nullspace_mod], primes_above_2, o)
    assert len(primes) == 6 and all(det(p.basis) == 2**5 for p in primes)
    assert products <= 30 * (6 + 2) and nullspaces == 6 + 2


@pytest.mark.parametrize(
    "o",
    [
        # 2 ramifies in Z[i], (1 + i)^2 = 2i, and totally in Z[zeta_8]
        Order(cyc_field(4), Matrix.identity(2)),
        Order(cyc_field(8), Matrix.identity(4)),
        # 2 divides the index of Z[2 eps] in the maximal order
        equation_order(F(1, 2)),
    ],
    ids=["Z[i]", "Z[zeta_8]", "t=1/2"],
)
def test_primes_above_2_needs_o_mod_2_reduced(o):
    with pytest.raises(NotFound, match="not reduced"):
        primes_above_2(o)


def test_primes_above_2_match_the_ring_map_scan():
    # where 2 splits its primes are the kernels of the three ring maps
    # O -> F_2; where it is inert there is none, and the one prime is 2 O
    split = inert = 0
    for t in {F(a, b) for a in range(-6, 7) for b in (1, 2, 4)}:
        if not _in_family(t):
            continue
        mo = maximal_order(equation_order(t))
        scanned = index_two_primes_by_scan(mo.table, _rows(mo.basis))
        primes = primes_above_2(mo)
        if scanned:
            split += 1
            assert len(primes) == len(scanned) == 3
            for p in primes:
                assert sum(same_lattice(_rows(p.basis), q) for q in scanned) == 1
        else:
            inert += 1
            assert [p.basis for p in primes] == [mo.basis * 2]
    assert split and inert


def test_rank_four_constructor_enforces_closure():
    field = cyc_field(5)
    with pytest.raises(ValueError, match="closed"):
        Order(field, [[1, 0, 0, 0], [0, F(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert Order(field, Matrix.identity(4)).table[1][1] == (0, 0, 1, 0)


# ---------------------------------------------------------------------------
# the odd determinant-4 lattices


def test_fake_a3_certificates():
    lam = fake_a3(maximal_order(equation_order(F(1, 2))))
    assert odd_trace_witness(lam) is not None
    assert disc_group(lam) == (1, 1, 4)
    assert classify_root_type(lam) == "diag114"
    assert not galois_stable(lam)
    assert lam.type_tag == "diag114"


def test_fake_a3_dual_also_not_stable():
    lam = fake_a3(maximal_order(equation_order(F(1, 2))))
    assert not galois_stable(dual(lam))


def test_fake_a3_three_distinct_variants_all_odd():
    variants = fake_a3_variants(maximal_order(equation_order(F(1, 2))))
    assert len({canonical_key(v) for v in variants}) == 3
    for v in variants:
        assert odd_trace_witness(v) is not None
        assert classify_root_type(v) == "diag114"


def test_fake_a3_rejects_inert_two():
    with pytest.raises(TwoInert):
        fake_a3(maximal_order(equation_order(1)))
    with pytest.raises(TwoInert):
        fake_a3_variants(maximal_order(equation_order(1)))


def test_ideal_stability_enforced():
    mo = maximal_order(equation_order(1))
    with pytest.raises(ValueError):
        _make_ideal(mo, [[F(1, 3), 0, 0], [0, 1, 0], [0, 0, 1]])


def test_module_product_commutes():
    mo = maximal_order(equation_order(F(1, 2)))
    a = primes_above_2(mo)[0]
    b = sqrt_different_inverse(mo)
    assert module_product(a, b).basis == module_product(b, a).basis


# ---------------------------------------------------------------------------
# the square-class exclusion


def test_an_exclusion_verdicts():
    assert an_exclusion(169, 4) == "not excluded by this criterion"
    assert an_exclusion(229, 4) == "excluded"
    assert an_exclusion(81, 5) == "excluded"
    assert an_exclusion(49, 4) == "not excluded by this criterion"
    assert an_exclusion(12, 3) == "not excluded by this criterion"
    assert an_exclusion(229, 229) == "not excluded by this criterion"
    # (10^18 + 3)(10^18 + 9): compared without factoring
    p, q = 10**18 + 3, 10**18 + 9
    assert an_exclusion(p * q, 5) == "excluded"
    assert an_exclusion(-p * q, p * q) == "excluded"
    assert an_exclusion(5 * p * p, 20) == "not excluded by this criterion"


def test_an_exclusion_rejects_zero():
    with pytest.raises(ValueError):
        an_exclusion(0, 4)
    with pytest.raises(ValueError):
        an_exclusion(5, 0)


nonzero = st.integers(-10**4, 10**4).filter(bool)


@settings(max_examples=300, deadline=None)
@given(nonzero, nonzero)
def test_an_exclusion_compares_squarefree_kernels(a, b):
    same = squarefree_kernel(a) == squarefree_kernel(b)
    assert an_exclusion(a, b) == ("not excluded by this criterion" if same else "excluded")
