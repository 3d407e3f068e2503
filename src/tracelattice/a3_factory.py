"""Families of normal-basis lattices in the cyclic cubic fields.

An element beta = lam0*eps + lam1*eps^sigma + lam2*eps^sigma2 together with
its two conjugates spans a lattice whose Gram matrix is the circulant
[[d,e,e],[e,d,e],[e,e,d]], where d = Tr(beta^2) and e = Tr(beta*beta^sigma)
depend only on the symmetric functions of lam:

    d = (t^2 + 2t + 6) L^2 - 2 delta Q        L = lam0 + lam1 + lam2
    e = -(t + 3) L^2 + delta Q                Q = sum of pairwise products

Prescribing a target (d, e, f) with f^2 = d + 2e turns the two equations
into a conic: rational points (x, y) on x^2 + 3y^2 = (d - e) delta map to
solutions lam, with x carrying lam0 and y splitting lam1 from lam2.  Two
targets matter here: (2, 1, 2) makes the circulant the base-change image of
the standard A3 Gram, and (1, 0, 1) makes it the identity, so sweeping chords
through the fixed base point manufactures infinitely many distinct lattices
of either kind, every one carrying a normal basis by construction.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .conic_points import (
    ConicPoint,
    _chord_base,
    _chord_ints,
    _slope_pairs,
    base_point_delta,
    delta_conic,
)
from .errors import (
    DegenerateLambda,
    DependentBasis,
    PointNotOnConic,
    WrongGram,
    ZeroParameter,
    number_text,
)
from .exact_linalg import Matrix, _reduced, det, rat
from .lattice_core import (
    TraceLattice,
    canonical_key,
    classify_root_type,
)
from .shanks_field import ShanksField, new_field

LambdaVector = tuple[Fraction, Fraction, Fraction]

#: Gram of the normal A3 basis and the standard A3 Gram it base-changes to
NORMAL_A3_GRAM = Matrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
STANDARD_A3_GRAM = Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
#: unimodular P with P * NORMAL_A3_GRAM * P^T = STANDARD_A3_GRAM, checked
#: once here: a basis with the normal Gram goes to one with the standard Gram,
#: and since P is integral with det 1, P B spans the same lattice as B
_NORMAL_TO_STANDARD = Matrix.from_rows([[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
assert (
    _NORMAL_TO_STANDARD * NORMAL_A3_GRAM * _NORMAL_TO_STANDARD.transpose()
    == STANDARD_A3_GRAM
)
assert _NORMAL_TO_STANDARD.is_integer() and det(_NORMAL_TO_STANDARD) == 1
_IDENTITY_3 = Matrix.identity(3)


class TraceTarget(NamedTuple):
    """Prescribed values d = Tr(beta^2), e = Tr(beta beta^sigma), and
    f = Tr(beta) up to sign; consistent iff f^2 = d + 2e."""

    d: Fraction
    e: Fraction
    f: Fraction

    def is_consistent(self) -> bool:
        return self.f * self.f == self.d + 2 * self.e


TARGET_A3 = TraceTarget(Fraction(2), Fraction(1), Fraction(2))
TARGET_SELF_DUAL = TraceTarget(Fraction(1), Fraction(0), Fraction(1))


def lq(lam) -> tuple[Fraction, Fraction]:
    """The two symmetric functions L = sum, Q = sum of pairwise products."""
    l0, l1, l2 = (rat(v) for v in lam)
    return (l0 + l1 + l2, l0 * l1 + l0 * l2 + l1 * l2)


def trace_targets_of(t, lam) -> tuple[Fraction, Fraction]:
    """(d, e) of the normal-basis element with weights lam, in closed form."""
    t = rat(t)
    if t == 0:
        raise ZeroParameter(
            "t = 0 divides the weight formulas; rebuild the field at the "
            "remapped parameter"
        )
    delta = t * t + 3 * t + 9
    big_l, big_q = lq(lam)
    d = (t * t + 2 * t + 6) * big_l * big_l - 2 * delta * big_q
    e = -(t + 3) * big_l * big_l + delta * big_q
    return (d, e)


def lambda_from_point(t, target: TraceTarget, point: ConicPoint) -> LambdaVector:
    """Weights lam realizing the target, from a rational point (x, y) on
    x^2 + 3y^2 = (d - e) delta_t.

    lam0 = (2tx/delta + f) / 3t, and lam1, lam2 split off y; lam1 always
    takes the + branch so output is deterministic (the - choice relabels
    the same normal basis).  The arithmetic is _lambda_ints on the point's
    integer coordinates over their common denominator."""
    t = rat(t)
    if t == 0:
        raise ZeroParameter("the weight recovery divides by t")
    d, e, f = (rat(v) for v in target)
    assert f * f == d + 2 * e, "inconsistent target: f^2 != d + 2e"
    x, y = point.as_pair()
    m = lcm(x.denominator, y.denominator)
    big_x, big_y = (v.numerator * (m // v.denominator) for v in (x, y))
    *nums, big_r = _lambda_ints(t.numerator, t.denominator, (d, e, f), big_x, big_y, m)
    return tuple(Fraction(n, big_r) for n in nums)


def _lambda_ints(
    p: int, q: int, target: TraceTarget, big_x: int, big_y: int, m: int
) -> tuple[int, int, int, int]:
    """(N0, N1, N2, R) with lam = (N0, N1, N2) / R the weights of
    lambda_from_point at t = p/q (p != 0, q > 0) for the point (X, Y)/m,
    m > 0 and not necessarily in lowest terms; R > 0 and the four are
    coprime, so equal weight vectors give equal tuples.

    With D = q^2 delta = p^2 + 3pq + 9q^2 and f = F/m (m scaled first so
    that it clears f), the three weights share one denominator:
    lam_i = q n_i / (3pDm) with

        n0 = FD + 2pqX,   n1 = FD - pqX + 3pqY,   n2 = FD - pqX - 3pqY,

    so the conic check, the residual discriminant and the final target
    check all run in int on (X, Y, F) and the n_i.  3pDm has the sign of
    p, which the reduction to R > 0 takes out."""
    d, e, f = target
    big_d = p * p + 3 * p * q + 9 * q * q
    f_den = f.denominator
    if m % f_den:
        k = f_den // gcd(m, f_den)
        big_x, big_y, m = big_x * k, big_y * k, m * k
    big_f = f.numerator * (m // f_den)
    # c = d - e as cn / cd, not in lowest terms: the check is homogeneous
    cn = d.numerator * e.denominator - e.numerator * d.denominator
    cd = d.denominator * e.denominator
    if cd * q * q * (big_x * big_x + 3 * big_y * big_y) != cn * big_d * m * m:
        t = Fraction(p, q)
        raise PointNotOnConic(
            f"({number_text(Fraction(big_x, m))}, {number_text(Fraction(big_y, m))}) "
            f"is not on x^2 + 3y^2 = {number_text((d - e) * (t * t + 3 * t + 9))}"
        )
    pq = p * q
    fd = big_f * big_d
    n0 = fd + 2 * pq * big_x
    n1 = fd - pq * big_x + 3 * pq * big_y
    n2 = fd - pq * big_x - 3 * pq * big_y
    # the discriminant of the residual quadratic in lam1, recomputed from
    # lam0 (3t lam0 - f = (n0 - FD)/Dm) and matched against (2ty/delta)^2,
    # all over 3 D^2 m^2 e.denominator
    r = n0 - fd
    assert e.denominator * (
        4 * p * p * big_d * big_f * big_f - r * r - 12 * pq * pq * big_y * big_y
    ) == 12 * p * p * big_d * e.numerator * m * m
    # trace_targets_of on lam = q n / R: both sides over R^2
    big_r = 3 * p * big_d * m
    big_l = n0 + n1 + n2
    big_q = n0 * n1 + n0 * n2 + n1 * n2
    r2 = big_r * big_r
    assert d.denominator * (
        (p * p + 2 * pq + 6 * q * q) * big_l * big_l - 2 * big_d * big_q
    ) == d.numerator * r2
    assert e.denominator * (
        big_d * big_q - q * (p + 3 * q) * big_l * big_l
    ) == e.numerator * r2
    n0, n1, n2 = q * n0, q * n1, q * n2
    g = gcd(n0, n1, n2, big_r)
    if big_r < 0:
        g = -g
    return n0 // g, n1 // g, n2 // g, big_r // g


def _circulant(a, b, c) -> list[list]:
    """The rows of the circulant with first row (a, b, c), each row shifted
    right."""
    return [[a, b, c], [c, a, b], [b, c, a]]


def _circulant_gram(d, e) -> Matrix:
    """The circulant Gram [[d,e,e],[e,d,e],[e,e,d]] of a normal basis."""
    return Matrix(_circulant(d, e, e))


def normal_basis_lattice(t, lam, gram: Matrix | None = None) -> TraceLattice:
    """Lattice spanned by the sigma-orbit of beta = <lam, eps-orbit>.

    sigma shifts the weights, beta^sigma = <(lam2, lam0, lam1), eps-orbit>,
    so the basis (beta, beta^sigma, beta^sigma2) is one product: the
    circulant of lam, as integer rows over lam's common denominator, times
    the field's orbit_matrix (_orbit_lattice).  The Gram is the circulant of
    (d, e, e) by the Galois symmetry, and the computed Gram must equal it
    exactly; raises DegenerateLambda when the three conjugates are linearly
    dependent and ZeroParameter at t = 0, where the eps-orbit is no basis.
    gram is that circulant when the caller has already certified (d, e) for
    lam (lambda_from_point); by default it is built from trace_targets_of."""
    field = new_field(t)
    if field.t == 0:
        raise ZeroParameter()
    if gram is None:
        gram = _circulant_gram(*trace_targets_of(t, lam))
    weights = Matrix([lam])
    return _orbit_lattice(field, weights.ints[0], weights.den, gram)


def _orbit_lattice(
    field: ShanksField, nums: tuple[int, int, int], den: int, gram: Matrix
) -> TraceLattice:
    """normal_basis_lattice for lam = nums / den (ints, den > 0) in the field
    at t != 0, with gram the circulant certified for lam: the circulant of
    nums times the integer rows of orbit_matrix, over den times its
    denominator, brought to lowest terms once.  scan_family calls it on the
    (N, R) of _lambda_ints."""
    orbit = field.orbit_matrix
    o0, o1, o2 = orbit.ints
    basis = _reduced(
        tuple(
            tuple([u * x + v * y + w * z for x, y, z in zip(o0, o1, o2)])
            for u, v, w in _circulant(*nums)
        ),
        den * orbit.den,
    )
    try:
        lattice = TraceLattice(field, basis)
    except DependentBasis as exc:
        raise DegenerateLambda(
            "conjugates of the weighted element are dependent for lam = "
            f"({', '.join(number_text(Fraction(v, den)) for v in nums)})"
        ) from exc
    assert lattice.gram == gram, "orbit Gram must be circulant in (d, e)"
    return lattice


def sigma_permutes_basis(lattice: TraceLattice) -> bool:
    """True iff the Galois generator sigma maps basis row i to row i + 1
    (mod 3): the basis is (beta, beta^sigma, beta^sigma2), a normal Z-basis
    of the lattice.  With B = B'/b and sigma's matrix S = S'/s, that is the
    integer identity B' S' = s (rows 1, 2, 0 of B').  It implies Galois
    stability, since sigma generates the group and carries the basis onto
    itself."""
    s = lattice.ambient.galois_matrices()[0]
    s0, s1, s2 = s.ints
    scale = s.den
    b = lattice.basis.ints
    return all(
        [u * x + v * y + w * z for x, y, z in zip(s0, s1, s2)] == [scale * c for c in image]
        for (u, v, w), image in zip(b, b[1:] + b[:1])
    )


def to_a3_basis(lattice: TraceLattice) -> TraceLattice:
    """Base change from the normal-basis Gram to the standard A3 Gram.

    The new basis spans the same lattice (the transform is unimodular); that
    is checked against the lattice's canonical_key, kept on the lattice once
    computed.  The new Gram is P G P^T, which for the normal A3 Gram G is
    the standard A3 Gram (checked once, where P is defined)."""
    if lattice.gram != NORMAL_A3_GRAM:
        raise WrongGram(
            "expected the normal A3 Gram [[2,1,1],[1,2,1],[1,1,2]], got "
            f"{lattice.gram!r}"
        )
    out = TraceLattice(
        lattice.ambient, _NORMAL_TO_STANDARD * lattice.basis, STANDARD_A3_GRAM, "A3"
    )
    assert canonical_key(out) == canonical_key(lattice)
    return out


def identity_to_a3_transform() -> Matrix:
    """The 0/1 circulant with zero diagonal carries the identity Gram to the
    normal A3 Gram: M I M^T = [[2,1,1],[1,2,1],[1,1,2]] exactly.  So every
    self-dual member doubles into an A3 member over the same field."""
    m = Matrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert m * m.transpose() == NORMAL_A3_GRAM
    return m


class FamilyMember(NamedTuple):
    lattice: TraceLattice
    lam: LambdaVector
    point: ConicPoint
    slope: Optional[Fraction]


class FamilyScan(NamedTuple):
    members: list[FamilyMember]
    skipped: int


def scan_family(t, height: int, target: TraceTarget = TARGET_A3) -> FamilyScan:
    """Sweep chords up to the slope height and collect the pairwise-distinct
    certified lattices for a preset target.

    Each slope gives its own chord point (two lines through p0 meet the
    conic again in two points).  From slope to basis the sweep runs in int:
    p0 is checked on the conic once, each point is (X, Y)/M from
    _chord_ints, and its weights are (N0, N1, N2)/R from _lambda_ints, with
    its conic and target checks, in lowest terms with R > 0.  sigma shifts
    the weights, so lam and its two cyclic shifts span one sigma-orbit
    lattice with the rows rotated: a point whose (N, R) is a shift of an
    earlier lattice's is passed over before its basis, Gram or key is
    built, and about a third of the points are (98 of 320 at height 16).
    Every lattice built is still keyed by its HNF, and only a new key
    becomes a member, with its certificates; the member keeps its key for
    member_json.  The slope, the point and lam become Fractions for members
    only.

    Certificates per member: the integer conic check and the three target
    asserts of _lambda_ints; the exact Gram against the target's circulant
    Gram, which the sweep builds once (_orbit_lattice); the HNF key;
    the root type by classify_root_type; sigma permuting the basis
    (sigma_permutes_basis), the normal Z-basis itself, which implies Galois
    stability.  The self-dual target also asserts the identity Gram, which
    is self-duality itself: with G = I the dual basis G^-1 B is B.  Once per
    import: P G P^T equals the standard A3 Gram and P is integral with det
    1, so to_a3_basis of an A3 member has the standard Gram and the member's
    key by construction, and the sweep does not build it.

    Degenerate weights are skipped with a log note and counted, never raised:
    the family stays infinite after finitely many exclusions.  A shift of
    degenerate weights is degenerate too, so each such point counts."""
    t = rat(t)
    if t == 0:
        raise ZeroParameter("the family needs t != 0")
    assert target.is_consistent(), "inconsistent target: f^2 != d + 2e"
    assert target.d - target.e == 1, "preset targets live on the delta conic"
    field = new_field(t)  # raises Reducible for the bad parameters
    p, q = t.numerator, t.denominator
    base = _chord_base(delta_conic(t), base_point_delta(t))
    gram = _circulant_gram(target.d, target.e)
    built: set = set()  # (least cyclic shift of N, R) of each lam built
    seen_keys: set = set()
    members: list[FamilyMember] = []
    skipped = 0
    for slope in _slope_pairs(height):
        x, y, m = _chord_ints(base, slope)
        n0, n1, n2, r = _lambda_ints(p, q, target, x, y, m)
        rotation = (min((n0, n1, n2), (n1, n2, n0), (n2, n0, n1)), r)
        if rotation in built:
            continue
        try:
            lattice = _orbit_lattice(field, (n0, n1, n2), r, gram)
        except DegenerateLambda:
            # imported here: no other path logs, and start-up pays for it
            import logging

            logging.getLogger(__name__).info(
                "skipping degenerate weights lam=%s at point %s (t=%s)",
                tuple(Fraction(n, r) for n in (n0, n1, n2)),
                ConicPoint(Fraction(x, m), Fraction(y, m)), t,
            )
            skipped += 1
            continue
        built.add(rotation)
        key = canonical_key(lattice)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        label = classify_root_type(lattice)
        if target == TARGET_A3:
            assert label == "A3"
        else:
            assert lattice.gram == _IDENTITY_3, "L must equal its dual"
            assert label == "unimodular_odd"
        assert sigma_permutes_basis(lattice)
        members.append(
            FamilyMember(
                lattice.with_type(label),
                (Fraction(n0, r), Fraction(n1, r), Fraction(n2, r)),
                ConicPoint(Fraction(x, m), Fraction(y, m)),
                None if slope is None else Fraction(*slope),
            )
        )
    return FamilyScan(members, skipped)


def self_dual_family(t, height: int) -> list[TraceLattice]:
    """The distinct self-dual (identity Gram) lattices up to the slope height."""
    identity_to_a3_transform()
    scan = scan_family(t, height, TARGET_SELF_DUAL)
    return [m.lattice for m in scan.members]
