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
from math import lcm
from typing import NamedTuple, Optional

from .conic_points import (
    ConicPoint,
    base_point_delta,
    delta_conic,
    second_intersection,
    slopes_up_to,
)
from .errors import (
    DegenerateLambda,
    DependentBasis,
    PointNotOnConic,
    WrongGram,
    ZeroParameter,
)
from .exact_linalg import Matrix, rat
from .lattice_core import (
    TraceLattice,
    canonical_key,
    classify_root_type,
    dual,
    galois_stable,
)
from .shanks_field import new_field

LambdaVector = tuple[Fraction, Fraction, Fraction]

#: Gram of the normal A3 basis and the standard A3 Gram it base-changes to
NORMAL_A3_GRAM = Matrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
STANDARD_A3_GRAM = Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
#: unimodular P with P * NORMAL_A3_GRAM * P^T = STANDARD_A3_GRAM, checked
#: once here: a basis with the normal Gram goes to one with the standard Gram
_NORMAL_TO_STANDARD = Matrix.from_rows([[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
assert (
    _NORMAL_TO_STANDARD * NORMAL_A3_GRAM * _NORMAL_TO_STANDARD.transpose()
    == STANDARD_A3_GRAM
)
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
    the same normal basis).

    With t = p/q, D = q^2 delta = p^2 + 3pq + 9q^2 and x, y, f = X/m, Y/m,
    F/m over their common denominator m, the three weights share one
    denominator: lam_i = q n_i / (3pDm) with

        n0 = FD + 2pqX,   n1 = FD - pqX + 3pqY,   n2 = FD - pqX - 3pqY,

    so the conic check, the residual discriminant and the final target
    check all run in int on (X, Y, F) and the n_i."""
    t = rat(t)
    if t == 0:
        raise ZeroParameter("the weight recovery divides by t")
    d, e, f = (rat(v) for v in target)
    assert f * f == d + 2 * e, "inconsistent target: f^2 != d + 2e"
    p, q = t.numerator, t.denominator
    big_d = p * p + 3 * p * q + 9 * q * q
    x, y = point.as_pair()
    m = lcm(x.denominator, y.denominator, f.denominator)
    big_x, big_y, big_f = (v.numerator * (m // v.denominator) for v in (x, y, f))
    c = d - e
    if c.denominator * q * q * (big_x * big_x + 3 * big_y * big_y) != (
        c.numerator * big_d * m * m
    ):
        raise PointNotOnConic(
            f"({x}, {y}) is not on x^2 + 3y^2 = {c * (t * t + 3 * t + 9)}"
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
    return (Fraction(q * n0, big_r), Fraction(q * n1, big_r), Fraction(q * n2, big_r))


def _circulant(a, b, c) -> list[list]:
    """The rows of the circulant with first row (a, b, c), each row shifted
    right."""
    return [[a, b, c], [c, a, b], [b, c, a]]


def normal_basis_lattice(t, lam, targets=None) -> TraceLattice:
    """Lattice spanned by the sigma-orbit of beta = <lam, eps-orbit>.

    sigma shifts the weights, beta^sigma = <(lam2, lam0, lam1), eps-orbit>,
    so the basis (beta, beta^sigma, beta^sigma2) is one product: the
    circulant of lam, as integer rows over lam's common denominator, times
    the field's orbit_matrix.  The Gram is the circulant of (d, e, e) by the
    Galois symmetry, compared as integer rows over one denominator with
    (d, e); raises DegenerateLambda
    when the three conjugates are linearly dependent and ZeroParameter at
    t = 0, where the eps-orbit is no basis.  targets is (d, e) when the
    caller has already certified it for lam (lambda_from_point); by default
    it is recomputed by trace_targets_of."""
    field = new_field(t)
    if field.t == 0:
        raise ZeroParameter()
    weights = Matrix([lam])
    try:
        lattice = TraceLattice(
            field,
            Matrix.scaled(_circulant(*weights.ints[0]), weights.den) * field.orbit_matrix,
        )
    except DependentBasis as exc:
        raise DegenerateLambda(
            f"conjugates of the weighted element are dependent for lam = {lam}"
        ) from exc
    expected = Matrix([trace_targets_of(t, lam) if targets is None else targets])
    (d, e), = expected.ints
    assert lattice.gram.den == expected.den and lattice.gram.ints == (
        (d, e, e), (e, d, e), (e, e, d)
    ), "orbit Gram must be circulant in (d, e)"
    return lattice


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
    lam0_denominator: int


class FamilyScan(NamedTuple):
    members: list[FamilyMember]
    skipped: int


def scan_family(t, height: int, target: TraceTarget = TARGET_A3) -> FamilyScan:
    """Sweep chords up to the slope height and collect the pairwise-distinct
    certified lattices for a preset target.

    Each slope gives its own chord point (two lines through p0 meet the
    conic again in two points) and lambda_from_point runs on every one.
    sigma shifts the weights, so lam and its two cyclic shifts span one
    sigma-orbit lattice with the rows rotated: a point whose lam is a shift
    of an earlier lattice's lam is passed over before its basis, Gram or
    key is built, and about a third of the points are.  Every lattice built
    is still keyed by its HNF, and only a new key becomes a member, with
    its certificates; the member keeps its key for member_json.

    Degenerate weights are skipped with a log note and counted, never raised:
    the family stays infinite after finitely many exclusions.  A shift of
    degenerate weights is degenerate too, so each such point counts."""
    t = rat(t)
    if t == 0:
        raise ZeroParameter("the family needs t != 0")
    assert target.d - target.e == 1, "preset targets live on the delta conic"
    field = new_field(t)  # raises Reducible for the bad parameters
    conic = delta_conic(t)
    p0 = base_point_delta(t)
    built: set[LambdaVector] = set()  # least cyclic shift of each lam built
    seen_keys: set = set()
    members: list[FamilyMember] = []
    skipped = 0
    for slope in slopes_up_to(height):
        point = second_intersection(conic, p0, slope)
        lam = lambda_from_point(t, target, point)
        rotation = min(lam, lam[1:] + lam[:1], lam[2:] + lam[:2])
        if rotation in built:
            continue
        try:
            lattice = normal_basis_lattice(t, lam, (target.d, target.e))
        except DegenerateLambda:
            # imported here: no other path logs, and start-up pays for it
            import logging

            logging.getLogger(__name__).info(
                "skipping degenerate weights lam=%s at point %s (t=%s)",
                lam, point, t,
            )
            skipped += 1
            continue
        built.add(rotation)
        key = canonical_key(lattice)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        if target == TARGET_A3:
            to_a3_basis(lattice)  # exact Gram + same-lattice certificates
            label = classify_root_type(lattice)
            assert label == "A3"
        else:
            assert lattice.gram == _IDENTITY_3
            assert canonical_key(dual(lattice)) == key, "L must equal its dual"
            label = classify_root_type(lattice)
            assert label == "unimodular_odd"
        assert galois_stable(lattice)
        members.append(
            FamilyMember(lattice.with_type(label), lam, point, slope, lam[0].denominator)
        )
    return FamilyScan(members, skipped)


def generate_family(t, height: int) -> list[tuple[TraceLattice, int]]:
    """The distinct A3 lattices up to the slope height, each annotated with
    the denominator of its lam0 (these grow without bound along the family)."""
    scan = scan_family(t, height, TARGET_A3)
    return [(m.lattice, m.lam0_denominator) for m in scan.members]


def self_dual_family(t, height: int) -> list[TraceLattice]:
    """The distinct self-dual (identity Gram) lattices up to the slope height."""
    identity_to_a3_transform()
    scan = scan_family(t, height, TARGET_SELF_DUAL)
    return [m.lattice for m in scan.members]
