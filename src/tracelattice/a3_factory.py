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

Both presets are integer triples with d - e = 1, so their one conic is
x^2 + 3y^2 = delta_t, with the base point (t + 3/2, 3/2).  The chord of
every slope a/b up to a height meets it again in one rational point, and
point and weights are computed in integers over one denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Generator, Iterator, NamedTuple, Optional

from .errors import (
    DegenerateLambda,
    PointNotOnConic,
    WrongGram,
    ZeroParameter,
    number_text,
)
from .exact_linalg import Matrix, det, rat
from .lattice_core import TraceLattice, canonical_key, classify_gram
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

    d: int
    e: int
    f: int

    def is_consistent(self) -> bool:
        return self.f * self.f == self.d + 2 * self.e


TARGET_A3 = TraceTarget(2, 1, 2)
TARGET_SELF_DUAL = TraceTarget(1, 0, 1)


class ConicPoint(NamedTuple):
    """A rational point (x, y) of x^2 + 3y^2 = delta_t."""

    x: Fraction
    y: Fraction


def _base_point(p: int, q: int) -> tuple[int, int, int]:
    """(X, Y, m) with (X, Y)/m = (t + 3/2, 3/2) at t = p/q (q > 0), the
    base point of every chord, checked on x^2 + 3y^2 = delta_t in int."""
    g = gcd(2, q)
    big_x, big_y, m = (2 * p + 3 * q) // g, 3 * q // g, 2 * q // g
    assert q * q * (big_x * big_x + 3 * big_y * big_y) == (
        p * p + 3 * p * q + 9 * q * q
    ) * m * m
    return big_x, big_y, m


def _chord_ints(
    base: tuple[int, int, int], slope: Optional[tuple[int, int]]
) -> tuple[int, int, int]:
    """(X', Y', M) with (X', Y')/M the other intersection of x^2 + 3y^2 =
    delta_t with the line through its point (X, Y)/m along the slope a/b
    (None = vertical), M > 0 and not necessarily in lowest terms; the
    tangent line gives (X, Y)/m itself.

    With p0 = (X, Y)/m and a/b in lowest terms, the line is p0 + tau (b, a),
    and tau ((b^2 + 3a^2) tau + 2(b x0 + 3a y0)) = 0 gives the other root,
    so the point is (X w - 2 b u, Y w - 2 a u) / (m w) with u = bX + 3aY
    and w = b^2 + 3a^2 > 0.  Two lines through p0 meet the conic again in
    two different points, so distinct slopes give distinct points."""
    big_x, big_y, m = base
    if slope is None:
        return big_x, -big_y, m
    a, b = slope
    u = b * big_x + 3 * a * big_y
    w = b * b + 3 * a * a
    return big_x * w - 2 * b * u, big_y * w - 2 * a * u, m * w


def _slope_pairs(height: int) -> Iterator[Optional[tuple[int, int]]]:
    """None (the vertical line), then the pairs (a, b) of all a/b in lowest
    terms with |a| <= height, 1 <= b <= height, in a fixed deterministic
    order."""
    yield None
    for b in range(1, height + 1):
        for a in range(-height, height + 1):
            if gcd(abs(a), b) == 1:
                yield (a, b)


def _lambda_ints(
    p: int, q: int, target: TraceTarget, big_x: int, big_y: int, m: int
) -> tuple[int, int, int, int]:
    """(N0, N1, N2, R) with lam = (N0, N1, N2) / R the weights realizing
    the integer target (d, e, f) at t = p/q (p != 0, q > 0), from the point
    (X, Y)/m on x^2 + 3y^2 = (d - e) delta_t, m > 0 and not necessarily in
    lowest terms; R > 0 and the four are coprime, so equal weight vectors
    give equal tuples.  Raises PointNotOnConic for a point off that conic.

    lam0 = (2tx/delta + f) / 3t, and lam1, lam2 split off y; lam1 always
    takes the + branch so output is deterministic (the - choice relabels
    the same normal basis).

    With D = q^2 delta = p^2 + 3pq + 9q^2 and F = f m, the three weights
    share one denominator: lam_i = q n_i / (3pDm) with

        n0 = FD + 2pqX,   n1 = FD - pqX + 3pqY,   n2 = FD - pqX - 3pqY,

    so the conic check, the residual discriminant and the final target
    check all run in int on (X, Y, F) and the n_i.  3pDm has the sign of
    p, which the reduction to R > 0 takes out."""
    d, e, f = target
    big_d = p * p + 3 * p * q + 9 * q * q
    if q * q * (big_x * big_x + 3 * big_y * big_y) != (d - e) * big_d * m * m:
        t = Fraction(p, q)
        raise PointNotOnConic(
            f"({number_text(Fraction(big_x, m))}, {number_text(Fraction(big_y, m))}) "
            f"is not on x^2 + 3y^2 = {number_text((d - e) * (t * t + 3 * t + 9))}"
        )
    pq = p * q
    big_f = f * m
    fd = big_f * big_d
    n0 = fd + 2 * pq * big_x
    n1 = fd - pq * big_x + 3 * pq * big_y
    n2 = fd - pq * big_x - 3 * pq * big_y
    # the discriminant of the residual quadratic in lam1, recomputed from
    # lam0 (3t lam0 - f = (n0 - FD)/Dm) and matched against (2ty/delta)^2,
    # all over 3 D^2 m^2
    r = n0 - fd
    assert (
        4 * p * p * big_d * big_f * big_f - r * r - 12 * pq * pq * big_y * big_y
        == 12 * p * p * big_d * e * m * m
    )
    # the closed forms of d and e on lam = q n / R: both sides over R^2
    big_r = 3 * p * big_d * m
    big_l = n0 + n1 + n2
    big_q = n0 * n1 + n0 * n2 + n1 * n2
    r2 = big_r * big_r
    assert (p * p + 2 * pq + 6 * q * q) * big_l * big_l - 2 * big_d * big_q == d * r2
    assert big_d * big_q - q * (p + 3 * q) * big_l * big_l == e * r2
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


def _check_sigma_isometry(form: Matrix, s: Matrix) -> None:
    """Assert, once per sweep, that the trace form T is symmetric and that
    sigma's matrix S is an isometry of it, S T S^T = T.  With sigma
    permuting a basis B = (b0, b0 S, b0 S^2), these make B T B^T the
    circulant of its first row b0 T B^T, and symmetric, so that row is
    (d, e, e) for some d and e: _orbit_lattice certifies a member's Gram by
    that one row."""
    assert form == form.transpose(), "the trace form must be symmetric"
    assert s * form * s.transpose() == form, "sigma must be an isometry of the trace form"


def _orbit_lattice(
    field: ShanksField, nums: tuple[int, int, int], den: int, gram: Matrix
) -> TraceLattice:
    """Lattice spanned by the sigma-orbit of beta = <lam, eps-orbit> for
    lam = nums / den (ints, den > 0) in the field at t != 0, where the
    eps-orbit is a basis.

    sigma shifts the weights, beta^sigma = <(lam2, lam0, lam1), eps-orbit>,
    so the basis (beta, beta^sigma, beta^sigma2) is the circulant of nums
    times the integer rows of orbit_matrix, over den times its
    denominator.  One integer pass builds it and certifies it: the nine
    entries are explicit 3-term products, brought to lowest terms by one
    gcd, and the first Gram row is three more products against the rows
    of the trace form T.

    gram is the positive definite circulant of (d, e, e) certified for lam,
    and T is symmetric with sigma an isometry of it
    (_check_sigma_isometry): scan_family classifies its one target and
    checks T once per sweep.  The basis's Gram is then certified by its
    first row alone, the three products v b_j with v = b0 T, which must
    equal gram's first row exactly, and by sigma permuting the basis
    (sigma_permutes_basis): with both, the Gram is gram itself, so it is
    definite and the rows are independent.  The lattice carries gram, not
    a computed copy.  A row that differs raises DegenerateLambda when the
    three conjugates are linearly dependent (det of the basis 0), and
    fails the assertion otherwise.  scan_family calls it on the (N, R) of
    _lambda_ints."""
    orbit = field.orbit_matrix
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = orbit.ints
    # row i of circ(N) O: the weights shifted right i times against O
    b0, b1, b2 = [
        (u * x0 + v * y0 + w * z0, u * x1 + v * y1 + w * z1, u * x2 + v * y2 + w * z2)
        for u, v, w in _circulant(*nums)
    ]
    # the basis over bden, in lowest terms by one gcd
    bden = den * orbit.den
    g = gcd(bden, *b0, *b1, *b2)
    if g != 1:
        b0, b1, b2 = [(c0 // g, c1 // g, c2 // g) for c0, c1, c2 in (b0, b1, b2)]
        bden //= g
    basis = Matrix._trusted((b0, b1, b2), bden)
    form = field.trace_form()
    p, q, r = b0
    # T is symmetric, so b0 T is b0 against the rows of T
    v0, v1, v2 = [p * t0 + q * t1 + r * t2 for t0, t1, t2 in form.ints]
    # both first rows over bden^2 * form.den * gram.den
    scale = bden * bden * form.den
    first = [(v0 * c0 + v1 * c1 + v2 * c2) * gram.den for c0, c1, c2 in (b0, b1, b2)]
    target = [x * scale for x in gram.ints[0]]
    if first != target and det(basis) == 0:
        raise DegenerateLambda(
            "conjugates of the weighted element are dependent for lam = "
            f"({', '.join(number_text(Fraction(v, den)) for v in nums)})"
        )
    assert first == target, "the orbit Gram's first row must be the target's (d, e, e)"
    lattice = TraceLattice(field, basis, gram)
    assert sigma_permutes_basis(lattice)
    return lattice


def sigma_permutes_basis(lattice: TraceLattice) -> bool:
    """True iff the Galois generator sigma maps basis row i to row i + 1
    (mod 3): the basis is (beta, beta^sigma, beta^sigma2), a normal Z-basis
    of the lattice.  With B = B'/b and sigma's matrix S = S'/s, that is the
    integer identity B' S' = s (rows 1, 2, 0 of B'), checked row by row in
    explicit 3-term products on S' unpacked once, stopping at the first
    row that fails.  It implies Galois stability, since sigma generates the
    group and carries the basis onto itself."""
    s = lattice.ambient.galois_matrices()[0]
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = s.ints
    scale = s.den
    b0, b1, b2 = lattice.basis.ints
    for (u, v, w), (i0, i1, i2) in ((b0, b1), (b1, b2), (b2, b0)):
        if (
            u * x0 + v * y0 + w * z0 != scale * i0
            or u * x1 + v * y1 + w * z1 != scale * i1
            or u * x2 + v * y2 + w * z2 != scale * i2
        ):
            return False
    return True


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
    p0 = (t + 3/2, 3/2) is checked on the conic once (_base_point), each
    point is (X, Y)/M from _chord_ints, and its weights are (N0, N1, N2)/R
    from _lambda_ints, with its conic and target checks, in lowest terms
    with R > 0.  The slope, the point and lam become Fractions for members
    only.

    Distinctness is the unit group's.  A member is Z[G] beta, G = <sigma>,
    free on beta, so Z[G] beta = Z[G] beta' iff beta' = u beta for a unit
    u, and Z[C3]^x = +-G (Higman, "The units of group-rings", Proc. LMS
    1940).  -1 would change sum lam = f/t, which the target fixes with
    f != 0, and sigma^k rotates the weights: a point whose (N, R) is a
    shift of an earlier lattice's is passed over before its basis or Gram
    is built (98 of 320 points at height 16), and every lattice built is a
    new member.  Its HNF is computed only when member_json prints it.

    Once per sweep: the target's circulant Gram is built and its root type
    classified (classify_gram), which also proves it positive definite;
    the field's trace form T is checked symmetric and sigma an isometry of
    it, S T S^T = T (_check_sigma_isometry).  Every member carries that one
    Gram Matrix, so it carries that type too.  For the self-dual target the
    Gram is the identity, which is self-duality itself: with G = I the dual
    basis G^-1 B is B.  Certificates per member: the integer conic check
    and the three target asserts of _lambda_ints; the first row of the
    Gram, b0 T B^T, equal to the target's (_orbit_lattice); sigma permuting
    the basis (sigma_permutes_basis), the normal Z-basis itself, which
    implies Galois stability and, with the isometry, makes the Gram the
    circulant of that row, so exactly the target.  to_a3_basis is left to
    the caller: its P is checked once per import.

    Degenerate weights are skipped with a log note and counted, never
    raised (a shift of degenerate weights is degenerate too).  The presets
    have none: the circulant of lam is singular only when sum lam = f/t is
    0, or when lam0 = lam1 = lam2, which needs the point (0, 0).

    The list collects _family_members, the generator the command line
    writes from one member at a time."""
    sweep = _family_members(t, height, target)
    members: list[FamilyMember] = []
    while True:
        try:
            members.append(next(sweep))
        except StopIteration as end:
            return FamilyScan(members, end.value)


def _family_members(
    t, height: int, target: TraceTarget
) -> Generator[FamilyMember, None, int]:
    """The members of scan_family's sweep, each yielded as soon as it is
    certified and kept by the caller only; returns the number of
    degenerate points skipped.  Nothing runs before the first member is
    asked for, argument checks included."""
    t = rat(t)
    if t == 0:
        raise ZeroParameter()
    assert target.is_consistent(), "inconsistent target: f^2 != d + 2e"
    assert target.d - target.e == 1, "preset targets live on the delta conic"
    field = new_field(t)  # raises Reducible for the bad parameters
    p, q = t.numerator, t.denominator
    base = _base_point(p, q)
    gram = _circulant_gram(target.d, target.e)
    label = classify_gram(gram)
    if target == TARGET_A3:
        assert label == "A3"
    else:
        assert gram == _IDENTITY_3, "L must equal its dual"
        assert label == "unimodular_odd"
    _check_sigma_isometry(field.trace_form(), field.galois_matrices()[0])
    ints = TraceTarget(*map(int, target))  # (2, 1, 2) or (1, 0, +-1)
    built: set = set()  # (least cyclic shift of N, R) of each lam built
    skipped = 0
    for slope in _slope_pairs(height):
        x, y, m = _chord_ints(base, slope)
        n0, n1, n2, r = _lambda_ints(p, q, ints, x, y, m)
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
        yield FamilyMember(
            lattice.with_type(label),
            (Fraction(n0, r), Fraction(n1, r), Fraction(n2, r)),
            ConicPoint(Fraction(x, m), Fraction(y, m)),
            None if slope is None else Fraction(*slope),
        )
    return skipped
