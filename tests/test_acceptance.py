"""Acceptance gate: nine criteria, one test each, everything exact.

Each test is self-contained in what it certifies; heavyweight families are
built once in module-scoped fixtures and shared. No tolerances anywhere:
every comparison is Fraction equality or integer equality.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest

from oracles import (
    box_short_vectors,
    gram_A,
    reduced_box_short_vectors,
    vectors_of_norm,
)
from tracelattice._intfactor import an_exclusion
from tracelattice.a3_factory import TARGET_SELF_DUAL, scan_family
from tracelattice.cli import main
from tracelattice.cyclotomic_ideals import ap_lattice, verify_cyclotomic_ap
from tracelattice.exact_linalg import Matrix, det
from tracelattice.lattice_core import (
    TraceLattice,
    canonical_key,
    classify_gram,
    classify_root_type,
    disc_group,
    galois_stable,
    hnf_span,
    odd_trace_witness,
    short_vectors_gram,
)
from tracelattice.orders_ideals import fake_a3, maximal_order
from tracelattice.quadratic_a2 import (
    falsify_a2,
    family_distinctness,
    normal_a2,
    normal_basis_search,
)
from tracelattice.shanks_field import new_field, reparametrize

FAMILY_TS = (F(1), F(2), F(3), F(-1), F(1, 3))

NORMAL_A3 = Matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
STANDARD_A3 = Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
A2_GRAM = [["2", "-1"], ["-1", "2"]]


def _rand_rational(rng, num=9, den=9) -> F:
    return F(rng.randint(-num, num), rng.randint(1, den))


# ---------------------------------------------------------------------------
# shared heavyweight artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def a3_scans():
    return {t: (scan_family(t, 5), scan_family(t, 10)) for t in FAMILY_TS}


@pytest.fixture(scope="module")
def selfdual_members():
    return [m.lattice for m in scan_family(F(1), 5, TARGET_SELF_DUAL).members]


@pytest.fixture(scope="module")
def ap_suite():
    return {p: ap_lattice(p) for p in (3, 5, 7, 11)}


@pytest.fixture(scope="module")
def quad_family():
    return family_distinctness(10)


@pytest.fixture(scope="module")
def example_t0_lattices():
    """The t=0 lattice of the worked example, in both displayed bases."""
    k = new_field(0)
    beta0 = k.element(("2/3", "-1/3", "0"))
    beta1 = k.galois_coords(beta0)
    beta2 = k.galois_coords(beta1)
    normal = TraceLattice.from_rows(k, [beta0, beta1, beta2])
    transform = Matrix([[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
    primed = TraceLattice(k, transform * normal.basis)
    return normal, primed


@pytest.fixture(scope="module")
def fake_field():
    return maximal_order(F(1, 2))


# ---------------------------------------------------------------------------
# the nine criteria
# ---------------------------------------------------------------------------

def test_criterion_1_t0_example_grams(example_t0_lattices):
    normal, primed = example_t0_lattices
    assert normal.gram == NORMAL_A3
    assert primed.gram == STANDARD_A3
    assert canonical_key(normal) == canonical_key(primed)


def test_criterion_2_a3_families_certified(a3_scans):
    for t, (scan5, scan10) in a3_scans.items():
        assert len(scan10.members) >= 10, f"t={t}: {len(scan10.members)} < 10"
        keys = {canonical_key(m.lattice) for m in scan10.members}
        assert len(keys) == len(scan10.members), f"t={t}: members not distinct"
        for m in scan10.members:
            L = m.lattice
            assert odd_trace_witness(L) is None
            assert det(L.gram) == 4
            roots = [v for v, nrm in short_vectors_gram(L.gram, 2) if nrm == 2]
            assert 2 * len(roots) == 12
            # the roots span a rank-3 sublattice
            assert len(hnf_span(roots)[1]) == 3
            assert galois_stable(L)
            assert classify_root_type(L) == "A3"
        assert len(scan5.members) < len(scan10.members), f"t={t}: no strict increase"


def test_criterion_3_closed_form_trace_targets():
    rng = random.Random(20260817)
    checked = 0
    while checked < 100:
        t = _rand_rational(rng)
        if t in (F(-3, 2), F(0)):
            continue
        lam = tuple(_rand_rational(rng, 6, 6) for _ in range(3))
        k = new_field(t)
        beta = (Matrix([lam]) * k.orbit_matrix).row(0)
        lsum = sum(lam)
        q = lam[0] * lam[1] + lam[1] * lam[2] + lam[2] * lam[0]
        delta = t * t + 3 * t + 9
        closed_d = (t * t + 2 * t + 6) * lsum * lsum - 2 * delta * q
        closed_e = -(t + 3) * lsum * lsum + delta * q
        assert k.trace_coords(k.mul_coords(beta, beta)) == closed_d
        assert k.trace_coords(k.mul_coords(beta, k.galois_coords(beta))) == closed_e
        checked += 1


def test_criterion_4_selfdual_family_and_identity(selfdual_members):
    assert len(selfdual_members) >= 8
    eye = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    keys = set()
    for L in selfdual_members:
        assert L.gram == eye
        keys.add(canonical_key(L))
    assert len(keys) == len(selfdual_members)
    # the 0/1 circulant with zero diagonal carries the identity Gram to the
    # normal A3 Gram, so every self-dual member doubles into an A3 member
    m = Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert m * eye * m.transpose() == NORMAL_A3


def test_criterion_5_cyclotomic_classifications(capsys, enumeration_work):
    for p in (3, 5, 7):
        code = main(["cyclotomic", "--p", str(p)])
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out) == {"type": f"A{p - 1}"}
    # the work is bounded, not the time: one short-vector enumeration, of
    # 340 nodes
    code, enumerations, nodes = enumeration_work(main, ["cyclotomic", "--p", "11"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out) == {"type": "A10"}
    assert enumerations == 1 and nodes <= 2000, nodes
    assert verify_cyclotomic_ap(11) == "A10"


def test_criterion_6_quadratic_a2(capsys, quad_family):
    code = main(["quad-a2", "--d", "3", "--height", "10"])
    docs = json.loads(capsys.readouterr().out)
    assert code == 0 and len(docs) >= 10
    assert all(doc["gram"] == A2_GRAM for doc in docs)
    hnfs = {json.dumps(doc["basis"]) for doc in docs}
    assert len(hnfs) == len(docs)
    assert len(quad_family) >= 10
    keys = {canonical_key(L) for L in quad_family}
    assert len(keys) == len(quad_family)

    for d in (1, 2, 5, 6, 7):
        assert falsify_a2(d, 50) is None, f"unexpected A2 witness at d={d}"

    unique = normal_a2()
    found = normal_basis_search(4)
    assert found, "constrained search found nothing"
    k = unique.ambient
    # (x, -y) is the complex conjugate of (x, y) in Q(sqrt(-3))
    lattices = {canonical_key(TraceLattice.from_rows(k, [(x, y), (x, -y)])) for x, y in found}
    assert lattices == {canonical_key(unique)}


def test_criterion_7_obstructions(fake_field):
    rng = random.Random(20260818)
    squares = []
    checked = 0
    while checked < 20:
        t = _rand_rational(rng, 7, 5)
        if t == F(-3, 2):
            continue
        d_f = maximal_order(t).disc
        r = math.isqrt(d_f)
        assert r * r == d_f, f"d_F = {d_f} not square at t={t}"
        squares.append(d_f)
        checked += 1

    assert an_exclusion(squares[0], 5) == "excluded"
    assert an_exclusion(229, 4) == "excluded"

    L = fake_a3(fake_field)
    witness = odd_trace_witness(L)
    assert witness is not None
    g = L.gram.to_int_rows()
    norm = sum(witness[i] * g[i][j] * witness[j] for i in range(3) for j in range(3))
    assert norm % 2 == 1
    assert disc_group(L) == (1, 1, 4)
    assert classify_root_type(L) == "diag114"
    assert not galois_stable(L)


def test_criterion_8_oracle_equivalence(
    example_t0_lattices, a3_scans, selfdual_members, ap_suite, quad_family
):
    rng = random.Random(20260819)
    targets = {
        "A3": gram_A(3),
        "unimodular_odd": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "diag114": [[1, 0, 0], [0, 1, 0], [0, 0, 4]],
    }
    checked = 0
    while checked < 50:
        g = _random_pd_gram(rng)
        if g is None:
            continue
        label = classify_gram(Matrix(g))
        for name, target in targets.items():
            eq = _box_equivalent(g, target)
            assert eq == (label == name), (
                f"classify says {label!r} but box search "
                f"{'finds' if eq else 'finds no'} transform to {name}: {g}"
            )
        checked += 1

    for L in _criteria_lattices(
        example_t0_lattices, a3_scans, selfdual_members, ap_suite, quad_family
    ):
        mine = sorted((int(n), tuple(v)) for v, n in short_vectors_gram(L.gram, 2))
        g = L.gram.to_int_rows()
        oracle = reduced_box_short_vectors(g, 2)
        assert mine == oracle


def test_criterion_9_reparametrization():
    rng = random.Random(20260820)
    for t in FAMILY_TS:
        k = new_field(t)
        tr_eps = t
        tr_eps2 = t * t + 2 * t + 6
        done = 0
        while done < 4:
            a1 = _rand_rational(rng, 6, 4)
            a2 = _rand_rational(rng, 6, 4)
            if a1 == 0 and a2 == 0:
                continue
            a0 = -(a1 * tr_eps + a2 * tr_eps2) / 3
            alpha = (a0, a1, a2)
            assert k.trace_coords(alpha) == 0
            t_new = reparametrize(k, alpha)
            u = k.mul_coords(k.galois_coords(alpha), k.inv_coords(alpha))
            u2 = k.mul_coords(u, u)
            residual = [
                c3 - t_new * c2 - (t_new + 3) * c1 - c0
                for c3, c2, c1, c0 in zip(k.mul_coords(u2, u), u2, u, k.one())
            ]
            assert not any(residual), f"f_t'(u) != 0 at t={t}, t'={t_new}"
            assert any(u[1:]), "u must generate the cubic field"
            done += 1


# ---------------------------------------------------------------------------
# criterion-8 helpers
# ---------------------------------------------------------------------------

def _random_pd_gram(rng):
    """Random symmetric integer matrix; None unless positive definite with
    determinant at most 9."""
    a, b, c = (rng.randint(1, 4) for _ in range(3))
    d, e, f = (rng.randint(-2, 2) for _ in range(3))
    g = [[a, d, e], [d, b, f], [e, f, c]]
    if a <= 0 or a * b - d * d <= 0:
        return None
    dt = (
        a * (b * c - f * f)
        - d * (d * c - f * e)
        + e * (d * f - b * e)
    )
    if dt <= 0 or dt > 9:
        return None
    return g


def _box_equivalent(gram, target) -> bool:
    """Is there U in GL(3, Z), entries bounded by 3, with U gram U^T == target?
    Row candidates come from exhaustive norm shells clipped to the entry box."""
    n = 3
    shells = []
    for i in range(n):
        shell = [
            v
            for v in vectors_of_norm(gram, target[i][i])
            if max(abs(c) for c in v) <= 3
        ]
        if not shell:
            return False
        shells.append(shell)

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    def unimodular(rows):
        (a, b, c), (d, e, f), (g, h, i) = rows
        return abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) == 1

    def extend(rows, depth):
        if depth == n:
            return unimodular(rows)
        for cand in shells[depth]:
            if all(pair(rows[i], cand) == target[i][depth] for i in range(depth)):
                if extend(rows + [cand], depth + 1):
                    return True
        return False

    return extend([], 0)


def _criteria_lattices(example_t0, a3_scans, selfdual, ap_suite, quad_family):
    normal, primed = example_t0
    yield normal
    yield primed
    for scan5, scan10 in a3_scans.values():
        for m in scan10.members:
            yield m.lattice
    yield from selfdual
    yield from ap_suite.values()
    yield from quad_family
    yield normal_a2()
    witness = falsify_a2(3, 5)
    assert witness is not None
    yield witness
    yield fake_a3(maximal_order(F(1, 2)))
