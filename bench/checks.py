"""Independent checks of the CLI's outputs.

Nothing here imports tracelattice: every Gram matrix is recomputed from the
emitted basis with formulas of its own (Newton power sums for the Shanks
cubics, Ramanujan sums for the cyclotomic fields, 2(x1 x2 + 3 y1 y2) for
Q(sqrt(-3))), determinants come from a Bareiss elimination of its own, and
theorems fix what the answer must be. No check compares against a stored
copy of an earlier output.

Each check takes an operation and its parsed output and returns a list of
problems (empty when the output is right).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

# --- exact linear algebra ------------------------------------------------------


def frac(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    return Fraction(text)


def to_matrix(rows) -> list[list[Fraction]]:
    return [[frac(x) for x in row] for row in rows]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def bareiss_det(m) -> Fraction:
    """Determinant of a rational square matrix by fraction-free elimination
    of its integer multiple."""
    n = len(m)
    scale = 1
    for row in m:
        for x in row:
            scale = scale * Fraction(x).denominator // gcd(scale, Fraction(x).denominator)
    a = [[int(Fraction(x) * scale) for x in row] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], scale**n)


def inverse(m):
    """Gauss-Jordan inverse over the rationals; None when singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def is_integral(m) -> bool:
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def same_lattice(a, b) -> bool:
    """Rows of a and rows of b span the same Z-module."""
    ai, bi = inverse(a), inverse(b)
    return (
        ai is not None
        and bi is not None
        and is_integral(matmul(a, bi))
        and is_integral(matmul(b, ai))
    )


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def hnf_problems(fingerprint: dict, basis) -> list[str]:
    """The fingerprint {"scale", "rows"} must be a row Hermite normal form
    (unique, so equal fingerprints mean equal lattices) spanning scale*basis."""
    scale, rows = fingerprint["scale"], fingerprint["rows"]
    n = len(rows)
    out = []
    for i in range(n):
        if any(rows[i][j] != 0 for j in range(i)):
            out.append(f"hnf row {i} is not upper triangular")
        if rows[i][i] <= 0:
            out.append(f"hnf pivot {i} is not positive")
        for k in range(i):
            if not 0 <= rows[k][i] < rows[i][i]:
                out.append(f"hnf entry ({k},{i}) is not reduced by its pivot")
    cleared = [[x * scale for x in row] for row in basis]
    if not is_integral(cleared):
        out.append("scale does not clear the basis denominators")
    elif not same_lattice(cleared, rows):
        out.append("hnf rows do not span scale*basis")
    return out


# --- Shanks cubic fields: Gram = B T B^T with T from Newton sums -------------


def shanks_trace_matrix(t: Fraction):
    """T_ij = Tr(eps^(i+j)) for a root eps of x^3 - t x^2 - (t+3) x - 1."""
    e1, e2, e3 = t, -(t + 3), Fraction(1)
    p = [Fraction(3), e1]
    p.append(e1 * p[1] - 2 * e2)
    p.append(e1 * p[2] - e2 * p[1] + 3 * e3)
    p.append(e1 * p[3] - e2 * p[2] + e3 * p[1])
    return [[p[i + j] for j in range(3)] for i in range(3)]


def shanks_gram(basis, t: Fraction):
    return matmul(matmul(basis, shanks_trace_matrix(t)), transpose(basis))


def _lattice_doc(doc, ambient) -> tuple[list, list, list[str]]:
    out = []
    if doc.get("ambient") != ambient:
        out.append(f"ambient {doc.get('ambient')} is not {ambient}")
    return to_matrix(doc["basis"]), to_matrix(doc["gram"]), out


NORMAL_A3 = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def check_family(op, doc) -> list[str]:
    t = op.meta["t"]
    a3 = op.kind == "gen-a3"
    want_gram, want_type = (NORMAL_A3, "A3") if a3 else (IDENTITY3, "unimodular_odd")
    ambient = {"kind": "shanks", "t": str(t)}
    delta = t * t + 3 * t + 9
    if not isinstance(doc, list) or not doc:
        return ["expected a non-empty list of lattices"]
    out = []
    keys = set()
    for k, member in enumerate(doc):
        basis, gram, probs = _lattice_doc(member, ambient)
        if gram != shanks_gram(basis, t):
            probs.append("gram is not B T B^T")
        if gram != want_gram:
            probs.append(f"gram is not {want_gram}")
        if member.get("type") != want_type:
            probs.append(f"type {member.get('type')} is not {want_type}")
        x, y = frac(member["point"]["x"]), frac(member["point"]["y"])
        if x * x + 3 * y * y != delta:
            probs.append("chord point is off the conic x^2 + 3y^2 = delta_t")
        probs += hnf_problems(member["hnf"], basis)
        key = (member["hnf"]["scale"], tuple(map(tuple, member["hnf"]["rows"])))
        if key in keys:
            probs.append("lattice repeats an earlier member")
        keys.add(key)
        out += [f"member {k}: {p}" for p in probs]
    return out


# --- quadratic A2 ----------------------------------------------------------------

A2 = [[2, -1], [-1, 2]]


def check_quad_family(op, doc) -> list[str]:
    if not isinstance(doc, list) or not doc:
        return ["expected a non-empty list of lattices"]
    out = []
    for k, member in enumerate(doc):
        basis, gram, probs = _lattice_doc(member, {"d": 3, "kind": "quad", "sign": -1})
        pair = [
            [2 * (u[0] * v[0] + 3 * u[1] * v[1]) for v in basis] for u in basis
        ]
        if pair != gram or gram != A2:
            probs.append("gram is not [[2,-1],[-1,2]] under 2(x1 x2 + 3 y1 y2)")
        if member.get("type") != "A2":
            probs.append(f"type {member.get('type')} is not A2")
        out += [f"member {k}: {p}" for p in probs]
    return out


def check_quad_falsify(op, doc) -> list[str]:
    want = {"d": op.meta["d"], "height": op.meta["height"], "witness": None}
    return [] if doc == want else [f"expected {want}: no A2 exists at d != 3"]


# --- cyclotomic fields: Gram = B M B^T with M_ij = c_n(i - j) --------------------


def mobius(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def ramanujan_sum(n: int, k: int) -> int:
    """c_n(k) = Tr(zeta_n^k) = sum over d | gcd(n, k) of mu(n/d) d."""
    g = gcd(n, k)
    return sum(mobius(n // d) * d for d in range(1, g + 1) if g % d == 0)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending, by dividing x^n - 1 by the
    Phi_d of the proper divisors d."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            quot = [0] * (len(num) - len(den) + 1)
            for i in range(len(quot) - 1, -1, -1):
                c = num[i + len(den) - 1]  # den is monic
                quot[i] = c
                for j, dj in enumerate(den):
                    num[i + j] -= c * dj
            assert not any(num[: len(den) - 1])
            num = quot
    return tuple(num)


def poly_mulmod(a, b, phi):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    deg = len(phi) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            for j, pj in enumerate(phi):
                prod[i - deg + j] -= c * pj
    out = prod[:deg]
    return out + [0] * (deg - len(out))


def check_cyc_generator(op, doc) -> list[str]:
    n = op.meta["n"]
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    basis, gram, out = _lattice_doc(doc, {"kind": "cyclotomic", "n": n})
    if len(basis) != deg or any(len(r) != deg for r in basis):
        return out + [f"basis is not {deg}x{deg}"]
    for i in range(deg - 1):
        if poly_mulmod(basis[i], [0, 1], phi) != basis[i + 1]:
            out.append(f"basis row {i + 1} is not zeta times row {i}")
    power = [1]
    for _ in range(abs(op.meta["exponent"])):
        power = poly_mulmod(power, list(op.meta["base"]), phi)
    if op.meta["exponent"] >= 0:
        if basis[0] != power + [0] * (deg - len(power)):
            out.append("basis row 0 is not the generator")
    elif poly_mulmod(basis[0], power, phi) != [1] + [0] * (deg - 1):
        out.append("basis row 0 times the generator's inverse is not 1")
    m = [[ramanujan_sum(n, i - j) for j in range(deg)] for i in range(deg)]
    if gram != matmul(matmul(basis, m), transpose(basis)):
        out.append("gram is not B M B^T with Ramanujan sums")
    kind = doc.get("type")
    if op.meta["expect"] is not None and kind != op.meta["expect"]:
        out.append(f"type {kind} is not {op.meta['expect']}")
    out += _type_consistent(kind, gram)
    return out


def _type_consistent(kind, gram) -> list[str]:
    """A reported root type fixes rank, parity and determinant."""
    n = len(gram)
    d = bareiss_det(gram)
    wants = {"unimodular_odd": (1, False), "diag114": (4, False)}
    if kind in wants:
        want_det, even = wants[kind]
    elif kind.startswith("A") and kind[1:] == str(n):
        want_det, even = n + 1, True
    elif kind.startswith("D") and kind[1:] == str(n):
        want_det, even = 4, True
    elif kind in ("E6", "E7", "E8") and kind[1:] == str(n):
        want_det, even = {6: 3, 7: 2, 8: 1}[n], True
    elif kind == "other":
        return []
    else:
        return [f"type {kind} does not fit rank {n}"]
    out = []
    if d != want_det:
        out.append(f"type {kind} needs det {want_det}, Gram has {d}")
    if not is_integral(gram) or (even and any(gram[i][i] % 2 for i in range(n))):
        out.append(f"type {kind} needs an {'even' if even else ''} integral Gram")
    return out


def ap_gram(p: int):
    """Gram of the ideal (1 - zeta_p)^-(p-3)/2 of Q(zeta_p) under Tr(x conj y),
    computed in Q[Z/p]: (1 - zeta)^-1 = -(1/p) sum k zeta^k, conj negates
    exponents, and Tr(sum a_k zeta^k) = p a_0 - sum a_k."""

    def conv(a, b):
        out = [Fraction(0)] * p
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[(i + j) % p] += x * y
        return out

    inv = [Fraction(-k, p) for k in range(p)]
    g = [Fraction(1)] + [Fraction(0)] * (p - 1)
    for _ in range((p - 3) // 2):
        g = conv(g, inv)
    h = conv(g, [g[-k % p] for k in range(p)])
    total = sum(h)
    return [[p * h[(j - i) % p] - total for j in range(p - 1)] for i in range(p - 1)]


def check_cyc_preset(op, doc) -> list[str]:
    p = op.meta["p"]
    want = {"type": f"A{p - 1}"}
    out = [] if doc == want else [f"expected {want}"]
    gram = ap_gram(p)
    if bareiss_det(gram) != p:
        out.append(f"own Gram of the A_{p - 1} ideal has det {bareiss_det(gram)}, not {p}")
    if not is_integral(gram) or any(gram[i][i] % 2 for i in range(p - 1)):
        out.append("own Gram of the ideal is not even integral")
    return out


def check_classify(op, doc) -> list[str]:
    want = {"type": op.meta["expect"]}
    return [] if doc == want else [f"expected {want}, the disguised type"]


# --- orders and ideals of the Shanks fields --------------------------------------


def check_order(op, doc) -> list[str]:
    t = op.meta["t"]
    out = []
    if doc.get("t") != str(t):
        out.append(f"t {doc.get('t')} is not {t}")
    tm = shanks_trace_matrix(t)
    eq = to_matrix(doc["equation_order"]["basis"])
    mx = to_matrix(doc["maximal_order"]["basis"])
    d_eq, d_mx = doc["equation_order"]["disc"], doc["maximal_order"]["disc"]
    for name, b, d in (("equation", eq, d_eq), ("maximal", mx, d_mx)):
        if bareiss_det(matmul(matmul(b, tm), transpose(b))) != d:
            out.append(f"{name} order disc {d} is not det(B T B^T)")
    if not is_square(d_mx):
        out.append(f"maximal disc {d_mx} is not a square")
    if d_eq % d_mx or not is_square(d_eq // d_mx):
        out.append(f"disc ratio {d_eq}/{d_mx} is not a square")
    if not is_integral(matmul(eq, inverse(mx))):
        out.append("equation order is not inside the maximal order")
    ambient = {"kind": "shanks", "t": str(t)}
    grams = {}
    for name in ("different_inverse", "sqrt_different_inverse", "fake_a3"):
        if name in doc:
            basis, gram, probs = _lattice_doc(doc[name], ambient)
            if gram != shanks_gram(basis, t):
                probs.append("gram is not B T B^T")
            out += [f"{name}: {p}" for p in probs]
            grams[name] = (basis, gram)
    dets = {
        "different_inverse": Fraction(1, d_mx),
        "sqrt_different_inverse": 1,
        "fake_a3": 4,
    }
    for name, (basis, gram) in grams.items():
        if bareiss_det(gram) != dets[name]:
            out.append(f"{name}: det {bareiss_det(gram)} is not {dets[name]}")
    if "sqrt_different_inverse" in grams:
        gram = grams["sqrt_different_inverse"][1]
        # the only odd unimodular lattice of rank 3 is Z^3
        if doc["sqrt_different_inverse"].get("type") != "unimodular_odd":
            out.append("sqrt_different_inverse: type is not unimodular_odd")
        if not is_integral(gram) or all(gram[i][i] % 2 == 0 for i in range(3)):
            out.append("sqrt_different_inverse: Gram is not odd integral")
    if "primes_above_2" in doc:
        primes = doc["primes_above_2"]
        split = op.meta["split"]
        if primes["split"] != split or len(primes["ideals"]) != (3 if split else 1):
            out.append("primes_above_2 disagrees with the parity of t's denominator")
        for ideal in primes["ideals"]:
            index = abs(bareiss_det(to_matrix(ideal)) / bareiss_det(mx))
            if index != (2 if split else 8):
                out.append(f"prime above 2 has index {index} in the maximal order")
    if "fake_a3" in grams:
        fake = doc["fake_a3"]
        basis, gram = grams["fake_a3"]
        certs = fake["certificates"]
        w = certs["odd_trace_witness"]
        norm = sum(w[i] * gram[i][j] * w[j] for i in range(3) for j in range(3))
        if not is_integral(gram) or norm.denominator != 1 or norm % 2 != 1:
            out.append(f"fake_a3: witness {w} has norm {norm}, not odd")
        if certs["disc_group"] != [1, 1, 4] or certs["galois_stable"] is not False:
            out.append("fake_a3: certificates are not Z/4 and Galois-unstable")
        if fake.get("type") != "diag114" or certs["type"] != "diag114":
            out.append("fake_a3: type is not diag114")
        out += [f"fake_a3: {p}" for p in hnf_problems(fake["hnf"], basis)]
    return out


CHECKS = {
    "gen-a3": check_family,
    "gen-selfdual": check_family,
    "quad-family": check_quad_family,
    "quad-falsify": check_quad_falsify,
    "cyc-preset": check_cyc_preset,
    "cyc-generator": check_cyc_generator,
    "classify": check_classify,
    "order": check_order,
}


def check(op, doc) -> list[str]:
    try:
        return CHECKS[op.kind](op, doc)
    except (
        AttributeError, KeyError, TypeError, ValueError, IndexError, ZeroDivisionError
    ) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def certified(doc) -> int:
    """Certified results in an output: lattice documents carrying a Gram,
    plus bare {"type": ...} verdicts."""
    if isinstance(doc, list):
        return sum(certified(x) for x in doc)
    if not isinstance(doc, dict):
        return 0
    if set(doc) == {"type"}:
        return 1
    return int("gram" in doc) + sum(certified(v) for v in doc.values())
