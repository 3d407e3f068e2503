"""Seeded disguised Gram matrices of known root-lattice type.

    python3 bench/grams.py --seed 7

Each standard Gram (A_n, D_n, E8 and Z^n, up to rank 12) is hidden by a
unimodular change of basis U, giving U G U^T. U is a signed permutation
followed by elementary steps (row i += s*row j and the matching column
step) that keep every diagonal entry at or below the skew level and stop
once the largest one reaches half of it, and then a seeded sign change of
every basis vector.

The cost of short-vector enumeration rises steeply with the skew, and two
skewings at one level can differ in cost by 60%; over the ten Grams of a
round that made the round's cost differ by 9% from seed to seed. So the
skewing is drawn from a fixed stream (the draw whose estimated enumeration
size is the median of REFERENCE_DRAWS), and the seed draws the signs: a
sign change gives another Gram with exactly the same enumeration tree. The
largest diagonal entry is recorded next to each Gram. The program under
test sees only the Gram itself.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

# (type the classifier must report, constructor name, rank)
CASES = (
    ("A9", "A", 9),
    ("A12", "A", 12),
    ("D12", "D", 12),
    ("E8", "E", 8),
    ("unimodular_odd", "Z", 8),
)

SKEW_LEVELS = (16, 256)

# skewings drawn per (lattice, level); the one of median estimated size is kept
REFERENCE_DRAWS = 21


def standard_gram(kind: str, n: int) -> list[list[int]]:
    """Cartan-type Gram of the named root lattice, or the identity for Z^n."""
    g = [[0] * n for _ in range(n)]
    if kind == "Z":
        for i in range(n):
            g[i][i] = 1
        return g
    edges = [(i, i + 1) for i in range(n - 2)]
    if kind == "A":
        edges.append((n - 2, n - 1))
    elif kind == "D":  # fork at the end of the chain
        edges.append((n - 3, n - 1))
    elif kind == "E":  # chain of n-1 nodes with the branch at the third
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    else:
        raise ValueError(f"unknown lattice kind {kind!r}")
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def disguise(gram: list[list[int]], rng: random.Random, level: int) -> list[list[int]]:
    n = len(gram)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    g = [
        [signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(n)]
        for i in range(n)
    ]
    steps = 0
    for _ in range(200 * n):
        if steps >= 2 * n and 2 * max(g[i][i] for i in range(n)) >= level:
            break
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        if g[i][i] + 2 * s * g[i][j] + g[j][j] > level:
            continue
        for k in range(n):
            g[i][k] += s * g[j][k]
        for k in range(n):
            g[k][i] += s * g[k][j]
        steps += 1
    return g


def enumeration_estimate(gram: list[list[int]], bound: int) -> float:
    """Gaussian-heuristic size of the Fincke-Pohst tree for x G x^T <= bound
    when the last coordinate is fixed first: level k holds about
    V_k bound^(k/2) / sqrt(q_(n-k) ... q_(n-1)) nodes, q the LDL pivots."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    pivots = []
    for i in range(n):
        pivots.append(q[i][i])
        for k in range(i + 1, n):
            f = q[k][i] / q[i][i]
            for col in range(i, n):
                q[k][col] -= f * q[i][col]
    total, prod = 0.0, 1.0
    for k in range(1, n + 1):
        prod *= float(pivots[n - k])
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        total += ball * bound ** (k / 2) / math.sqrt(prod)
    return total


def disguised_grams(seed: int) -> list[dict]:
    """One disguised Gram per (case, skew level), in a fixed order."""
    out = []
    for label, kind, n in CASES:
        bound = 4 if kind == "Z" else 2
        base = standard_gram(kind, n)
        for level in SKEW_LEVELS:
            ref = random.Random(f"reference:{kind}{n}:{level}")
            draws = sorted(
                (disguise(base, ref, level) for _ in range(REFERENCE_DRAWS)),
                key=lambda d: enumeration_estimate(d, bound),
            )
            skewed = draws[REFERENCE_DRAWS // 2]
            rng = random.Random(f"signs:{seed}:{kind}{n}:{level}")
            signs = [rng.choice((1, -1)) for _ in range(n)]
            g = [[signs[i] * signs[j] * skewed[i][j] for j in range(n)] for i in range(n)]
            out.append(
                {
                    "type": label,
                    "lattice": f"{kind}{n}",
                    "skew_level": level,
                    "max_diag": max(g[i][i] for i in range(n)),
                    "gram": g,
                }
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for entry in disguised_grams(args.seed):
        sys.stdout.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
