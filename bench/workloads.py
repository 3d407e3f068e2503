"""The benchmark's three workloads, as lists of CLI operations built from a seed.

Each operation is one `trace-lattice` invocation plus what the independent
checks in checks.py need to know about it. The seed orders every workload
and chooses its seeded inputs: the signs of the disguised Grams and the
mirrors of the 2-inert `order` parameters. Everything else is fixed,
because the cost of these constructions depends on the exact parameter and
a workload has to cost the same from seed to seed.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

import grams


class Op(NamedTuple):
    argv: tuple[str, ...]
    kind: str
    meta: dict

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _t_flag(t: Fraction) -> str:
    # "--t -1/2" is read by argparse as a flag, so negatives use the = form
    return f"--t={t}"


# --- family-sweep ------------------------------------------------------------

# (subcommand, t, height): hundreds of members each; t = -1/2 and -5/2 are
# negative and have an even denominator, so 2 splits in their fields
FAMILIES = (
    ("gen-a3", Fraction(1), 16),
    ("gen-a3", Fraction(-1, 2), 16),
    ("gen-selfdual", Fraction(2), 16),
    ("gen-selfdual", Fraction(-5, 2), 16),
)
QUAD_FAMILY_HEIGHT = 12
# squarefree d != 3, fixed: the search cost differs a little with d, and a
# round must cost the same from seed to seed
FALSIFY_D = (2, 5, 11)
FALSIFY_HEIGHT = 300


def family_sweep() -> list[Op]:
    ops = [
        Op((sub, _t_flag(t), "--height", str(h)), sub, {"t": t})
        for sub, t, h in FAMILIES
    ]
    ops.append(
        Op(("quad-a2", "--d", "3", "--height", str(QUAD_FAMILY_HEIGHT)), "quad-family", {})
    )
    for d in FALSIFY_D:
        ops.append(
            Op(
                ("quad-a2", "--d", str(d), "--height", str(FALSIFY_HEIGHT), "--falsify"),
                "quad-falsify",
                {"d": d, "height": FALSIFY_HEIGHT},
            )
        )
    return ops


# --- root-ladder -------------------------------------------------------------

# p = 13 takes about 11 s alone, more than a third of a run, so one slow
# spell of the host would decide the whole round; it is left out
PRESET_PRIMES = (3, 5, 7, 11)
# (n, expression, base polynomial in z (ascending integer coefficients),
#  exponent, type fixed by theory or None); the expression is base^exponent
GENERATORS = (
    (7, "(1-z)^-2", (1, -1), -2, "A6"),
    (12, "1+z", (1, 1), 1, None),
)


def root_ladder(seed: int) -> list[Op]:
    ops = [Op(("cyclotomic", "--p", str(p)), "cyc-preset", {"p": p}) for p in PRESET_PRIMES]
    for n, expr, base, exponent, expect in GENERATORS:
        ops.append(
            Op(
                ("cyclotomic", "--n", str(n), "--generator", expr),
                "cyc-generator",
                {"n": n, "base": base, "exponent": exponent, "expect": expect},
            )
        )
    for entry in grams.disguised_grams(seed):
        ops.append(
            Op(
                ("classify", "--gram", json.dumps(entry["gram"], separators=(",", ":"))),
                "classify",
                {"expect": entry["type"], "max_diag": entry["max_diag"]},
            )
        )
    return ops


# --- ideal-certificates --------------------------------------------------------

# 2 splits (even denominator): t^2 + 3t + 9 = 31/4, 43/4 and 63/4; larger
# ones (t = 5/2, 91/4; t = -13/2, 127/4) take 6-9 s alone, too much of a run
SPLIT_T = (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))
# 2 inert: conductors 13, 19 and 37; t and -3-t give the same field
# discriminant and cost alike, and the seed picks one of each pair
INERT_T = (Fraction(1), Fraction(2), Fraction(4))


def ideal_certificates(rng: random.Random) -> list[Op]:
    all_flags = ("--different", "--sqrt-different", "--primes2", "--fake-a3")
    ops = [
        Op(("order", _t_flag(t), *all_flags), "order", {"t": t, "split": True})
        for t in SPLIT_T
    ]
    for t in INERT_T:
        if rng.random() < 0.5:
            t = -3 - t
        ops.append(
            Op(
                ("order", _t_flag(t), "--different", "--sqrt-different"),
                "order",
                {"t": t, "split": False},
            )
        )
    return ops


WORKLOADS = ("family-sweep", "root-ladder", "ideal-certificates")


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family-sweep":
        ops = family_sweep()
    elif workload == "root-ladder":
        ops = root_ladder(seed)
    elif workload == "ideal-certificates":
        ops = ideal_certificates(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
