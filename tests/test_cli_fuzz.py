"""In-process fuzz of the command line over a small argv grammar.

Every argv drawn here, valid or not, must end in one of the documented
outcomes: exit 0 or 1 with one canonical JSON document on stdout, or exit 2
(usage) with empty stdout, and never a Python traceback.  Heights, ranks
and primes stay small so that a run of the whole grammar takes seconds;
cyclotomic orders also reach past the rank cap, and `order` parameters,
`obstruction` discriminants and `quad-a2` radicands include a few with
large prime factors, where an algorithm that counts up to a prime or
factors a semiprime would hang.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from tracelattice.cli import main
from tracelattice.serialize import dumps_canonical

JUNK = st.sampled_from(["", "x", "--", "1.5", "1/0", "0/0", "+", "-", "[]", "1,2"])

rationals = (
    st.builds(
        lambda p, q: str(p) if q == 1 else f"{p}/{q}",
        st.integers(-9, 9),
        st.integers(1, 4),
    )
    | st.sampled_from(["-3/2", "0", "-1/2", "3/-2"])
    | JUNK
)
heights = st.integers(-1, 3).map(str) | JUNK
small_ints = st.integers(-40, 40).map(str) | JUNK


def _t_flag(value: str, joined: bool) -> list[str]:
    return [f"--t={value}"] if joined else ["--t", value]


def _optional(flag: str, values) -> st.SearchStrategy:
    """[flag, value], [flag=value] or nothing: a missing required flag is
    part of the grammar."""
    return st.one_of(
        st.just([]),
        values.map(lambda v: [flag, v]),
        values.map(lambda v: [f"{flag}={v}"]),
    )


family = st.builds(
    lambda sub, t, joined, h: [sub, *(_t_flag(t, joined) if t else []), *h],
    st.sampled_from(["gen-a3", "gen-selfdual"]),
    st.one_of(st.none(), rationals),
    st.booleans(),
    _optional("--height", heights),
)

entries = st.integers(-3, 3) | st.sampled_from(['"1/2"', '"x"', "true", "1.5"])
grams = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]")
) | JUNK | st.sampled_from(["[[2,1],[1,2]]", "[[0]]", "[[1,2],[2,1]]", "[[2,1],[0,2]]"])
classify = st.builds(lambda g: ["classify", *g], _optional("--gram", grams))

generators = st.sampled_from(
    ["z", "1+z", "(1-z)^-1", "(1-z)^-2", "2*z-1", "z/(1+z)", "0", "0^-1", "1/0",
     "z^", "(z", "z**2", "3", "q", "z - z"]
)
cyclotomic = st.one_of(
    st.builds(
        lambda p: ["cyclotomic", "--p", p],
        st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "7", "9", "11", "x"]),
    ),
    st.builds(
        lambda n, g: ["cyclotomic", *n, *g],
        # 21 and 25 (phi 12 and 20) build the field; 47, 100 and 1000
        # (phi 46, 40 and 400) stop at the classifier's rank cap of 32
        _optional(
            "--n", (st.integers(-1, 12) | st.sampled_from([21, 25, 47, 100, 1000])).map(str)
        ),
        _optional("--generator", generators),
    ),
    st.just(["cyclotomic", "--p", "5", "--n", "5", "--generator", "z"]),
)

# radicands around the cap of 10^20: a semiprime of two 10-digit primes
# just under it, the cap and the next integer, and a 37-digit semiprime
# whose squarefree test would hang
large_radicands = st.sampled_from(
    [
        str(9999999967 * 9999999943),
        str(10**20),
        str(10**20 + 1),
        str((10**18 + 3) * (10**18 + 9)),
    ]
)
quad = st.builds(
    lambda d, h, falsify: ["quad-a2", *d, *h, *(["--falsify"] if falsify else [])],
    _optional("--d", st.integers(-4, 12).map(str) | large_radicands | JUNK),
    _optional("--height", heights),
    st.booleans(),
)

ORDER_FLAGS = ["--different", "--sqrt-different", "--primes2", "--fake-a3"]
# conductors with a 10-13 digit prime factor: the p-radical's Frobenius must
# cost O(log p) products there, not p
large_conductor_t = st.sampled_from(["1000001", "1000003/2", "1/100000"])
order = st.builds(
    lambda t, joined, flags: ["order", *(_t_flag(t, joined) if t else []), *flags],
    st.one_of(st.none(), rationals, large_conductor_t),
    st.booleans(),
    st.lists(st.sampled_from(ORDER_FLAGS), unique=True, max_size=4),
)

# 31-39 digit semiprimes and squares of 16-19 digit primes: comparing square
# classes must not factor them
_PRIMES = (1000000000000037, 10**18 + 3, 10**18 + 9, 10000000000000000051)
large_discs = st.sampled_from(
    [str(p * q) for p in _PRIMES for q in _PRIMES if p < q]
    + [str(p * p) for p in _PRIMES]
    + [f"-{_PRIMES[0] * _PRIMES[3]}"]
)
obstruction = st.builds(
    lambda d, o: ["obstruction", *d, *o],
    _optional("--dF", small_ints | large_discs),
    _optional("--disc-order", small_ints),
)

elements = st.one_of(
    st.lists(st.integers(-3, 3).map(str) | st.sampled_from(["1/2", "-2/3"]), min_size=1, max_size=4).map(",".join),
    JUNK,
)
reparam = st.builds(
    lambda t, joined, e: ["reparam", *(_t_flag(t, joined) if t else []), *e],
    st.one_of(st.none(), rationals),
    st.booleans(),
    _optional("--element", elements),
)

argvs = st.one_of(
    family, classify, cyclotomic, quad, order, obstruction, reparam,
    st.lists(JUNK | st.sampled_from(["frobnicate", "--t", "gen-a3"]), max_size=3),
)


def _run(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit here
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argvs)
def test_every_argv_ends_in_a_documented_outcome(argv):
    # an uncaught exception fails the test with its traceback
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
    else:
        assert out == dumps_canonical(json.loads(out)), argv
        if code == 1:
            doc = json.loads(out)
            assert "error" in doc or argv[0] == "quad-a2", argv
