"""Command-line contract: JSON shapes, exit codes, determinism, round-trips."""

import argparse
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from oracles import hermite_form
import tracelattice
from tracelattice import a3_factory, orders_ideals, quadratic_a2, serialize
from tracelattice.cli import _join_negative_values, _read_plain, main
from tracelattice.errors import TooLarge, number_text

# the directory holding the package under test, for child interpreters
SRC = os.path.dirname(os.path.dirname(tracelattice.__file__))


def run_cli(args, capsys):
    """In-process run; returns (exit code, parsed document or None)."""
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def run_python(argv, env_extra=None, timeout=None, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_proc(args, env_extra=None, timeout=None, stdout=subprocess.PIPE):
    return run_python(["-m", "tracelattice", *args], env_extra, timeout, stdout)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_a3(capsys):
    code, doc = run_cli(["classify", "--gram", "[[2,1,1],[1,2,1],[1,1,2]]"], capsys)
    assert code == 0 and doc == {"type": "A3"}


def test_classify_accepts_rational_strings(capsys):
    code, doc = run_cli(
        ["classify", "--gram", '[["2","-1"],["-1","2"]]'], capsys
    )
    assert code == 0 and doc == {"type": "A2"}


def test_classify_d4(capsys):
    gram = "[[2,-1,-1,-1],[-1,2,0,0],[-1,0,2,0],[-1,0,0,2]]"
    code, doc = run_cli(["classify", "--gram", gram], capsys)
    assert code == 0 and doc == {"type": "D4"}


def test_classify_roots_of_lower_rank_are_other(capsys):
    # the roots +-e1 span a rank-1 sublattice, which has no Hermite basis of
    # rank 2: the root system does not generate, so the type is other
    code, doc = run_cli(["classify", "--gram", "[[2,0],[0,4]]"], capsys)
    assert code == 0 and doc == {"type": "other"}


def test_classify_usage_error_is_exit_2():
    r = run_proc(["classify", "--gram", "nonsense"])
    assert r.returncode == 2
    assert "invalid gram" in r.stderr


def test_classify_asymmetric_gram_is_exit_2():
    r = run_proc(["classify", "--gram", "[[2,1],[0,2]]"])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "not symmetric" in r.stderr and "Traceback" not in r.stderr


def test_classify_indefinite_gram_is_exit_1():
    # exit 1 carries the error document, never a traceback
    r = run_proc(["classify", "--gram", "[[1,2],[2,1]]"])
    assert r.returncode == 1
    assert r.stderr == ""
    assert r.stdout == (
        '{"error":{"detail":"form is not positive definite",'
        '"kind":"NotPositiveDefinite"}}\n'
    )


# ---------------------------------------------------------------------------
# cyclotomic
# ---------------------------------------------------------------------------

def test_cyclotomic_preset_exact_bytes():
    r = run_proc(["cyclotomic", "--p", "5"])
    assert r.returncode == 0
    assert r.stdout == '{"type":"A4"}\n'


def test_cyclotomic_p3(capsys):
    code, doc = run_cli(["cyclotomic", "--p", "3"], capsys)
    assert code == 0 and doc == {"type": "A2"}


def test_cyclotomic_p23_is_a22():
    r = run_proc(["cyclotomic", "--p", "23"])
    assert r.returncode == 0
    assert r.stdout == '{"type":"A22"}\n'


def test_cyclotomic_p31_is_a30():
    # p = 31 is the largest prime under the rank cap of 32
    r = run_proc(["cyclotomic", "--p", "31"])
    assert r.returncode == 0
    assert r.stdout == '{"type":"A30"}\n'


def test_cyclotomic_p37_is_the_rank_cap_of_n37():
    # --p and --n pass through the one rank-cap check
    by_p = run_proc(["cyclotomic", "--p", "37"])
    by_n = run_proc(["cyclotomic", "--n", "37", "--generator", "z"])
    assert by_p.returncode == by_n.returncode == 1
    assert by_p.stdout == by_n.stdout == (
        '{"error":{"detail":"rank 36 exceeds the enumeration cap of 32",'
        '"kind":"RankTooLarge"}}\n'
    )


def test_cyclotomic_not_prime_is_exit_1(capsys):
    code, doc = run_cli(["cyclotomic", "--p", "9"], capsys)
    assert code == 1 and doc["error"]["kind"] == "NotPrime"


@pytest.mark.parametrize("n, rank", [(47, 46), (100, 40), (1000, 400)])
def test_cyclotomic_past_the_rank_cap_is_exit_1(n, rank):
    # phi(n) is checked against the cap before Q(zeta_n) is built, so even
    # n = 1000 (phi = 400) answers at once
    r = run_proc(["cyclotomic", "--n", str(n), "--generator", "z"], timeout=30)
    assert r.returncode == 1
    assert r.stdout == (
        '{"error":{"detail":"rank %d exceeds the enumeration cap of 32",'
        '"kind":"RankTooLarge"}}\n' % rank
    )


@pytest.mark.parametrize(
    "n, detail, factored",
    [
        # (10^15 + 37) * 1000001000000017, which factor had not split
        # after 20 s on a 2-vCPU host
        (
            1000001000000054000037000000629,
            "rank at least 707107134739868 exceeds the enumeration cap of 32",
            0,
        ),
        # the least n with isqrt(n // 2) past the cap, and the one below it
        (2178, "rank at least 33 exceeds the enumeration cap of 32", 0),
        (2177, "rank 1860 exceeds the enumeration cap of 32", 1),
    ],
    ids=["semiprime-31-digits", "2178", "2177"],
)
def test_cyclotomic_rank_cap_factors_only_a_small_n(n, detail, factored, call_counts, capsys):
    # phi(n) >= sqrt(n / 2), so an n whose bound passes the cap is refused
    # without factoring it; a smaller one is factored for its exact rank
    from tracelattice._intfactor import factor

    code, calls = call_counts([factor], main, ["cyclotomic", "--n", str(n), "--generator", "z"])
    assert code == 1 and calls == factored
    assert json.loads(capsys.readouterr().out) == {
        "error": {"detail": detail, "kind": "RankTooLarge"}
    }


def test_cyclotomic_generator_mode(capsys):
    code, doc = run_cli(
        ["cyclotomic", "--n", "5", "--generator", "(1-z)^-1"], capsys
    )
    assert code == 0
    assert doc["type"] == "A4"
    assert doc["ambient"] == {"kind": "cyclotomic", "n": 5}
    assert len(doc["basis"]) == 4


#: the document of an output number past the interpreter's int-to-str
#: limit, which the program leaves at its default of 4300 digits
TOO_LARGE = (
    '{"error":{"detail":"an output number has more than 4300 digits",'
    '"kind":"TooLarge"}}\n'
)


@pytest.mark.parametrize(
    "args",
    [
        # 2^100000 has 30103 digits, in matrix_json
        ["cyclotomic", "--n", "5", "--generator", "2^100000"],
        # lambda and the basis have rationals of over 4300 digits
        ["gen-a3", f"--t={10**1500 + 1}", "--height", "1"],
    ],
    ids=["cyclotomic", "gen-a3"],
)
def test_output_past_the_digit_limit_is_too_large(args):
    r = run_proc(args, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (1, TOO_LARGE, "")


def test_error_detail_past_the_digit_limit_is_a_digit_count():
    # Tr(alpha) = 3 + 10^3999 (3 + t) has 7,999 digits, past the int-to-str
    # limit: the message gives its digit count, and the run exits 1
    zeros = "0" * 3999
    r = run_proc(["reparam", f"--t=1{zeros}", f"--element=1,1{zeros},0"], timeout=60)
    assert (r.returncode, r.stderr) == (1, "")
    assert r.stdout == (
        '{"error":{"detail":"Tr(alpha) = <7999 digits> != 0","kind":"NonzeroTrace"}}\n'
    )


def test_number_text_counts_digits_past_the_limit():
    limit = sys.get_int_max_str_digits()
    big = 10**limit
    assert number_text(12) == "12"
    assert number_text(Fraction(-3, 4)) == "-3/4"
    assert number_text(big) == f"<{limit + 1} digits>"
    assert number_text(-7 * big) == f"-<{limit + 1} digits>"
    assert len(number_text(big - 1)) == limit
    assert number_text(Fraction(7, big)) == f"7/<{limit + 1} digits>"
    assert number_text(Fraction(big * 3 + 1, 2)) == f"<{limit + 1} digits>/2"
    assert number_text(Fraction(big)) == f"<{limit + 1} digits>"


def test_cyclotomic_flag_conflicts_are_usage_errors():
    assert run_proc(["cyclotomic", "--p", "5", "--n", "3"]).returncode == 2
    assert run_proc(["cyclotomic", "--n", "5"]).returncode == 2
    assert run_proc(["cyclotomic"]).returncode == 2
    r = run_proc(["cyclotomic", "--n", "5", "--generator", "1+q"])
    assert r.returncode == 2 and "position" in r.stderr


# ---------------------------------------------------------------------------
# gen-a3 / gen-selfdual
# ---------------------------------------------------------------------------

def test_gen_a3_member_schema(capsys):
    code, docs = run_cli(["gen-a3", "--t", "1", "--height", "3"], capsys)
    assert code == 0 and isinstance(docs, list) and len(docs) >= 5
    for doc in docs:
        assert set(doc) == {
            "ambient", "basis", "gram", "hnf", "lambda", "point", "slope", "type",
        }
        assert doc["type"] == "A3"
        assert doc["gram"] == [["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]]
        assert doc["ambient"] == {"kind": "shanks", "t": "1"}
        assert set(doc["hnf"]) == {"scale", "rows"}
    keys = {json.dumps(d["hnf"], sort_keys=True) for d in docs}
    assert len(keys) == len(docs)


def test_gen_selfdual_identity_grams(capsys):
    code, docs = run_cli(["gen-selfdual", "--t", "1", "--height", "3"], capsys)
    assert code == 0 and len(docs) >= 3
    eye = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert all(doc["gram"] == eye for doc in docs)


def test_gen_a3_deterministic_bytes():
    base = run_proc(["gen-a3", "--t", "1/3", "--height", "4"])
    again = run_proc(["gen-a3", "--t", "1/3", "--height", "4"])
    # the removed thread-count variable is ignored, whatever its value
    stray = run_proc(
        ["gen-a3", "--t", "1/3", "--height", "4"],
        env_extra={"TRACE_LATTICE_THREADS": "abc"},
    )
    assert base.returncode == 0
    assert base.stdout == again.stdout == stray.stdout


#: sha256 of the stdout of fixed runs: the bytes must not move when the
#: arithmetic under them changes
PINNED_STDOUT_SHA256 = [
    (
        ["gen-a3", "--t=-1/2", "--height", "6"],
        "d21f3cb35f1476ccd8ad077d7894ad16a90ab2866fdb934fcdb5f8206749477c",
    ),
    (
        ["gen-selfdual", "--t=2", "--height", "6"],
        "5d86c464ff73ee14c14eedd000422bca965d004644174a8ecff81eb86de8ed59",
    ),
    (
        ["quad-a2", "--d", "3", "--height", "3"],
        "330ba99ab1d3672162611cca37cc3c961015caa00f7b3637ec83d601f1bcdd7d",
    ),
    (
        ["quad-a2", "--d", "3", "--height", "12"],
        "18135f774f9a141bbee715f668fb6769bb1d8e65629fe095b93e8cf5c7514c36",
    ),
    # the benchmark's family sweeps at their full size
    (
        ["gen-a3", "--t=1", "--height", "16"],
        "b6bb05b595c9ce9b43711727c548ecd478fb9de3e455c217ae1cd74a69e44ade",
    ),
    (
        ["gen-selfdual", "--t=-5/2", "--height", "16"],
        "4c4d1c178404b8b9bba6145a63c03bf775dad71394f7f54946bec655b5f06c67",
    ),
    (
        ["quad-a2", "--d", "2", "--height", "300", "--falsify"],
        "d463381689b8aff53c82d6758f8a6ca3dc8f3acde410df9a4e361b2a9dd4adbc",
    ),
    (
        ["cyclotomic", "--p", "11"],
        "2304b13eb52f3f8dbb48aa15de79d56ea0ae851c5027762a3b13aaef3740f0bc",
    ),
    (
        ["cyclotomic", "--n", "12", "--generator", "1+z"],
        "0e9d3e3530b1c5a2aa931080edd94219f39ac63688eb6b7e9e53bfeefc519479",
    ),
    (
        ["cyclotomic", "--n", "7", "--generator", "(1-z)^-2"],
        "b78c0e082ce43b8578aea391c396369c2eb7f3e57c53aabedf5144534ea25e53",
    ),
    (
        ["order", "--t=3/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"],
        "03a5d9774ef0eb1d1259e67183ad301561e328fb0ba7d173e7f9ae6d4516517b",
    ),
    (
        ["order", "--t=2", "--different", "--sqrt-different"],
        "bd85def76ffe400474d8c9c8656e4498426178e81b88c9b4efd845923402989b",
    ),
    (
        ["order", "--t=-1/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"],
        "75c9af081eacce90b7bfd9676d4b9884d192edc6bc6a2c0b1d882921f6d8fea6",
    ),
    (
        ["order", "--t=9/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"],
        "52e438d2c3565ce476ec47b0f0c9942d4c566551b4fb0572ddc66da7d778e342",
    ),
    (
        ["order", "--t=13", "--different", "--sqrt-different", "--primes2"],
        "1f7e5b15960a1a164db98f5a30d7ac10c34a18e28994d38265e2ed29c91c7a53",
    ),
    (
        ["quad-a2", "--d", "3", "--height", "4", "--falsify"],
        "39b44808c9f661b9d4f1433e2a5ee5bb98d5d691ab237ddfb7b8627d6d03a2d5",
    ),
    (
        ["gen-a3", "--t=1/3", "--height", "3"],
        "8cd9805a5059baed012c66440ac0d3053f0d33592eb507ae8d60168a51e7e2ea",
    ),
    (
        ["gen-selfdual", "--t=-5/2", "--height", "4"],
        "81ee0dbca8c9239cd5a49fd6dd3987bc601b15dca60a9f9482c4a83d713099d9",
    ),
    (
        ["cyclotomic", "--n", "9", "--generator", "(1-z)^-1"],
        "e448c928c2efbc29a3d08ea97e43e92415c574a7a340609d2ccc58de8aafa784",
    ),
    (
        ["cyclotomic", "--n", "5", "--generator", "(2+z)/(1-z)"],
        "427b5a11083912c68b0af6dada81c4ae5e48a79363f6b6d42e1b6a0d7b6e2003",
    ),
    (
        ["quad-a2", "--d", "11", "--height", "300", "--falsify"],
        "f9ad8ab63fc2517aa3493b23f6eddf7102eb5807fb246bfb295c860ac9173a86",
    ),
    (
        ["gen-a3", "--t=-1/2", "--height", "16"],
        "86152dd3f9f10638f412792beba7fab401c970cc980b4ef0ba14458f2d4db24d",
    ),
    (
        ["gen-selfdual", "--t=2", "--height", "16"],
        "5b0556787c86c73c6fa60b5649cf76988643ca25a89fd845271f9eddfbc63c16",
    ),
    # larger arrays, written one member at a time
    (
        ["gen-a3", "--t=1", "--height", "64"],
        "427653e54781e77708dea6cbd9050e2722129da7b9d25e639a920eb777ccaa54",
    ),
    (
        ["quad-a2", "--d", "3", "--height", "40"],
        "8e68323c121c08a92b5f2af7d6a92457024a4b410ff15856abfaaf1d8bd76486",
    ),
    # the last falsify search of the benchmark's family sweep
    (
        ["quad-a2", "--d", "5", "--height", "300", "--falsify"],
        "dd76d0c0f89fcade7d129df5adb6b7415cb6997cffc2510aa3d97b2b47213596",
    ),
]


@pytest.mark.parametrize(
    "args, digest", PINNED_STDOUT_SHA256, ids=[a[0] for a, _ in PINNED_STDOUT_SHA256]
)
def test_stdout_bytes_are_pinned(args, digest, capsys):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [a for a, _ in PINNED_STDOUT_SHA256], ids=lambda a: a[0])
def test_pinned_commands_are_read_without_argparse(args):
    assert _read_plain(_join_negative_values(args)) is not None


def hermite_key(basis) -> tuple:
    """(scale, rows) of a printed basis by the oracle: the least common
    denominator of its entries and the hermite_form of the cleared rows."""
    rows = [[Fraction(x) for x in row] for row in basis]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return scale, hermite_form([[x * scale for x in row] for row in rows])


@pytest.mark.parametrize(
    "args",
    [
        ["gen-a3", "--t=1", "--height", "16"],
        ["gen-a3", "--t=-1/2", "--height", "16"],
        ["gen-selfdual", "--t=2", "--height", "16"],
        ["gen-selfdual", "--t=-5/2", "--height", "16"],
    ],
    ids=["gen-a3-t=1", "gen-a3-t=-1/2", "gen-selfdual-t=2", "gen-selfdual-t=-5/2"],
)
def test_family_hnfs_match_the_oracle_and_are_distinct(args, capsys):
    # the sweep dedupes by sigma-rotation alone: every printed hnf is the
    # oracle's Hermite form of the printed basis, and no two are equal
    code, docs = run_cli(args, capsys)
    assert code == 0 and docs
    keys = []
    for doc in docs:
        scale, rows = hermite_key(doc["basis"])
        assert doc["hnf"] == {"scale": scale, "rows": rows}
        keys.append((scale, str(rows)))
    assert len(set(keys)) == len(keys)


def test_quad_a2_family_bases_span_distinct_lattices(capsys):
    # the sweep dedupes by the unit key alone; the oracle's Hermite forms
    # of the printed bases are pairwise distinct
    code, docs = run_cli(["quad-a2", "--d", "3", "--height", "12"], capsys)
    assert code == 0 and len(docs) == 93
    assert len({str(hermite_key(doc["basis"])) for doc in docs}) == 93


# ---------------------------------------------------------------------------
# sweeps in output-bounded memory
# ---------------------------------------------------------------------------

#: each sweep command, the module and name of the generator it consumes, and
#: the serialize function that turns one yielded member into its document
SWEEPS = [
    (["gen-a3", "--t=1", "--height", "6"], a3_factory, "_family_members", "member_json"),
    (["gen-selfdual", "--t=-5/2", "--height", "6"], a3_factory, "_family_members", "member_json"),
    (["quad-a2", "--d", "3", "--height", "6"], quadratic_a2, "_distinct_lattices", "lattice_json"),
]
SWEEP_IDS = ["gen-a3", "gen-selfdual", "quad-a2"]


class CountingSink:
    """A standard output that counts the characters it is given and its
    writes, and keeps nothing."""

    def __init__(self):
        self.chars = self.writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += 1
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return 1


class DigestSink(CountingSink):
    """A CountingSink that also keeps the sha256 of what it is given."""

    def __init__(self):
        super().__init__()
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return super().write(text)


@pytest.mark.parametrize("args, module, generator, encoder", SWEEPS, ids=SWEEP_IDS)
def test_sweeps_hold_one_member_at_a_time(args, module, generator, encoder, monkeypatch, capsys):
    # element k is encoded when exactly k + 1 members have been yielded:
    # each member is generated, certified and encoded before the next
    yielded = []
    seen_at_encoding = []
    sweep, encode = getattr(module, generator), getattr(serialize, encoder)

    def counted_sweep(*a):
        for member in sweep(*a):
            yielded.append(member)
            yield member

    def counted_encode(member):
        assert member is yielded[-1]
        seen_at_encoding.append(len(yielded))
        return encode(member)

    monkeypatch.setattr(module, generator, counted_sweep)
    monkeypatch.setattr(serialize, encoder, counted_encode)
    code, docs = run_cli(args, capsys)
    assert code == 0 and len(docs) > 10
    assert seen_at_encoding == list(range(1, len(docs) + 1))


@pytest.mark.parametrize(
    "args", [["gen-a3", "--t=1", "--height", "16"], ["gen-selfdual", "--t=-5/2", "--height", "16"]],
    ids=["gen-a3", "gen-selfdual"],
)
def test_a_sweep_command_runs_in_a_small_multiple_of_its_output(args, monkeypatch):
    # the whole command path, scan included, writing to a sink that keeps
    # no text.  Measured (Python 3.11): 2.7 times the 87,532 and 96,027
    # characters of the two documents, against 6.5 and 5.5 times when the
    # scan collected every member before the first was encoded
    monkeypatch.setattr(sys, "stdout", CountingSink())
    assert main([*args[:-1], "2"]) == 0  # modules imported, field built
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.chars > 80_000
    assert peak < 4 * sink.chars


@pytest.mark.parametrize(
    "error",
    [TooLarge("an output number is too long"), AssertionError("tampered")],
    ids=["TooLarge", "AssertionError"],
)
@pytest.mark.parametrize("args, module, generator, encoder", SWEEPS, ids=SWEEP_IDS)
def test_an_error_mid_sweep_writes_the_error_document_alone(
    args, module, generator, encoder, error, monkeypatch, capsys, tmp_path
):
    # every element is encoded before the first byte is written, so an
    # error at member 3 leaves no part of the array, on stdout or at --json
    encode = getattr(serialize, encoder)
    calls = []

    def failing_encode(member):
        calls.append(member)
        if len(calls) == 4:
            raise error
        return encode(member)

    monkeypatch.setattr(serialize, encoder, failing_encode)
    kind = "TooLarge" if isinstance(error, TooLarge) else "CertificateFailure"
    expected = json.dumps({"error": {"detail": str(error), "kind": kind}}, separators=(",", ":"))
    assert main(args) == 1
    assert capsys.readouterr().out == expected + "\n"
    out = tmp_path / "sweep.json"
    calls.clear()
    assert main([*args, "--json", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == expected + "\n"


def test_a_large_sweep_reaches_stdout_in_few_writes(monkeypatch):
    # the 1.49 MB height-64 document goes out in batches of 64 KiB, neither
    # per member nor joined whole, and its bytes are the pinned ones
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    args = ["gen-a3", "--t=1", "--height", "64"]
    assert main(args) == 0
    assert sink.chars == 1_491_764
    assert sink.writes <= math.ceil(sink.chars / 65536) + 1
    pinned = {tuple(a): digest for a, digest in PINNED_STDOUT_SHA256}
    assert sink.sha256.hexdigest() == pinned[tuple(args)]


#: sha256 of the --help stdout at 80 columns, of the top level and of each
#: subcommand: the usage text must not move when the command line is rebuilt
PINNED_HELP_SHA256 = [
    ([], "b06346ee2b7aa6d7fa266684d9afc81b437e456be38bf6684e7b158b4239496e"),
    (["gen-a3"], "367fa5710b4d7e08b4c63ba28f7467373b3b551dea205e22357a804b36338b0c"),
    (["gen-selfdual"], "cd31c04a75f334aaa84794a520affcc075fd8bd06d8bfe70c0ce2ca71524882b"),
    (["classify"], "06794824d53a4993bf35a056c8f93be048cf9c544638365a370481cbc34f3af4"),
    (["cyclotomic"], "0f595505ce05a39b940d788b63a706e08a2622b96926f84c76a9aa454825d089"),
    (["quad-a2"], "fdfaec613c46203d39b756c28bf83eab2a5af014963008c8373544c79e4dbb62"),
    (["order"], "ace2ceab5be1870d1d7e218e4dc17b77106737bb7f5f250f5aed95bae2933132"),
    (["obstruction"], "3cdd8526153af08aa848b746cd088b73bbba1f7047689a84096a5daabc97f960"),
    (["reparam"], "f088135d80b3b48725b22a47ec6102fbb4c86d4897b18f836ec0c609d30aa170"),
]


@pytest.mark.parametrize(
    "sub, digest", PINNED_HELP_SHA256, ids=[s[0] if s else "top" for s, _ in PINNED_HELP_SHA256]
)
def test_help_bytes_are_pinned(sub, digest, capsys, monkeypatch):
    # argparse wraps the help text to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_order_command_derives_each_ideal_once(monkeypatch, capsys):
    # --primes2 and --fake-a3 both read the primes above 2, and
    # --different, --sqrt-different and --fake-a3 all read D^-1: the order
    # computes each once and keeps it
    calls = {"dual": 0, "primes": 0}
    trace_dual, idempotent_primes = orders_ideals._trace_dual, orders_ideals._idempotent_primes

    def counted_dual(o):
        calls["dual"] += 1
        return trace_dual(o)

    def counted_primes(o):
        calls["primes"] += 1
        return idempotent_primes(o)

    monkeypatch.setattr(orders_ideals, "_trace_dual", counted_dual)
    monkeypatch.setattr(orders_ideals, "_idempotent_primes", counted_primes)
    args = ["order", "--t=-1/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert calls == {"dual": 1, "primes": 1}
    assert (args, hashlib.sha256(out.encode()).hexdigest()) in PINNED_STDOUT_SHA256


@pytest.mark.parametrize(
    "args,orders,steps,radicals",
    [
        (["--t=-1/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"], 2, 3, 3),
        (["--t=3/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"], 2, 4, 4),
        (["--t=1", "--different", "--sqrt-different"], 1, 1, 1),
    ],
    ids=["t=-1/2", "t=3/2", "t=1"],
)
def test_order_command_builds_each_order_once(args, orders, steps, radicals, call_counts):
    # the climb starts from the equation order the command prints, so the
    # orders built are that one and one per strict idealizer step; the order
    # the climb returns is recorded as maximal, so the trace dual runs no
    # idealizer step again.  Each p-radical is kept on its order, so the
    # square root reads the ones the climb's last step at each prime built
    targets = [orders_ideals.Order.__init__, orders_ideals._enlarge_at, orders_ideals._p_radical]
    assert call_counts(targets, main, ["order", *args]) == (0, orders, steps, radicals)


def test_gen_a3_classify_round_trip(capsys):
    code, docs = run_cli(["gen-a3", "--t", "2", "--height", "3"], capsys)
    assert code == 0
    for doc in docs:
        code2, res = run_cli(["classify", "--gram", json.dumps(doc["gram"])], capsys)
        assert code2 == 0 and res["type"] == doc["type"]


def test_gen_a3_reducible_t_is_exit_1(capsys):
    code, doc = run_cli(["gen-a3", "--t=-3/2", "--height", "2"], capsys)
    assert code == 1 and doc["error"]["kind"] == "Reducible"


@pytest.mark.parametrize("sub", ["gen-a3", "gen-selfdual"])
def test_family_at_t0_is_exit_1_naming_the_remap(sub, capsys):
    # f_0 is irreducible, but its eps-orbit is no basis: the detail sends
    # the caller to the same field at t = -3
    code, doc = run_cli([sub, "--t=0", "--height", "2"], capsys)
    assert code == 1 and doc["error"]["kind"] == "ZeroParameter"
    assert "remap_t0()" in doc["error"]["detail"]


def test_gen_a3_bad_rational_flag_is_exit_2():
    r = run_proc(["gen-a3", "--t", "1.5", "--height", "3"])
    assert r.returncode == 2 and "position 1" in r.stderr


def test_json_flag_writes_same_bytes(tmp_path):
    out = tmp_path / "fam.json"
    r1 = run_proc(["gen-a3", "--t", "1", "--height", "3"])
    r2 = run_proc(["gen-a3", "--t", "1", "--height", "3", "--json", str(out)])
    assert r2.returncode == 0 and r2.stdout == ""
    assert out.read_text() == r1.stdout


def stdout_error(code: int) -> str:
    return f"tracelattice: error: cannot write standard output: {os.strerror(code)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_exit_2():
    # the write fails in main, at once or at its flush when stdout is
    # buffered, so the interpreter's own flush at exit has nothing to fail on
    with open("/dev/full", "w") as full:
        r = run_proc(["classify", "--gram", "[[2]]"], stdout=full)
    assert r.returncode == 2 and r.stderr == stdout_error(errno.ENOSPC)


def test_stdout_pipe_closed_before_the_write_is_exit_2():
    # the 87 KB gen-a3 document is written straight to the pipe, whose read
    # end is already closed
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        r = run_proc(["gen-a3", "--t=1", "--height", "16"], stdout=write_fd)
    finally:
        os.close(write_fd)
    assert r.returncode == 2 and r.stderr == stdout_error(errno.EPIPE)


@pytest.mark.parametrize(
    "launch",
    [
        # fd 1 closed before start-up leaves sys.stdout None
        "import os, sys; os.close(1); "
        "os.execv(sys.executable, [sys.executable, '-m', 'tracelattice', *sys.argv[1:]])",
        # closed after it, the write or its flush fails, and os.devnull is
        # then opened as fd 1 itself
        "import os, runpy; os.close(1); runpy.run_module('tracelattice', run_name='__main__')",
    ],
    ids=["before-start-up", "after-start-up"],
)
def test_closed_stdout_is_exit_2(launch):
    r = run_python(["-c", launch, "classify", "--gram", "[[2]]"])
    assert r.returncode == 2 and r.stderr == stdout_error(errno.EBADF)


# ---------------------------------------------------------------------------
# quad-a2
# ---------------------------------------------------------------------------

def test_quad_a2_family(capsys):
    code, docs = run_cli(["quad-a2", "--d", "3", "--height", "3"], capsys)
    assert code == 0 and len(docs) >= 7
    assert all(doc["type"] == "A2" for doc in docs)
    assert all(doc["gram"] == [["2", "-1"], ["-1", "2"]] for doc in docs)


def test_quad_a2_family_needs_d3():
    assert run_proc(["quad-a2", "--d", "5", "--height", "3"]).returncode == 2


def test_quad_a2_falsify_negative(capsys):
    code, doc = run_cli(["quad-a2", "--d", "5", "--height", "10", "--falsify"], capsys)
    assert code == 0
    assert doc == {"d": 5, "height": 10, "witness": None}


def test_quad_a2_falsify_decides_any_height_off_d3():
    # the norm identity answers d = 5 with no point enumerated, so a height
    # no pair search could cover is answered at once
    proc = run_proc(
        ["quad-a2", "--d", "5", "--height", "1000000", "--falsify"], timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"d":5,"height":1000000,"witness":null}\n'


def test_quad_a2_falsify_d3_is_closed_at_any_height():
    # the point search this replaced grew past 7.5 GB at this height
    proc = run_proc(
        ["quad-a2", "--d", "3", "--height", "1000000", "--falsify"], timeout=30
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"d":3,"height":1000000,"witness":{"ambient":{"d":3,"kind":"quad","sign":-1},'
        '"basis":[["-1","0"],["1/2","-1/2"]],"gram":[["2","-1"],["-1","2"]],"type":"A2"}}\n'
    )


def test_quad_a2_falsify_d3_finds_witness(capsys):
    code, doc = run_cli(["quad-a2", "--d", "3", "--height", "5", "--falsify"], capsys)
    assert code == 0
    assert doc["witness"]["type"] == "A2"


#: 9999999967 * 9999999943, a product of the two largest primes below 10^10
#: and the costliest kind of radicand to test for squarefreeness under the cap
NEAR_CAP_SEMIPRIME = 99999999100000001881


def test_quad_a2_falsify_just_under_the_cap():
    proc = run_proc(
        ["quad-a2", "--d", str(NEAR_CAP_SEMIPRIME), "--height", "1", "--falsify"],
        timeout=30,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "d": NEAR_CAP_SEMIPRIME, "height": 1, "witness": None
    }


@pytest.mark.parametrize(
    "d",
    [
        str(10**20 + 1),
        # (10^18 + 3)(10^18 + 9): factoring it to test squarefreeness hung
        str((10**18 + 3) * (10**18 + 9)),
    ],
)
def test_quad_a2_radicand_above_the_cap_is_exit_2(d):
    proc = run_proc(["quad-a2", "--d", d, "--height", "1", "--falsify"], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == "" and "at most 10^20" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_quad_a2_non_squarefree_is_exit_2():
    assert run_proc(["quad-a2", "--d", "8", "--height", "3", "--falsify"]).returncode == 2


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

def test_order_base_document(capsys):
    code, doc = run_cli(["order", "--t", "1/2"], capsys)
    assert code == 0
    assert doc["equation_order"]["disc"] == 7396
    assert doc["maximal_order"]["disc"] == 1849
    assert doc["equation_order"]["basis"] == [
        ["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"],
    ]
    assert "different_inverse" not in doc


def test_order_full_flags(capsys):
    code, doc = run_cli(
        ["order", "--t", "1/2", "--different", "--sqrt-different", "--primes2",
         "--fake-a3"],
        capsys,
    )
    assert code == 0
    assert doc["sqrt_different_inverse"]["type"] == "unimodular_odd"
    assert doc["primes_above_2"]["split"] is True
    assert len(doc["primes_above_2"]["ideals"]) == 3
    certs = doc["fake_a3"]["certificates"]
    assert certs["disc_group"] == [1, 1, 4]
    assert certs["type"] == "diag114"
    assert certs["galois_stable"] is False
    assert certs["odd_trace_witness"] is not None
    assert doc["fake_a3"]["type"] == "diag114"


def test_order_inert_two(capsys):
    code, doc = run_cli(["order", "--t", "1", "--primes2"], capsys)
    assert code == 0
    assert doc["primes_above_2"]["split"] is False
    assert len(doc["primes_above_2"]["ideals"]) == 1


def test_order_fake_a3_inert_is_exit_1(capsys):
    code, doc = run_cli(["order", "--t", "1", "--fake-a3"], capsys)
    assert code == 1 and doc["error"]["kind"] == "TwoInert"


def test_order_large_conductor_is_exit_0(capsys):
    # conductor 217, past what an index-m sublattice search can reach
    code, doc = run_cli(
        ["order", "--t", "13", "--different", "--sqrt-different"], capsys
    )
    assert code == 0
    assert doc["maximal_order"]["disc"] == 217 * 217
    assert doc["sqrt_different_inverse"]["type"] == "unimodular_odd"


def test_order_at_a_13_digit_prime_conductor_finishes():
    # t = 1000001: delta = t^2 + 3t + 9 is the prime 1000005000013, so the
    # p-radical needs x^p with p of 13 digits; the timeout turns a linear
    # Frobenius loop into a failure
    proc = run_proc(
        ["order", "--t=1000001", "--different", "--sqrt-different", "--primes2"],
        timeout=30,
    )
    assert proc.returncode == 0
    disc = json.loads(proc.stdout)["maximal_order"]["disc"]
    assert math.isqrt(disc) ** 2 == disc
    assert disc % 1000005000013 == 0


@pytest.mark.parametrize("t", ["3/2", "-1/2", "9/2"])
def test_order_factors_one_number(t, monkeypatch, capsys):
    # maximal_order factors the equation order's discriminant; the maximal
    # order's discriminant and its square root are read off those primes
    calls = []
    real = orders_ideals.factor

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(orders_ideals, "factor", counting)
    args = ["order", f"--t={t}", "--different", "--sqrt-different", "--primes2", "--fake-a3"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert calls == [json.loads(out)["equation_order"]["disc"]]
    assert (args, hashlib.sha256(out.encode()).hexdigest()) in PINNED_STDOUT_SHA256


def test_order_takes_the_inverse_different_once(capsys, monkeypatch):
    calls = []
    real = orders_ideals.different_inverse

    def counting(o):
        calls.append(o)
        return real(o)

    # the order command imports its names when it runs, so it reads this one
    monkeypatch.setattr(orders_ideals, "different_inverse", counting)
    code, doc = run_cli(
        ["order", "--t=3/2", "--different", "--sqrt-different", "--fake-a3"], capsys
    )
    assert code == 0 and doc["fake_a3"]["type"] == "diag114"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "sub,extra",
    [
        ("gen-a3", ["--height", "2"]),
        ("order", ["--fake-a3"]),
        # a negative first coordinate after a space is joined the same way
        ("reparam", ["--element", "-1/6,-1,0"]),
    ],
)
def test_negative_rational_t_after_a_space(sub, extra):
    spaced = run_proc([sub, "--t", "-1/2", *extra])
    joined = run_proc([sub, "--t=-1/2", *extra])
    assert spaced.returncode == 0 and spaced.stderr == ""
    assert spaced.stdout == joined.stdout


@pytest.mark.parametrize("generator", ["-1+z", "-z^2", "-(1-z)"])
def test_negative_generator_after_a_space(generator):
    spaced = run_proc(["cyclotomic", "--n", "5", "--generator", generator])
    joined = run_proc(["cyclotomic", "--n", "5", f"--generator={generator}"])
    assert spaced.returncode == 0 and spaced.stderr == ""
    assert spaced.stdout == joined.stdout


def test_generator_followed_by_a_flag_is_exit_2(tmp_path):
    r = run_proc(["cyclotomic", "--n", "5", "--generator", "--json", str(tmp_path / "x")])
    assert r.returncode == 2 and "--generator: expected one argument" in r.stderr


# ---------------------------------------------------------------------------
# obstruction / reparam
# ---------------------------------------------------------------------------

def test_obstruction_verdicts(capsys):
    code, doc = run_cli(["obstruction", "--dF", "229", "--disc-order", "4"], capsys)
    assert code == 0 and doc == {"verdict": "excluded"}
    code, doc = run_cli(["obstruction", "--dF", "169", "--disc-order", "4"], capsys)
    assert code == 0 and doc == {"verdict": "not excluded by this criterion"}


def test_obstruction_zero_disc_is_exit_2():
    assert run_proc(["obstruction", "--dF", "0", "--disc-order", "4"]).returncode == 2
    assert run_proc(["obstruction", "--dF", "5", "--disc-order", "0"]).returncode == 2


def test_obstruction_on_a_37_digit_semiprime_finishes():
    # (10^18 + 3)(10^18 + 9); the timeout turns a factoring hang into a failure
    dF = str((10**18 + 3) * (10**18 + 9))
    proc = run_proc(["obstruction", "--dF", dF, "--disc-order", "5"], timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"verdict": "excluded"}


def test_reparam_frozen_value(capsys):
    code, doc = run_cli(["reparam", "--t", "1", "--element=-3,9,0"], capsys)
    assert code == 0 and doc == {"t": "1", "t_prime": "6/5"}


def test_reparam_nonzero_trace_is_exit_1(capsys):
    code, doc = run_cli(["reparam", "--t", "1", "--element", "1,0,0"], capsys)
    assert code == 1 and doc["error"]["kind"] in ("NonzeroTrace", "RationalInput")


def test_reparam_flag_shape_errors():
    assert run_proc(["reparam", "--t", "1", "--element", "1,2"]).returncode == 2
    r = run_proc(["reparam", "--t", "1", "--element", "1,q,0"])
    assert r.returncode == 2 and "position" in r.stderr


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------

#: prints, as the last line of stdout, the package modules imported so far
PRINT_LOADED = 'print(" ".join(m for m in sys.modules if m.startswith("tracelattice.")))\n'

#: runs `python -m tracelattice ARGS` in the child interpreter
RUN_MODULE = """
import runpy, sys
try:
    runpy.run_module("tracelattice", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (None, 0), exc.code
"""

#: the modules of the field constructions, which only their subcommands use
FIELD_MODULES = {
    "tracelattice.a3_factory",
    "tracelattice.cyclotomic_ideals",
    "tracelattice.orders_ideals",
    "tracelattice.quadratic_a2",
    "tracelattice.shanks_field",
}


def loaded_modules(code, *args):
    proc = run_python(["-c", code, *args])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_tracelattice_loads_no_submodule():
    assert loaded_modules("import sys, tracelattice\n" + PRINT_LOADED) == set()


@pytest.mark.parametrize(
    "args, lattices",
    [
        (["--help"], False),
        (["classify", "--gram", "[[2,-1],[-1,2]]"], True),
        (["obstruction", "--dF", "229", "--disc-order", "4"], False),
    ],
    ids=["help", "classify", "obstruction"],
)
def test_light_subcommands_load_no_field_module(args, lattices):
    loaded = loaded_modules(RUN_MODULE + PRINT_LOADED, *args)
    assert "tracelattice.cli" in loaded
    assert not loaded & FIELD_MODULES
    # only a subcommand that builds a lattice loads the lattice layer
    assert ("tracelattice.lattice_core" in loaded) == lattices


def test_quad_a2_falsify_off_d3_loads_no_lattice_layer():
    # the norm identity answers off d = 3 before any lattice is built
    loaded = loaded_modules(
        RUN_MODULE + PRINT_LOADED, "quad-a2", "--d", "5", "--height", "300", "--falsify"
    )
    assert "tracelattice.quadratic_a2" in loaded
    assert "tracelattice.lattice_core" not in loaded


#: prints, as the last line of stdout, which of argparse and the modules its
#: first message loads are imported so far
PRINT_ARGPARSE = (
    'print(" ".join(m for m in ("argparse", "gettext", "locale") if m in sys.modules))\n'
)

#: runs `python -m tracelattice ARGS` in the child interpreter, whatever its
#: exit code
RUN_MODULE_ANY_EXIT = """
import runpy, sys
try:
    runpy.run_module("tracelattice", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


@pytest.mark.parametrize(
    "args",
    [
        ["gen-a3", "--t=1", "--height", "2"],
        ["classify", "--gram", "[[2,-1],[-1,2]]"],
        ["cyclotomic", "--p", "5"],
        ["order", "--t=3/2", "--different", "--fake-a3"],
        ["quad-a2", "--d", "5", "--height", "300", "--falsify"],
    ],
    ids=lambda args: args[0],
)
def test_a_plain_argv_loads_no_argparse(args):
    at_start_up = loaded_modules("import sys\n" + PRINT_ARGPARSE)
    assert not loaded_modules(RUN_MODULE + PRINT_ARGPARSE, *args) - at_start_up


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["classify", "--help"],
        # a usage error of argparse, and one of the subcommand body
        ["gen-a3", "--t=x", "--height", "2"],
        ["classify", "--gram", "[[2,1]"],
    ],
)
def test_help_and_usage_errors_load_argparse(args):
    assert "argparse" in loaded_modules(RUN_MODULE_ANY_EXIT + PRINT_ARGPARSE, *args)


# ---------------------------------------------------------------------------
# top-level usage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ["cyclotomic", "--n", "2", "--generator", "z"],
        ["gen-a3", "--t", "1", "--height", "-1"],
        ["gen-selfdual", "--t", "1", "--height", "-1"],
        ["quad-a2", "--d", "3", "--height", "-1"],
        ["quad-a2", "--d", "5", "--height", "-1", "--falsify"],
        ["gen-a3", "--t", "1", "--height", "2", "--json", "/nonexistent/x.json"],
        # argparse drops a joined "--" value and would pass [] on
        ["order", "--t=--"],
        ["gen-a3", "--t=1", "--height=--"],
        ["classify", "--gram=--"],
    ],
)
def test_bad_input_is_a_usage_error_without_traceback(args):
    r = run_proc(args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["gen-a3", "--t", "1", "--height", "0"],
        ["gen-selfdual", "--t", "1", "--height", "0"],
        ["quad-a2", "--d", "3", "--height", "0"],
        ["quad-a2", "--d", "5", "--height", "0", "--falsify"],
    ],
)
def test_height_zero_is_valid(args, capsys):
    code, doc = run_cli(args, capsys)
    assert code == 0 and doc is not None


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--gram", "[[2,1]"],
        ["cyclotomic", "--n", "4", "--generator", "1/0"],
        ["quad-a2", "--d", "5", "--height", "2"],
        ["obstruction", "--dF", "0", "--disc-order", "4"],
        ["reparam", "--t", "1", "--element", "1,2"],
        ["order", "--t=--"],
    ],
    ids=lambda args: args[0],
)
def test_usage_error_names_its_subcommand(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tracelattice {args[0]} ")
    assert f"\ntracelattice {args[0]}: error: " in err


@pytest.fixture
def added_arguments(monkeypatch):
    """The (prog, first name) of every add_argument call from here on."""
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording(parser, *names, **keywords):
        added.append((parser.prog, names[0]))
        return add_argument(parser, *names, **keywords)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    return added


def test_only_the_chosen_subcommand_gets_its_flags(added_arguments, capsys):
    # an abbreviated flag is not plain, so argparse parses this argv
    assert main(["classify", "--gr", "[[2]]"]) == 0
    assert capsys.readouterr().out == '{"type":"A1"}\n'
    assert {(prog, name) for prog, name in added_arguments if name != "-h"} == {
        ("tracelattice classify", "--json"),
        ("tracelattice classify", "--gram"),
    }


def test_a_plain_argv_builds_no_parser(added_arguments, capsys):
    assert main(["classify", "--gram", "[[2]]"]) == 0
    assert capsys.readouterr().out == '{"type":"A1"}\n'
    assert added_arguments == []


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--gr", "[[2]]"],  # abbreviated
        ["classify", "--gram", "[[2]]", "--gram", "[[2]]"],  # repeated
        ["order", "--t=1", "--fake-a3", "--fake-a3"],
        ["classify", "--gram", "-x"],  # a detached value read as a flag
        ["classify", "--gram", "-"],
        ["classify", "--gram", "--"],
        ["classify", "--gram=--"],
        ["classify", "--gram", "[[2]]", "--"],
        ["classify", "-h"],
        ["classify", "--help"],
        ["classify", "--gram", "[[2]]", "x"],
        ["classify", "--gram", "[[2]]", "--p", "3"],  # another subcommand's flag
        ["classify", "--gram"],  # no value
        ["classify"],  # a required flag missing
        ["quad-a2", "--d", "5", "--height", "3", "--falsify=1"],
        ["gen-a3", "--t=x", "--height", "2"],  # rejected by its type
        ["gen-a3", "--t=1", "--height", "-1"],
        ["cyclotomic", "--p", "-1e3"],
        ["frobnicate"],
        ["--json", "x", "classify", "--gram", "[[2]]"],
        [],
    ],
)
def test_an_argv_that_is_not_plain_goes_to_argparse(args):
    assert _read_plain(_join_negative_values(args)) is None


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ["quad-a2", "--d", "-5", "--height=2", "--falsify"],
            {"subcommand": "quad-a2", "json": None, "d": -5, "height": 2, "falsify": True},
        ),
        (
            ["order", "--t", "-1/2", "--primes2", "--json", "out.json"],
            {
                "subcommand": "order",
                "json": "out.json",
                "t": Fraction(-1, 2),
                "different": False,
                "sqrt_different": False,
                "primes2": True,
                "fake_a3": False,
            },
        ),
        (
            ["cyclotomic", "--n=-3", "--generator", ""],
            {"subcommand": "cyclotomic", "json": None, "p": None, "n": -3, "generator": ""},
        ),
    ],
    ids=["negative-int", "negative-rational", "empty-value"],
)
def test_a_plain_argv_reads_argparse_dests_and_defaults(args, expected):
    assert vars(_read_plain(_join_negative_values(args))) == expected


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--gram", "[[2,1]"],
        ["cyclotomic", "--n", "4", "--generator", "1/0"],
        ["cyclotomic", "--p", "5", "--n", "5"],
        ["quad-a2", "--d", "5", "--height", "2"],
        ["obstruction", "--dF", "0", "--disc-order", "4"],
        ["reparam", "--t", "1", "--element", "1,2"],
    ],
    ids=lambda args: args[0],
)
def test_a_usage_error_after_a_plain_read_is_argparses(args, capsys):
    # repeating every flag keeps the last, equal values but is not plain:
    # the two argvs reach the same body through the two paths
    declined = [args[0], *args[1:], *args[1:]]
    assert _read_plain(args) is not None and _read_plain(declined) is None
    errors = []
    for argv in (args, declined):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        errors.append((exc.value.code, capsys.readouterr()))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2 and errors[0][1].err.startswith("usage: ")


def test_unknown_subcommand_is_exit_2():
    assert run_proc(["frobnicate"]).returncode == 2


def test_missing_required_flag_is_exit_2():
    assert run_proc(["gen-a3", "--height", "3"]).returncode == 2


def test_console_entry_point_matches_module():
    mod = run_proc(["classify", "--gram", "[[2]]"])
    assert mod.returncode == 0 and json.loads(mod.stdout) == {"type": "A1"}
