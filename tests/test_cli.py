"""Command-line contract: JSON shapes, exit codes, determinism, round-trips."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import tracelattice
from tracelattice import orders_ideals
from tracelattice.cli import main

# the directory holding the package under test, for child interpreters
SRC = os.path.dirname(os.path.dirname(tracelattice.__file__))


def run_cli(args, capsys):
    """In-process run; returns (exit code, parsed document or None)."""
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def run_proc(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tracelattice", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


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


def test_cyclotomic_generator_mode(capsys):
    code, doc = run_cli(
        ["cyclotomic", "--n", "5", "--generator", "(1-z)^-1"], capsys
    )
    assert code == 0
    assert doc["type"] == "A4"
    assert doc["ambient"] == {"kind": "cyclotomic", "n": 5}
    assert len(doc["basis"]) == 4


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
        ["gen-selfdual", "--t=-5/2", "--height", "16"],
        "4c4d1c178404b8b9bba6145a63c03bf775dad71394f7f54946bec655b5f06c67",
    ),
    (
        ["gen-a3", "--t=1", "--height", "16"],
        "b6bb05b595c9ce9b43711727c548ecd478fb9de3e455c217ae1cd74a69e44ade",
    ),
    (
        ["gen-a3", "--t=-1/2", "--height", "16"],
        "86152dd3f9f10638f412792beba7fab401c970cc980b4ef0ba14458f2d4db24d",
    ),
    (
        ["gen-selfdual", "--t=2", "--height", "16"],
        "5b0556787c86c73c6fa60b5649cf76988643ca25a89fd845271f9eddfbc63c16",
    ),
]


@pytest.mark.parametrize(
    "args, digest", PINNED_STDOUT_SHA256, ids=[a[0] for a, _ in PINNED_STDOUT_SHA256]
)
def test_stdout_bytes_are_pinned(args, digest, capsys):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_order_command_derives_each_ideal_once(monkeypatch, capsys):
    # --primes2 and --fake-a3 both read the primes above 2, and
    # --different, --sqrt-different and --fake-a3 all read D^-1: the order
    # computes each once and keeps it
    calls = {"dual": 0, "primes": 0}
    trace_dual, ring_map_primes = orders_ideals._trace_dual, orders_ideals._ring_map_primes

    def counted_dual(o):
        calls["dual"] += 1
        return trace_dual(o)

    def counted_primes(o):
        calls["primes"] += 1
        return ring_map_primes(o)

    monkeypatch.setattr(orders_ideals, "_trace_dual", counted_dual)
    monkeypatch.setattr(orders_ideals, "_ring_map_primes", counted_primes)
    args = ["order", "--t=-1/2", "--different", "--sqrt-different", "--primes2", "--fake-a3"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert calls == {"dual": 1, "primes": 1}
    assert (args, hashlib.sha256(out.encode()).hexdigest()) in PINNED_STDOUT_SHA256


def test_gen_a3_classify_round_trip(capsys):
    code, docs = run_cli(["gen-a3", "--t", "2", "--height", "3"], capsys)
    assert code == 0
    for doc in docs:
        code2, res = run_cli(["classify", "--gram", json.dumps(doc["gram"])], capsys)
        assert code2 == 0 and res["type"] == doc["type"]


def test_gen_a3_reducible_t_is_exit_1(capsys):
    code, doc = run_cli(["gen-a3", "--t=-3/2", "--height", "2"], capsys)
    assert code == 1 and doc["error"]["kind"] == "Reducible"


def test_gen_a3_bad_rational_flag_is_exit_2():
    r = run_proc(["gen-a3", "--t", "1.5", "--height", "3"])
    assert r.returncode == 2 and "position 1" in r.stderr


def test_json_flag_writes_same_bytes(tmp_path):
    out = tmp_path / "fam.json"
    r1 = run_proc(["gen-a3", "--t", "1", "--height", "3"])
    r2 = run_proc(["gen-a3", "--t", "1", "--height", "3", "--json", str(out)])
    assert r2.returncode == 0 and r2.stdout == ""
    assert out.read_text() == r1.stdout


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


def test_order_takes_the_inverse_different_once(capsys, monkeypatch):
    import tracelattice.cli as cli_module
    import tracelattice.orders_ideals as orders_module

    calls = []
    real = orders_module.different_inverse

    def counting(o):
        calls.append(o)
        return real(o)

    monkeypatch.setattr(orders_module, "different_inverse", counting)
    monkeypatch.setattr(cli_module, "different_inverse", counting)
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


def test_unknown_subcommand_is_exit_2():
    assert run_proc(["frobnicate"]).returncode == 2


def test_missing_required_flag_is_exit_2():
    assert run_proc(["gen-a3", "--height", "3"]).returncode == 2


def test_console_entry_point_matches_module():
    mod = run_proc(["classify", "--gram", "[[2]]"])
    assert mod.returncode == 0 and json.loads(mod.stdout) == {"type": "A1"}
