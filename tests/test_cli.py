"""Command-line contract: JSON shapes, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys

import pytest

import tracelattice
from tracelattice.cli import main

# the directory holding the package under test, for child interpreters
SRC = os.path.dirname(os.path.dirname(tracelattice.__file__))


def run_cli(args, capsys):
    """In-process run; returns (exit code, parsed document or None)."""
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def run_proc(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tracelattice", *args],
        capture_output=True,
        text=True,
        env=env,
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


def test_cyclotomic_not_prime_is_exit_1(capsys):
    code, doc = run_cli(["cyclotomic", "--p", "9"], capsys)
    assert code == 1 and doc["error"]["kind"] == "NotPrime"


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
    "sub,extra", [("gen-a3", ["--height", "2"]), ("order", ["--fake-a3"])]
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
