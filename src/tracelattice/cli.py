"""Command-line front door: generators, classifiers, and obstruction checks.

Every run is deterministic given its flags; results are a single JSON
document on standard output (or at --json PATH). Exit codes: 0 success,
1 mathematical falsification or domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from math import prod

from ._intfactor import factor
from .a3_factory import TARGET_A3, TARGET_SELF_DUAL, scan_family
from .cyclotomic_ideals import cyc_field, principal_ideal_lattice, verify_cyclotomic_ap
from .errors import TraceLatticeError
from .lattice_core import (
    check_enumeration_rank,
    classify_gram,
    classify_root_type,
    disc_group,
    galois_stable,
    odd_trace_witness,
)
from .orders_ideals import (
    an_exclusion,
    different_inverse,
    equation_order,
    fake_a3,
    maximal_order,
    primes_above_2,
    sqrt_different_inverse,
)
from .quadratic_a2 import falsify_a2, family_distinctness
from .serialize import (
    dumps_canonical,
    hnf_json,
    lattice_json,
    matrix_json,
    member_json,
    parse_generator,
    parse_gram,
    parse_rational,
)
from .shanks_field import new_field, reparametrize


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _height_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"height must be >= 0, got {value}")
    return value


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--t -1/2" as "--t=-1/2", and "--element -1/3,1,0" likewise.
    argparse reads a token that starts with "-" as a flag unless it looks
    like a plain number such as -1, so a negative fraction or coordinate
    list after a space would otherwise be a usage error."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] in ("--t", "--element") and re.match(r"-\d", out[i + 1]):
            out[i : i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def _reject_joined_double_dash(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """argparse drops a "--" value written as "--flag=--" and passes [] on
    as the flag's value; that is a missing argument, so say so."""
    for token in argv:
        flag, sep, value = token.partition("=")
        if flag.startswith("--") and sep and value == "--":
            parser.error(f"argument {flag}: expected one argument")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelattice",
        description="Exact root lattices from trace forms of number fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="write the JSON document to PATH instead of standard output",
        )
        return p

    p = add("gen-a3", "sweep conic chords into distinct A3 lattices")
    p.add_argument("--t", type=_rational_flag, required=True, help='parameter "p/q"')
    p.add_argument("--height", type=_height_flag, required=True, help="slope height bound")

    p = add("gen-selfdual", "sweep conic chords into unimodular lattices")
    p.add_argument("--t", type=_rational_flag, required=True, help='parameter "p/q"')
    p.add_argument("--height", type=_height_flag, required=True, help="slope height bound")

    p = add("classify", "name the root-lattice type of a Gram matrix")
    p.add_argument("--gram", required=True, help="square matrix as a JSON array")

    p = add("cyclotomic", "ideal lattices in cyclotomic fields under the trace form")
    p.add_argument(
        "--p", type=int, default=None, help="odd prime up to 31, preset generator"
    )
    p.add_argument("--n", type=int, default=None, help="root-of-unity order")
    p.add_argument(
        "--generator",
        default=None,
        help='expression in z, e.g. "(1-z)^-2"; requires --n',
    )

    p = add("quad-a2", "A2 lattices in quadratic fields, or bounded falsification")
    p.add_argument("--d", type=int, required=True, help="squarefree radicand")
    p.add_argument("--height", type=_height_flag, required=True, help="search height bound")
    p.add_argument(
        "--falsify",
        action="store_true",
        help="search for any A2 lattice instead of sweeping the d=3 family",
    )

    p = add("order", "equation and maximal orders of a Shanks field")
    p.add_argument("--t", type=_rational_flag, required=True, help='parameter "p/q"')
    p.add_argument("--different", action="store_true", help="inverse different")
    p.add_argument(
        "--sqrt-different", action="store_true", help="square root of the inverse different"
    )
    p.add_argument("--primes2", action="store_true", help="primes above 2")
    p.add_argument("--fake-a3", action="store_true", help="odd diag(1,1,4) ideal lattice")

    p = add("obstruction", "squarefree-kernel test excluding A_n realizations")
    p.add_argument("--dF", type=int, required=True, help="field discriminant")
    p.add_argument("--disc-order", type=int, required=True, help="lattice determinant")

    p = add("reparam", "Shanks parameter of the unit attached to a trace-zero element")
    p.add_argument("--t", type=_rational_flag, required=True, help='parameter "p/q"')
    p.add_argument(
        "--element",
        required=True,
        help='power-basis coordinates "a0,a1,a2", each an integer or "p/q"',
    )
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (document, exit_code)
# ---------------------------------------------------------------------------

def _run_family(args, target):
    scan = scan_family(args.t, args.height, target)
    return [member_json(m) for m in scan.members], 0


def _run_classify(args, parser):
    try:
        gram = parse_gram(args.gram)
    except ValueError as exc:
        parser.error(str(exc))
    return {"type": classify_gram(gram)}, 0


def _run_cyclotomic(args, parser):
    if args.p is not None:
        if args.n is not None or args.generator is not None:
            parser.error("--p and --n/--generator are mutually exclusive")
        return {"type": verify_cyclotomic_ap(args.p)}, 0
    if args.n is None or args.generator is None:
        parser.error("either --p, or both --n and --generator, are required")
    if args.n >= 3:
        # a rank past the classifier's cap fails before the field is built
        phi = prod((p - 1) * p ** (e - 1) for p, e in factor(args.n).items())
        check_enumeration_rank(phi)
    try:
        field = cyc_field(args.n)
        gen = parse_generator(field, args.generator)
    except ValueError as exc:
        parser.error(str(exc))
    L = principal_ideal_lattice(field, gen)
    doc = lattice_json(L)
    doc["type"] = classify_root_type(L)
    return doc, 0


def _run_quad_a2(args, parser):
    if args.falsify:
        try:
            witness = falsify_a2(args.d, args.height)
        except ValueError as exc:
            parser.error(str(exc))
        doc = {
            "d": args.d,
            "height": args.height,
            "witness": None if witness is None else lattice_json(witness),
        }
        # a witness off d=3 contradicts the non-existence theorem; absence at
        # a finite height never contradicts existence
        code = 1 if (witness is not None and args.d != 3) else 0
        return doc, code
    if args.d != 3:
        parser.error("the parametrized family needs --d 3; use --falsify otherwise")
    fam = family_distinctness(args.height)
    return [lattice_json(L) for L in fam.lattices], 0


def _run_order(args):
    eq = equation_order(args.t)
    mx = maximal_order(args.t)
    doc = {
        "t": str(args.t),
        "equation_order": {"basis": matrix_json(eq.basis), "disc": eq.disc},
        "maximal_order": {"basis": matrix_json(mx.basis), "disc": mx.disc},
    }
    if args.different:
        doc["different_inverse"] = lattice_json(different_inverse(mx).lattice())
    if args.sqrt_different:
        L = sqrt_different_inverse(mx).lattice()
        entry = lattice_json(L)
        entry["type"] = classify_root_type(L)
        doc["sqrt_different_inverse"] = entry
    if args.primes2:
        ideals = primes_above_2(mx)
        doc["primes_above_2"] = {
            "split": len(ideals) == 3,
            "ideals": [matrix_json(ideal.basis) for ideal in ideals],
        }
    if args.fake_a3:
        L = fake_a3(mx)
        entry = lattice_json(L)
        entry["hnf"] = hnf_json(L)
        witness = odd_trace_witness(L)
        entry["certificates"] = {
            "odd_trace_witness": list(witness),
            "disc_group": list(disc_group(L)),
            "type": L.type_tag,
            "galois_stable": galois_stable(L),
        }
        doc["fake_a3"] = entry
    return doc, 0


def _run_reparam(args, parser):
    parts = args.element.split(",")
    if len(parts) != 3:
        parser.error(
            f"--element needs exactly 3 comma-separated coordinates, got {len(parts)}"
        )
    try:
        coords = [parse_rational(p.strip()) for p in parts]
    except ValueError as exc:
        parser.error(str(exc))
    field = new_field(args.t)
    t_prime = reparametrize(field, field.element(coords))
    return {"t": str(args.t), "t_prime": str(t_prime)}, 0


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    _reject_joined_double_dash(parser, argv)
    args = parser.parse_args(_join_negative_values(argv))

    try:
        if args.subcommand == "gen-a3":
            doc, code = _run_family(args, TARGET_A3)
        elif args.subcommand == "gen-selfdual":
            doc, code = _run_family(args, TARGET_SELF_DUAL)
        elif args.subcommand == "classify":
            doc, code = _run_classify(args, parser)
        elif args.subcommand == "cyclotomic":
            doc, code = _run_cyclotomic(args, parser)
        elif args.subcommand == "quad-a2":
            doc, code = _run_quad_a2(args, parser)
        elif args.subcommand == "order":
            doc, code = _run_order(args)
        elif args.subcommand == "obstruction":
            try:
                verdict = an_exclusion(args.dF, args.disc_order)
            except ValueError as exc:
                parser.error(str(exc))
            doc, code = {"verdict": verdict}, 0
        elif args.subcommand == "reparam":
            doc, code = _run_reparam(args, parser)
        else:  # pragma: no cover - argparse enforces the subcommand set
            parser.error(f"unknown subcommand {args.subcommand!r}")
    except TraceLatticeError as exc:
        doc = {"error": {"kind": type(exc).__name__, "detail": str(exc)}}
        code = 1
    except AssertionError as exc:
        doc = {"error": {"kind": "CertificateFailure", "detail": str(exc)}}
        code = 1

    payload = dumps_canonical(doc)
    if args.json is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            parser.exit(
                2, f"{parser.prog}: error: cannot write {args.json}: {exc.strerror}\n"
            )
    else:
        sys.stdout.write(payload)
    return code
