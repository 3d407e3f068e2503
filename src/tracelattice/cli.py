"""Command-line front door: generators, classifiers, and obstruction checks.

Every run is deterministic given its flags; results are a single JSON
document on standard output (or at --json PATH). Exit codes: 0 success,
1 mathematical falsification or domain error, 2 usage error or an output
(standard output or --json PATH) that cannot be written.

A plain argv, the subcommand first and then each of its flags written in
full at most once, is read straight from the _SUBCOMMANDS table by
_read_plain, and argparse is not imported.  Any other argv (--help, an
abbreviated, repeated or unknown flag, a value that looks like a flag)
goes to the argparse parser, and so does every usage error, also one that
a subcommand body reports after a plain read: argparse alone writes help
and usage text.

A document is encoded whole, as the parts of serialize.canonical_parts,
before its first byte is written, so an error anywhere in a sweep prints
the error document alone.  The parts are then written in batches of about
64 KiB, never joined into one string or encoded to bytes whole.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import TraceLatticeError
from .serialize import canonical_parts, parse_rational, rational_str


def _flag_error(message: str) -> Exception:
    """argparse's ArgumentTypeError, which argparse reports as a usage error
    naming the flag; argparse is imported here only on a bad value."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise _flag_error(str(exc))


def _height_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _flag_error(f"invalid int value: {text!r}")
    if value < 0:
        raise _flag_error(f"height must be >= 0, got {value}")
    return value


#: the flags whose value may start with "-", and the start of such a value:
#: a digit, or for a generator expression also z or "("
_NEGATIVE_VALUE = {"--t": r"-\d", "--element": r"-\d", "--generator": r"-[\dz(]"}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--t -1/2" as "--t=-1/2", and "--element -1/3,1,0" and
    "--generator -1+z" likewise.  argparse reads a token that starts with
    "-" as a flag unless it looks like a plain number such as -1, so a
    negative fraction, coordinate list or expression after a space would
    otherwise be a usage error.  A following flag such as --json is never
    joined."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        start = _NEGATIVE_VALUE.get(out[i])
        if start is not None and re.match(start, out[i + 1]):
            out[i : i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def _reject_joined_double_dash(parser, argv: list[str]) -> None:
    """argparse drops a "--" value written as "--flag=--" and passes [] on
    as the flag's value; that is a missing argument, so say so."""
    for token in argv:
        flag, sep, value = token.partition("=")
        if flag.startswith("--") and sep and value == "--":
            parser.error(f"argument {flag}: expected one argument")


# ---------------------------------------------------------------------------
# subcommand bodies: each takes the parsed flags and its own subparser, for
# usage errors, returns (document, exit_code) and imports its own modules, so
# that a process loads only what its subcommand runs; an array document is an
# iterator of its elements, each built as canonical_parts encodes it, and a
# sweep's iterator generates and certifies one member per element
# ---------------------------------------------------------------------------

def _run_family(args, parser):
    from .a3_factory import TARGET_A3, TARGET_SELF_DUAL, _family_members
    from .serialize import member_json

    target = TARGET_A3 if args.subcommand == "gen-a3" else TARGET_SELF_DUAL
    return map(member_json, _family_members(args.t, args.height, target)), 0


def _run_classify(args, parser):
    from .lattice_core import classify_gram
    from .serialize import parse_gram

    try:
        gram = parse_gram(args.gram)
    except ValueError as exc:
        parser.error(str(exc))
    return {"type": classify_gram(gram)}, 0


def _run_cyclotomic(args, parser):
    from math import isqrt, prod

    from ._intfactor import factor
    from .cyclotomic_ideals import cyc_field, principal_ideal_lattice, verify_cyclotomic_ap
    from .errors import RankTooLarge
    from .lattice_core import ENUMERATION_RANK_CAP, check_enumeration_rank, classify_root_type
    from .serialize import lattice_json, parse_generator

    if args.p is not None:
        if args.n is not None or args.generator is not None:
            parser.error("--p and --n/--generator are mutually exclusive")
        return {"type": verify_cyclotomic_ap(args.p)}, 0
    if args.n is None or args.generator is None:
        parser.error("either --p, or both --n and --generator, are required")
    if args.n >= 3:
        # a rank past the classifier's cap fails before the field is built;
        # phi(n) >= sqrt(n / 2), so only an n below about 2 * cap^2 is
        # factored for its exact rank
        low = isqrt(args.n // 2)
        if low > ENUMERATION_RANK_CAP:
            raise RankTooLarge(
                f"rank at least {low} exceeds the enumeration cap of {ENUMERATION_RANK_CAP}"
            )
        check_enumeration_rank(prod((p - 1) * p ** (e - 1) for p, e in factor(args.n).items()))
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
    from .quadratic_a2 import _distinct_lattices, falsify_a2
    from .serialize import lattice_json

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
    return map(lattice_json, _distinct_lattices(args.height)), 0


def _run_order(args, parser):
    from .lattice_core import classify_root_type, disc_group, galois_stable, odd_trace_witness
    from .orders_ideals import (
        different_inverse,
        equation_order,
        fake_a3,
        maximal_order,
        primes_above_2,
        sqrt_different_inverse,
    )
    from .serialize import hnf_json, lattice_json, matrix_json

    eq = equation_order(args.t)
    mx = maximal_order(eq)
    doc = {
        "t": rational_str(args.t),
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


def _run_obstruction(args, parser):
    from ._intfactor import an_exclusion

    try:
        verdict = an_exclusion(args.dF, args.disc_order)
    except ValueError as exc:
        parser.error(str(exc))
    return {"verdict": verdict}, 0


def _run_reparam(args, parser):
    from .shanks_field import new_field, reparametrize

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
    t_prime = reparametrize(field, coords)
    return {"t": rational_str(args.t), "t_prime": rational_str(t_prime)}, 0


def _flag(name: str, help_text: str, **keywords) -> tuple[str, dict]:
    return name, {"help": help_text, **keywords}


_JSON = _flag(
    "--json", "write the JSON document to PATH instead of standard output", metavar="PATH"
)
_T = _flag("--t", 'parameter "p/q"', type=_rational_flag, required=True)
_SLOPE_HEIGHT = _flag("--height", "slope height bound", type=_height_flag, required=True)

#: every subcommand, in --help order: its help text, its flags as
#: (name, keywords of add_argument), and its body
_SUBCOMMANDS = {
    "gen-a3": (
        "sweep conic chords into distinct A3 lattices", [_T, _SLOPE_HEIGHT], _run_family
    ),
    "gen-selfdual": (
        "sweep conic chords into unimodular lattices", [_T, _SLOPE_HEIGHT], _run_family
    ),
    "classify": (
        "name the root-lattice type of a Gram matrix",
        [_flag("--gram", "square matrix as a JSON array", required=True)],
        _run_classify,
    ),
    "cyclotomic": (
        "ideal lattices in cyclotomic fields under the trace form",
        [
            _flag("--p", "odd prime up to 31, preset generator", type=int),
            _flag("--n", "root-of-unity order", type=int),
            _flag("--generator", 'expression in z, e.g. "(1-z)^-2"; requires --n'),
        ],
        _run_cyclotomic,
    ),
    "quad-a2": (
        "A2 lattices in quadratic fields, or bounded falsification",
        [
            _flag("--d", "squarefree radicand", type=int, required=True),
            _flag("--height", "search height bound", type=_height_flag, required=True),
            _flag(
                "--falsify",
                "search for any A2 lattice instead of sweeping the d=3 family",
                action="store_true",
            ),
        ],
        _run_quad_a2,
    ),
    "order": (
        "equation and maximal orders of a Shanks field",
        [
            _T,
            _flag("--different", "inverse different", action="store_true"),
            _flag("--sqrt-different", "square root of the inverse different", action="store_true"),
            _flag("--primes2", "primes above 2", action="store_true"),
            _flag("--fake-a3", "odd diag(1,1,4) ideal lattice", action="store_true"),
        ],
        _run_order,
    ),
    "obstruction": (
        "squarefree-kernel test excluding A_n realizations",
        [
            _flag("--dF", "field discriminant", type=int, required=True),
            _flag("--disc-order", "lattice determinant", type=int, required=True),
        ],
        _run_obstruction,
    ),
    "reparam": (
        "Shanks parameter of the unit attached to a trace-zero element",
        [
            _T,
            _flag(
                "--element",
                'power-basis coordinates "a0,a1,a2", each an integer or "p/q"',
                required=True,
            ),
        ],
        _run_reparam,
    ),
}


_PROG = "tracelattice"


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The flags of a plain argv, with argparse's dests and defaults and
    the subcommand, or None when argv is not plain and argparse must read
    it.  Plain is: a subcommand of _SUBCOMMANDS, then each of its flags and
    --json at most once, written in full as --name=value or --name value
    (bare for a store_true flag), a joined value other than "--", a
    detached value that does not start with "-" unless it is a plain
    negative number (which argparse reads as a value too), every required
    flag, and every value accepted by its type.  Each such argv is one that
    argparse parses to the same flags."""
    entry = _SUBCOMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    flags = dict([_JSON, *entry[1]])
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        keywords = flags.get(name)
        if keywords is None or name in values:
            return None
        if keywords.get("action") == "store_true":
            if joined:
                return None
            values[name] = True
            continue
        if not joined:
            value = next(tokens, None)
            if value is None or (
                value.startswith("-") and not re.fullmatch(r"-\d+|-\d*\.\d+", value)
            ):
                return None
        elif value == "--":
            return None
        convert = keywords.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # argparse converts it again and reports the error
                return None
        values[name] = value
    args = SimpleNamespace(subcommand=argv[0])
    for name, keywords in flags.items():
        if name not in values and keywords.get("required"):
            return None
        default = False if keywords.get("action") == "store_true" else None
        setattr(args, name[2:].replace("-", "_"), values.get(name, default))
    return args


def _argparser(chosen: str | None):
    """The argparse parser of the command line and its subparsers by name.
    Only the chosen subcommand gets its flags: the top level has no flag
    that takes a value, so argparse reads the first token without a
    leading "-" as the subcommand, and only that one parses flags."""
    import argparse

    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Exact root lattices from trace forms of number fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == chosen:
            for flag, keywords in [_JSON, *flags]:
                p.add_argument(flag, **keywords)
    return parser, sub.choices


def _parse(argv: list[str]):
    """The flags of any argv by argparse, with the subparser that reports
    the subcommand's usage errors; --help and a usage error exit here."""
    chosen = next((a for a in argv if not a.startswith("-")), None)
    parser, subparsers = _argparser(chosen)
    _reject_joined_double_dash(subparsers.get(chosen, parser), argv)
    args = parser.parse_args(argv)
    return args, subparsers[args.subcommand]


class _Subparser:
    """Stands in for the subparser of a plainly read subcommand: a usage
    error builds the argparse subparser that _parse would have passed, so
    its usage text is argparse's own."""

    def __init__(self, name: str):
        self.name = name

    def error(self, message: str):
        _argparser(self.name)[1][self.name].error(message)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(argv)
    args = _read_plain(argv)
    if args is None:
        args, parser = _parse(argv)
    else:
        parser = _Subparser(args.subcommand)

    try:
        doc, code = _SUBCOMMANDS[args.subcommand][2](args, parser)
        parts = canonical_parts(doc)
    except TraceLatticeError as exc:
        parts = canonical_parts({"error": {"kind": type(exc).__name__, "detail": str(exc)}})
        code = 1
    except AssertionError as exc:
        parts = canonical_parts({"error": {"kind": "CertificateFailure", "detail": str(exc)}})
        code = 1

    if args.json is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                _write_batches(fh.write, parts)
        except OSError as exc:
            _exit_error(f"cannot write {args.json}: {exc.strerror}")
    else:
        _write_stdout(parts)
    return code


def _exit_error(reason: str):
    """Exit 2 with "tracelattice: error: REASON" on standard error, the
    bytes and status of argparse's parser.exit, which also passes over a
    standard error that is closed or cannot be written."""
    try:
        sys.stderr.write(f"{_PROG}: error: {reason}\n")
    except (AttributeError, OSError):
        pass
    sys.exit(2)


#: the least length of one write but the last: a document's parts are
#: joined into batches of about 64 KiB, so a sweep takes few writes (each a
#: system call when standard output is unbuffered) and is never joined whole
_BATCH = 1 << 16


def _write_batches(write, parts: list[str]) -> None:
    """Write the parts through write, joined into batches of at least
    _BATCH characters but the last: a payload of n characters takes at
    most n // _BATCH + 1 calls."""
    batch, size = [], 0
    for part in parts:
        batch.append(part)
        size += len(part)
        if size >= _BATCH:
            write("".join(batch))
            batch, size = [], 0
    if batch:
        write("".join(batch))


def _write_stdout(parts: list[str]) -> None:
    """Write the parts and flush; a closed, full or broken standard output
    is a usage error (exit 2), as an unwritable --json PATH is.  After a
    failed write, fd 1 is pointed at os.devnull, so the interpreter's flush
    at exit finds nothing left to fail on."""
    if sys.stdout is None:  # started with fd 1 closed
        reason = os.strerror(errno.EBADF)
    else:
        try:
            _write_batches(sys.stdout.write, parts)
            sys.stdout.flush()
            return
        except OSError as exc:
            reason = exc.strerror
            devnull = os.open(os.devnull, os.O_WRONLY)
            if devnull != sys.stdout.fileno():  # fd 1 was closed: it is devnull
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
    _exit_error(f"cannot write standard output: {reason}")
