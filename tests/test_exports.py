"""The package's public names: each resolves, on first use, to the object of
its home module, and each is read by the program, not only by its tests."""

import ast
import importlib
import pathlib
import re

import tracelattice

#: the public names: those any src/ module, the README Library block or a
#: demo reads, and the few in KEPT_UNREAD
PUBLIC_NAMES = [
    "Conic", "ConicPoint", "CycField", "FamilyMember", "FamilyScan",
    "IdealLattice", "Matrix", "NonzeroTrace", "Order", "PowerBasisField",
    "QuadAmbient", "RankTooLarge", "Reducible", "ShanksField", "TARGET_A3",
    "TARGET_SELF_DUAL", "TraceLattice", "TraceLatticeError", "TraceTarget",
    "TwoInert", "a2_from_slopes", "an_exclusion", "ap_lattice",
    "base_point_delta", "canonical_key", "classify_gram",
    "classify_root_type", "cyc_field", "cyclotomic_polynomial",
    "dedekind_maximalize", "delta_conic", "det", "different_inverse",
    "disc_group", "dual", "dumps_canonical", "equation_order", "fake_a3",
    "fake_a3_variants", "falsify_a2", "family_distinctness",
    "galois_stable", "identity_to_a3_transform", "inverse", "is_integral",
    "is_maximal", "lambda_from_point", "lattice_json", "maximal_order",
    "member_json", "module_product", "new_field", "norm_one_points",
    "normal_a2", "normal_basis_lattice", "normal_basis_search",
    "odd_trace_witness", "parse_generator", "parse_gram", "parse_rational",
    "primes_above_2", "principal_ideal_lattice", "remap_t0",
    "reparametrize", "scan_family", "second_intersection",
    "self_dual_family", "short_vectors_gram", "slopes_up_to", "snf",
    "sqrt_different_inverse", "to_a3_basis", "trace_targets_of",
    "verify_cyclotomic_ap",
]

#: public names that no program file reads, each kept for a stated reason
KEPT_UNREAD = {
    # the one public short-vector enumeration
    "short_vectors_gram",
    # each states a fact of the paper that tests/test_acceptance.py checks
    "normal_a2",
    "self_dual_family",
    # one member of the paper's d = 3 A2 family, from its slope pair
    "a2_from_slopes",
    # the ZeroParameter message sends the caller to it
    "remap_t0",
    # the steps of one chord point in Fractions: the sweeps run the integer
    # kernels these wrap, and the tests check both against the oracles
    "second_intersection",
    "slopes_up_to",
    "lambda_from_point",
    "normal_basis_lattice",
}

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _home_module(obj):
    # a function, a class, or an instance of a class (TARGET_A3) names the
    # module that defines it
    return importlib.import_module(obj.__module__)


def test_all_is_unchanged():
    assert tracelattice.__all__ == PUBLIC_NAMES


def test_every_name_resolves_by_getattr(monkeypatch):
    # drop what earlier reads stored, so that each name is looked up afresh
    for name in PUBLIC_NAMES:
        monkeypatch.delitem(vars(tracelattice), name, raising=False)
    for name in PUBLIC_NAMES:
        obj = getattr(tracelattice, name)
        assert getattr(_home_module(obj), name) is obj
        assert vars(tracelattice)[name] is obj


def test_star_import_gives_the_home_objects():
    namespace = {}
    exec("from tracelattice import *", namespace)
    for name in PUBLIC_NAMES:
        obj = namespace[name]
        assert getattr(_home_module(obj), name) is obj


def test_dir_lists_all_and_every_public_name():
    listing = dir(tracelattice)
    assert "__all__" in listing
    assert set(PUBLIC_NAMES) <= set(listing)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(tracelattice, "no_such_name")


def _reads(tree: ast.AST) -> set[str]:
    """Every name the code reads: loaded names, attributes and the names
    of from-imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _program_reads() -> set[str]:
    """The names read by the package's modules (the export table aside), the
    README Library block and the demos.  In a module, a name read only
    inside its own definition is not counted."""
    out = set()
    for path in (ROOT / "src" / "tracelattice").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            out.update(_reads(stmt) - {own})
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = re.compile(r"^```python\n(.*?)^```$", re.M | re.S).search(
        readme, readme.index("## Library")
    )
    out.update(_reads(ast.parse(library.group(1))))
    for path in (ROOT / "demos").glob("*.py"):
        out.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    return out


def test_every_public_name_has_a_reader_in_the_program():
    reads = _program_reads()
    names = {name for names in tracelattice._EXPORTS.values() for name in names}
    assert sorted(names - KEPT_UNREAD - reads) == []
    # a kept name that gains a reader leaves the list
    assert sorted(KEPT_UNREAD & reads) == []
