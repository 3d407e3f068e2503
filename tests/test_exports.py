"""The package's public names: each resolves, on first use, to the object of
its home module.  Each of them, every other name a module of the package
defines at top level and every method of its classes but the dunders is read
by the program, not only by its tests."""

import ast
import importlib
import pathlib
import re

import tracelattice

#: the public names: those any src/ module, the README Library block or a
#: demo reads, and the few in KEPT_UNREAD
PUBLIC_NAMES = [
    "ConicPoint", "CycField", "FamilyMember", "FamilyScan", "IdealLattice",
    "Matrix", "NonzeroTrace", "Order", "PowerBasisField", "QuadAmbient",
    "RankTooLarge", "Reducible", "ShanksField", "TARGET_A3",
    "TARGET_SELF_DUAL", "TraceLattice", "TraceLatticeError", "TraceTarget",
    "TwoInert", "an_exclusion", "ap_lattice", "canonical_key",
    "classify_gram", "classify_root_type", "cyc_field",
    "cyclotomic_polynomial", "det", "different_inverse", "disc_group",
    "dual", "dumps_canonical",
    "equation_order", "fake_a3", "fake_a3_variants", "falsify_a2",
    "family_distinctness", "galois_stable", "inverse", "is_integral",
    "is_maximal", "lattice_json", "maximal_order", "member_json",
    "module_product", "new_field", "normal_a2",
    "odd_trace_witness", "parse_generator", "parse_gram", "parse_rational",
    "primes_above_2", "principal_ideal_lattice", "remap_t0",
    "reparametrize", "scan_family", "short_vectors_gram", "snf",
    "sqrt_different_inverse", "to_a3_basis", "verify_cyclotomic_ap",
]

#: names that no program file reads, each kept for a stated reason; the one
#: allow-list for public and module-level names alike
KEPT_UNREAD = {
    # the one public short-vector enumeration
    "short_vectors_gram",
    # states a fact of the paper that tests/test_acceptance.py checks
    "normal_a2",
    # the ZeroParameter message sends the caller to it
    "remap_t0",
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


def _module_names() -> set[str]:
    """Every name a module of the package (__init__.py aside) binds at top
    level by def, class or assignment, private names too, and every method
    its classes define other than the dunders."""
    out = set()
    for path in (ROOT / "src" / "tracelattice").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                out.add(stmt.name)
            if isinstance(stmt, ast.ClassDef):
                out.update(
                    node.name
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                out.update(
                    node.id
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                )
    return out


def test_every_public_name_has_a_reader_in_the_program():
    # a public name, a module-level one or a method that only the tests read
    # is a second path through the program
    reads = _program_reads()
    names = {name for names in tracelattice._EXPORTS.values() for name in names}
    assert sorted((names | _module_names()) - KEPT_UNREAD - reads) == []
    # a kept name that gains a reader leaves the list
    assert sorted(KEPT_UNREAD & reads) == []
