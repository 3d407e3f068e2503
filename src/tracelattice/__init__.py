"""Exact-arithmetic construction, classification, and falsification of root
lattices realized by trace forms of number fields.

Importing the package loads none of its modules: each public name is
imported from its home module the first time it is read (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

#: home module of every public name
_EXPORTS = {
    "_intfactor": ("an_exclusion",),
    "a3_factory": (
        "ConicPoint",
        "TARGET_A3",
        "TARGET_SELF_DUAL",
        "FamilyMember",
        "FamilyScan",
        "TraceTarget",
        "scan_family",
        "to_a3_basis",
    ),
    "cyclotomic_ideals": (
        "CycField",
        "ap_lattice",
        "cyc_field",
        "cyclotomic_polynomial",
        "principal_ideal_lattice",
        "verify_cyclotomic_ap",
    ),
    "errors": (
        "NonzeroTrace",
        "RankTooLarge",
        "Reducible",
        "TraceLatticeError",
        "TwoInert",
    ),
    "exact_linalg": ("Matrix", "det", "inverse", "snf"),
    "lattice_core": (
        "TraceLattice",
        "canonical_key",
        "classify_gram",
        "classify_root_type",
        "disc_group",
        "dual",
        "galois_stable",
        "is_integral",
        "odd_trace_witness",
        "short_vectors_gram",
    ),
    "orders_ideals": (
        "IdealLattice",
        "Order",
        "different_inverse",
        "equation_order",
        "fake_a3",
        "fake_a3_variants",
        "is_maximal",
        "maximal_order",
        "module_product",
        "primes_above_2",
        "sqrt_different_inverse",
    ),
    "power_basis": ("PowerBasisField",),
    "quadratic_a2": (
        "QuadAmbient",
        "falsify_a2",
        "family_distinctness",
        "normal_a2",
    ),
    "serialize": (
        "dumps_canonical",
        "lattice_json",
        "member_json",
        "parse_generator",
        "parse_gram",
        "parse_rational",
    ),
    "shanks_field": ("ShanksField", "new_field", "remap_t0", "reparametrize"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
