"""The package's public names: each resolves, on first use, to the object of
its home module."""

import importlib

import tracelattice

#: the public names as they stood when the package still imported every
#: module up front
PUBLIC_NAMES = [
    "Conic", "ConicPoint", "CycField", "FamilyCount", "FamilyMember",
    "FamilyScan", "FieldElement", "IdealLattice", "Matrix", "NonzeroTrace",
    "Order", "PowerBasisField", "QuadAmbient", "RankTooLarge", "Reducible",
    "ShanksField", "TARGET_A3", "TARGET_SELF_DUAL", "TraceLattice",
    "TraceLatticeError", "TraceTarget", "TwoInert", "a2_from_slopes",
    "an_exclusion", "ap_lattice", "base_point_delta", "canonical_key",
    "classify_gram", "classify_root_type", "cyc_field", "cyclotomic_polynomial",
    "dedekind_maximalize", "delta_conic", "det", "different_inverse",
    "disc_group", "dual", "dumps_canonical", "enumerate_points",
    "equation_order", "fake_a3", "fake_a3_variants", "falsify_a2",
    "family_distinctness", "galois_stable", "generate_family", "hermitian_pair",
    "hnf", "identity_to_a3_transform", "inverse", "is_even", "is_integral",
    "is_maximal", "lambda_from_point", "lattice_equal", "lattice_json",
    "maximal_order", "member_json", "module_product", "new_field", "norm",
    "norm_one_points", "normal_a2", "normal_basis_lattice",
    "normal_basis_search", "normal_coords", "odd_trace_witness", "pairing",
    "parse_generator", "parse_gram", "parse_rational", "primes_above_2",
    "principal_ideal_lattice", "remap_t0", "reparametrize", "scan_family",
    "second_intersection", "self_dual_family", "short_vectors",
    "short_vectors_gram", "sigma", "slopes_up_to", "snf",
    "sqrt_different_inverse", "to_a3_basis", "trace", "trace_pair",
    "trace_targets_of", "unit_conic_point", "verify_cyclotomic_ap",
]


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
