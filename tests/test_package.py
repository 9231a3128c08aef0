"""The package root: its public names, which resolve lazily from the
submodules, and the error classes the CLI folds into one error result."""

from __future__ import annotations

import importlib

import pytest

import dominotwist as dt

# every public name of the package root, by the submodule that defines it
PUBLIC = {
    "regions": {
        "Cell", "Region", "RegionError", "cell_color", "make_box", "make_cork",
        "make_cylinder", "parse_region_spec", "region_spec",
    },
    "tilings": {
        "FloorDecomposition", "Tiling", "TilingError", "count_tilings",
        "decompose_floors", "enumerate_tilings", "partner_matrix",
        "recompose_floors", "tiling_from_json_obj", "tiling_from_text",
        "vertical_tiling",
    },
    "kasteleyn": {
        "SignSystem", "defect_by_determinant", "defect_by_enumeration",
        "gauge_twist_comparison", "sign_matrix", "twist", "twist_batch",
        "twist_census",
    },
    "moves": {
        "Connectivity", "DEFAULT_BUDGET", "ComponentReport", "apply_flip",
        "apply_trit", "connected_with_padding", "flip_components",
        "flip_connected", "flip_neighbors", "flip_sites", "padded_merge_search",
        "trit_neighbors", "trit_sites",
    },
    "transfer": {
        "SpectralReport", "TransferError", "TransferMatrices", "build_transfer",
        "count_with_few_vertical_floors", "cylinder_count", "cylinder_defect",
        "cork_count", "enumerate_plugs", "get_transfer",
        "load_transfer_cache", "save_transfer_cache", "spectral_estimates",
        "transfer_to_json_obj", "twist_split",
    },
    "hamiltonian": {
        "GeneratorTiling", "HamiltonianError", "HamiltonianPath", "UnfoldError",
        "box_path", "cork_filler", "flux", "flux_set", "fold", "generator_set",
        "generator_tiling", "non_respecting_base_dominoes",
        "non_respecting_dominoes", "respects_path", "straight_path", "unfold",
    },
}
ALL_NAMES = set().union(*PUBLIC.values())


def test_all_lists_exactly_the_public_names():
    assert len(ALL_NAMES) == 72
    assert len(dt.__all__) == len(set(dt.__all__))
    assert set(dt.__all__) == ALL_NAMES
    assert ALL_NAMES <= set(dir(dt))


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_resolve_to_their_submodule_objects(module):
    mod = importlib.import_module(f"dominotwist.{module}")
    assert getattr(dt, module) is mod
    for name in sorted(PUBLIC[module]):
        assert getattr(dt, name) is getattr(mod, name), name


def test_star_import():
    namespace: dict = {}
    exec("from dominotwist import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == ALL_NAMES
    assert namespace["enumerate_plugs"] is importlib.import_module(
        "dominotwist.transfer").enumerate_plugs


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dt.no_such_name  # noqa: B018
    assert not hasattr(dt, "_twist_tables")


@pytest.mark.parametrize("name", ["RegionError", "TilingError", "KasteleynError",
                                  "TransferError", "HamiltonianError"])
def test_error_classes_are_value_errors(name):
    # cli.main turns (OSError, ValueError) into an error result, so every
    # error class of the package must stay a ValueError
    module = {"RegionError": "regions", "TilingError": "tilings",
              "KasteleynError": "kasteleyn", "TransferError": "transfer",
              "HamiltonianError": "hamiltonian"}[name]
    cls = getattr(importlib.import_module(f"dominotwist.{module}"), name)
    assert issubclass(cls, ValueError)
