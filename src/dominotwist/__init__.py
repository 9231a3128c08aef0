"""Exact combinatorics of domino tilings of cubiculated regions.

Core objects: regions (boxes, cylinders over a base, corks), tilings as
partner vectors, the Z/2 twist invariant with its Kasteleyn sign system,
flip and trit moves with flip-graph censuses, plug transfer matrices for
cylinder counts and twist-signed defects, and Hamiltonian-path machinery
(fold/unfold, flux, cork fillers, generator tilings).

The public names below resolve lazily (PEP 562): the first use of a name
imports its submodule and caches the name here.  Importing the package
loads no submodule, and numpy loads only with the first array code that
runs (partner matrices, batch twists, the census, transfer matrices).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "regions": (
        "Cell",
        "Region",
        "RegionError",
        "cell_color",
        "make_box",
        "make_cork",
        "make_cylinder",
        "parse_region_spec",
        "region_spec",
    ),
    "tilings": (
        "FloorDecomposition",
        "Tiling",
        "TilingError",
        "count_tilings",
        "decompose_floors",
        "enumerate_tilings",
        "partner_matrix",
        "recompose_floors",
        "tiling_from_json_obj",
        "tiling_from_text",
        "vertical_tiling",
    ),
    "kasteleyn": (
        "SignSystem",
        "defect_by_determinant",
        "defect_by_enumeration",
        "gauge_twist_comparison",
        "sign_matrix",
        "twist",
        "twist_batch",
        "twist_census",
    ),
    "moves": (
        "Connectivity",
        "DEFAULT_BUDGET",
        "ComponentReport",
        "apply_flip",
        "apply_trit",
        "connected_with_padding",
        "flip_components",
        "flip_connected",
        "flip_neighbors",
        "flip_sites",
        "padded_merge_search",
        "trit_neighbors",
        "trit_sites",
    ),
    "transfer": (
        "SpectralReport",
        "TransferError",
        "TransferMatrices",
        "build_transfer",
        "count_with_few_vertical_floors",
        "cylinder_count",
        "cylinder_defect",
        "cork_count",
        "enumerate_plugs",
        "get_transfer",
        "load_transfer_cache",
        "save_transfer_cache",
        "spectral_estimates",
        "transfer_to_json_obj",
        "twist_split",
    ),
    "hamiltonian": (
        "GeneratorTiling",
        "HamiltonianError",
        "HamiltonianPath",
        "UnfoldError",
        "box_path",
        "cork_filler",
        "flux",
        "flux_set",
        "fold",
        "generator_set",
        "generator_tiling",
        "non_respecting_base_dominoes",
        "non_respecting_dominoes",
        "respects_path",
        "straight_path",
        "unfold",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:  # a submodule, read as an attribute of the package
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
