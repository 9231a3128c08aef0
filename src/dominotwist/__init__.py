"""Exact combinatorics of domino tilings of cubiculated regions.

Core objects: regions (boxes, cylinders over a base, corks), tilings as
partner vectors, the Z/2 twist invariant with its Kasteleyn sign system,
flip and trit moves with flip-graph censuses, plug transfer matrices for
cylinder counts and twist-signed defects, and Hamiltonian-path machinery
(fold/unfold, flux, cork fillers, generator tilings).
"""

from .regions import (
    Cell,
    Region,
    RegionError,
    cell_color,
    make_box,
    make_cork,
    make_cylinder,
    parse_region_spec,
    region_spec,
)
from .tilings import (
    FloorDecomposition,
    Tiling,
    TilingError,
    count_tilings,
    decompose_floors,
    enumerate_tilings,
    partner_matrix,
    recompose_floors,
    tiling_from_json_obj,
    tiling_from_text,
    vertical_tiling,
)
from .kasteleyn import (
    SignSystem,
    defect_by_determinant,
    defect_by_enumeration,
    gauge_twist_comparison,
    sign_matrix,
    twist,
    twist_batch,
    twist_census,
)
from .moves import (
    Connectivity,
    DEFAULT_BUDGET,
    ComponentReport,
    apply_flip,
    apply_trit,
    connected_with_padding,
    flip_components,
    flip_connected,
    flip_neighbors,
    flip_sites,
    padded_merge_search,
    trit_neighbors,
    trit_sites,
)
from .transfer import (
    SpectralReport,
    TransferError,
    TransferMatrices,
    build_transfer,
    count_with_few_vertical_floors,
    cylinder_count,
    cylinder_defect,
    cork_count,
    enumerate_plugs,
    floor_twist,
    get_transfer,
    load_transfer_cache,
    save_transfer_cache,
    spectral_estimates,
    transfer_to_json_obj,
    twist_split,
)
from .hamiltonian import (
    GeneratorTiling,
    HamiltonianError,
    HamiltonianPath,
    UnfoldError,
    box_path,
    cork_filler,
    flux,
    flux_set,
    fold,
    generator_set,
    generator_tiling,
    non_respecting_base_dominoes,
    non_respecting_dominoes,
    respects_path,
    straight_path,
    unfold,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
