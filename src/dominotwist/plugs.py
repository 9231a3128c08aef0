"""Plugs of a cylinder base, and the base sizes the cylinder engines take,
in pure Python.

A plug is a balanced subset of base cells, encoded as a bitmask over the
base's cell order; enumerate_plugs lists the masks that is_plug accepts,
ascending.  The transfer engines index their matrices by plugs and the
Hamiltonian-path code computes the flux of each plug; this module holds
what both need, so that the path code imports no array library, and the
size limits the command line checks before it builds a region.
"""

from __future__ import annotations

import math

from .regions import Region

MAX_PLUG_BASE_CELLS = 24
MAX_MATRIX_PLUGS = 4096
# the defect recursion keeps k x k matrices, k = cells/2, and ends in a
# Bareiss determinant: a 32 x 32 base takes about 4 s and 40 MB at N = 1
MAX_DEFECT_BASE_CELLS = 1024


class TransferError(ValueError):
    pass


def is_plug(base: Region, mask: int) -> bool:
    """Whether mask is a plug of base: a balanced subset of its cells."""
    if not 0 <= mask < 1 << len(base.cells):
        return False
    black = (mask & sum(1 << i for i in base.black_cells)).bit_count()
    return 2 * black == mask.bit_count()


def check_plug_base(cells: int) -> None:
    """Refuse a base of more cells than plug enumeration allows."""
    if cells > MAX_PLUG_BASE_CELLS:
        raise TransferError(
            f"plug enumeration needs a base with at most {MAX_PLUG_BASE_CELLS}"
            f" cells, got {cells}")


def check_defect_base(cells: int) -> None:
    """Refuse a base of more cells than the cylinder defect allows."""
    if cells > MAX_DEFECT_BASE_CELLS:
        raise TransferError(
            f"the cylinder defect needs a base with at most {MAX_DEFECT_BASE_CELLS}"
            f" cells, got {cells}")


def check_determinant_cells(cells: int) -> None:
    """Refuse a region of more cells than the determinant defect allows: its
    sign matrix is k x k, k = cells/2, as in the cylinder defect."""
    if cells > MAX_DEFECT_BASE_CELLS:
        raise TransferError(
            f"the determinant defect needs a region with at most {MAX_DEFECT_BASE_CELLS}"
            f" cells, got {cells}")


def check_matrix_plugs(base: Region, max_plugs: int = MAX_MATRIX_PLUGS) -> None:
    """Refuse a balanced base of n cells whose C(n, n/2) plugs exceed
    max_plugs, before any is listed; the cell limit comes first."""
    n = len(base.cells)
    check_plug_base(n)
    plugs = math.comb(n, n // 2)
    if base.balanced and plugs > max_plugs:
        raise TransferError(
            f"{plugs} plugs exceeds the matrix limit {max_plugs};"
            " cylinder_count and cylinder_defect need no matrix")


def enumerate_plugs(base: Region) -> list[int]:
    """The masks that is_plug accepts, ascending, once the base is checked:
    index 0 is the empty plug, the last entry the full plug.  is_plug's
    test is written inline, as a call per mask takes twice as long."""
    check_plug_base(len(base.cells))
    if not base.balanced:
        raise TransferError("plug enumeration needs a balanced base")
    black = sum(1 << i for i in base.black_cells)
    return [m for m in range(1 << len(base.cells))
            if 2 * (m & black).bit_count() == m.bit_count()]
