"""Cubiculated regions in Z^n: cells, coloring, canonical labels, adjacency.

A region is a finite set of unit cells of Z^n, each named by the integer
coordinates of its lower corner.  Cells are ordered colexicographically
(last coordinate most significant); that position is the cell's canonical
label and everything downstream (enumeration order, Kasteleyn matrices,
plug bitmasks, serialization) is pinned to it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

Cell = tuple[int, ...]

MAX_REGION_CELLS = 1 << 20
MAX_BASE_CELLS = 64  # plug bitmask budget
DEFAULT_BUDGET = 20_000_000  # states a flip search visits before it gives up


def cell_color(cell: Cell) -> int:
    """Color of a cell: +1 (black) when the coordinate sum is even, else -1."""
    return 1 if sum(cell) % 2 == 0 else -1


def _colex(cell: Cell):
    return cell[::-1]


class RegionError(ValueError):
    pass


def _check_size(cells: int) -> None:
    if cells > MAX_REGION_CELLS:
        raise RegionError(f"region too large: {cells} > {MAX_REGION_CELLS} cells")


class Region:
    """Immutable cubiculated region. Do not mutate `cells` after construction."""

    def __init__(self, dim: int, cells, spec: str | None = None):
        if dim < 1:
            raise RegionError(f"dimension must be >= 1, got {dim}")
        cells = sorted(cells, key=_colex)
        _check_size(len(cells))
        for c in cells:
            if len(c) != dim or not all(isinstance(x, int) for x in c):
                raise RegionError(f"bad cell {c!r} for dimension {dim}")
        for a, b in zip(cells, cells[1:]):
            if a == b:
                raise RegionError(f"duplicate cell {a!r}")
        self.dim = dim
        self.cells: tuple[Cell, ...] = tuple(map(tuple, cells))
        self.spec = spec

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Region) and self.dim == other.dim and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.dim, self.cells))

    def __repr__(self) -> str:
        return f"Region({self.spec or f'{len(self.cells)} cells'}, dim={self.dim})"

    @cached_property
    def index(self) -> dict[Cell, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @cached_property
    def colors(self) -> tuple[int, ...]:
        return tuple(cell_color(c) for c in self.cells)

    @cached_property
    def black_cells(self) -> tuple[int, ...]:
        """Indices of black cells, in canonical (colex) order."""
        return tuple(i for i, c in enumerate(self.colors) if c > 0)

    @cached_property
    def white_cells(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.colors) if c < 0)

    @cached_property
    def black_rank(self) -> tuple[int, ...]:
        """black_rank[cell index] = 0-based label among black cells, -1 for white."""
        rank = [-1] * len(self.cells)
        for r, i in enumerate(self.black_cells):
            rank[i] = r
        return tuple(rank)

    @cached_property
    def white_rank(self) -> tuple[int, ...]:
        rank = [-1] * len(self.cells)
        for r, i in enumerate(self.white_cells):
            rank[i] = r
        return tuple(rank)

    @property
    def balanced(self) -> bool:
        return len(self.black_cells) == len(self.white_cells)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """neighbors[i] = indices of cells adjacent to cell i, ascending."""
        idx = self.index
        out = []
        for c in self.cells:
            adj = []
            for k in range(self.dim):
                for d in (-1, 1):
                    j = idx.get(c[:k] + (c[k] + d,) + c[k + 1:])
                    if j is not None:
                        adj.append(j)
            out.append(tuple(sorted(adj)))
        return tuple(out)

    @cached_property
    def squares(self) -> tuple[tuple[int, int, int, int], ...]:
        """Unit squares (a, b, c, d) = (v, v+e_k0, v+e_k1, v+e_k0+e_k1) as cell indices."""
        idx = self.index
        out = []
        for v in self.cells:
            a = idx[v]
            for k0 in range(self.dim):
                b = idx.get(v[:k0] + (v[k0] + 1,) + v[k0 + 1:])
                if b is None:
                    continue
                for k1 in range(k0 + 1, self.dim):
                    c = idx.get(v[:k1] + (v[k1] + 1,) + v[k1 + 1:])
                    if c is None:
                        continue
                    w = list(v)
                    w[k0] += 1
                    w[k1] += 1
                    d = idx.get(tuple(w))
                    if d is not None:
                        out.append((a, b, c, d))
        return tuple(out)

    @cached_property
    def trit_blocks(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        """2x2x2 blocks minus two opposite corners, as (x0, x1, x2, y01, y12, y02).

        x_j = v + e_kj, y_jl = v + e_kj + e_kl; the anchor v itself and the far
        corner need not lie in the region.
        """
        idx = self.index
        candidates = set(self.cells)
        for c in self.cells:
            for k in range(self.dim):
                candidates.add(c[:k] + (c[k] - 1,) + c[k + 1:])
        out = []
        for v in sorted(candidates, key=_colex):
            for k0, k1, k2 in itertools.combinations(range(self.dim), 3):
                def shifted(*axes):
                    w = list(v)
                    for a in axes:
                        w[a] += 1
                    return idx.get(tuple(w))

                x0, x1, x2 = shifted(k0), shifted(k1), shifted(k2)
                if x0 is None or x1 is None or x2 is None:
                    continue
                y01, y12, y02 = shifted(k0, k1), shifted(k1, k2), shifted(k0, k2)
                if y01 is None or y12 is None or y02 is None:
                    continue
                out.append((x0, x1, x2, y01, y12, y02))
        return tuple(out)

    @cached_property
    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        if not self.cells:
            raise RegionError("empty region has no bounding box")
        return tuple(
            (min(c[k] for c in self.cells), max(c[k] for c in self.cells))
            for k in range(self.dim)
        )


def make_box(dims) -> Region:
    """Box [0,d1] x ... x [0,dn] with d1*...*dn unit cells."""
    dims = _box_dims(dims)
    _check_size(math.prod(dims))
    cells = itertools.product(*(range(d) for d in dims))
    return Region(len(dims), cells, spec=spec_text(("box", dims)))


def make_cylinder(base: Region, floors: int) -> Region:
    """Cylinder base x [0,floors]; the height becomes the last coordinate.

    Colex order makes the labeling floor-major with the base order reused on
    every floor.
    """
    if floors < 0:
        raise RegionError(f"cylinder needs a nonnegative floor count, got {floors}")
    _check_size(len(base) * floors)
    cells = [c + (h,) for h in range(floors) for c in base.cells]
    box = (base.spec or "").startswith("box:")
    spec = f"cyl:{base.spec[4:]}xN={floors}" if box else None
    return Region(base.dim + 1, cells, spec=spec)


def make_cork(base: Region, floors: int, p0_mask: int, p_top_mask: int) -> Region:
    """Cylinder with plug p0 removed from the bottom floor and p_top from the top."""
    if len(base) > MAX_BASE_CELLS:
        raise RegionError(f"base too large for plug masks: {len(base)} > {MAX_BASE_CELLS}")
    if floors < 0:
        raise RegionError(f"cork needs a nonnegative floor count, got {floors}")
    if p0_mask >> len(base) or p_top_mask >> len(base):
        raise RegionError("plug mask has bits outside the base")
    if floors == 0 and (p0_mask or p_top_mask):
        raise RegionError("a zero-floor cork cannot have plugs removed")
    _check_size(len(base) * floors)
    if floors == 1 and p0_mask & p_top_mask:
        raise RegionError("bottom and top plugs overlap in a single-floor cork")
    cells = []
    for h in range(floors):
        for i, c in enumerate(base.cells):
            if h == 0 and (p0_mask >> i) & 1:
                continue
            if h == floors - 1 and (p_top_mask >> i) & 1:
                continue
            cells.append(c + (h,))
    box = (base.spec or "").startswith("box:")
    spec = f"cork:{base.spec[4:]}xN={floors}:p0={p0_mask:#x}:pN={p_top_mask:#x}" if box else None
    return Region(base.dim + 1, cells, spec=spec)


def region_spec(region: Region) -> str:
    """Serializable spec string; falls back to an explicit cell list."""
    if region.spec:
        return region.spec
    body = ";".join(",".join(map(str, c)) for c in region.cells)
    return f"cells:dim={region.dim};{body}"


def read_spec(text: str) -> tuple:
    """Read a spec (see docs/formats.md) into its kind and its builder's
    arguments: ('box', dims), ('cyl', dims, floors), ('cork', dims, floors,
    p0, pN) or ('cells', dim, cells).  Dims, floors and the size of a
    cylinder or cork, whose base is built first, are checked here."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise RegionError(f"bad region spec {text!r}: missing ':'")
    try:
        if kind == "box":
            return kind, _box_dims(rest.split(","))
        if kind == "cyl":
            dims, floors = _parse_floors("cylinder", rest)
            _check_size(math.prod(dims) * floors)
            return kind, dims, floors
        if kind == "cork":
            head, p0_part, pn_part = rest.split(":")
            dims, floors = _parse_floors("cork", head)
            if not p0_part.startswith("p0=") or not pn_part.startswith("pN="):
                raise RegionError("cork spec needs ':p0=<mask>:pN=<mask>'")
            base = math.prod(dims)
            if base > MAX_BASE_CELLS:
                raise RegionError(f"base too large for plug masks: {base} > {MAX_BASE_CELLS}")
            _check_size(base * floors)
            return kind, dims, floors, int(p0_part[3:], 0), int(pn_part[3:], 0)
        if kind == "cells":
            dim_part, _, body = rest.partition(";")
            if not dim_part.startswith("dim="):
                raise RegionError("cells spec needs 'dim=<n>;'")
            cells = [tuple(int(x) for x in item.split(",")) for item in body.split(";") if item]
            return kind, int(dim_part[4:]), cells
    except RegionError:
        raise
    except ValueError as e:
        raise RegionError(f"bad region spec {text!r}: {e}") from None
    raise RegionError(f"unknown region kind {kind!r}")


def build_spec(spec: tuple) -> Region:
    """The region of a spec that read_spec returned."""
    kind, *args = spec
    if kind == "box":
        return make_box(*args)
    if kind == "cells":
        return Region(*args)
    return (make_cylinder if kind == "cyl" else make_cork)(make_box(args[0]), *args[1:])


def spec_text(spec: tuple) -> str:
    """The spec of the region of a box or cyl spec that read_spec returned."""
    box = ",".join(map(str, spec[1]))
    return f"box:{box}" if spec[0] == "box" else f"cyl:{box}xN={spec[2]}"


def parse_region_spec(text: str) -> Region:
    """The region of a spec (see read_spec)."""
    return build_spec(read_spec(text))


def _box_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise RegionError(f"box dimensions must be positive, got {dims}")
    return dims


def _parse_floors(name: str, text: str) -> tuple[tuple[int, ...], int]:
    dims_part, _, n_part = text.partition("xN=")
    if not n_part:
        raise RegionError(f"{name} spec needs 'xN=<floors>'")
    dims, floors = _box_dims(dims_part.split(",")), int(n_part)
    if floors < 0:
        raise RegionError(f"{name} needs a nonnegative floor count, got {floors}")
    return dims, floors
