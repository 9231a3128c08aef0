"""Hamiltonian paths on base regions and what they buy for cylinders.

A fixed path gamma = (s_1, ..., s_M) through the base orders its cells.
Vertical dominoes always respect the path; a horizontal domino respects
it when its two base cells are consecutive on the path.  Path-respecting
tilings of base x [0,N] transport to tilings of the strip [0,M] x [0,N]
and back (fold/unfold).  A non-respecting domino d cuts the path into
three intervals, and the flux of a plug against d is the signed count of
plug cells on each interval.  Generator tilings realize each (d, flux)
pair with a single non-respecting domino; cork fillers tile the cylinder
notched by a plug at the top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .kasteleyn import twist
from .plugs import enumerate_plugs, is_plug
from .regions import Cell, Region, make_box, make_cork, make_cylinder, region_spec
from .tilings import Tiling, TilingError, as_cylinder, decompose_floors, enumerate_tilings

MAX_FLUX_BASE_CELLS = 16
DEFAULT_HALF_FLOOR_CAP = 40


class HamiltonianError(ValueError):
    pass


class UnfoldError(HamiltonianError):
    """A domino's image pair is not adjacent in the target base."""

    def __init__(self, positions: tuple[int, int]):
        self.positions = positions
        super().__init__(
            f"domino spans path positions {positions[0]} and {positions[1]},"
            " which are not adjacent in the target region")


@dataclass(frozen=True)
class HamiltonianPath:
    """Ordering of all base cells with consecutive cells adjacent."""

    region: Region
    cells: tuple[Cell, ...]

    def __post_init__(self):
        if sorted(self.cells, key=lambda c: c[::-1]) != list(self.region.cells):
            raise HamiltonianError("path cells are not exactly the region's cells")
        for a, b in zip(self.cells, self.cells[1:]):
            if sum(abs(x - y) for x, y in zip(a, b)) != 1:
                raise HamiltonianError(f"path cells {a} and {b} are not adjacent")

    @cached_property
    def position(self) -> dict[Cell, int]:
        """1-based path position of each base cell."""
        return {c: k + 1 for k, c in enumerate(self.cells)}

    def __len__(self) -> int:
        return len(self.cells)

    def to_json_obj(self) -> dict:
        return {
            "version": 1,
            "region": region_spec(self.region),
            "cells": [list(c) for c in self.cells],
        }


def box_path(dims) -> HamiltonianPath:
    """Serpentine path through a box: the last axis sweeps slowest, and the
    lower-dimensional path reverses direction on every other layer."""
    dims = tuple(int(x) for x in dims)
    region = make_box(dims)  # checks the dims and the size before any cell is listed
    cells: list[tuple[int, ...]] = [(x,) for x in range(dims[0])]
    for ln in dims[1:]:
        prev = cells
        cells = []
        for layer in range(ln):
            sweep = prev if layer % 2 == 0 else prev[::-1]
            cells.extend(c + (layer,) for c in sweep)
    return HamiltonianPath(region, tuple(cells))


def path_from_cells(region: Region, cells) -> HamiltonianPath:
    return HamiltonianPath(region, tuple(tuple(c) for c in cells))


def domino_respects_path(path: HamiltonianPath, v: Cell, w: Cell) -> bool:
    """Vertical dominoes respect the path; horizontal ones must span
    consecutive path positions."""
    if v[-1] != w[-1]:
        return True
    return abs(path.position[v[:-1]] - path.position[w[:-1]]) == 1


def respects_path(path: HamiltonianPath, tiling: Tiling) -> bool:
    return all(domino_respects_path(path, v, w) for v, w in tiling.dominoes())


def non_respecting_dominoes(path: HamiltonianPath, tiling: Tiling) -> list[tuple[Cell, Cell]]:
    return [(v, w) for v, w in tiling.dominoes()
            if not domino_respects_path(path, v, w)]


def non_respecting_base_dominoes(path: HamiltonianPath) -> list[tuple[int, int]]:
    """All dominoes of the base that fail the path, as sorted 1-based
    position pairs (i_minus, i_plus) with i_minus + 1 < i_plus."""
    out = []
    pos = path.position
    region = path.region
    for i, cell in enumerate(region.cells):
        for j in region.neighbors[i]:
            if j < i:
                continue
            a, b = pos[cell], pos[region.cells[j]]
            if abs(a - b) > 1:
                out.append((min(a, b), max(a, b)))
    out.sort()
    return out


def path_domino_cells(path: HamiltonianPath, d: tuple[int, int]) -> tuple[Cell, Cell]:
    i_minus, i_plus = d
    m = len(path)
    if not (1 <= i_minus < i_plus <= m):
        raise HamiltonianError(f"positions {d} must satisfy 1 <= i < j <= {m}")
    lo, hi = path.cells[i_minus - 1], path.cells[i_plus - 1]
    if sum(abs(x - y) for x, y in zip(lo, hi)) != 1:
        raise HamiltonianError(f"path positions {d} are not adjacent base cells")
    if i_minus + 1 == i_plus:
        raise HamiltonianError(f"domino at {d} respects the path")
    return lo, hi


# -------------------------------------------------------------------- flux

def plug_compatible(path: HamiltonianPath, d: tuple[int, int], plug: int) -> bool:
    """Whether plug is a plug of the path's region that avoids both cells of d."""
    lo, hi = path_domino_cells(path, d)
    index = path.region.index
    return is_plug(path.region, plug) and not (plug >> index[lo] & 1 or plug >> index[hi] & 1)


def flux(path: HamiltonianPath, d: tuple[int, int], plug: int) -> tuple[int, int, int]:
    """Signed plug mass on the three path intervals cut out by d.

    Interval j contributes sum of (-1)^i over 1-based positions i with the
    i-th path cell in the plug.  The components always sum to zero because
    plugs are balanced and path position parity tracks cell color.
    """
    if not plug_compatible(path, d, plug):
        raise HamiltonianError(f"plug {plug:#x} is not a balanced subset of the"
                               f" base cells off the domino {d}")
    return _flux(path, d, plug)


def _flux(path: HamiltonianPath, d: tuple[int, int], plug: int) -> tuple[int, int, int]:
    """flux without the check that plug is compatible with d."""
    i_minus, i_plus = d
    index = path.region.index
    phi = [0, 0, 0]
    for seg, (lo, hi) in enumerate(((1, i_minus - 1),
                                    (i_minus + 1, i_plus - 1),
                                    (i_plus + 1, len(path)))):
        for i in range(lo, hi + 1):
            if plug >> index[path.cells[i - 1]] & 1:
                phi[seg] += -1 if i % 2 else 1
    return tuple(phi)


def compatible_plugs(path: HamiltonianPath, d: tuple[int, int]) -> list[int]:
    """The plugs of the path's region that avoid both cells of d, ascending:
    d is checked first, once, and as every listed plug is balanced only its
    two cells are tested."""
    lo, hi = path_domino_cells(path, d)
    base = path.region
    if len(base.cells) > MAX_FLUX_BASE_CELLS:
        raise HamiltonianError(
            f"plug enumeration for flux is capped at {MAX_FLUX_BASE_CELLS}"
            f" base cells, got {len(base.cells)}")
    cells = 1 << base.index[lo] | 1 << base.index[hi]
    return [p for p in enumerate_plugs(base) if not p & cells]


def flux_set(path: HamiltonianPath, d: tuple[int, int]) -> set[tuple[int, int, int]]:
    """All flux values achieved by plugs compatible with d."""
    return {_flux(path, d, p) for p in compatible_plugs(path, d)}


# ------------------------------------------------------------- fold/unfold

def _cylinder_over(path: HamiltonianPath, tiling: Tiling) -> int:
    try:
        base, floors = as_cylinder(tiling.region)
    except TilingError:
        raise HamiltonianError("tiling region is not a full cylinder") from None
    if base != path.region:
        raise HamiltonianError("tiling does not live on a cylinder over the path's region")
    return floors


def _transport(tiling: Tiling, src: HamiltonianPath, dst: HamiltonianPath,
               check_all_edges: bool) -> Tiling:
    if len(src) != len(dst):
        raise HamiltonianError(
            f"paths have different lengths: {len(src)} vs {len(dst)}")
    floors = _cylinder_over(src, tiling)
    dst_index = dst.region.index
    dst_neighbors = dst.region.neighbors

    def adjacent_in_dst(k0: int, k1: int) -> bool:
        a = dst_index[dst.cells[k0 - 1]]
        b = dst_index[dst.cells[k1 - 1]]
        return b in dst_neighbors[a]

    if check_all_edges:
        # consecutive path positions are adjacent in the target path too
        for k0, k1 in non_respecting_base_dominoes(src):
            if not adjacent_in_dst(k0, k1):
                raise HamiltonianError(
                    f"folding condition violated: base cells at path"
                    f" positions {k0} and {k1} are adjacent in the source"
                    " but not in the target")

    target = make_cylinder(dst.region, floors)
    pos = src.position
    dominoes = []
    for v, w in tiling.dominoes():
        kv, kw = pos[v[:-1]], pos[w[:-1]]
        if v[-1] == w[-1] and abs(kv - kw) != 1 and not adjacent_in_dst(kv, kw):
            raise UnfoldError((min(kv, kw), max(kv, kw)))
        dominoes.append((dst.cells[kv - 1] + v[-1:], dst.cells[kw - 1] + w[-1:]))
    return Tiling.from_dominoes(target, dominoes)


def fold(tiling: Tiling, src: HamiltonianPath, dst: HamiltonianPath) -> Tiling:
    """Transport a tiling between cylinders by matching path positions,
    after verifying that every source adjacency survives in the target."""
    return _transport(tiling, src, dst, check_all_edges=True)


def unfold(tiling: Tiling, src: HamiltonianPath, dst: HamiltonianPath) -> Tiling:
    """Transport without the global precheck; raises UnfoldError naming the
    path positions of the first domino whose image is not a domino."""
    return _transport(tiling, src, dst, check_all_edges=False)


def straight_path(m: int) -> HamiltonianPath:
    """The path along a one-dimensional box of m cells."""
    return box_path((m,))


# ------------------------------------------------------------- cork filler

def _filler_dominoes(base: Region, plug: int) -> tuple[list[tuple[Cell, Cell]], int]:
    """Dominoes of a tiling of the cork with plug `plug` at the top of
    2b floors, built by peeling one closest black/white plug pair."""
    if plug == 0:
        return [], 0
    blacks = [i for i in base.black_cells if plug >> i & 1]
    whites = [i for i in base.white_cells if plug >> i & 1]
    best = None  # ((distance, v, w), BFS parents from v)
    for v in blacks:
        dist, parent = {v: 0}, {v: v}
        queue = deque([v])
        while queue:
            cur = queue.popleft()
            for nb in base.neighbors[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    parent[nb] = cur
                    queue.append(nb)
        for w in whites:
            if w in dist and (best is None or (dist[w], v, w) < best[0]):
                best = (dist[w], v, w), parent
    if best is None:
        raise HamiltonianError("no black/white plug pair is connected in the base")
    (_, v, w), parent = best
    chain = [w]  # a shortest base path from v to w
    while chain[-1] != v:
        chain.append(parent[chain[-1]])
    chain.reverse()
    reduced = plug & ~(1 << v) & ~(1 << w)
    below, n_below = _filler_dominoes(base, reduced)
    n = n_below + 2
    cells = base.cells
    chain_set = set(chain)
    dominoes = list(below)
    for s in range(len(cells)):
        if reduced >> s & 1:
            dominoes.append((cells[s] + (n - 3,), cells[s] + (n - 2,)))
        elif not (plug >> s & 1) and s not in chain_set:
            dominoes.append((cells[s] + (n - 2,), cells[s] + (n - 1,)))
    for k in range(0, len(chain) - 1, 2):
        dominoes.append((cells[chain[k]] + (n - 2,), cells[chain[k + 1]] + (n - 2,)))
    for k in range(1, len(chain) - 2, 2):
        dominoes.append((cells[chain[k]] + (n - 1,), cells[chain[k + 1]] + (n - 1,)))
    return dominoes, n


def cork_filler(base: Region, plug: int) -> Tiling:
    """Tiling of the cork of height 2b with the empty plug at the bottom and
    `plug` (2b cells) removed at the top.

    Peels a closest black/white pair of plug cells, routes two staggered
    rows of horizontal dominoes along a shortest base path between them in
    the top two floors, and fills the rest with verticals.
    """
    if not is_plug(base, plug):
        raise HamiltonianError(f"plug {plug:#x} is not a balanced subset of the base cells")
    dominoes, floors = _filler_dominoes(base, plug)
    region = make_cork(base, floors, 0, plug)
    return Tiling.from_dominoes(region, dominoes)


# ------------------------------------------------------- generator tilings

@dataclass(frozen=True)
class GeneratorTiling:
    """Tiling of base x [0, 2*half] whose unique non-respecting domino is d
    at height half-1, with the given plug right below it."""

    tiling: Tiling
    d: tuple[int, int]
    plug: int
    half: int
    flux: tuple[int, int, int]
    twist: int


def generator_tiling(path: HamiltonianPath, d: tuple[int, int], plug: int,
                     half_floors: int | None = None,
                     cap: int = DEFAULT_HALF_FLOOR_CAP) -> GeneratorTiling:
    """Construct the generator tiling for a non-respecting domino d and a
    compatible plug.

    Splits the cylinder at the distinguished height, tiles the two planar
    halves of the unfolded strip by backtracking, folds back, and adds the
    plug's verticals plus d itself.  Tries half heights 2, 4, ... (or only
    `half_floors`) and uses the smallest that tiles both halves.
    """
    phi = flux(path, d, plug)
    lo_cell, hi_cell = path_domino_cells(path, d)
    base = path.region
    index = base.index
    m = len(path)
    plug_positions = [path.position[base.cells[i]]
                      for i in range(len(base.cells)) if plug >> i & 1]
    d_positions = [path.position[lo_cell], path.position[hi_cell]]
    candidates = [half_floors] if half_floors is not None else range(2, cap + 1, 2)
    for n in candidates:
        if n % 2 or n < 2:
            raise HamiltonianError(f"half height must be a positive even value, got {n}")
        removed_low = {(i - 1, n - 2) for i in plug_positions}
        lower_cells = [(x, y) for y in range(n - 1) for x in range(m)
                       if (x, y) not in removed_low]
        removed_high = {(i - 1, n - 1) for i in plug_positions + d_positions}
        upper_cells = [(x, y) for y in range(n - 1, 2 * n) for x in range(m)
                       if (x, y) not in removed_high]
        # the plug avoids d's two cells, so the lower strip keeps at least two
        t_low = next(enumerate_tilings(Region(2, lower_cells)), None)
        if t_low is None:
            continue
        t_up = next(enumerate_tilings(Region(2, upper_cells)), None)
        if t_up is None:
            continue
        dominoes = [(path.cells[x0] + (y0,), path.cells[x1] + (y1,))
                    for t in (t_low, t_up) for (x0, y0), (x1, y1) in t.dominoes()]
        for i in plug_positions:
            s = path.cells[i - 1]
            dominoes.append((s + (n - 2,), s + (n - 1,)))
        dominoes.append((lo_cell + (n - 1,), hi_cell + (n - 1,)))
        region = make_cylinder(base, 2 * n)
        tiling = Tiling.from_dominoes(region, dominoes)
        bad = non_respecting_dominoes(path, tiling)
        expect = {(lo_cell + (n - 1,), hi_cell + (n - 1,)),
                  (hi_cell + (n - 1,), lo_cell + (n - 1,))}
        if len(bad) != 1 or bad[0] not in expect:
            raise HamiltonianError("internal error: stray non-respecting domino")
        fd = decompose_floors(tiling)
        if fd.plugs[n - 1] != plug:
            raise HamiltonianError("internal error: plug below d is wrong")
        return GeneratorTiling(tiling, d, plug, n, phi, twist(tiling))
    raise HamiltonianError(
        f"no half height up to {cap} tiles both halves for d={d}, plug={plug:#x}")


def generator_set(path: HamiltonianPath,
                  dominoes: list[tuple[int, int]] | None = None,
                  cap: int = DEFAULT_HALF_FLOOR_CAP) -> list[GeneratorTiling]:
    """One generator tiling per (non-respecting domino, flux value).

    For each flux value the smallest compatible plug achieving it is used.
    """
    if dominoes is None:
        dominoes = non_respecting_base_dominoes(path)
    out = []
    for d in dominoes:
        by_flux: dict[tuple[int, int, int], int] = {}
        for p in compatible_plugs(path, d):
            by_flux.setdefault(_flux(path, d, p), p)
        for phi in sorted(by_flux):
            out.append(generator_tiling(path, d, by_flux[phi], cap=cap))
    return out
