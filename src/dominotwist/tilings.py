"""Tilings of cubiculated regions by dominoes (2x1x...x1 blocks).

A tiling is stored as a partner vector over canonical cell indices:
partner[i] = index of the cell matched with cell i.  Counting and
enumeration sweep the cells in label order, with no recursion: the lowest
uncovered cell is matched to a later neighbour, partners ascending.
count_tilings keeps only the frontier, the covered later cells with their
number of partial tilings; enumerate_tilings walks the same choices depth
first and yields Tilings lazily, at any size.  partner_matrix builds all of
them at once, in the same order, as one states x cells uint8 matrix (up to
255 cells), layer by layer (a layer: the cells that share a last
coordinate).  Only partner_matrix and its helper use numpy, and they
import it when called.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .regions import Region, make_cylinder, parse_region_spec, region_spec

Domino = tuple[tuple[int, ...], tuple[int, ...]]  # (black cell, white cell)


class TilingError(ValueError):
    pass


class Tiling:
    """Perfect matching of a region's adjacency graph."""

    __slots__ = ("region", "partner")

    def __init__(self, region: Region, partner, validate: bool = False):
        self.region = region
        self.partner: tuple[int, ...] = tuple(partner)
        if validate:
            self.validate()

    def validate(self) -> None:
        region = self.region
        partner = self.partner
        if len(partner) != len(region.cells):
            raise TilingError(f"partner vector has {len(partner)} entries for {len(region.cells)} cells")
        for i, j in enumerate(partner):
            if not 0 <= j < len(partner) or j == i:
                raise TilingError(f"cell {region.cells[i]} has bad partner index {j}")
            if partner[j] != i:
                raise TilingError(f"cells {region.cells[i]} and {region.cells[j]} disagree on matching")
            if region.colors[i] == region.colors[j]:
                raise TilingError(f"domino {region.cells[i]}-{region.cells[j]} joins same-color cells")
            if sum(abs(a - b) for a, b in zip(region.cells[i], region.cells[j])) != 1:
                raise TilingError(f"cells {region.cells[i]} and {region.cells[j]} are not adjacent")

    @classmethod
    def from_dominoes(cls, region: Region, pairs) -> "Tiling":
        partner = [-1] * len(region.cells)
        idx = region.index
        for a, b in pairs:
            try:
                i, j = idx[tuple(a)], idx[tuple(b)]
            except KeyError as e:
                raise TilingError(f"cell {e.args[0]} not in region") from None
            if partner[i] != -1 or partner[j] != -1:
                raise TilingError(f"cell covered twice near {tuple(a)}-{tuple(b)}")
            partner[i] = j
            partner[j] = i
        if -1 in partner:
            raise TilingError(f"cell {region.cells[partner.index(-1)]} left uncovered")
        return cls(region, partner, validate=True)

    def dominoes(self) -> list[Domino]:
        """Dominoes as (black cell, white cell), sorted by black cell label."""
        region = self.region
        return [
            (region.cells[i], region.cells[self.partner[i]])
            for i in region.black_cells
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tiling)
            and self.region == other.region
            and self.partner == other.partner
        )

    def __hash__(self) -> int:
        return hash(self.partner)

    def __repr__(self) -> str:
        return f"Tiling({self.region!r}, {len(self.partner) // 2} dominoes)"

    def to_text(self) -> str:
        lines = [f"tiling v1 dim={self.region.dim} region={region_spec(self.region)}"]
        for b, w in self.dominoes():
            lines.append(f"({','.join(map(str, b))})-({','.join(map(str, w))})")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "version": 1,
            "region": region_spec(self.region),
            "dominoes": [[list(b), list(w)] for b, w in self.dominoes()],
        }


_HEADER_RE = re.compile(r"^tiling v1 dim=(\d+) region=(\S+)$")
_DOMINO_RE = re.compile(r"^\((-?\d+(?:,-?\d+)*)\)-\((-?\d+(?:,-?\d+)*)\)$")


def tiling_from_text(text: str) -> Tiling:
    lines = text.splitlines()
    if not lines:
        raise TilingError("empty tiling text")
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise TilingError(f"line 1: bad header {lines[0]!r}")
    dim = int(m.group(1))
    region = parse_region_spec(m.group(2))
    if region.dim != dim:
        raise TilingError(f"line 1: header says dim={dim}, region has dim={region.dim}")
    pairs = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        dm = _DOMINO_RE.match(line)
        if not dm:
            raise TilingError(f"line {ln}: bad domino line {line!r}")
        a = tuple(int(x) for x in dm.group(1).split(","))
        b = tuple(int(x) for x in dm.group(2).split(","))
        if len(a) != dim or len(b) != dim:
            raise TilingError(f"line {ln}: cell arity does not match dim={dim}")
        pairs.append((a, b))
    return Tiling.from_dominoes(region, pairs)


def tiling_from_json_obj(obj) -> Tiling:
    if not isinstance(obj, dict) or obj.get("version") != 1:
        raise TilingError("expected a tiling object with version 1")
    if not isinstance(obj.get("region"), str):
        raise TilingError("tiling object needs a 'region' spec string")
    region = parse_region_spec(obj["region"])
    dominoes = obj.get("dominoes")
    if not isinstance(dominoes, list) or not all(
            isinstance(d, list) and len(d) == 2 and all(_is_int_cell(c) for c in d)
            for d in dominoes):
        raise TilingError("'dominoes' must be a list of [cell, cell] pairs"
                          " of integer coordinates")
    pairs = [(tuple(b), tuple(w)) for b, w in dominoes]
    return Tiling.from_dominoes(region, pairs)


def _is_int_cell(cell) -> bool:
    return isinstance(cell, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in cell)


def enumerate_tilings(region: Region):
    """Yield every tiling of the region, lazily, in ascending partner order:
    depth first, with one (cell, untried later neighbours) pair on the stack
    per domino placed."""
    if not region.balanced:
        return
    n = len(region.cells)
    later = [[j for j in nbrs if j > i] for i, nbrs in enumerate(region.neighbors)]
    partner = [-1] * n
    stack = []
    i = 0
    while True:
        while i < n and partner[i] >= 0:
            i += 1
        if i == n:
            yield Tiling(region, partner)
        else:
            stack.append((i, iter(later[i])))
        while stack:  # the next choice of the deepest cell that has one
            i, untried = stack[-1]
            j = partner[i]
            if j >= 0:
                partner[j] = partner[i] = -1
            for j in untried:
                if partner[j] < 0:
                    partner[i], partner[j] = j, i
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return


MAX_PACKED_CELLS = 255  # the most cells whose partner vectors pack into bytes


def partner_matrix(region: Region) -> np.ndarray:
    """All tilings as a column-major states x cells uint8 matrix of partner
    vectors (regions up to 255 cells), in the order of enumerate_tilings,
    which is ascending byte order: two tilings first differ at the lowest
    cell where the branch chose different partners.

    Built layer by layer on every region.  Colex labels are layer-major: a
    layer is a run of labels that share a last coordinate, and a cell's
    only neighbours outside its layer are the cell below (its least
    neighbour) and the cell above.  Layer k of a tiling is a segment of the
    partner vector, fixed by its plug u (the cells matched down into layer
    k - 1) and an option: an up-plug v, the cells of layer k + 1 matched
    down into it, plus a matching of the other cells in the layer.  Each
    plug's options are sorted by segment (_layer_options, memoised per
    layer shape, so the floors of a cylinder share one memo and its top
    floor has another) and every row expands into its options in that
    order, so rows come out in ascending byte order with no sort.  Options
    whose up-plug cannot be completed in the layers above are pruned before
    the expansion.  Each layer keeps one (parent row, option) pair per row;
    one walk back from the top layer writes the columns.
    """
    import numpy as np

    n = len(region.cells)
    if n > MAX_PACKED_CELLS:
        raise TilingError(f"byte-packed enumeration needs a region with at most {MAX_PACKED_CELLS} cells")
    if not region.balanced or not n:
        return np.empty((0 if n else 1, n), dtype=np.uint8, order="F")
    cells, nbrs = region.cells, region.neighbors
    starts = [i for i in range(n) if not i or cells[i][-1] != cells[i - 1][-1]]
    layers = list(zip(starts, starts[1:] + [n]))  # label range of each layer
    memos = {}  # layer shape -> its options
    levels = []  # per layer: plug -> (segments, up-plugs) of its options
    plugs = {0}
    for start, stop in layers:
        shape = tuple(tuple(j - start for j in nbrs[i] if j >= start) for i in range(start, stop))
        options = memos.get(shape) or memos.setdefault(shape, _layer_options(shape))
        full = (1 << stop - start) - 1
        level = {}
        for u in plugs:
            seg, ups = options(full ^ u)
            seg = seg.copy()
            down = [c for c in range(stop - start) if u >> c & 1]
            seg[:, down] = [nbrs[start + c][0] - start for c in down]
            level[u] = (seg, ups)
        levels.append(level)
        plugs = {v for _, ups in level.values() for v in ups}
    alive = {0}
    tables = []
    for level in reversed(levels):
        plugs, keep = [], []
        for u, (seg, ups) in level.items():
            k = [i for i, v in enumerate(ups) if v in alive]
            if k:
                plugs.append(u)
                keep.append((seg[k], [ups[i] for i in k]))
        tables.append((plugs, keep))
        alive = set(plugs)
    tables.reverse()
    if not tables[0][0]:
        return np.empty((0, n), dtype=np.uint8, order="F")
    # per layer: option segments (cells x options), first option and count
    # per plug index, and the next layer's plug index of each option
    links = []
    state = np.zeros(1, dtype=np.int32)  # layer-0 plug index (plug 0) per row
    for k, (plugs, keep) in enumerate(tables):
        nxt = {v: i for i, v in enumerate(tables[k + 1][0])} if k + 1 < len(tables) else {0: 0}
        seg = np.concatenate([s for s, _ in keep]) + layers[k][0]
        count = np.array([len(s) for s, _ in keep], dtype=np.int32)
        first = (np.cumsum(count) - count).astype(np.int32)
        to = np.array([nxt[v] for _, ups in keep for v in ups], dtype=np.int32)
        c = count[state]
        parent = np.repeat(np.arange(len(state), dtype=np.int32), c)
        # a new row's option: its plug's first option plus its rank among its siblings
        opt = np.arange(len(parent), dtype=np.int32)
        opt += np.repeat(first[state] - (np.cumsum(c) - c).astype(np.int32), c)
        state = to[opt]
        links.append((np.ascontiguousarray(seg.T.astype(np.uint8)), parent, opt))
    del state
    M = np.empty((len(links[-1][1]), n), dtype=np.uint8, order="F")
    at = None  # row of each tiling on the current layer; None: the tiling itself
    for start, stop in reversed(layers):
        seg, parent, opt = links.pop()
        if at is not None:
            opt = opt[at]
        np.take(seg, opt, axis=1, out=M[:, start:stop].T, mode="clip")
        at = parent if at is None else parent[at]
        del seg, parent, opt
    return M


def _layer_options(shape: tuple[tuple[int, ...], ...]):
    """options(m) -> (segments, up-plugs): the ways to cover the cells in
    mask m of one layer, each matched to a neighbour in the layer or to the
    cell above, sorted by segment.

    shape[i] lists cell i's neighbours in or above the layer, ascending and
    counted from the layer's first label: j < size is cell j of the layer,
    j >= size the cell above, bit j - size of the up-plug.  A segment is an
    int16 row over the layer's cells holding each partner counted the same
    way (columns outside m are left for the caller).  Branching on the
    lowest cell of m, partners ascending, gives segment order directly.
    """
    import numpy as np

    size = len(shape)
    memo: dict[int, tuple[np.ndarray, list[int]]] = {}

    def options(m: int):
        got = memo.get(m)
        if got is not None:
            return got
        if not m:
            got = np.zeros((1, size), dtype=np.int16), [0]
        else:
            low = m & -m
            i = low.bit_length() - 1
            m2 = m ^ low
            segs, ups = [], []
            for j in shape[i]:
                if j < size and not m2 >> j & 1:
                    continue
                s, v = options(m2 ^ (1 << j) if j < size else m2)
                s = s.copy()
                s[:, i] = j
                if j < size:
                    s[:, j] = i
                else:
                    v = [x | 1 << (j - size) for x in v]
                segs.append(s)
                ups += v
            got = (np.concatenate(segs) if segs else np.empty((0, size), dtype=np.int16)), ups
        memo[m] = got
        return got

    return options


def count_tilings(region: Region) -> int:
    """Exact tiling count.  The frontier before cell i maps each set of
    covered cells among i and later (bit 0: cell i, no wider than the
    largest forward neighbour offset) to its number of partial tilings."""
    if not region.balanced:
        return 0
    frontier = {0: 1}
    for i, nbrs in enumerate(region.neighbors):
        bits = [1 << (j - i) for j in nbrs if j > i]
        nxt: dict[int, int] = {}
        for m, c in frontier.items():
            if m & 1:
                nxt[m >> 1] = nxt.get(m >> 1, 0) + c
                continue
            for b in bits:
                if not m & b:
                    k = (m | b) >> 1
                    nxt[k] = nxt.get(k, 0) + c
        frontier = nxt
    return frontier.get(0, 0)


def vertical_tiling(base: Region, floors: int) -> Tiling:
    """All-vertical tiling of the cylinder over `base` with an even floor count."""
    if floors % 2:
        raise TilingError(f"vertical tiling needs an even number of floors, got {floors}")
    region = make_cylinder(base, floors)
    nb = len(base.cells)
    partner = [0] * (nb * floors)
    for h in range(0, floors, 2):
        for i in range(nb):
            partner[h * nb + i] = (h + 1) * nb + i
            partner[(h + 1) * nb + i] = h * nb + i
    return Tiling(region, partner)


def as_cylinder(region: Region) -> tuple[Region, int]:
    """Base and floor count of a cylinder region."""
    if region.base is not None and region.floors is not None:
        return region.base, region.floors
    heights = sorted({c[-1] for c in region.cells})
    if heights != list(range(len(heights))):
        raise TilingError("region is not a cylinder: heights are not 0..N-1")
    floors = len(heights)
    base_cells = sorted({c[:-1] for c in region.cells}, key=lambda c: c[::-1])
    if len(base_cells) * floors != len(region.cells):
        raise TilingError("region is not a cylinder: floors differ")
    base = Region(region.dim - 1, base_cells)
    return base, floors


def concat(t0: Tiling, t1: Tiling) -> Tiling:
    """Stack t1 on top of t0; both must be cylinder tilings over the same base."""
    base0, n0 = as_cylinder(t0.region)
    base1, n1 = as_cylinder(t1.region)
    if base0 != base1:
        raise TilingError("cannot concatenate tilings over different bases")
    nb = len(base0.cells)
    shift = n0 * nb
    partner = list(t0.partner) + [p + shift for p in t1.partner]
    return Tiling(make_cylinder(base0, n0 + n1), partner)


@dataclass
class FloorDecomposition:
    """Alternating plugs and floor matchings of a cylinder tiling.

    plugs[k] is the bitmask of base cells whose vertical domino crosses
    height k (so plugs[0] = plugs[N] = 0); floor_pairs[k-1] lists the
    horizontal dominoes of floor k as base-index pairs (i, j).
    """

    base: Region
    floors: int
    plugs: list[int]
    floor_pairs: list[list[tuple[int, int]]]


def decompose_floors(t: Tiling) -> FloorDecomposition:
    base, floors = as_cylinder(t.region)
    nb = len(base.cells)
    plugs = [0] * (floors + 1)
    floor_pairs: list[list[tuple[int, int]]] = [[] for _ in range(floors)]
    for i, j in enumerate(t.partner):
        if j < i:
            continue
        hi, ci = divmod(i, nb)
        hj, cj = divmod(j, nb)
        if hi == hj:
            floor_pairs[hi].append((ci, cj))
        else:
            plugs[hj] |= 1 << ci  # vertical domino crosses height hj = hi+1
    return FloorDecomposition(base, floors, plugs, floor_pairs)


def recompose_floors(fd: FloorDecomposition) -> Tiling:
    nb = len(fd.base.cells)
    partner = [-1] * (nb * fd.floors)
    for k in range(1, fd.floors):
        m = fd.plugs[k]
        while m:
            low = m & -m
            i = low.bit_length() - 1
            partner[(k - 1) * nb + i] = k * nb + i
            partner[k * nb + i] = (k - 1) * nb + i
            m ^= low
    for h, pairs in enumerate(fd.floor_pairs):
        for ci, cj in pairs:
            partner[h * nb + ci] = h * nb + cj
            partner[h * nb + cj] = h * nb + ci
    if -1 in partner:
        raise TilingError("floors and plugs do not cover the cylinder")
    t = Tiling(make_cylinder(fd.base, fd.floors), partner)
    t.validate()
    return t
