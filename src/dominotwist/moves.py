"""Flip and trit moves and the flip-graph: components, connectivity, padding.

A flip replaces two parallel dominoes tiling a unit square by the other
pair; it never changes the twist.  A trit acts on a 2x2x2 block (along any
three axes) minus two opposite corners, replacing its three dominoes by
the only other arrangement; it always toggles the twist.

There is one flip path per state type.  Tilings go through flip_sites and
apply_flip (flip_neighbors), at any region size.  Byte-packed partner
vectors (pack_state, at most 255 cells) go through flip_neighbors_bytes,
the hot kernel of the searches.

The census (flip_components) is one numpy kernel over all tilings at
once: the tilings packed into a states x cells uint8 matrix, an exact
uint64 key per tiling, every flip edge found per unit square by key
lookup, and components labelled by min-label hooking with pointer
jumping.  Its budget truncates the report.  The pairwise searches
(flip_connected, padded_merge_search) walk byte-packed partner vectors
one state at a time; their budgets cap the states visited.  An exhausted
budget yields INDETERMINATE, never a wrong boolean.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kasteleyn import twist, twist_batch
from .regions import Region
from .tilings import Tiling, all_partner_bytes, as_cylinder, concat, vertical_tiling

DEFAULT_BUDGET = 20_000_000


class Connectivity(Enum):
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class MoveSite:
    """A place where a move applies: the cell indices involved."""

    kind: str  # "flip" or "trit"
    cells: tuple[int, ...]


def pack_state(tiling: Tiling) -> bytes:
    if len(tiling.region.cells) > 255:
        raise ValueError("byte packing needs a region with at most 255 cells")
    return bytes(tiling.partner)


def flip_neighbors_bytes(state: bytes, squares) -> list[bytes]:
    """All states one flip away. Hot path: bytes in, bytes out."""
    out = []
    for a, b, c, d in squares:
        pa = state[a]
        if pa == b:
            if state[c] == d:
                t = bytearray(state)
                t[a] = c
                t[c] = a
                t[b] = d
                t[d] = b
                out.append(bytes(t))
        elif pa == c:
            if state[b] == d:
                t = bytearray(state)
                t[a] = b
                t[b] = a
                t[c] = d
                t[d] = c
                out.append(bytes(t))
    return out


def flip_sites(tiling: Tiling) -> list[MoveSite]:
    region = tiling.region
    partner = tiling.partner
    sites = []
    for a, b, c, d in region.squares:
        if (partner[a] == b and partner[c] == d) or (partner[a] == c and partner[b] == d):
            sites.append(MoveSite("flip", (a, b, c, d)))
    return sites


def apply_flip(tiling: Tiling, site: MoveSite) -> Tiling:
    if site.kind != "flip":
        raise ValueError(f"not a flip site: {site.kind}")
    a, b, c, d = site.cells
    partner = list(tiling.partner)
    if partner[a] == b and partner[c] == d:
        partner[a], partner[c], partner[b], partner[d] = c, a, d, b
    elif partner[a] == c and partner[b] == d:
        partner[a], partner[b], partner[c], partner[d] = b, a, d, c
    else:
        raise ValueError("tiling does not match the flip site")
    return Tiling(tiling.region, partner)


def flip_neighbors(tiling: Tiling) -> list[Tiling]:
    return [apply_flip(tiling, s) for s in flip_sites(tiling)]


def trit_sites(tiling: Tiling) -> list[MoveSite]:
    partner = tiling.partner
    sites = []
    for block in tiling.region.trit_blocks:
        x0, x1, x2, y01, y12, y02 = block
        if ((partner[x0] == y01 and partner[x1] == y12 and partner[x2] == y02)
                or (partner[x0] == y02 and partner[x1] == y01 and partner[x2] == y12)):
            sites.append(MoveSite("trit", block))
    return sites


def apply_trit(tiling: Tiling, site: MoveSite) -> Tiling:
    if site.kind != "trit":
        raise ValueError(f"not a trit site: {site.kind}")
    x0, x1, x2, y01, y12, y02 = site.cells
    partner = list(tiling.partner)
    if partner[x0] == y01 and partner[x1] == y12 and partner[x2] == y02:
        pairs = ((x0, y02), (x1, y01), (x2, y12))
    elif partner[x0] == y02 and partner[x1] == y01 and partner[x2] == y12:
        pairs = ((x0, y01), (x1, y12), (x2, y02))
    else:
        raise ValueError("tiling does not match the trit site")
    for i, j in pairs:
        partner[i] = j
        partner[j] = i
    return Tiling(tiling.region, partner)


def trit_neighbors(tiling: Tiling) -> list[Tiling]:
    return [apply_trit(tiling, s) for s in trit_sites(tiling)]


@dataclass
class Component:
    size: int
    twist: int
    representative: bytes


@dataclass
class ComponentReport:
    """Flip-graph components of a region's tilings.

    components are sorted by size descending, then by representative bytes;
    comp_of[i] is the component id of states[i] (-1 if the budget ran out
    before that state's component was kept); complete says whether every
    component was kept within budget; flip_edges counts the edges of the
    whole flip graph, each flip once.
    """

    region: Region
    states: list[bytes]
    components: list[Component]
    comp_of: list[int]
    twists: "object"  # np.ndarray of per-state twists, aligned with states
    complete: bool
    visited: int
    flip_edges: int

    def representative_tiling(self, k: int) -> Tiling:
        return Tiling(self.region, self.components[k].representative)

    def summary(self) -> list[dict]:
        return [
            {
                "size": c.size,
                "twist": c.twist,
                "representative": Tiling(self.region, c.representative).to_text(),
            }
            for c in self.components
        ]


def _packed_states(states: list[bytes], n: int, chunk: int = 1 << 16) -> np.ndarray:
    """States as a column-major states x cells uint8 matrix.  Packed in
    chunks: one bytes.join over all states holds a buffer record per state,
    more than twice the matrix."""
    P = np.empty((len(states), n), dtype=np.uint8, order="F")
    for lo in range(0, len(states), chunk):
        part = states[lo:lo + chunk]
        P[lo:lo + len(part)] = np.frombuffer(b"".join(part), dtype=np.uint8).reshape(len(part), n)
    return P


def _packed_key_table(region: Region) -> np.ndarray | None:
    """Key table that puts the neighbour rank of black cell i's partner at
    bit offset bits * (rank of i), which makes keys injective on tilings.
    None when the keys would need more than 64 bits."""
    black = region.black_cells
    nbrs = region.neighbors
    bits = max((len(nbrs[i]) - 1).bit_length() for i in black) if black else 0
    if bits * len(black) > 64:
        return None
    n = len(region.cells)
    table = np.zeros((n, n), dtype=np.uint64)
    for r, i in enumerate(black):
        for k, j in enumerate(nbrs[i]):
            table[i, j] = table[j, i] = k << (bits * r)
    return table


def _random_key_table(region: Region, seed: int) -> np.ndarray:
    """Key table of random 64-bit entries on the region's edges, from `seed`."""
    n = len(region.cells)
    values = np.random.default_rng(seed).integers(0, 1 << 64, size=(n, n), dtype=np.uint64)
    table = np.zeros((n, n), dtype=np.uint64)
    for i in region.black_cells:
        for j in region.neighbors[i]:
            table[i, j] = table[j, i] = values[i, j]
    return table


def _state_keys(region: Region, P: np.ndarray):
    """Pairwise distinct uint64 keys of the states (rows of P): their argsort
    order, the sorted keys and the key table T they came from.

    A state's key is the XOR of T[i, partner(i)] over its black cells i.  T
    is symmetric, so the flip on square (a, b, c, d) from a-b, c-d to a-c,
    b-d moves a key by T[a,b] ^ T[c,d] ^ T[a,c] ^ T[b,d] whichever cells are
    black.  Only a random table can give two tilings one key; it is then
    drawn again from the next seed.
    """
    table = _packed_key_table(region)
    seed = 0
    while True:
        if table is None:
            table = _random_key_table(region, seed)
            seed += 1
        keys = np.zeros(len(P), dtype=np.uint64)
        for i in region.black_cells:
            keys ^= table[i][P[:, i]]
        order = np.argsort(keys).astype(np.int32)
        sorted_keys = keys[order]
        del keys
        if not (sorted_keys[1:] == sorted_keys[:-1]).any():
            return order, sorted_keys, table
        table = None


def _flip_edges(region: Region, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All flip edges among the states (rows of P), as int32 arrays of state
    ids.  Each edge is found once, from the side where the square (a, b, c,
    d) pairs a-b and c-d; its other end is looked up by key.  Every flip
    neighbour of a state must be a state too.

    The rows of P are permuted into key order in place.  A flip changes a
    key only in the fields of the square's two black cells, which are the
    same on every state of that side; so with a packed table the looked-up
    keys come out sorted too, and searchsorted runs near linear.
    """
    order, sorted_keys, table = _state_keys(region, P)
    for j in range(P.shape[1]):
        P[:, j] = P[order, j]

    def side(a, b, c, d):
        return (P[:, a] == b) & (P[:, c] == d)

    squares = region.squares
    counts = [int(np.count_nonzero(side(*sq))) for sq in squares]
    src = np.empty(sum(counts), dtype=np.int32)
    dst = np.empty_like(src)
    pos = 0
    for (a, b, c, d), cnt in zip(squares, counts):
        if not cnt:
            continue
        at = np.flatnonzero(side(a, b, c, d))
        keys = sorted_keys[at] ^ (table[a, b] ^ table[c, d] ^ table[a, c] ^ table[b, d])
        to = np.minimum(np.searchsorted(sorted_keys, keys), len(P) - 1)
        if not (sorted_keys[to] == keys).all():
            raise RuntimeError("a flip neighbour is missing from the states")
        src[pos:pos + cnt] = order[at]
        dst[pos:pos + cnt] = order[to]
        pos += cnt
    return src, dst


def _min_labels(m: int, src: np.ndarray, dst: np.ndarray, chunk: int = 1 << 20) -> np.ndarray:
    """Smallest state id of each state's component (Shiloach-Vishkin style).

    Each round walks the edges in chunks.  An edge whose ends carry the same
    label is dropped; an edge whose ends differ is kept, and hooks the
    larger label onto the smaller (lab[top] = min(lab[top], low)).  Then
    pointers jump until every label is a root (a state labelled by itself).
    Labels stay in their component and only decrease, and the smallest
    state of a component keeps its own label, so once no edge is left
    every label is its component's smallest state.  Dropping is safe
    because every pointer a hook overwrites came from a kept edge.  Kept
    edges are compacted to the front of src and dst in place, so both
    arrays are overwritten.
    """
    lab = np.arange(m, dtype=np.int32)
    while len(src):
        kept = 0
        for lo in range(0, len(src), chunk):
            s, d = src[lo:lo + chunk], dst[lo:lo + chunk]
            low, top = lab[s], lab[d]
            open_ = low != top
            s, d, low, top = s[open_], d[open_], low[open_], top[open_]
            swap = low > top
            low[swap], top[swap] = top[swap], low[swap]
            np.minimum.at(lab, top, low)
            src[kept:kept + len(s)] = s
            dst[kept:kept + len(s)] = d
            kept += len(s)
        src, dst = src[:kept], dst[:kept]
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
    return lab


def flip_components(region: Region, budget: int = DEFAULT_BUDGET) -> ComponentReport:
    """Census of the flip graph: enumerate all tilings, find every flip edge
    by key lookup and label all components at once.

    Components are kept in ascending order of their smallest state index
    while fewer than `budget` states were kept before them; the states of
    the others get comp_of -1.  The budget truncates the report only: the
    whole graph is built either way.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    # in ascending byte order, so a component's smallest state id is its
    # smallest state
    states = all_partner_bytes(region)
    m = len(states)
    if not m:
        return ComponentReport(region, states, [], [], None, True, 0, 0)
    P = _packed_states(states, len(region.cells))
    twists = twist_batch(region, P)
    src, dst = _flip_edges(region, P)
    del P
    flip_edges = len(src)
    lab = _min_labels(m, src, dst)
    del src, dst
    roots, sizes = np.unique(lab, return_counts=True)
    kept = int(np.count_nonzero(np.cumsum(sizes) - sizes < budget))
    raw = sorted(zip(sizes[:kept].tolist(), roots[:kept].tolist()),
                 key=lambda c: (-c[0], c[1]))
    cid = np.full(m, -1, dtype=np.int32)
    cid[[root for _, root in raw]] = np.arange(len(raw))
    components = [Component(size, int(twists[root]), states[root]) for size, root in raw]
    return ComponentReport(region, states, components, cid[lab].tolist(), twists,
                           kept == len(roots), int(sizes[:kept].sum()), flip_edges)


def flip_connected(t0: Tiling, t1: Tiling, budget: int = DEFAULT_BUDGET) -> Connectivity:
    """Bidirectional BFS on the implicit flip graph.

    The twist shortcut is sound: flips preserve twist, so tilings with
    different twists are disconnected without any search.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if t0.region != t1.region:
        raise ValueError("tilings live on different regions")
    if t0.partner == t1.partner:
        return Connectivity.CONNECTED
    if twist(t0) != twist(t1):
        return Connectivity.DISCONNECTED
    squares = t0.region.squares
    s0, s1 = pack_state(t0), pack_state(t1)
    sides = [({s0}, [s0]), ({s1}, [s1])]  # (visited, frontier)
    visited_total = 2
    while sides[0][1] and sides[1][1]:
        # expand the smaller frontier
        i = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        seen, frontier = sides[i]
        other_seen = sides[1 - i][0]
        next_frontier = []
        for s in frontier:
            for nb in flip_neighbors_bytes(s, squares):
                if nb in seen:
                    continue
                if nb in other_seen:
                    return Connectivity.CONNECTED
                seen.add(nb)
                next_frontier.append(nb)
        visited_total += len(next_frontier)
        sides[i] = (seen, next_frontier)
        if visited_total > budget:
            return Connectivity.INDETERMINATE
    return Connectivity.DISCONNECTED


def connected_with_padding(t0: Tiling, t1: Tiling, extra_floors: int,
                           budget: int = DEFAULT_BUDGET) -> Connectivity:
    """Append `extra_floors` vertical floors to both tilings, then test."""
    if extra_floors % 2:
        raise ValueError("padding must use an even number of floors")
    base, _ = as_cylinder(t0.region)
    if extra_floors == 0:
        return flip_connected(t0, t1, budget)
    pad = vertical_tiling(base, extra_floors)
    return flip_connected(concat(t0, pad), concat(t1, pad), budget)


def padded_merge_search(t_start: Tiling, bottom_targets: set[bytes], extra_floors: int,
                        budget: int = 2_000_000) -> list[bytes] | None:
    """Flip path from t_start + vertical padding to some (w + same padding)
    with packed w in bottom_targets.

    Best-first search ordered by how much of the padding slab is back in
    vertical position, FIFO within equal scores.  Returns the byte-state
    path (both endpoints included), or None when the budget is exhausted.
    Any returned path is a certificate: every step is a legal flip.
    """
    if extra_floors % 2 or extra_floors <= 0:
        raise ValueError("padding must use a positive even number of floors")
    base, n0 = as_cylinder(t_start.region)
    nb = len(base.cells)
    padded = concat(t_start, vertical_tiling(base, extra_floors))
    region = padded.region
    squares = region.squares
    bottom_len = n0 * nb

    slab_pairs = []
    for h in range(n0, n0 + extra_floors, 2):
        for i in range(nb):
            slab_pairs.append((h * nb + i, (h + 1) * nb + i))
    max_score = len(slab_pairs)

    def score(state: bytes) -> int:
        return sum(1 for i, j in slab_pairs if state[i] == j)

    def is_goal(state: bytes) -> bool:
        return score(state) == max_score and state[:bottom_len] in bottom_targets

    start = pack_state(padded)
    if is_goal(start):
        return [start]
    parent: dict[bytes, bytes | None] = {start: None}
    counter = 0
    heap = [(-score(start), counter, start)]
    while heap:
        _, _, s = heapq.heappop(heap)
        for nb_state in flip_neighbors_bytes(s, squares):
            if nb_state in parent:
                continue
            parent[nb_state] = s
            if is_goal(nb_state):
                path = [nb_state]
                cur = s
                while cur is not None:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()
                return path
            if len(parent) >= budget:
                return None
            counter += 1
            heapq.heappush(heap, (-score(nb_state), counter, nb_state))
    return None


def is_flip_pair(region: Region, s0: bytes, s1: bytes) -> bool:
    """Independent check that two packed states differ by one legal flip."""
    return s1 in flip_neighbors_bytes(s0, region.squares)
