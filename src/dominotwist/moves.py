"""Flip and trit moves and the flip-graph: components, connectivity, padding.

A flip replaces two parallel dominoes tiling a unit square by the other
pair; it never changes the twist.  A trit acts on a 2x2x2 block (along any
three axes) minus two opposite corners, replacing its three dominoes by
the only other arrangement; it always toggles the twist.

There is one flip path per state type.  Tilings go through flip_sites and
apply_flip (flip_neighbors), at any region size.  Byte-packed partner
vectors (pack_state, at most 255 cells) go through the numpy kernels
below, in rows of a uint8 matrix; flip_neighbors_bytes, one state at a
time, is kept as the independent check behind is_flip_pair.

The numpy kernels key a tiling by one exact mixed-radix number
(_key_table): a digit per black cell, the rank of its partner among its
neighbours, packed into as many 64-bit words as the digits need, so keys
are injective at any size with no random table.  A flip moves a key by a
constant delta per square and orientation.

The census (flip_components) runs over all tilings at once: the states x
cells uint8 matrix of tilings.partner_matrix, kept as the report's states,
flip edges found a group of unit squares at a time by key lookup and
merged into min labels (hooking, pointer jumping) before the next group,
and one twist per component, read from its representative.  Both searches
expand whole frontiers of rows and their keys through one kernel,
_expand: flip_connected is a bidirectional BFS, one level at a time, and
padded_merge_search a best-first search, one score level at a time, that
returns a path.  The budget of flip_connected caps the states visited, and
an exhausted budget yields INDETERMINATE, never a wrong boolean; the
budget of padded_merge_search caps the states built, and yields no path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .kasteleyn import twist, twist_batch
from .regions import DEFAULT_BUDGET, Region
from .tilings import MAX_PACKED_CELLS, Tiling, as_cylinder, concat, partner_matrix, vertical_tiling

FRONTIER_CHUNK = 1 << 14  # frontier rows per chunk of a flip_connected level
SQUARE_GROUP = 8  # unit squares per census group (at most 8: one uint8 of side masks)


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
    if len(tiling.region.cells) > MAX_PACKED_CELLS:
        raise ValueError(f"byte packing needs a region with at most {MAX_PACKED_CELLS} cells")
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

    states is the states x cells uint8 matrix of partner_matrix: every
    tiling, one row each, in ascending byte order; state(i) is row i as
    packed bytes.  components are sorted by size descending, then by
    representative bytes; comp_of[i] is the component id of state i;
    twists[i] is its twist, computed on first read (None with no states);
    flip_edges counts the edges of the whole flip graph, each flip once.
    complete is always true and visited is the number of states: the
    census has no budget.
    """

    region: Region
    states: np.ndarray
    components: list[Component]
    comp_of: list[int]
    complete: bool
    visited: int
    flip_edges: int

    @cached_property
    def twists(self) -> np.ndarray | None:
        return twist_batch(self.region, self.states) if len(self.states) else None

    def state(self, i: int) -> bytes:
        return self.states[i].tobytes()

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


def _key_table(region: Region) -> np.ndarray:
    """Mixed-radix key table T, cells x cells x w uint64.

    Black cell i with neighbours nbrs[i] gets a place value R_i in one word:
    the product of the degrees of the earlier black cells in that word, a
    new word starting when R * deg would pass 2^64.  Then T[i, j] = T[j, i]
    = rank(j in nbrs[i]) * R_i in word(i).  Summed over the black cells of
    a tiling, every word is a mixed-radix number below 2^64, so keys are
    exact and injective on tilings at any region size.
    """
    n = len(region.cells)
    nbrs = region.neighbors
    places = []
    word, radix = 0, 1
    for i in region.black_cells:
        deg = len(nbrs[i])
        if radix * deg > 1 << 64:
            word, radix = word + 1, 1
        places.append((i, word, radix))
        radix *= deg
    table = np.zeros((n, n, word + 1), dtype=np.uint64)
    for i, word, radix in places:
        for k, j in enumerate(nbrs[i]):
            table[i, j, word] = table[j, i, word] = k * radix
    return table


def _flip_moves(region: Region, table: np.ndarray):
    """The two flips of every unit square (a, b, c, d): flip 2k from a-b,
    c-d to a-c, b-d and flip 2k + 1 back.  Returns, per flip, the two
    (cell, partner) pairs it needs, the four partner writes it makes (as
    cells x4 and values x4 arrays) and its key delta (flips x w words).
    Deltas are built on word arrays, so they wrap mod 2^64 silently."""
    need, cols, vals, delta = [], [], [], []
    for a, b, c, d in region.squares:
        step = table[a, c] + table[b, d] - table[a, b] - table[c, d]
        need += [((a, b), (c, d)), ((a, c), (b, d))]
        cols += [(a, c, b, d), (a, b, c, d)]
        vals += [(c, a, d, b), (b, a, d, c)]
        delta += [step, -step]
    w = table.shape[2]
    return (need, np.array(cols, dtype=np.intp).reshape(-1, 4),
            np.array(vals, dtype=np.uint8).reshape(-1, 4),
            np.array(delta, dtype=np.uint64).reshape(-1, w))


def _as_key(words: np.ndarray) -> np.ndarray:
    """One comparable key per row of (k, w) uint64 words: uint64 when w = 1,
    else a void of 8w bytes (sort, unique and searchsorted work on both)."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of `keys` occur in the nonempty sorted key array."""
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _key_words(region: Region, table: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(states, w) key words of the states (rows of P): per word, the sum
    over black cells i of T[i, partner(i)]."""
    words = np.zeros((len(P), table.shape[2]), dtype=np.uint64)
    for i in region.black_cells:
        words += table[i][P[:, i]]
    return words


def _state_keys(region: Region, P: np.ndarray):
    """Keys of the states (rows of P) under the mixed-radix table T of
    _key_table: their argsort order, the sorted key words and T.

    T is symmetric, so the flip on square (a, b, c, d) from a-b, c-d to
    a-c, b-d moves a key by T[a,c] + T[b,d] - T[a,b] - T[c,d] whichever
    cells are black.  Keys are injective on tilings; two equal keys mean
    equal rows, which the census never holds.
    """
    table = _key_table(region)
    words = _key_words(region, table, P)
    order = np.argsort(_as_key(words)).astype(np.int32)
    words = words[order]
    keys = _as_key(words)
    if (keys[1:] == keys[:-1]).any():
        raise RuntimeError("two states share a key")
    return order, words, table


def _label_components(region: Region, P: np.ndarray) -> tuple[np.ndarray, int]:
    """Smallest state id of each state's component, and the number of flip
    edges, by min-label hooking with pointer jumping (Shiloach-Vishkin).
    No array of all edges is built: the edges of SQUARE_GROUP unit squares
    are merged into the labels before the next group is looked up.

    Labels are positions in key order.  An edge is found once, from the
    side where its square (a, b, c, d) pairs a-b and c-d, and its other end
    is looked up by key; every flip neighbour of a state must be a state.
    A group's side masks share the bits of one uint8 per state, gathered
    into key order at once, so each square's states come in key order; with
    one key word, adding the square's delta keeps their keys sorted.

    Per square, the pairs whose end labels differ are kept.  With the pairs
    carried from the previous group, each hooks its larger root onto the
    smaller (np.minimum.at); then pointers jump, and the pairs whose roots
    still differ are carried on, past the last group until none is left.
    This is sound:
    - every label is a root when a group starts and nothing is hooked while
      it is looked up, so a pair whose labels agree lies in one tree;
    - a hook only ever overwrites a root's own pointer;
    - a pair whose hook lost to a smaller one still has differing roots,
      so it is carried;
    - labels only decrease, so each ends as its component's smallest key
      position, which the last pass maps to its smallest state id.
    """
    order, words, table = _state_keys(region, P)
    sorted_keys = _as_key(words)
    need, _, _, delta = _flip_moves(region, table)
    need, delta = need[::2], delta[::2]
    lab = np.arange(len(P), dtype=np.int32)
    u = v = lab[:0]  # the pairs (u[k], v[k]) of differing roots carried on
    edges, lo = 0, 0
    while lo < len(need) or len(u):
        group = range(lo, min(lo + SQUARE_GROUP, len(need)))
        lo += SQUARE_GROUP
        bits = np.zeros(len(P), dtype=np.uint8)
        for k in group:
            (a, b), (c, d) = need[k]
            bits |= ((P[:, a] == b) & (P[:, c] == d)).view(np.uint8) << k % SQUARE_GROUP
        bits = bits[order]
        us, vs = [u], [v]
        for k in group:
            at = np.flatnonzero((bits & (1 << k % SQUARE_GROUP)) != 0)
            keys = _as_key(words[at] + delta[k])
            to = np.minimum(np.searchsorted(sorted_keys, keys), len(P) - 1)
            if not (sorted_keys[to] == keys).all():
                raise RuntimeError("a flip neighbour is missing from the states")
            edges += len(at)
            s, d = lab[at], lab[to]
            us.append(s[s != d])
            vs.append(d[s != d])
        u, v = np.concatenate(us), np.concatenate(vs)
        del us, vs
        np.minimum.at(lab, np.maximum(u, v), np.minimum(u, v))
        lab = _jump(lab)
        u, v = lab[u], lab[v]
        u, v = u[u != v], v[u != v]
    smallest = np.full(len(P), len(P), dtype=np.int32)
    np.minimum.at(smallest, lab, order)
    out = np.empty_like(lab)
    out[order] = smallest[lab]
    return out, edges


def _jump(lab: np.ndarray) -> np.ndarray:
    """Pointer jumping: follow labels until every label is a root."""
    while True:
        jumped = lab[lab]
        if np.array_equal(jumped, lab):
            return lab
        lab = jumped


def flip_components(region: Region) -> ComponentReport:
    """Census of the flip graph: enumerate all tilings, label all
    components at once and read each component's twist from its
    representative (flips preserve the twist)."""
    # in ascending byte order, so a component's smallest state id is its
    # smallest state
    P = partner_matrix(region)
    m = len(P)
    if not m:
        return ComponentReport(region, P, [], [], True, 0, 0)
    lab, flip_edges = _label_components(region, P)
    roots, sizes = np.unique(lab, return_counts=True)
    raw = sorted(zip(sizes.tolist(), roots.tolist()), key=lambda c: (-c[0], c[1]))
    reps = [root for _, root in raw]
    cid = np.empty(m, dtype=np.int32)
    cid[reps] = np.arange(len(raw))
    twists = twist_batch(region, P[reps]).tolist()
    components = [Component(size, tw, P[root].tobytes()) for (size, root), tw in zip(raw, twists)]
    return ComponentReport(region, P, components, cid[lab].tolist(), True, m, flip_edges)


def flip_connected(t0: Tiling, t1: Tiling, budget: int = DEFAULT_BUDGET) -> Connectivity:
    """Bidirectional BFS on the implicit flip graph, one level at a time.

    The twist shortcut is sound: flips preserve twist, so tilings with
    different twists are disconnected without any search.  Each side keeps
    its sorted seen keys and its frontier (rows of partner bytes and their
    key words); the side with the smaller frontier expands a whole level
    through _expand.  `budget` caps the states visited: it is checked after
    each level, and a meeting anywhere in a level answers CONNECTED first.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if t0.region != t1.region:
        raise ValueError("tilings live on different regions")
    if t0.partner == t1.partner:
        return Connectivity.CONNECTED
    if twist(t0) != twist(t1):
        return Connectivity.DISCONNECTED
    region = t0.region
    rows = np.frombuffer(pack_state(t0) + pack_state(t1), dtype=np.uint8).reshape(2, -1)
    table = _key_table(region)
    moves = _flip_moves(region, table)
    words = _key_words(region, table, rows)
    sides = [(_as_key(words[k:k + 1]).copy(), rows[k:k + 1], words[k:k + 1]) for k in (0, 1)]
    visited = 2
    while len(sides[0][1]) and len(sides[1][1]):
        # expand the smaller frontier
        i = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        level = _expand(*sides[i], sides[1 - i][0], moves)
        if level is None:
            return Connectivity.CONNECTED
        sides[i] = level = level[:3]  # drops the parent ids
        visited += len(level[1])
        if visited > budget:
            return Connectivity.INDETERMINATE
    return Connectivity.DISCONNECTED


def _expand(seen: np.ndarray, rows: np.ndarray, words: np.ndarray,
            other: np.ndarray | None, moves, room: int | None = None):
    """Expand a whole frontier by one flip: the new (seen, rows, words,
    parent) of a search with sorted seen keys `seen` and frontier
    rows/words, where parent[k] is the frontier row that new row k came
    from; or None when a flip reaches `other`, the sorted seen keys of the
    other side of a bidirectional search (None when there is no other
    side).  Once the level's new keys pass `room` (when given), the walk
    stops and only the first room + 1 of them in key order are built.

    The frontier is walked in chunks of FRONTIER_CHUNK rows.  Per chunk,
    each flip's candidate keys are the key words of the rows it applies to
    plus its delta; the distinct candidates seen neither before nor earlier
    in this level are tested against `other`, merged into the level's
    sorted keys, and only (parent row, flip) is kept per new key, so a
    level holds each new state once.  The new rows are built at the end.
    """
    need, cols, vals, delta = moves
    level = seen[:0]  # sorted keys of the states new in this level
    parts = []  # per chunk: (new key words, parent row, flip)
    for lo in range(0, len(rows), FRONTIER_CHUNK):
        F = np.asfortranarray(rows[lo:lo + FRONTIER_CHUNK])
        K = words[lo:lo + FRONTIER_CHUNK]
        at, flip, cand = [], [], []
        for m, ((a, b), (c, d)) in enumerate(need):
            hit = np.flatnonzero((F[:, a] == b) & (F[:, c] == d))
            if len(hit):
                at.append(hit)
                flip.append(np.full(len(hit), m, dtype=np.int32))
                cand.append(K[hit] + delta[m])
        if not at:
            continue
        cand = np.concatenate(cand)
        keys, first = np.unique(_as_key(cand), return_index=True)
        fresh = ~_member(seen, keys)
        if len(level):
            fresh &= ~_member(level, keys)
        keys, first = keys[fresh], first[fresh]
        if other is not None and _member(other, keys).any():
            return None
        level = np.insert(level, np.searchsorted(level, keys), keys)
        parts.append((cand[first], np.concatenate(at)[first] + lo, np.concatenate(flip)[first]))
        if room is not None and len(level) > room:
            level = level[:room + 1]
            keep = [_member(level, _as_key(part[0])) for part in parts]
            parts = [tuple(x[k] for x in part) for part, k in zip(parts, keep)]
            break
    if not parts:
        return seen, rows[:0], words[:0], np.empty(0, dtype=np.intp)
    new_words, parent, flip = (np.concatenate(x) for x in zip(*parts))
    del parts
    new_rows = rows[parent]
    at = np.arange(len(new_rows))
    for k in range(4):
        new_rows[at, cols[flip, k]] = vals[flip, k]
    return np.insert(seen, np.searchsorted(seen, level), level), new_rows, new_words, parent


def connected_with_padding(t0: Tiling, t1: Tiling, extra_floors: int,
                           budget: int = DEFAULT_BUDGET) -> Connectivity:
    """Append `extra_floors` vertical floors to both tilings, then test."""
    if extra_floors % 2:
        raise ValueError("padding must use an even number of floors")
    if extra_floors == 0:  # any region, cylinder or not
        return flip_connected(t0, t1, budget)
    base, _ = as_cylinder(t0.region)
    pad = vertical_tiling(base, extra_floors)
    return flip_connected(concat(t0, pad), concat(t1, pad), budget)


def padded_merge_search(t_start: Tiling, bottom_targets: set[bytes], extra_floors: int,
                        budget: int = 2_000_000) -> list[bytes] | None:
    """Flip path from t_start + vertical padding to some (w + same padding)
    with packed w in bottom_targets.

    Best-first search on rows and exact keys, one score level at a time.
    The score of a state is how many slab pairs of the padding are back in
    vertical position.  Each round expands every open state of the top
    score at once through _expand, which drops the states already seen;
    the round's new rows, key words and parent ids are kept as one block.
    The goal test runs on the new rows of full score.  Returns the
    byte-state path (both endpoints included), walked back along the
    parent ids, or None when no open state is left or when a round with
    no goal would take the states stored past `budget`, so at most
    `budget` states are ever kept.  _expand stops that round one state
    past the room left, so at most max(budget, 1) + 1 states are ever
    built.  Any returned path is a certificate: every step is a legal flip.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if extra_floors % 2 or extra_floors <= 0:
        raise ValueError("padding must use a positive even number of floors")
    base, n0 = as_cylinder(t_start.region)
    nb = len(base.cells)
    padded = concat(t_start, vertical_tiling(base, extra_floors))
    region = padded.region
    rows = np.frombuffer(pack_state(padded), dtype=np.uint8).reshape(1, -1)
    bottom_len = n0 * nb
    # slab pair k is vertical when row[lower[k]] == upper[k] = lower[k] + nb
    lower = np.array([h * nb + i for h in range(n0, n0 + extra_floors, 2) for i in range(nb)],
                     dtype=np.intp)
    upper = (lower + nb).astype(np.uint8)

    def scores(rows: np.ndarray) -> np.ndarray:
        return (rows[:, lower] == upper).sum(1)

    def goal(rows: np.ndarray, score: np.ndarray) -> int | None:
        for k in np.flatnonzero(score == len(lower)).tolist():
            if rows[k, :bottom_len].tobytes() in bottom_targets:
                return k
        return None

    table = _key_table(region)
    moves = _flip_moves(region, table)
    words = _key_words(region, table, rows)
    seen = _as_key(words).copy()
    score = scores(rows)
    hit = goal(rows, score)
    blocks = [(rows, words, np.full(1, -1, dtype=np.intp))]  # per round: rows, words, parent ids
    first = [0]  # id of each block's first state
    stored = 1
    open_ = {int(score[0]): [(0, np.zeros(1, dtype=np.intp))]}  # score -> [(block, rows)]
    while hit is None:
        if not open_:
            return None
        top = open_.pop(max(open_))
        ids = np.concatenate([first[b] + at for b, at in top])
        seen, rows, words, parent = _expand(
            seen, np.concatenate([blocks[b][0][at] for b, at in top]),
            np.concatenate([blocks[b][1][at] for b, at in top]), None, moves,
            max(budget - stored, 0))
        if not len(rows):
            continue
        score = scores(rows)
        hit = goal(rows, score)
        if hit is None and stored + len(rows) > budget:
            return None
        blocks.append((rows, words, ids[parent]))
        first.append(stored)
        stored += len(rows)
        for s in np.unique(score).tolist():
            open_.setdefault(s, []).append((len(blocks) - 1, np.flatnonzero(score == s)))
    b, k = len(blocks) - 1, hit
    path = []
    while True:
        rows, _, parent = blocks[b]
        path.append(rows[k].tobytes())
        if parent[k] < 0:
            return path[::-1]
        b = bisect_right(first, parent[k]) - 1
        k = parent[k] - first[b]


def is_flip_pair(region: Region, s0: bytes, s1: bytes) -> bool:
    """Independent check that two packed states differ by one legal flip."""
    return s1 in flip_neighbors_bytes(s0, region.squares)
