"""Flip and trit moves and the flip-graph: components, connectivity, padding.

A flip replaces two parallel dominoes tiling a unit square by the other
pair; it never changes the twist.  A trit acts on a 2x2x2 block (along any
three axes) minus two opposite corners, replacing its three dominoes by
the only other arrangement; it always toggles the twist.

There is one flip path per state type.  Tilings go through flip_sites and
apply_flip (flip_neighbors), at any region size.  Byte-packed partner
vectors (pack_state, at most 255 cells) go through the numpy kernels
below, in rows of a uint8 matrix; flip_neighbors_bytes, one state at a
time, is the check behind is_flip_pair, which shares no code with the
searches.

The census (flip_components) runs over all tilings at once: the states x
cells uint8 matrix of tilings.partner_matrix, kept as the report's states,
labelled in two phases, and one twist per component, read from its
representative.  A flip on a unit square inside one layer (the cells that
share a last coordinate) swaps one of the layer's options for another of
the same plugs, so phase 1 merges those flips once per layer, on the
options, while the matrix is built, and gives each row the least row of
its class (tilings._layered_tilings).  Phase 2 (_label_components) finds
the flips on the squares that span two layers, a group of squares at a
time, and merges them into min labels (hooking, pointer jumping) over the
classes' roots before the next group.  Neither phase needs a key: the rows
are sorted, and a flip keeps the order of the rows it applies to, so the
k-th row on one side of a square flips to the k-th row on the other.

The searches do not hold every tiling, so they key a tiling by one exact
mixed-radix number (_places, _key_table): a digit per black cell, the
rank of its partner among its neighbours, packed into as many 64-bit
words as the digits need, so keys are injective at any size with no
random table.  The key words are the only state the searches store: the
digits decode from them (_digits), and a flip applies where two digits
have given values and moves the key by a constant delta per square and
orientation.  Both searches expand whole frontiers of keys through one
kernel, _expand, which drops the states in the sorted key arrays it is
given and returns a level's new states as sorted keys, nothing else.
flip_connected is a bidirectional BFS, one level at a time, that keeps
only each side's last two levels.  padded_merge_search is a best-first
search, one score level at a time, that merges each round into one
sorted seen array and decodes partner bytes only for its goal test.  It
keeps each round's sorted keys and walks its path back over them,
through flip_neighbors on tilings.
Both budgets cap the states built, one past the budget at most; an
exhausted budget of flip_connected yields INDETERMINATE, never a wrong
boolean, and one of padded_merge_search yields no path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .kasteleyn import twist, twist_batch
from .regions import DEFAULT_BUDGET, Region
from .tilings import (Tiling, _flip_pairs, _layered_tilings, _merge_pairs, as_cylinder,
                      check_packed_cells, concat, vertical_tiling)

# frontier keys decoded per chunk of an _expand level: on the cli
# benchmark's cyl:2,2,2xN=6 padding pair (2 cores, numpy 2.4, medians of
# seven `padding` processes, search time only), 1 << 12 peaked at 42.5 MB
# in 0.43 s, 1 << 13 at 42.7 MB in 0.32 s, 1 << 14 at 45.4 MB in 0.28 s,
# 1 << 15 at 50.6 MB in 0.27 s and 1 << 16 at 70.6 MB in 0.34 s
FRONTIER_CHUNK = 1 << 14
# unit squares that span two layers per census group: for groups of 1, 2,
# 4, 8 and 16 the kernel alone (medians of seven in one process, 2 cores,
# numpy 2.4) took 149, 149, 159, 172 and 148 ms on cyl:2,2,3xN=3 and 0.73,
# 0.71, 0.84, 0.90 and 0.97 s on cyl:2,2,2xN=5, and flip_components in
# fresh processes peaked at 80.5, 80.5, 80.5, 85.4 and 97.4 MB and at
# 275.5, 275.5, 275.9, 284.2 and 342.6 MB
SQUARE_GROUP = 2


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
    check_packed_cells(len(tiling.region.cells))
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
    packed bytes.  The census pairs flip neighbours by their rank in that
    order, in two phases: the flips on squares inside one layer on the
    layer's options, while the states are built, and the flips on squares
    that span two layers on the states.  Its labels are state ids, so a
    component's smallest id is its representative, its smallest state.
    components are sorted by size descending, then by representative
    bytes; comp_of[i] is the component id of state i; twists[i] is its
    twist, computed on first read (None with no states); flip_edges counts
    the edges of the whole flip graph, each flip once, the two phases'
    counts summed.  The census has no budget, so complete is always true
    and visited is the number of states.
    """

    region: Region
    states: np.ndarray
    components: list[Component]
    comp_of: list[int]
    flip_edges: int

    @property
    def complete(self) -> bool:
        return True

    @property
    def visited(self) -> int:
        return len(self.states)

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


def _places(region: Region) -> list[tuple[int, int, int]]:
    """Place values of the mixed-radix key: (word, radix R_i, degree) of
    each black cell, in region.black_cells order.

    R_i is the product of the degrees of the earlier black cells in the
    same word, a new word starting when R * deg would pass 2^64; the
    cell's digit is the rank of its partner among its neighbours, below
    its degree, and it adds digit * R_i to its word.
    """
    nbrs = region.neighbors
    places = []
    word, radix = 0, 1
    for i in region.black_cells:
        deg = len(nbrs[i])
        if radix * deg > 1 << 64:
            word, radix = word + 1, 1
        places.append((word, radix, deg))
        radix *= deg
    return places


def _key_table(region: Region) -> np.ndarray:
    """Mixed-radix key table T, cells x cells x w uint64: T[i, j] = T[j, i]
    = rank(j in nbrs[i]) * R_i in word(i), for black cell i (_places).
    Summed over the black cells of a tiling, every word is a mixed-radix
    number below 2^64, so keys are exact and injective on tilings at any
    region size.
    """
    n = len(region.cells)
    nbrs = region.neighbors
    places = _places(region)
    table = np.zeros((n, n, places[-1][0] + 1 if places else 1), dtype=np.uint64)
    for i, (word, radix, _) in zip(region.black_cells, places):
        for k, j in enumerate(nbrs[i]):
            table[i, j, word] = table[j, i, word] = k * radix
    return table


def _digits(words: np.ndarray, places) -> np.ndarray:
    """The key's digits, states x black cells uint8, in Fortran order so
    that a black cell's digits are contiguous: digit k is
    (words[:, word_k] // R_k) % deg_k, the rank of the k-th black cell's
    partner among its neighbours (_places).  Each word is divided down one
    degree at a time, as q // deg_k = word // R_(k+1) for the next cell of
    the word, and the remainder is taken as q - q // deg * deg: numpy's //
    by a scalar is about three times as fast as its % (2^14 keys, numpy
    2.4).
    """
    D = np.empty((len(words), len(places)), dtype=np.uint8, order="F")
    for k, (word, radix, deg) in enumerate(places):
        if radix == 1:  # the first digit of its word
            q = words[:, word]
        deg = np.uint64(deg)
        rest = q // deg
        D[:, k] = q - rest * deg
        q = rest
    return D


def _digit_test(region: Region, x: int, y: int) -> tuple[int, int]:
    """(black rank p, digit r) such that cells x and y are paired exactly
    when digit p equals r."""
    if region.black_rank[x] < 0:
        x, y = y, x
    return region.black_rank[x], region.neighbors[x].index(y)


def _rows(region: Region, D: np.ndarray) -> np.ndarray:
    """Partner rows (states x cells uint8) of the states with digits D
    (_digits): each black cell paired with the neighbour its digit names."""
    rows = np.empty((len(D), len(region.cells)), dtype=np.uint8)
    at = np.arange(len(D))
    for k, i in enumerate(region.black_cells):
        j = np.array(region.neighbors[i], dtype=np.uint8)[D[:, k]]
        rows[:, i] = j
        rows[at, j] = i
    return rows


def _flip_moves(region: Region, table: np.ndarray):
    """The two flips of every unit square (a, b, c, d): flip 2k from a-b,
    c-d to a-c, b-d and flip 2k + 1 back.  Returns, per flip, the two digit
    tests ((p, r), (q, s)) of the pairs it needs (_digit_test) and its key
    delta (flips x w words).  Deltas are built on word arrays, so they wrap
    mod 2^64 silently."""
    need, delta = [], []
    for a, b, c, d in region.squares:
        step = table[a, c] + table[b, d] - table[a, b] - table[c, d]
        need += [(_digit_test(region, a, b), _digit_test(region, c, d)),
                 (_digit_test(region, a, c), _digit_test(region, b, d))]
        delta += [step, -step]
    return need, np.array(delta, dtype=np.uint64).reshape(-1, table.shape[2])


def _as_key(words: np.ndarray) -> np.ndarray:
    """One comparable key per row of (k, w) uint64 words: uint64 when w = 1,
    else a void of 8w bytes (sort, unique and searchsorted work on both)."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]


def _key_words_of(keys: np.ndarray) -> np.ndarray:
    """The (k, w) uint64 key words of contiguous keys: the inverse of
    _as_key, as a view."""
    return keys.view(np.uint64).reshape(len(keys), keys.dtype.itemsize // 8)


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


def _label_components(P: np.ndarray, squares, lab: np.ndarray) -> tuple[np.ndarray, int]:
    """Smallest state id of each state's component, and the number of flip
    edges on `squares`, by min-label hooking with pointer jumping
    (Shiloach-Vishkin), starting from labels `lab` (each state's smallest
    state id under flips already merged; np.arange for none).  No array of
    all edges is built: the edges of SQUARE_GROUP unit squares are merged
    into the labels before the next group is found.

    Labels are state ids, that is row numbers of P, whose rows are distinct
    and in ascending byte order.  Hooking runs on the roots of `lab`, in
    ascending order, numbered 0, 1, ...: a compact root space.  An edge is
    found once per square (_flip_pairs): row s[k] flips to row t[k].

    Per square, the pairs whose end labels differ are kept.  With the pairs
    carried from the previous group, each hooks its larger root onto the
    smaller, then pointers jump (_merge_pairs), and the pairs whose roots
    still differ are carried on, past the last group until none is left.
    This is sound:
    - every label is a root when a group starts and nothing is hooked while
      it is found, so a pair whose labels agree lies in one tree;
    - a hook only ever overwrites a root's own pointer;
    - a pair whose hook lost to a smaller one still has differing roots,
      so it is carried;
    - labels only decrease, and roots are numbered in ascending order, so
      each ends as its component's smallest state id.
    """
    is_root = lab == np.arange(len(lab))
    roots = np.flatnonzero(is_root).astype(np.int32)
    root_of = (np.cumsum(is_root, dtype=np.int32) - 1)[lab]  # each state's root, compact
    del is_root
    clab = np.arange(len(roots), dtype=np.int32)
    u = v = clab[:0]  # the pairs (u[k], v[k]) of differing roots carried on
    edges, lo = 0, 0
    while lo < len(squares) or len(u):
        us, vs = [u], [v]
        for square in squares[lo:lo + SQUARE_GROUP]:
            s, t = _flip_pairs(P, square)
            edges += len(s)
            s, t = clab[root_of[s]], clab[root_of[t]]
            keep = s != t
            us.append(s[keep])
            vs.append(t[keep])
        lo += SQUARE_GROUP
        u, v = np.concatenate(us), np.concatenate(vs)
        del us, vs
        clab, u, v = _merge_pairs(clab, u, v)
    return roots[clab][root_of], edges


def flip_components(region: Region) -> ComponentReport:
    """Census of the flip graph: enumerate all tilings, label all
    components at once and read each component's twist from its
    representative (flips preserve the twist).

    The flips inside single layers are merged while the tilings are built
    (_layered_tilings); the flips on squares that span two layers are
    merged here, from those labels (_label_components)."""
    # in ascending byte order, so a component's smallest state id is its
    # smallest state
    P, lab, flip_edges = _layered_tilings(region)
    m = len(P)
    if not m:
        return ComponentReport(region, P, [], [], 0)
    cells = region.cells
    lab, more = _label_components(
        P, [q for q in region.squares if cells[q[0]][-1] != cells[q[3]][-1]], lab)
    flip_edges += more
    roots, sizes = np.unique(lab, return_counts=True)
    raw = sorted(zip(sizes.tolist(), roots.tolist()), key=lambda c: (-c[0], c[1]))
    reps = [root for _, root in raw]
    cid = np.empty(m, dtype=np.int32)
    cid[reps] = np.arange(len(raw))
    twists = twist_batch(region, P[reps]).tolist()
    components = [Component(size, tw, P[root].tobytes()) for (size, root), tw in zip(raw, twists)]
    # the state-sized temporaries are freed before the long-lived list is
    # allocated, so that it does not pin their freed memory in the heap
    comp_of = cid[lab]
    del cid, lab
    return ComponentReport(region, P, components, comp_of.tolist(), flip_edges)


def flip_connected(t0: Tiling, t1: Tiling, budget: int = DEFAULT_BUDGET) -> Connectivity:
    """Bidirectional BFS on the implicit flip graph, one level at a time.

    The twist shortcut is sound: flips preserve twist, so tilings with
    different twists are disconnected without any search.  Each side keeps
    only its last two levels, as sorted keys: the previous level and the
    frontier, whose key words are its keys read back as words.  The side
    with the smaller frontier expands a whole level through _expand.  Two
    levels are enough, because the flip graph is undirected:
    - own-side dedup: a neighbour of a level-j state lies in level j - 1, j
      or j + 1, so a candidate is new exactly when it is in neither the
      side's previous level, its frontier nor the level built so far;
    - meetings: the sides' visited states stay disjoint until they meet.
      Were a candidate x in an already expanded level of the other side,
      its neighbour y in our frontier would have been visited by the other
      side when it expanded x's level, and the sides would have met then.
      So a meeting is tested against the other side's frontier only.
    `budget` caps the states visited: _expand builds at most one state past
    the room left, so at most budget + 1 states are ever built, and a
    meeting anywhere in a level answers CONNECTED first.
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
    moves = (_places(region), *_flip_moves(region, table))
    words = _key_words(region, table, rows)
    fronts = [_as_key(words[k:k + 1]).copy() for k in (0, 1)]
    sides = [(front[:0], front) for front in fronts]  # (previous level, frontier)
    visited = 2
    while len(sides[0][1]) and len(sides[1][1]):
        # expand the smaller frontier
        i = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        front = sides[i][1]
        level = _expand(sides[i], _key_words_of(front), sides[1 - i][1], moves,
                        max(budget - visited, 0))
        if level is None:
            return Connectivity.CONNECTED
        sides[i] = (front, level)
        visited += len(level)
        if visited > budget:
            return Connectivity.INDETERMINATE
    return Connectivity.DISCONNECTED


def _expand(exclude: tuple, words: np.ndarray, other: np.ndarray | None, moves, room: int):
    """Expand a whole frontier by one flip: the sorted keys of the states
    one flip from the nonempty frontier with key words `words` that lie in
    none of the sorted key arrays of `exclude` (the first of them fixes the
    key dtype); or None when a flip reaches `other`, the other side's
    frontier in a bidirectional search, as sorted keys (None when there is
    no other side).  Once the level's new keys pass `room`, only the first
    room + 1 of them in key order are kept; the later chunks are still
    tested against `other`, so a meeting anywhere in the level is found,
    but add no states.

    The frontier is walked in chunks of FRONTIER_CHUNK states, and only
    keys are held.  Per chunk, _fresh gives the distinct candidates in
    neither `exclude` nor the level built so far; they are tested against
    `other` and merged into the level's sorted keys, so a level holds each
    new state once.
    """
    level = exclude[0][:0]  # sorted keys of the states new in this level
    for lo in range(0, len(words), FRONTIER_CHUNK):
        keys = _fresh(words[lo:lo + FRONTIER_CHUNK], moves, (*exclude, level))
        if other is not None and _member(other, keys).any():
            return None
        if len(level) > room:  # the level is full
            continue
        level = _merge(level, keys)
        if len(level) > room:
            level = level[:room + 1]
            if other is None:
                break
    return level


def _flipped(K: np.ndarray, moves) -> np.ndarray:
    """Key words of every flip of the states with key words K, one row per
    state and flip that applies, repeats included.  The black-cell digits
    are decoded from K (_digits); a flip applies to the states whose digits
    pass its two digit tests, and moves their key words by its delta."""
    places, need, delta = moves
    D = _digits(K, places)
    cand = [K[:0]]
    for m, ((p, r), (q, s)) in enumerate(need):
        hit = np.flatnonzero((D[:, p] == r) & (D[:, q] == s))
        if len(hit):
            cand.append(K[hit] + delta[m])
    del D
    return np.concatenate(cand)


def _fresh(K: np.ndarray, moves, exclude: tuple) -> np.ndarray:
    """The sorted keys of the states one flip from the states with key
    words K (_flipped) that lie in none of the sorted key arrays of
    `exclude`; empty ones are skipped.  The candidates' keys are sorted in
    place, on their own buffer, and the first of each run is kept.  The
    sort is stable (timsort), which on two-word keys runs faster than the
    default sort: 74 against 120 ms on 660k candidates from cyl:2,2,2xN=8
    (numpy 2.4).
    """
    keys = _as_key(_flipped(K, moves))
    keys.sort(kind="stable")
    start = np.ones(len(keys), dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    keys = keys[start]
    fresh = np.ones(len(keys), dtype=bool)
    for sorted_keys in exclude:
        if len(sorted_keys):
            fresh &= ~_member(sorted_keys, keys)
    return keys[fresh]


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted keys of a and b together, for sorted key arrays a and b:
    np.insert(a, np.searchsorted(a, b), b) with no sort of the positions,
    which are already ascending.  Element k of b lands at its rank in a
    plus k; a fills the rest."""
    at = np.searchsorted(a, b)
    at += np.arange(len(b))
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    out[at] = b
    rest = np.ones(len(out), dtype=bool)
    rest[at] = False
    out[rest] = a
    return out


def connected_with_padding(t0: Tiling, t1: Tiling, extra_floors: int,
                           budget: int = DEFAULT_BUDGET) -> Connectivity:
    """Append `extra_floors` vertical floors to both tilings, then test."""
    if extra_floors % 2 or extra_floors < 0:
        raise ValueError("padding must use a nonnegative even number of floors")
    if extra_floors == 0:  # any region, cylinder or not
        return flip_connected(t0, t1, budget)
    base, _ = as_cylinder(t0.region)
    pad = vertical_tiling(base, extra_floors)
    return flip_connected(concat(t0, pad), concat(t1, pad), budget)


def padded_merge_search(t_start: Tiling, bottom_targets: set[bytes], extra_floors: int,
                        budget: int = 2_000_000) -> list[bytes] | None:
    """Flip path from t_start + vertical padding to some (w + same padding)
    with packed w in bottom_targets.

    Best-first search on exact keys, one score level at a time.  The score
    of a state is how many slab pairs of the padding are back in vertical
    position, counted on its key's digits.  Each round expands every open
    state of the top score at once through _expand, which drops the states
    already seen, and merges the round's new keys into the sorted seen
    keys; its new key words, in key order, are kept as one block, block 0
    being the start.  Only the new states of full score are
    decoded to partner bytes, for the goal test.  Returns None when no open
    state is left or when a round with no goal would take the states
    stored past `budget`, so at most `budget` states are ever kept.
    _expand stops that round one state past the room left, so at most
    max(budget, 1) + 1 states are ever built.

    Otherwise returns the byte-state path (both endpoints included), walked
    back from the goal over the blocks.  A state new in round b is one flip
    from a state of an earlier block, the frontier it was expanded from; so
    each step goes to a flip neighbour (flip_neighbors on tilings, not the
    search's kernel) in the earliest earlier block that holds one.  The
    block index falls at every step, so the walk reaches block 0, the
    start, after at most one step per round; a state with no neighbour in
    an earlier block raises RuntimeError.  Any returned path is a
    certificate: every step is a legal flip.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if extra_floors % 2 or extra_floors <= 0:
        raise ValueError("padding must use a positive even number of floors")
    base, n0 = as_cylinder(t_start.region)
    nb = len(base.cells)
    padded = concat(t_start, vertical_tiling(base, extra_floors))
    region = padded.region
    bottom_len = n0 * nb
    places = _places(region)
    # slab pair k (cells lower, lower + nb) is vertical when digit p[k] is r[k]
    p, r = np.array([_digit_test(region, h * nb + i, (h + 1) * nb + i)
                     for h in range(n0, n0 + extra_floors, 2) for i in range(nb)]).T
    full = len(p)

    def grade(words: np.ndarray) -> tuple[np.ndarray, bytes | None]:
        """The states' scores, and the first state of full score whose
        bottom is a target, packed (None if there is none)."""
        D = _digits(words, places)
        score = (D[:, p] == r).sum(1)
        at = np.flatnonzero(score == full)
        for row in _rows(region, D[at]):
            if row[:bottom_len].tobytes() in bottom_targets:
                return score, row.tobytes()
        return score, None

    table = _key_table(region)
    moves = (places, *_flip_moves(region, table))
    words = _key_words(region, table, np.frombuffer(pack_state(padded), dtype=np.uint8)[None])
    seen = _as_key(words).copy()
    score, hit = grade(words)
    blocks = [words]  # per round: the key words of its new states, in key order
    stored = 1
    open_ = {int(score[0]): [(0, np.zeros(1, dtype=np.intp))]}  # score -> [(block, states)]
    while hit is None:
        if not open_:
            return None
        top = open_.pop(max(open_))
        level = _expand((seen,), np.concatenate([blocks[b][at] for b, at in top]), None, moves,
                        max(budget - stored, 0))
        seen = _merge(seen, level)
        words = _key_words_of(level)
        if not len(words):
            continue
        score, hit = grade(words)
        if hit is None and stored + len(words) > budget:
            return None
        blocks.append(words)
        stored += len(words)
        for s in np.flatnonzero(np.bincount(score)).tolist():
            open_.setdefault(s, []).append((len(blocks) - 1, np.flatnonzero(score == s)))
    path = [Tiling(region, hit)]
    b = len(blocks) - 1
    while b:
        nbrs = flip_neighbors(path[-1])
        keys = _as_key(_key_words(region, table, np.array([t.partner for t in nbrs], dtype=np.uint8)))
        for b in range(b):
            at = np.flatnonzero(_member(_as_key(blocks[b]), keys))
            if len(at):
                break
        else:
            raise RuntimeError("no earlier round holds a flip neighbour of a path state")
        path.append(nbrs[at[0]])
    return [pack_state(t) for t in reversed(path)]


def is_flip_pair(region: Region, s0: bytes, s1: bytes) -> bool:
    """Independent check that two packed states differ by one legal flip."""
    return s1 in flip_neighbors_bytes(s0, region.squares)
