from __future__ import annotations

import heapq
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dominotwist import moves
from dominotwist.kasteleyn import twist, twist_batch, twist_census
from dominotwist.moves import (
    Component,
    ComponentReport,
    Connectivity,
    apply_flip,
    apply_trit,
    connected_with_padding,
    flip_components,
    flip_connected,
    flip_neighbors,
    flip_neighbors_bytes,
    flip_sites,
    is_flip_pair,
    pack_state,
    padded_merge_search,
    trit_neighbors,
    trit_sites,
)
from dominotwist.regions import Region, make_box, make_cylinder, parse_region_spec
from dominotwist.tilings import (
    Tiling,
    as_cylinder,
    concat,
    count_tilings,
    decompose_floors,
    enumerate_tilings,
    partner_matrix,
    tiling_from_text,
    vertical_tiling,
)

DATA = Path(__file__).resolve().parent / "data"


def test_pack_unpack_roundtrip():
    r = make_box((2, 2, 2))
    for t in enumerate_tilings(r):
        s = pack_state(t)
        assert isinstance(s, bytes) and len(s) == 8
        assert Tiling(r, s).partner == t.partner


def test_flip_sites_and_apply():
    r = make_box((2, 2))
    ts = list(enumerate_tilings(r))
    assert len(ts) == 2
    for t in ts:
        sites = flip_sites(t)
        assert len(sites) == 1
        other = apply_flip(t, sites[0])
        other.validate()
        assert other.partner != t.partner
        # flips are involutions
        back = apply_flip(other, flip_sites(other)[0])
        assert back.partner == t.partner


def test_flip_neighbors_bytes_matches_tilings():
    # the byte kernel against the flip_sites / apply_flip path
    for spec in ("cyl:2,2xN=2", "box:2,2,2,2", "cyl:2,2,2xN=3", "box:3,3,2"):
        r = parse_region_spec(spec)
        for t in enumerate_tilings(r):
            via_bytes = sorted(flip_neighbors_bytes(pack_state(t), r.squares))
            via_sites = sorted(pack_state(apply_flip(t, s)) for s in flip_sites(t))
            assert via_bytes == via_sites, spec
            assert sorted(pack_state(u) for u in flip_neighbors(t)) == via_sites, spec


def test_flip_graph_is_undirected():
    r = make_box((2, 2, 2))
    for t in enumerate_tilings(r):
        s = pack_state(t)
        for u in flip_neighbors_bytes(s, r.squares):
            assert s in flip_neighbors_bytes(u, r.squares)
            assert is_flip_pair(r, s, u)
            assert is_flip_pair(r, u, s)


def test_flip_preserves_twist():
    r = make_box((2, 2, 2, 2))
    for t in enumerate_tilings(r):
        for u in flip_neighbors(t):
            assert twist(u) == twist(t)


def test_trit_sites_on_3d_boxes():
    # the 2x2x2 and 2x2xL boxes have no trit configuration at all
    for dims in ((2, 2, 2), (2, 2, 4)):
        for t in enumerate_tilings(make_box(dims)):
            assert trit_sites(t) == []
    # 3x3x2 admits them
    hits = 0
    for t in enumerate_tilings(make_box((3, 3, 2))):
        hits += len(trit_sites(t))
    assert hits == 4


def test_trit_toggles_twist_and_is_involution():
    checked = 0
    for dims in ((3, 3, 2), (2, 2, 2, 2)):
        for t in enumerate_tilings(make_box(dims)):
            for site in trit_sites(t):
                u = apply_trit(t, site)
                u.validate()
                assert twist(u) == twist(t) ^ 1
                back_sites = [s for s in trit_sites(u) if s.cells == site.cells]
                assert len(back_sites) == 1
                assert apply_trit(u, back_sites[0]).partner == t.partner
                checked += 1
    assert checked >= 36


def test_trit_neighbors_list():
    t = next(s for s in enumerate_tilings(make_box((3, 3, 2)))
             if trit_sites(s))
    ns = trit_neighbors(t)
    assert len(ns) == len(trit_sites(t))
    for u in ns:
        assert twist(u) != twist(t)


def test_components_2222(census_2222):
    rep = census_2222.report
    assert rep.complete
    assert rep.visited == 272
    assert census_2222.sizes_twists() == [(264, 0)] + [(1, 1)] * 8


def test_component_representatives_are_canonical(census_2222):
    rep = census_2222.report
    for k, comp in enumerate(rep.components):
        t = rep.representative_tiling(k)
        t.validate()
        assert twist(t) == comp.twist
    # representative is the smallest state of its component
    states_by_comp = {}
    for i, c in enumerate(rep.comp_of):
        states_by_comp.setdefault(c, []).append(rep.state(i))
    for k, comp in enumerate(rep.components):
        assert comp.representative == min(states_by_comp[k])
        assert comp.size == len(states_by_comp[k])


def reference_partner_bytes(region) -> list[bytes]:
    """Every tiling as packed partner bytes, by one recursive DFS that
    branches on the lowest uncovered cell, partners ascending: the order of
    enumerate_tilings, which is ascending byte order."""
    n = len(region.cells)
    assert n <= 255
    if not region.balanced:
        return []
    nbrs = region.neighbors
    bit = [1 << i for i in range(n)]
    partner = bytearray(n)
    out: list[bytes] = []

    def rec(m):
        if not m:
            out.append(bytes(partner))
            return
        low = m & -m
        i = low.bit_length() - 1
        m2 = m ^ low
        for j in nbrs[i]:
            bj = bit[j]
            if m2 & bj:
                partner[i] = j
                partner[j] = i
                rec(m2 ^ bj)

    rec((1 << n) - 1)
    return out


def reference_count(region) -> int:
    """The tiling count by memoised recursion on the mask of uncovered
    cells, branching as reference_partner_bytes does."""
    if not region.balanced:
        return 0
    nbrs = region.neighbors
    memo: dict[int, int] = {}

    def cnt(m):
        if not m:
            return 1
        val = memo.get(m)
        if val is None:
            low = m & -m
            i = low.bit_length() - 1
            m2 = m ^ low
            val = sum(cnt(m2 ^ 1 << j) for j in nbrs[i] if m2 >> j & 1)
            memo[m] = val
        return val

    return cnt((1 << len(region.cells)) - 1)


def reference_components(region) -> ComponentReport:
    """Per-state BFS census on flip_neighbors_bytes: components started in
    ascending order of their first state.  Its states are a list of packed
    bytes."""
    states = reference_partner_bytes(region)
    squares = region.squares
    id_of = {s: k for k, s in enumerate(states)}
    comp_of = [-1] * len(states)
    twists = twist_batch(region, states) if states else None
    raw = []  # (size, representative)
    for start in range(len(states)):
        if comp_of[start] >= 0:
            continue
        cid = len(raw)
        comp_of[start] = cid
        frontier = [states[start]]
        members = [states[start]]
        while frontier:
            nxt = []
            for s in frontier:
                for nb in flip_neighbors_bytes(s, squares):
                    k = id_of[nb]
                    if comp_of[k] < 0:
                        comp_of[k] = cid
                        nxt.append(nb)
            members += nxt
            frontier = nxt
        raw.append((len(members), min(members)))
    order = sorted(range(len(raw)), key=lambda k: (-raw[k][0], raw[k][1]))
    remap = {old: new for new, old in enumerate(order)}
    components = [Component(raw[k][0], int(twists[id_of[raw[k][1]]]), raw[k][1])
                  for k in order]
    edges = sum(len(flip_neighbors_bytes(s, squares)) for s in states)
    assert edges % 2 == 0
    return ComponentReport(region, states, components, [remap[c] for c in comp_of], edges // 2)


def assert_same_report(got: ComponentReport, want: ComponentReport) -> None:
    assert got.region == want.region
    assert got.states.shape == (len(want.states), len(got.region.cells))
    assert [got.state(i) for i in range(len(got.states))] == want.states
    assert got.components == want.components
    assert got.comp_of == want.comp_of
    assert type(got.comp_of) is list
    if want.twists is None:
        assert got.twists is None
    else:
        assert np.array_equal(got.twists, want.twists)
    assert (got.complete, got.visited, got.flip_edges) == (
        want.complete, want.visited, want.flip_edges)


def tailed_box():
    """box:2,3,3 with a one-cell-wide tail of 140 cells: 158 cells, whose
    79 black cells need about 87 mixed-radix bits, so keys take two words."""
    cells = [(x, y, z) for x in range(2) for y in range(3) for z in range(3)]
    cells += [(x, 0, 0) for x in range(2, 142)]
    return Region(3, cells)


CENSUS_CASES = ["box:2,2,3", "box:3,3,2", "box:4,4", "box:2,8", "box:2,2,2,2",
                "cyl:2,2,2xN=3", "box:3,3"]


# at the default group size ids end in "-None", so that every case keeps
# the name it has in earlier test reports.  One square's flip edges form a
# matching, so one square per group carries almost no pair.  Labels are
# state ids; at four squares per group every case with tilings but box:2,8
# carries pairs whose roots still differ into a later group, summed over
# the groups: 6 on box:2,2,3, 160 on box:3,3,2, 10 on box:4,4, 140 on
# box:2,2,2,2 and 4,213 on cyl:2,2,2xN=3
@pytest.mark.parametrize(("spec", "group"),
                         [(s, moves.SQUARE_GROUP) for s in CENSUS_CASES]
                         + [(s, 4) for s in CENSUS_CASES],
                         ids=[f"{s}-None" for s in CENSUS_CASES]
                         + [f"{s}-group4" for s in CENSUS_CASES])
def test_census_kernel_matches_reference_bfs(monkeypatch, spec, group):
    monkeypatch.setattr(moves, "SQUARE_GROUP", group)
    region = parse_region_spec(spec)
    assert moves._key_table(region).shape[2] == 1
    rep = flip_components(region)
    assert (rep.complete, rep.visited) == (True, len(rep.states)) and -1 not in rep.comp_of
    assert_same_report(rep, reference_components(region))


def test_census_kernel_with_multiword_keys():
    region = tailed_box()
    assert len(region.cells) == 158
    assert moves._key_table(region).shape[2] >= 2
    rep = flip_components(region)
    assert len(rep.states) == 229
    assert_same_report(rep, reference_components(region))
    rng = np.random.default_rng(3)
    ts = [Tiling(region, rep.state(i)) for i in range(len(rep.states))]
    for _ in range(6):
        t0, t1 = (ts[k] for k in rng.choice(len(ts), 2, replace=False))
        for budget in (0, 5, moves.DEFAULT_BUDGET):
            assert flip_connected(t0, t1, budget) is reference_connected(t0, t1, budget)


@pytest.mark.parametrize("row", [0, 3000, -1])
def test_census_refuses_states_missing_a_flip_neighbour(row):
    # every tiling of cyl:2,2,2xN=3 has a flip, so without one row some
    # square has one state fewer on one side than on the other
    region = parse_region_spec("cyl:2,2,2xN=3")
    P = np.asfortranarray(np.delete(partner_matrix(region), row, axis=0))
    with pytest.raises(RuntimeError, match="a flip neighbour is missing from the states"):
        moves._label_components(region, P)


PACKER_CASES = sorted(set(CENSUS_CASES) | {
    "cyl:2,2,2xN=4", "cyl:2,2,3xN=3", "cyl:3,3xN=2", "cyl:2,5xN=3",
    "cork:2,2,2xN=3:p0=0x3:pN=0x3", "cork:2,3xN=2:p0=0x0:pN=0x21",
    "box:8", "box:6,1"})
ODD_REGIONS = {
    "tailed": tailed_box,
    # heights 0, 1, 2 and 4, 5: no domino crosses the gap at height 3
    "gapped": lambda: Region(2, [(x, y) for x in range(4) for y in (0, 1, 2, 4, 5)]),
    # box:2,2,3 moved by (-1, -1, -3): colours swapped, heights -3..-1
    "negative": lambda: Region(3, [(x - 1, y - 1, z - 3) for x in range(2)
                                   for y in range(2) for z in range(3)]),
    # box:4,4,2 with two non-adjacent cells on a third layer: only the
    # up-plug that matches both down can be completed, the others are pruned
    "capped": lambda: Region(3, list(make_box((4, 4, 2)).cells) + [(0, 0, 2), (2, 1, 2)]),
}


@pytest.mark.parametrize("spec", PACKER_CASES + list(ODD_REGIONS))
def test_partner_matrix_matches_reference_packer(spec):
    # every region, cylinder or not, is built layer by layer
    region = ODD_REGIONS[spec]() if spec in ODD_REGIONS else parse_region_spec(spec)
    n = len(region.cells)
    want = reference_partner_bytes(region)
    # the cell sweep: the same tilings in the same order, and their count
    assert [bytes(t.partner) for t in enumerate_tilings(region)] == want
    assert count_tilings(region) == reference_count(region)
    got = partner_matrix(region)
    assert got.dtype == np.uint8 and got.flags.f_contiguous
    assert got.shape == (len(want), n)
    assert np.array_equal(got, np.frombuffer(b"".join(want), dtype=np.uint8).reshape(-1, n))
    ones = int(np.count_nonzero(twist_batch(region, want))) if want else 0
    assert twist_census(region) == (len(want) - ones, ones)


def test_partner_matrix_prunes_up_plugs_the_top_layer_rejects(fresh_python):
    # box:4,4,3 under two isolated cells: the top layer has no option, so
    # no plug of any layer is live and no row is built.  Peaks at about
    # 96 MB (ten fresh runs, numpy 2.4, Python 3.11); with the pruning
    # deleted, so that rows die only where their plug has no option, at
    # about 539 MB, and with one layer of look-ahead at about 209 MB
    (shape,), peak_mb = fresh_python(
        "from dominotwist.regions import Region, make_box\n"
        "from dominotwist.tilings import partner_matrix\n"
        "cells = list(make_box((4, 4, 3)).cells) + [(10, 10, 3), (13, 10, 3)]\n"
        "print(partner_matrix(Region(3, cells)).shape)\n")
    assert shape == "(0, 50)"
    assert peak_mb < 160, f"partner_matrix peaked at {peak_mb:.0f} MB"


@st.composite
def cell_sets(draw, dims=(2, 3, 4), min_size=8, max_size=18, side=None):
    """min_size to max_size cells of a box with corner (-1, ..., -1) and
    `side` cells a side, in a dimension of dims, 2, 3 or 4: by default 4^2,
    3^3 or 2^4 cells, so dense sets have tilings.  Unless the set is kept
    as drawn, its last cells of the surplus colour are dropped until it is
    balanced."""
    dim = draw(st.sampled_from(dims))
    coord = st.integers(-1, (side or {2: 4, 3: 3, 4: 2}[dim]) - 2)
    region = Region(dim, draw(st.sets(st.tuples(*[coord] * dim),
                                      min_size=min_size, max_size=max_size)))
    if draw(st.booleans()):
        return region
    surplus = sum(region.colors)
    cells = list(region.cells)
    for i in reversed(range(len(cells))):
        if surplus and region.colors[i] * surplus > 0:
            del cells[i]
            surplus -= region.colors[i]
    return Region(dim, cells)


CYLINDER = make_cylinder(Region(2, [(0, 0), (1, 0), (1, 1), (2, 1)]), 3)


@settings(max_examples=100, deadline=None)
@given(cell_sets())
@example(CYLINDER)
@example(Region(3, CYLINDER.cells[:-1]))
def test_partner_matrix_on_random_regions(region):
    # any cell set: partial layers, gaps in the heights, several pieces
    want = reference_partner_bytes(region)
    assert [bytes(t.partner) for t in enumerate_tilings(region)] == want
    assert count_tilings(region) == reference_count(region)
    got = partner_matrix(region)
    assert got.shape == (len(want), len(region.cells))
    assert [row.tobytes() for row in got] == want


@st.composite
def cylinders(draw):
    """1 to 3 floors over a planar cell_sets base of 4 to 9 cells of the
    3 x 3 square.  A cylinder one cell out of balance loses its last cell
    of the surplus colour, so that its top floor is partial."""
    region = make_cylinder(draw(cell_sets(dims=(2,), min_size=4, max_size=9, side=3)),
                           draw(st.integers(1, 3)))
    surplus = sum(region.colors)
    if abs(surplus) != 1:
        return region
    last = max(i for i, c in enumerate(region.colors) if c == surplus)
    return Region(3, region.cells[:last] + region.cells[last + 1:])


@settings(max_examples=60, deadline=None)
@given(cylinders())
@example(CYLINDER)
@example(Region(3, make_cylinder(make_box((3, 3)), 3).cells[:-1]))
def test_census_on_random_cylinders(region):
    # the flip pairing by row rank, on bases of any shape; the 3 x 3 base
    # at depth 3 without its last cell has 2,664 tilings in 3 components
    assert_same_report(flip_components(region), reference_components(region))


def test_partner_matrix_never_enumerates(monkeypatch):
    # the tailed box and the cork take the layered build of every region:
    # neither the DFS enumerator nor the cylinder split is reached
    regions = [tailed_box(), parse_region_spec("cork:2,2,2xN=3:p0=0x3:pN=0x3")]
    want = [reference_partner_bytes(region) for region in regions]

    def refuse(region):
        raise AssertionError("partner_matrix left the layered build")

    monkeypatch.setattr("dominotwist.tilings.enumerate_tilings", refuse)
    monkeypatch.setattr("dominotwist.tilings.as_cylinder", refuse)
    for region, rows in zip(regions, want):
        got = partner_matrix(region)
        assert got.dtype == np.uint8 and got.flags.f_contiguous
        assert [row.tobytes() for row in got] == rows


def test_regions_past_255_cells_keep_their_routes(monkeypatch):
    # box:2,2,2,2 plus a 240-cell tail: 256 cells, too many to pack in bytes
    tail = [(x, 0, 0, 0) for x in range(2, 242)]
    region = Region(4, list(make_box((2, 2, 2, 2)).cells) + tail)
    for build in (partner_matrix, flip_components):
        with pytest.raises(ValueError, match="at most 255 cells"):
            build(region)

    def refuse(region):
        raise AssertionError("twist_census packed a region past 255 cells")

    monkeypatch.setattr("dominotwist.kasteleyn.partner_matrix", refuse)
    assert twist_census(region) == (264, 8)  # the scalar twist over enumerate_tilings


def test_key_table_words_are_exact():
    # each black cell's digits sit in one word, and in every word the sum of
    # the largest digits, the largest key, is below 2^64
    for spec, words in (("cyl:2,2,2xN=6", 1), ("cyl:2,2,2xN=8", 2), ("cyl:2,2,3xN=5", 2)):
        region = parse_region_spec(spec)
        table = moves._key_table(region)
        assert table.shape[2] == words, spec
        tops = table[list(region.black_cells)].max(axis=1)
        assert ((tops > 0).sum(axis=1) <= 1).all()
        assert all(sum(map(int, tops[:, k])) < 1 << 64 for k in range(words))


def stacked_states(base: Region, floors: list[int], count: int, seed: int) -> np.ndarray:
    """`count` seeded tilings of the cylinder over `base` with sum(floors)
    floors, as partner rows: census states of the cylinders with floors[k]
    floors, drawn at random and stacked."""
    rng = np.random.default_rng(seed)
    nb, parts = len(base.cells), []
    for k, n in enumerate(floors):
        P = partner_matrix(make_cylinder(base, n))
        parts.append(P[rng.integers(len(P), size=count)] + np.uint8(sum(floors[:k]) * nb))
    return np.hstack(parts)


def random_walk(region: Region, steps: int, seed: int) -> np.ndarray:
    """Partner rows of the tilings met on a seeded random walk of flips and
    trits from the region's first enumerated tiling (a trit toggles the
    twist, so both twists are met)."""
    rng = np.random.default_rng(seed)
    t = next(iter(enumerate_tilings(region)))
    rows = []
    for _ in range(steps):
        options = flip_neighbors(t) + trit_neighbors(t)
        t = options[rng.integers(len(options))]
        rows.append(pack_state(t))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(steps, -1)


@pytest.mark.parametrize("spec, floors, words", [
    pytest.param("cyl:2,2,2xN=6", [3, 3], 1, id="cyl:2,2,2xN=6"),
    pytest.param("cyl:2,2,3xN=5", [2, 2, 1], 2, id="cyl:2,2,3xN=5"),
    pytest.param("box:4,4,4", [2, 2], 2, id="box:4,4,4"),
])
def test_digits_decode_the_key_words(spec, floors, words):
    # the searches hold only key words: decoding their digits gives back the
    # partner rows, and each flip's two digit tests select the states that
    # its two partner tests select
    region = parse_region_spec(spec)
    base, n = as_cylinder(region)
    assert n == sum(floors)
    P = np.vstack([stacked_states(base, floors, 300, seed=3), random_walk(region, 200, seed=4)])
    table = moves._key_table(region)
    assert table.shape[2] == words
    D = moves._digits(moves._key_words(region, table, P), moves._places(region))
    assert np.array_equal(moves._rows(region, D), P)
    need, delta = moves._flip_moves(region, table)
    assert len(need) == len(delta) == 2 * len(region.squares)
    pairs = [m for a, b, c, d in region.squares for m in (((a, b), (c, d)), ((a, c), (b, d)))]
    hits = 0
    for ((p, r), (q, s)), ((a, b), (c, d)) in zip(need, pairs):
        got = (D[:, p] == r) & (D[:, q] == s)
        assert np.array_equal(got, (P[:, a] == b) & (P[:, c] == d))
        hits += got.sum()
    assert hits


@pytest.mark.parametrize("spec, floors, words", [
    pytest.param("cyl:2,2,2xN=4", [2, 2], 1, id="cyl:2,2,2xN=4"),
    pytest.param("cyl:2,2,3xN=5", [2, 2, 1], 2, id="cyl:2,2,3xN=5"),
])
def test_fresh_keys_match_flip_neighbours(spec, floors, words):
    # a frontier chunk of random states, with some of its flip neighbours
    # already seen and some already in the level: _fresh gives the sorted
    # keys of the other neighbours
    region = parse_region_spec(spec)
    base, _ = as_cylinder(region)
    P = np.vstack([stacked_states(base, floors, 150, seed=5), random_walk(region, 150, seed=6)])
    table = moves._key_table(region)
    assert table.shape[2] == words
    mv = (moves._places(region), *moves._flip_moves(region, table))

    def key_words(states) -> np.ndarray:
        rows = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(-1, len(region.cells))
        return moves._key_words(region, table, rows)

    def sorted_keys(states) -> np.ndarray:
        return np.sort(moves._as_key(key_words(states)))

    nbrs = [flip_neighbors_bytes(row.tobytes(), region.squares) for row in P]
    states = sorted({t for nb in nbrs for t in nb})
    # 0: new, 1: seen (with every state of the frontier), 2: in the level
    pick = dict(zip(states, np.random.default_rng(7).integers(3, size=len(states)).tolist()))
    pick.update((row.tobytes(), 1) for row in P)
    seen, level = (sorted_keys([t for t, k in pick.items() if k == c]) for c in (1, 2))
    for hi in (len(P), 1):  # the whole frontier as one chunk, and its first state
        fresh = sorted({t for nb in nbrs[:hi] for t in nb if pick[t] == 0})
        want = moves._key_words_of(sorted_keys(fresh)).tolist()
        keys = moves._fresh(moves._key_words(region, table, P[:hi]), mv, (seen, level))
        assert moves._key_words_of(keys).tolist() == want
        assert hi == 1 or len(want) > 100


@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("sizes", [(0, 0), (0, 9), (9, 0), (200, 37), (37, 200)])
def test_merge_matches_insert(words, sizes):
    rng = np.random.default_rng(sum(sizes) + words)
    a, b = (np.sort(moves._as_key(rng.integers(0, 50, size=(n, words), dtype=np.uint64)))
            for n in sizes)
    got = moves._merge(a, b)
    assert got.dtype == a.dtype
    assert moves._key_words_of(got).tolist() == \
        moves._key_words_of(np.insert(a, np.searchsorted(a, b), b)).tolist()


def reference_connected(t0: Tiling, t1: Tiling, budget: int = moves.DEFAULT_BUDGET) -> Connectivity:
    """Per-state bidirectional BFS on flip_neighbors_bytes: the side with
    the smaller frontier expands one level, and `budget` caps the states
    visited, checked after each level."""
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


SEARCH_BUDGETS = (0, 2, 5, 50, 500, moves.DEFAULT_BUDGET)


def search_pairs(spec: str, count: int, seed: int) -> list[tuple[Tiling, Tiling]]:
    """`count` seeded pairs of distinct tilings of the region, plus one pair
    a single flip apart."""
    region = parse_region_spec(spec)
    states = reference_partner_bytes(region)
    rng = np.random.default_rng(seed)
    pairs = [tuple(Tiling(region, states[k]) for k in rng.choice(len(states), 2, replace=False))
             for _ in range(count)]
    t = Tiling(region, states[int(rng.integers(len(states)))])
    return pairs + [(t, flip_neighbors(t)[0])]


@pytest.mark.parametrize("chunk", [moves.FRONTIER_CHUNK, 64])
def test_frontier_search_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(moves, "FRONTIER_CHUNK", chunk)
    seen = set()
    for spec, count in (("box:2,2,2,2", 12), ("cyl:2,2,2xN=3", 12),
                        ("cyl:2,2,3xN=2", 8), ("box:3,3,2", 12)):
        for t0, t1 in search_pairs(spec, count, seed=7):
            for budget in SEARCH_BUDGETS:
                got = flip_connected(t0, t1, budget)
                assert got is reference_connected(t0, t1, budget), (spec, budget)
                seen.add(got)
        # one flip apart: the sides meet on the first level, even at budget 0
        assert flip_connected(t0, t1, 0) is Connectivity.CONNECTED
    pad = vertical_tiling(make_box((2, 2, 2)), 2)
    for t0, t1 in search_pairs("cyl:2,2,2xN=3", 6, seed=8):
        for budget in SEARCH_BUDGETS:
            got = connected_with_padding(t0, t1, 2, budget)
            assert got is reference_connected(concat(t0, pad), concat(t1, pad), budget), budget
            seen.add(got)
    assert seen == set(Connectivity)


def test_flip_connected_needs_byte_packing():
    # box:2,2,2,2 plus the 240-cell tail: 256 cells, one too many for bytes
    tail = [(x, 0, 0, 0) for x in range(2, 242)]
    region = Region(4, list(make_box((2, 2, 2, 2)).cells) + tail)
    ts = [t for t in itertools.islice(enumerate_tilings(region), 20) if twist(t) == 0]
    assert len(ts) >= 2
    with pytest.raises(ValueError, match="byte packing"):
        flip_connected(ts[0], ts[1])


def test_flip_connected_same_component():
    r = make_box((2, 2, 2))
    ts = list(enumerate_tilings(r))
    t0 = ts[0]
    u = flip_neighbors(t0)[0]
    assert flip_connected(t0, u) is Connectivity.CONNECTED
    assert flip_connected(t0, t0) is Connectivity.CONNECTED


def test_flip_connected_twist_shortcut():
    r = make_box((2, 2, 2, 2))
    ts = list(enumerate_tilings(r))
    tw = [twist(t) for t in ts]
    t0 = ts[tw.index(0)]
    t1 = ts[tw.index(1)]
    assert flip_connected(t0, t1) is Connectivity.DISCONNECTED


def test_flip_connected_budget_indeterminate():
    r = make_cylinder(make_box((2, 2, 3)), 2)
    ts = enumerate_tilings(r)
    t0 = next(iter(ts))
    t1 = vertical_tiling(make_box((2, 2, 3)), 2)
    assert flip_connected(t0, t1, budget=2) is Connectivity.INDETERMINATE


@pytest.mark.parametrize("chunk", [moves.FRONTIER_CHUNK, 4])
def test_flip_connected_budget_caps_states_built(census_222_n3, monkeypatch, chunk):
    # the search builds at most budget + 1 states (the two ends and the
    # rows of every level are counted); a level cut at the room left still
    # tests its later chunks against the other side, so a pair whose sides
    # meet on the level that starts with no room left stays CONNECTED
    monkeypatch.setattr(moves, "FRONTIER_CHUNK", chunk)
    rep = census_222_n3.report
    giant = np.flatnonzero(np.asarray(rep.comp_of) == 0)
    ts = [Tiling(rep.region, rep.state(int(i))) for i in giant[::len(giant) // 6]]
    expand, levels = moves._expand, []

    def counted(*args):
        out = expand(*args)
        levels.append(None if out is None else len(out))
        return out

    monkeypatch.setattr(moves, "_expand", counted)
    for t0, t1 in itertools.combinations(ts, 2):
        for budget in (50, 200):
            levels.clear()
            got = flip_connected(t0, t1, budget)
            assert got is reference_connected(t0, t1, budget), budget
            assert 2 + sum(filter(None, levels)) <= budget + 1, (budget, levels)
        levels.clear()
        assert flip_connected(t0, t1) is Connectivity.CONNECTED
        met = 2 + sum(levels[:-1])  # states built before the meeting level
        assert flip_connected(t0, t1, met) is Connectivity.CONNECTED


def reference_levels(t0: Tiling, t1: Tiling) -> tuple[Connectivity, list]:
    """A set-based bidirectional BFS that keeps every level, expanding its
    sides in reference_connected's order with no budget: its verdict, and
    per expansion the expanding side's previous level (empty at the start)
    and frontier and the other side's frontier, as lists of packed states."""
    squares = t0.region.squares
    levels = [[[pack_state(t)]] for t in (t0, t1)]  # per side, its levels
    seen = [set(side[0]) for side in levels]
    expansions = []
    while levels[0][-1] and levels[1][-1]:
        i = 0 if len(levels[0][-1]) <= len(levels[1][-1]) else 1
        side = levels[i]
        expansions.append((side[-2] if len(side) > 1 else [], side[-1], levels[1 - i][-1]))
        new = set()
        for s in side[-1]:
            for nb in flip_neighbors_bytes(s, squares):
                if nb in seen[1 - i]:
                    return Connectivity.CONNECTED, expansions
                if nb not in seen[i]:
                    new.add(nb)
        seen[i] |= new
        side.append(sorted(new))
    return Connectivity.DISCONNECTED, expansions


def test_flip_connected_excludes_the_last_two_levels(census_222_n3, monkeypatch):
    # each side keeps only its previous level and its frontier: every
    # expansion excludes exactly those two levels of the expanding side, as
    # a BFS that keeps every level finds them, and tests for a meeting
    # against the other side's frontier; pairs inside the giant and inside
    # one twist-1 twin meet, pairs across the twins exhaust a twin
    rep = census_222_n3.report
    region = rep.region
    table = moves._key_table(region)
    assert [(c.size, c.twist) for c in rep.components] == [(5985, 0), (180, 1), (180, 1)]

    def packed_keys(states) -> set:
        rows = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(-1, len(region.cells))
        return set(map(tuple, moves._key_words(region, table, rows).tolist()))

    def word_set(words) -> set:
        return set(map(tuple, words.tolist()))

    expand, calls = moves._expand, []

    def spy(exclude, words, other, *rest):
        calls.append(([word_set(moves._key_words_of(k)) for k in exclude], word_set(words),
                      word_set(moves._key_words_of(other))))
        return expand(exclude, words, other, *rest)

    monkeypatch.setattr(moves, "_expand", spy)
    comp_of = np.asarray(rep.comp_of)
    ts = {k: [Tiling(region, rep.state(int(i))) for i in np.flatnonzero(comp_of == k)[::15]]
          for k in range(3)}
    pairs = list(itertools.combinations(ts[0][::40], 2)) + list(zip(ts[1][:3], ts[1][-3:]))
    pairs += list(zip(ts[1][:3], ts[2][:3]))
    verdicts = []
    for t0, t1 in pairs:
        calls.clear()
        got = flip_connected(t0, t1)
        want, expansions = reference_levels(t0, t1)
        assert got is want
        verdicts.append((got, len(expansions)))
        assert len(calls) == len(expansions) > 1
        for (exclude, front, other), (prev, frontier, other_front) in zip(calls, expansions):
            assert exclude == [packed_keys(prev), packed_keys(frontier)]
            assert front == packed_keys(frontier)
            assert other == packed_keys(other_front)
    assert [got for got, _ in verdicts[-3:]] == [Connectivity.DISCONNECTED] * 3
    assert Connectivity.DISCONNECTED not in [got for got, _ in verdicts[:-3]]
    assert max(depth for _, depth in verdicts) > 4


def test_flip_connected_peak_memory_on_the_pinned_padding_pair():
    # the cli benchmark's pinned cyl:2,2,2xN=6 padding pair: holding only
    # each side's last two levels as sorted keys, the search's own arrays
    # peak at 12.4 MB (numpy 2.4); a merged seen array per side takes them
    # to 17.5 MB, np.unique's index arrays and a second copy of each level's
    # words to 33.9 MB, and a partner row kept beside each key to about 70 MB
    t0, t1 = (tiling_from_text((DATA / f"pad1_t{k}.txt").read_text()) for k in (0, 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = flip_connected(t0, t1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got is Connectivity.CONNECTED
    assert peak < 15e6, f"the search peaked at {peak / 1e6:.1f} MB"


@pytest.mark.extended
def test_flip_connected_peak_memory_at_two_million_states(fresh_python):
    # cyl:2,2,2xN=8 (two key words), the vertical tiling against the first
    # enumerated tiling of its twist: the budget runs out first, at 110 MB
    # (numpy 2.4, Python 3.11); a merged seen array per side takes the
    # process to 136 MB, and a partner row kept beside each key to about
    # 315 MB
    (got,), peak_mb = fresh_python(
        "from dominotwist.kasteleyn import twist\n"
        "from dominotwist.moves import flip_connected\n"
        "from dominotwist.regions import make_box\n"
        "from dominotwist.tilings import enumerate_tilings, vertical_tiling\n"
        "t1 = vertical_tiling(make_box((2, 2, 2)), 8)\n"
        "t0 = next(t for t in enumerate_tilings(t1.region) if twist(t) == twist(t1))\n"
        "print(flip_connected(t0, t1, 2_000_000).value)\n")
    assert got == "indeterminate"
    assert peak_mb < 160, f"the search peaked at {peak_mb:.0f} MB"


def test_isolated_twist1_tilings_disconnected(census_2222):
    rep = census_2222.report
    iso = [rep.representative_tiling(k) for k in range(1, 3)]
    assert flip_connected(iso[0], iso[1]) is Connectivity.DISCONNECTED


def test_connected_with_padding_smoke():
    r = make_box((2, 2, 2))
    ts = list(enumerate_tilings(r))
    # all 9 tilings of the 2x2x2 box are flip-connected already
    verdict = flip_connected(ts[0], ts[5])
    assert verdict is Connectivity.CONNECTED
    assert connected_with_padding(ts[0], ts[5], 2) is Connectivity.CONNECTED


def test_connected_with_padding_zero_floors_on_any_region():
    # box:2,2,2,2 plus a 10-cell tail is no cylinder; zero floors add nothing
    tail = [(x, 0, 0, 0) for x in range(2, 12)]
    region = Region(4, list(make_box((2, 2, 2, 2)).cells) + tail)
    t0, t1 = [t for t in itertools.islice(enumerate_tilings(region), 20) if twist(t) == 0][:2]
    assert flip_connected(t0, t1) is Connectivity.CONNECTED
    assert connected_with_padding(t0, t1, 0) is Connectivity.CONNECTED
    with pytest.raises(ValueError, match="not a cylinder"):
        connected_with_padding(t0, t1, 2)


def test_connected_with_padding_rejects_odd():
    r = make_box((2, 2, 2))
    ts = list(enumerate_tilings(r))
    with pytest.raises(ValueError):
        connected_with_padding(ts[0], ts[1], 3)


def test_padded_merge_search_finds_certificate():
    base = make_box((2, 2, 2))
    r = make_cylinder(base, 2)
    ts = list(enumerate_tilings(r))
    targets = {pack_state(t) for t in ts[:3]}
    start = ts[-1]
    path = padded_merge_search(start, targets, 2)
    assert path is not None
    # certificate: consecutive states differ by one flip, in the padded region
    padded = make_cylinder(base, 4)
    for a, b in zip(path, path[1:]):
        assert is_flip_pair(padded, a, b)
    # final state: appended slab vertical, bottom part in targets
    final = Tiling(padded, path[-1])
    fd = decompose_floors(final)
    nb = len(base.cells)
    assert fd.plugs[3] == (1 << nb) - 1  # slab between floors 2 and 3 all vertical
    assert path[-1][: 2 * nb] in targets


def reference_merge_search(t_start: Tiling, bottom_targets: set[bytes], extra_floors: int,
                           budget: int = 2_000_000) -> list[bytes] | None:
    """One byte state at a time: best-first on flip_neighbors_bytes through a
    heap, ordered by how many slab pairs of the padding are vertical, FIFO
    within equal scores.  The goal test runs on each new state, and
    `budget` caps the states stored."""
    base, n0 = as_cylinder(t_start.region)
    nb = len(base.cells)
    padded = concat(t_start, vertical_tiling(base, extra_floors))
    squares = padded.region.squares
    slab_pairs = [(h * nb + i, (h + 1) * nb + i)
                  for h in range(n0, n0 + extra_floors, 2) for i in range(nb)]

    def score(state: bytes) -> int:
        return sum(state[i] == j for i, j in slab_pairs)

    def is_goal(state: bytes) -> bool:
        return score(state) == len(slab_pairs) and state[:n0 * nb] in bottom_targets

    start = pack_state(padded)
    if is_goal(start):
        return [start]
    parent = {start: None}
    heap = [(-score(start), 0, start)]
    while heap:
        _, _, s = heapq.heappop(heap)
        for t in flip_neighbors_bytes(s, squares):
            if t in parent:
                continue
            parent[t] = s
            if is_goal(t):
                path = [t]
                while s is not None:
                    path.append(s)
                    s = parent[s]
                return path[::-1]
            if len(parent) >= budget:
                return None
            heapq.heappush(heap, (-score(t), len(parent), t))
    return None


def assert_merge_certificate(start: Tiling, targets: set[bytes], extra_floors: int, path) -> None:
    """path runs from start + vertical padding by legal flips to a state
    whose padding slab is vertical again and whose bottom is in targets."""
    base, n0 = as_cylinder(start.region)
    nb = len(base.cells)
    padded = concat(start, vertical_tiling(base, extra_floors))
    assert path[0] == pack_state(padded)
    for a, b in zip(path, path[1:]):
        assert is_flip_pair(padded.region, a, b)
    final = path[-1]
    for h in range(n0, n0 + extra_floors, 2):
        assert all(final[h * nb + i] == (h + 1) * nb + i for i in range(nb))
    assert final[:n0 * nb] in targets


@pytest.mark.parametrize("chunk", [moves.FRONTIER_CHUNK, 64])
def test_merge_search_matches_reference(monkeypatch, chunk):
    # found versus None, from one twist-1 tiling of cyl:2,2,2xN=2 to each
    # other one and to none (each is isolated; padded, they fall into two
    # twin components), and from a quarter of the tilings of cyl:2,3xN=2
    # to the last one and to none
    monkeypatch.setattr(moves, "FRONTIER_CHUNK", chunk)
    region = parse_region_spec("cyl:2,2,2xN=2")
    P = partner_matrix(region)
    ones = [row.tobytes() for row in P[twist_batch(region, P) == 1]]
    assert len(ones) == 8
    cases = [(Tiling(region, ones[0]), targets) for targets in [set()] + [{b} for b in ones[1:]]]
    region = parse_region_spec("cyl:2,3xN=2")
    states = [row.tobytes() for row in partner_matrix(region)]
    cases += [(Tiling(region, s), targets) for s in states[::4]
              for targets in (set(), {states[-1]})]
    found = []
    for start, targets in cases:
        path = padded_merge_search(start, targets, 2)
        assert (path is None) == (reference_merge_search(start, targets, 2) is None)
        if path is not None:
            assert_merge_certificate(start, targets, 2, path)
        found.append(path is not None)
    assert found[1:8].count(True) == 3  # the twin of ones[0] holds three others
    assert found[8:] == [False, True] * 8


def test_merge_search_start_is_goal():
    region = parse_region_spec("cyl:2,3xN=2")
    t = next(iter(enumerate_tilings(region)))
    padded = concat(t, vertical_tiling(make_box((2, 3)), 2))
    assert padded_merge_search(t, {pack_state(t)}, 2) == [pack_state(padded)]


def test_merge_search_budget_runs_out(census_223_n3, monkeypatch):
    # the search keeps at most `budget` states: it stops at the round that
    # would take it past the budget (the rows of every round are counted),
    # and builds that round only one state past the budget
    rep = census_223_n3.report
    giant = {rep.state(i) for i in np.flatnonzero(np.asarray(rep.comp_of) == 0)}
    start = rep.representative_tiling(2)
    expand, rounds = moves._expand, []

    def counted(*args):
        out = expand(*args)
        rounds.append(len(out))
        return out

    monkeypatch.setattr(moves, "_expand", counted)
    for budget in (1000, 5000):
        rounds.clear()
        assert padded_merge_search(start, giant, 2, budget=budget) is None
        kept = 1 + sum(rounds[:-1])
        assert kept <= budget < kept + rounds[-1], budget
        assert 1 + sum(rounds) <= budget + 1, budget
    assert reference_merge_search(start, giant, 2, budget=1000) is None


def test_merge_search_walks_back_one_step_per_round_at_most(census_223_n3, monkeypatch):
    # the path is walked back over the rounds' blocks, each step to a flip
    # neighbour in an earlier block: it holds the start and at most one
    # state per round that found new states, and every step is a legal flip
    rep = census_223_n3.report
    giant = {rep.state(i) for i in np.flatnonzero(np.asarray(rep.comp_of) == 0)}
    expand, rounds = moves._expand, []

    def counted(*args):
        out = expand(*args)
        rounds.append(len(out))
        return out

    monkeypatch.setattr(moves, "_expand", counted)
    for k in range(2, len(rep.components), 3):
        rounds.clear()
        start = rep.representative_tiling(k)
        path = padded_merge_search(start, giant, 2)
        assert path is not None, k
        assert_merge_certificate(start, giant, 2, path)
        assert len(path) <= sum(map(bool, rounds)) + 1, (k, len(path), rounds)


def test_merge_search_refuses_a_path_it_cannot_walk_back(monkeypatch):
    # a state with no flip neighbour in an earlier round cannot be reached
    # from the start: the search raises rather than return an unchecked path
    region = parse_region_spec("cyl:2,3xN=2")
    states = [row.tobytes() for row in partner_matrix(region)]
    monkeypatch.setattr(moves, "flip_neighbors", lambda t: [t])
    with pytest.raises(RuntimeError, match="no earlier round"):
        padded_merge_search(Tiling(region, states[0]), {states[-1]}, 2)


def test_merge_search_peak_memory_on_the_twins(census_222_n4):
    # cyl:2,2,2xN=4, from the second twist-1 twin to the first under two
    # padding floors: the twins stay apart, so the search spends its whole
    # budget of 2,000,000 states.  Keeping only each round's sorted keys, it
    # peaks at 68.9 MB (numpy 2.4); parent ids beside the keys, and the
    # stable argsort that named them, take it to 83.7 MB
    rep = census_222_n4.report
    assert [(c.size, c.twist) for c in rep.components[1:3]] == [(6412, 1), (6412, 1)]
    targets = {rep.state(i) for i in np.flatnonzero(np.asarray(rep.comp_of) == 1)}
    start = rep.representative_tiling(2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        path = padded_merge_search(start, targets, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path is None
    assert peak < 76e6, f"the search peaked at {peak / 1e6:.1f} MB"


def test_merge_search_rejects_negative_budget():
    t = next(iter(enumerate_tilings(parse_region_spec("cyl:2,3xN=2"))))
    with pytest.raises(ValueError, match="budget must be non-negative"):
        padded_merge_search(t, set(), 2, budget=-1)


def test_searches_leave_numpy_ma_unimported(fresh_python):
    # numpy 2.x imports numpy.ma (about 55 ms) from a plain np.unique; no
    # census or search may pay for it
    lines, _ = fresh_python(
        "import sys\n"
        "import numpy as np\n"
        "from dominotwist import Tiling, parse_region_spec\n"
        "from dominotwist.moves import flip_components, flip_connected, padded_merge_search\n"
        "rep = flip_components(parse_region_spec('cyl:2,2,2xN=2'))\n"
        "giant = np.flatnonzero(np.asarray(rep.comp_of) == 0)\n"
        "t0, t1 = (Tiling(rep.region, rep.state(int(i))) for i in giant[[0, -1]])\n"
        "print(flip_connected(t0, t1).value)\n"
        "ones = [rep.state(i) for i in np.flatnonzero(rep.twists == 1)]\n"
        "print(padded_merge_search(Tiling(rep.region, ones[0]), set(ones[1:]), 2) is not None)\n"
        "print('numpy.ma' in sys.modules)\n")
    assert lines == ["connected", "True", "False"]


def test_small_components_merge_into_giant_under_padding(census_223_n3):
    # every component of cyl:2,2,3xN=3 outside the two giants (sixteen of
    # 16 tilings and two of 2, all of twist 0) reaches the twist-0 giant
    # with two padding floors; the path lengths are pinned, so a change to
    # how the search picks a state's parent shows
    rep = census_223_n3.report
    giant = {rep.state(i) for i in np.flatnonzero(np.asarray(rep.comp_of) == 0)}
    small = range(2, len(rep.components))
    assert [rep.components[k].twist for k in small] == [0] * 18
    lengths = []
    for k in small:
        start = rep.representative_tiling(k)
        path = padded_merge_search(start, giant, 2)
        assert path is not None, k
        assert_merge_certificate(start, giant, 2, path)
        lengths.append(len(path))
    assert lengths == [18, 18, 20, 19, 20, 18, 20, 18, 20, 20, 18, 17, 18, 20, 17, 20, 17, 17]


@pytest.mark.extended
def test_depth_five_census_peak_memory(fresh_python):
    # no array of all 25,929,984 flip edges: the census peaks under 400 MB
    (components,), peak_mb = fresh_python(
        "from dominotwist import parse_region_spec\n"
        "from dominotwist.moves import flip_components\n"
        "rep = flip_components(parse_region_spec('cyl:2,2,2xN=5'))\n"
        "print([(c.size, c.twist) for c in rep.components])\n")
    assert components == str([(3386376, 0), (202224, 1), (202224, 1),
                              (2028, 0), (2028, 0)])  # criterion 02's depth-5 census
    assert peak_mb < 400, f"depth-5 census peaked at {peak_mb:.0f} MB"
