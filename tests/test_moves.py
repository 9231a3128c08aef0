from __future__ import annotations

import heapq
import itertools
import os
import subprocess
import sys
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
    vertical_tiling,
)


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
    return ComponentReport(region, states, components, [remap[c] for c in comp_of],
                           True, len(states), edges // 2)


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
# the name it has in earlier test reports; at one square per group every
# pair of roots is carried through many groups
@pytest.mark.parametrize(("spec", "group"),
                         [(s, moves.SQUARE_GROUP) for s in CENSUS_CASES]
                         + [(s, 1) for s in CENSUS_CASES],
                         ids=[f"{s}-None" for s in CENSUS_CASES]
                         + [f"{s}-group1" for s in CENSUS_CASES])
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


@st.composite
def cell_sets(draw):
    """8 to 18 cells of a box with corner (-1, ..., -1) in dimension 2, 3
    or 4: 4^2, 3^3 or 2^4 cells, so dense sets have tilings.  Unless the
    set is kept as drawn, its last cells of the surplus colour are dropped
    until it is balanced."""
    dim = draw(st.integers(2, 4))
    coord = st.integers(-1, {2: 2, 3: 1, 4: 0}[dim])
    region = Region(dim, draw(st.sets(st.tuples(*[coord] * dim), min_size=8, max_size=18)))
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
        rounds.append(len(out[1]))
        return out

    monkeypatch.setattr(moves, "_expand", counted)
    for budget in (1000, 5000):
        rounds.clear()
        assert padded_merge_search(start, giant, 2, budget=budget) is None
        kept = 1 + sum(rounds[:-1])
        assert kept <= budget < kept + rounds[-1], budget
        assert 1 + sum(rounds) <= budget + 1, budget
    assert reference_merge_search(start, giant, 2, budget=1000) is None


def test_merge_search_rejects_negative_budget():
    t = next(iter(enumerate_tilings(parse_region_spec("cyl:2,3xN=2"))))
    with pytest.raises(ValueError, match="budget must be non-negative"):
        padded_merge_search(t, set(), 2, budget=-1)


def test_small_components_merge_into_giant_under_padding(census_223_n3):
    # every component of cyl:2,2,3xN=3 outside the two giants (sixteen of
    # 16 tilings and two of 2, all of twist 0) reaches the twist-0 giant
    # with two padding floors
    rep = census_223_n3.report
    giant = {rep.state(i) for i in np.flatnonzero(np.asarray(rep.comp_of) == 0)}
    small = range(2, len(rep.components))
    assert [rep.components[k].twist for k in small] == [0] * 18
    for k in small:
        start = rep.representative_tiling(k)
        path = padded_merge_search(start, giant, 2)
        assert path is not None, k
        assert_merge_certificate(start, giant, 2, path)


# Runs the depth-5 census in a fresh interpreter and prints the component
# list, then the interpreter's own peak (VmHWM, in kB).  Not ru_maxrss: on
# Linux a child's ru_maxrss starts at its parent's RSS when it was spawned.
DEPTH_FIVE_PROBE = (
    "import re\n"
    "from dominotwist import parse_region_spec\n"
    "from dominotwist.moves import flip_components\n"
    "rep = flip_components(parse_region_spec('cyl:2,2,2xN=5'))\n"
    "print([(c.size, c.twist) for c in rep.components])\n"
    "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
)


@pytest.mark.extended
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_depth_five_census_peak_memory():
    # no array of all 25,929,984 flip edges: the census peaks under 400 MB
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-c", DEPTH_FIVE_PROBE],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    components, peak_kb = proc.stdout.splitlines()
    assert components == str([(3386376, 0), (202224, 1), (202224, 1),
                              (2028, 0), (2028, 0)])  # criterion 02's depth-5 census
    assert int(peak_kb) < 400 * 1024, f"depth-5 census peaked at {int(peak_kb) >> 10} MB"
