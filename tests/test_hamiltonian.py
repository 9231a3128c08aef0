from __future__ import annotations

import pytest

from dominotwist.hamiltonian import (
    GeneratorTiling,
    HamiltonianError,
    HamiltonianPath,
    UnfoldError,
    box_path,
    compatible_plugs,
    cork_filler,
    flux,
    flux_set,
    fold,
    generator_set,
    generator_tiling,
    non_respecting_base_dominoes,
    non_respecting_dominoes,
    path_domino_cells,
    path_from_cells,
    plug_compatible,
    respects_path,
    straight_path,
    unfold,
)
from dominotwist.kasteleyn import twist
from dominotwist.moves import Connectivity, flip_connected
from dominotwist.plugs import is_plug
from dominotwist.regions import make_box, make_cork, make_cylinder
from dominotwist.tilings import (
    Tiling,
    count_tilings,
    decompose_floors,
    enumerate_tilings,
    vertical_tiling,
)


def test_box_path_1d_is_identity_order():
    p = straight_path(5)
    assert p.cells == ((0,), (1,), (2,), (3,), (4,))


def test_box_path_valid_many_dims():
    for dims in ((2, 2), (2, 2, 3), (3, 3), (2, 3, 2), (2, 2, 2, 2)):
        p = box_path(dims)
        assert len(p) == len(p.region.cells)
        # constructor enforces bijection + adjacency; spot-check serpentine
        assert p.cells[0] == (0,) * len(dims)


def test_box_path_serpentine_2x3():
    p = box_path((2, 3))
    assert p.cells == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2))


def test_path_position_parity_tracks_color():
    from dominotwist.regions import cell_color
    for dims in ((2, 2), (2, 3), (2, 2, 3)):
        p = box_path(dims)
        for c in p.region.cells:
            assert (p.position[c] % 2 == 1) == (cell_color(c) == 1)


def test_path_validation_rejects_bad_orders():
    r = make_box((2, 2))
    with pytest.raises(HamiltonianError):
        path_from_cells(r, [(0, 0), (1, 1), (1, 0), (0, 1)])  # jump
    with pytest.raises(HamiltonianError):
        path_from_cells(r, [(0, 0), (1, 0), (1, 1)])  # misses a cell


def test_path_json_export():
    p = box_path((2, 2))
    obj = p.to_json_obj()
    assert obj["cells"] == [[0, 0], [1, 0], [1, 1], [0, 1]]
    back = path_from_cells(p.region, obj["cells"])
    assert back.cells == p.cells


def test_respects_path_basics():
    base = make_box((2, 2))
    p = box_path((2, 2))
    t_vert = vertical_tiling(base, 2)
    assert respects_path(p, t_vert)
    r = make_cylinder(base, 2)
    for t in enumerate_tilings(r):
        bad = non_respecting_dominoes(p, t)
        assert respects_path(p, t) == (not bad)
        for v, w in bad:
            assert v[-1] == w[-1]  # only horizontals can fail
            i, j = p.position[v[:-1]], p.position[w[:-1]]
            assert abs(i - j) > 1


def test_respecting_count_equals_strip_count():
    base = make_box((2, 2))
    p = box_path((2, 2))
    for n in (2, 3):
        r = make_cylinder(base, n)
        resp = sum(1 for t in enumerate_tilings(r) if respects_path(p, t))
        strip = count_tilings(make_cylinder(straight_path(4).region, n))
        assert resp == strip


def test_non_respecting_base_dominoes_central_interval_even():
    # the middle interval cut out by a non-respecting domino always has
    # even positive length; checked on several box paths
    for dims in ((2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3)):
        p = box_path(dims)
        for i_minus, i_plus in non_respecting_base_dominoes(p):
            assert i_minus + 1 < i_plus
            assert (i_plus - i_minus - 1) % 2 == 0
            lo, hi = path_domino_cells(p, (i_minus, i_plus))
            assert sum(abs(a - b) for a, b in zip(lo, hi)) == 1


def test_path_domino_cells_rejects_respecting_or_non_adjacent():
    p = box_path((2, 3))
    with pytest.raises(HamiltonianError):
        path_domino_cells(p, (1, 2))  # consecutive = respects
    with pytest.raises(HamiltonianError):
        path_domino_cells(p, (1, 5))  # not adjacent cells
    with pytest.raises(HamiltonianError):
        path_domino_cells(p, (0, 4))  # out of range


def test_flux_empty_plug_and_membership():
    p = box_path((2, 3))
    for d in non_respecting_base_dominoes(p):
        assert flux(p, d, 0) == (0, 0, 0)
        for plug in compatible_plugs(p, d):
            phi = flux(p, d, plug)
            assert sum(phi) == 0  # flux lies in the plane orthogonal to (1,1,1)


def test_flux_rejects_incompatible_plug():
    p = box_path((2, 2))
    d = (1, 4)
    full = 0b1111
    with pytest.raises(HamiltonianError):
        flux(p, d, full)


@pytest.mark.parametrize("plug", [0x20, 1 << 16, -1], ids=["unbalanced", "outside-base", "negative"])
def test_flux_and_generator_reject_a_non_plug(plug):
    p = box_path((3, 4))
    assert not plug_compatible(p, (1, 6), plug)
    with pytest.raises(HamiltonianError, match="balanced subset"):
        flux(p, (1, 6), plug)
    with pytest.raises(HamiltonianError, match="balanced subset"):
        generator_tiling(p, (1, 6), plug)


def test_is_plug():
    base = make_box((2, 2))  # cells 0 and 3 black, 1 and 2 white
    assert [m for m in range(-2, 18) if is_plug(base, m)] == [0, 3, 5, 10, 12, 15]
    assert is_plug(base, 0b0110) is False


def test_flux_set_2x3():
    p = box_path((2, 3))
    assert flux_set(p, (1, 4)) == {(0, -1, 1), (0, 0, 0), (0, 1, -1)}
    assert flux_set(p, (3, 6)) == {(-1, 1, 0), (0, 0, 0), (1, -1, 0)}


def test_flux_central_component_bounded_for_side_dominoes():
    # when the central interval has exactly two elements the middle flux
    # component can only be -1, 0 or 1
    p = box_path((2, 4))
    for d in non_respecting_base_dominoes(p):
        if d[1] - d[0] - 1 == 2:
            for phi in flux_set(p, d):
                assert abs(phi[1]) <= 1


def test_flux_cap_on_large_bases():
    p = box_path((3, 3, 2))  # 18 cells > 16-cell cap
    with pytest.raises(HamiltonianError):
        compatible_plugs(p, non_respecting_base_dominoes(p)[0])


# ------------------------------------------------------------ fold/unfold

def test_fold_vertical_tiling_stays_vertical():
    t = vertical_tiling(make_box((4,)), 2)
    p2 = box_path((2, 2))
    folded = fold(t, straight_path(4), p2)
    assert all(b[:-1] == w[:-1] for b, w in folded.dominoes())


def test_fold_unfold_roundtrip_respecting():
    base = make_box((2, 2))
    p = box_path((2, 2))
    s = straight_path(4)
    r = make_cylinder(base, 3)
    for t in enumerate_tilings(r):
        if not respects_path(p, t):
            continue
        flat = unfold(t, p, s)
        assert fold(flat, s, p).partner == t.partner


def test_unfold_fails_exactly_on_non_respecting():
    base = make_box((2, 2))
    p = box_path((2, 2))
    s = straight_path(4)
    r = make_cylinder(base, 2)
    for t in enumerate_tilings(r):
        if respects_path(p, t):
            unfold(t, p, s)
        else:
            with pytest.raises(UnfoldError):
                unfold(t, p, s)


def test_unfold_preserves_twist_exhaustive_small():
    # folding flattens to a planar strip, whose tilings all have twist 0;
    # path-respecting cylinder tilings must agree
    base = make_box((2, 2, 3))
    p = box_path((2, 2, 3))
    s = straight_path(12)
    for n in (1, 2):
        r = make_cylinder(base, n)
        for t in enumerate_tilings(r):
            if not respects_path(p, t):
                continue
            flat = unfold(t, p, s)
            assert twist(flat) == twist(t)


def test_fold_global_condition_rejected():
    # the cylinder base has adjacencies the straight path lacks
    t = vertical_tiling(make_box((2, 2)), 2)
    with pytest.raises(HamiltonianError):
        fold(t, box_path((2, 2)), straight_path(4))


def test_fold_rejects_tiling_off_the_path_cylinder():
    # a cylinder over another base, a cork and a 1-dimensional strip
    p22 = box_path((2, 2))
    with pytest.raises(HamiltonianError, match="cylinder over the path's region"):
        fold(vertical_tiling(make_box((2, 3)), 2), p22, straight_path(4))
    cork = next(iter(enumerate_tilings(make_cork(make_box((2, 2)), 2, 0b0011, 0))))
    strip = next(iter(enumerate_tilings(make_box((4,)))))
    for t in (cork, strip):
        with pytest.raises(HamiltonianError, match="not a full cylinder"):
            fold(t, p22, straight_path(4))


def test_unfold_counterexample_axis_two_domino():
    # the domino (0,0)-(0,1) joins path positions 1 and 4 of the [0,2]x[0,4]
    # serpentine; positions 1 and 4 of the [0,4]x[0,2] serpentine are the
    # non-adjacent cells (0,0) and (3,0), so transport must fail
    src = box_path((2, 4))
    dst = box_path((4, 2))
    r = make_cylinder(src.region, 1)
    t = Tiling.from_dominoes(r, [
        (((0, 0, 0)), ((0, 1, 0))), (((1, 0, 0)), ((1, 1, 0))),
        (((0, 2, 0)), ((0, 3, 0))), (((1, 2, 0)), ((1, 3, 0))),
    ])
    with pytest.raises(UnfoldError) as err:
        unfold(t, src, dst)
    i, j = err.value.positions
    assert (i, j) in {(1, 4), (5, 8)}
    # ...while some non-respecting dominoes do land adjacently: the tiling
    # with the lone central 2x2 block of axis-1 dominoes unfolds fine
    ok = Tiling.from_dominoes(r, [
        (((0, 0, 0)), ((1, 0, 0))), (((0, 1, 0)), ((0, 2, 0))),
        (((1, 1, 0)), ((1, 2, 0))), (((0, 3, 0)), ((1, 3, 0))),
    ])
    assert not respects_path(src, ok)
    unfold(ok, src, dst).validate()


def test_fold_length_mismatch():
    t = vertical_tiling(make_box((2, 2)), 2)
    with pytest.raises(HamiltonianError):
        fold(t, box_path((2, 2)), straight_path(6))


# ------------------------------------------------------------ cork filler

def test_cork_filler_empty_plug():
    t = cork_filler(make_box((2, 2)), 0)
    assert t.region.cells == () and t.dominoes() == []


def test_cork_filler_adjacent_pair():
    base = make_box((2, 2))
    plug = 0b0011  # (0,0) and (1,0): one adjacent black/white pair
    t = cork_filler(base, plug)
    hor = [(b, w) for b, w in t.dominoes() if b[:-1] != w[:-1]]
    assert len(hor) == 1  # single path of length 1: one horizontal domino
    assert max(c[-1] for c in t.region.cells) + 1 == 2


def test_cork_filler_full_plug_222():
    base = make_box((2, 2, 2))
    plug = (1 << 8) - 1
    t = cork_filler(base, plug)
    t.validate()
    # 2b = 8 floors, top floor entirely notched away
    assert len(t.region.cells) == 8 * 8 - 8
    assert t.region.cells == make_cork(base, 8, 0, plug).cells


def test_cork_filler_various_plugs_cover_exactly():
    from dominotwist.transfer import enumerate_plugs
    base = make_box((2, 3))
    for plug in enumerate_plugs(base):
        t = cork_filler(base, plug)
        t.validate()
        b = bin(plug).count("1")
        expected_region = make_cork(base, b, 0, plug)
        assert t.region.cells == expected_region.cells


def test_cork_filler_rejects_unbalanced():
    with pytest.raises(HamiltonianError):
        cork_filler(make_box((2, 2)), 0b0001)
    with pytest.raises(HamiltonianError, match="balanced subset"):
        cork_filler(make_box((2, 2)), 0b1 | 1 << 4)  # a black cell and a bit past the base


# ------------------------------------------------------ generator tilings

def test_generator_tiling_unique_bad_domino_and_plug():
    p = box_path((2, 3))
    for d in non_respecting_base_dominoes(p):
        for plug in compatible_plugs(p, d):
            g = generator_tiling(p, d, plug)
            g.tiling.validate()
            bad = non_respecting_dominoes(p, g.tiling)
            assert len(bad) == 1
            lo, hi = path_domino_cells(p, d)
            assert {bad[0][0][:-1], bad[0][1][:-1]} == {lo, hi}
            assert bad[0][0][-1] == g.half - 1
            fd = decompose_floors(g.tiling)
            assert fd.plugs[g.half - 1] == plug
            assert g.flux == flux(p, d, plug)


def test_generator_set_2x3_is_deterministic():
    p = box_path((2, 3))
    gens = generator_set(p)
    key = [(g.d, g.flux, g.plug, g.half, g.twist) for g in gens]
    assert key == [(g.d, g.flux, g.plug, g.half, g.twist)
                   for g in generator_set(p)]
    # one generator per (domino, flux value)
    assert len(gens) == 6
    assert {(g.d, g.flux) for g in gens} == {
        ((1, 4), (0, -1, 1)), ((1, 4), (0, 0, 0)), ((1, 4), (0, 1, -1)),
        ((3, 6), (-1, 1, 0)), ((3, 6), (0, 0, 0)), ((3, 6), (1, -1, 0)),
    }


def test_generator_twists_nonzero_flux_gives_twist_one():
    # for this base every generator of nonzero flux has twist 1 and the
    # zero-flux generators have twist 0
    gens = generator_set(box_path((2, 3)))
    for g in gens:
        assert g.twist == (0 if g.flux == (0, 0, 0) else 1)


def test_generator_set_contains_twist_one_for_223():
    p = box_path((2, 2, 3))
    ds = non_respecting_base_dominoes(p)
    # restrict to two dominoes to keep runtime modest
    gens = generator_set(p, dominoes=ds[:2])
    assert any(g.twist == 1 for g in gens)
    for g in gens:
        bad = non_respecting_dominoes(p, g.tiling)
        assert len(bad) == 1
        v, w = bad[0]
        assert v[-1] == w[-1]  # always horizontal


def test_generator_tilings_equal_flux_connected_keeping_d_fixed():
    # two generators with the same non-respecting domino and equal flux
    # are flip-connected by moves that never touch d; the nonempty plug
    # needs half height 4 (its lower strip is untileable at height 2), so
    # both generators are built at half height 4 to share a region
    p = box_path((2, 2))
    d = (1, 4)
    plugs = [q for q in compatible_plugs(p, d)
             if flux(p, d, q) == (0, 0, 0)]
    assert plugs == [0, 0b1010]
    n = 4
    g0 = generator_tiling(p, d, plugs[0], half_floors=n)
    g1 = generator_tiling(p, d, plugs[1], half_floors=n)
    lo, hi = path_domino_cells(p, d)
    d_cells = (lo + (n - 1,), hi + (n - 1,))
    assert _connected_fixing_cells(g0.tiling, g1.tiling, d_cells)


def _connected_fixing_cells(t0: Tiling, t1: Tiling, frozen_cells) -> bool:
    # BFS over flips that leave the frozen cells' dominoes untouched
    from collections import deque
    from dominotwist.moves import flip_neighbors_bytes, pack_state
    region = t0.region
    frozen = [region.index[c] for c in frozen_cells]
    squares = region.squares
    s0, s1 = pack_state(t0), pack_state(t1)

    def frozen_ok(state: bytes) -> bool:
        return all(state[i] == s0[i] for i in frozen)

    assert frozen_ok(s1)
    seen = {s0}
    queue = deque([s0])
    while queue:
        cur = queue.popleft()
        if cur == s1:
            return True
        for nxt in flip_neighbors_bytes(cur, squares):
            if nxt not in seen and frozen_ok(nxt):
                seen.add(nxt)
                queue.append(nxt)
    return False


def test_generator_tiling_cap_exhaustion_reports():
    p = box_path((2, 2))
    with pytest.raises(HamiltonianError):
        generator_tiling(p, (1, 4), 0, half_floors=None, cap=0)


@pytest.mark.extended
def test_unfold_preserves_twist_223_n3(census_223_n3):
    base = make_box((2, 2, 3))
    p = box_path((2, 2, 3))
    s = straight_path(12)
    rep = census_223_n3.report
    region = rep.region
    checked = 0
    for idx in range(len(rep.states)):
        t = Tiling(region, rep.state(idx))
        if not respects_path(p, t):
            continue
        flat = unfold(t, p, s)
        assert twist(flat) == int(rep.twists[idx])
        checked += 1
    assert checked == count_tilings(make_cylinder(s.region, 3))
