from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dominotwist.kasteleyn import (
    KasteleynError,
    SignSystem,
    bareiss_determinant,
    canonical_sign,
    defect_by_determinant,
    defect_by_enumeration,
    gauge_twist_comparison,
    inversion_count,
    inversion_parity,
    permutation_parity,
    sign_matrix,
    signed_det_term,
    twist,
    twist_batch,
    twist_census,
)
from dominotwist.moves import pack_state
from dominotwist.regions import Region, make_box, make_cylinder, parse_region_spec
from dominotwist.tilings import Tiling, enumerate_tilings, partner_matrix, vertical_tiling


def test_canonical_sign_depends_on_prefix_parity():
    r = make_box((2, 2))
    # black (0,0) - white (1,0): axis 0, empty prefix -> +1
    assert canonical_sign(r, (0, 0), (1, 0)) == 1
    # black (1,1) - white (1,0): axis 1, prefix sum x0=1 -> -1
    assert canonical_sign(r, (1, 1), (1, 0)) == -1


def test_canonical_sign_rejects_bad_pairs():
    r = make_box((2, 2))
    with pytest.raises(KasteleynError):
        canonical_sign(r, (0, 0), (1, 1))  # same color
    with pytest.raises(KasteleynError):
        canonical_sign(r, (1, 0), (1, 1))  # white first


def test_inversion_count_matches_bruteforce():
    import itertools
    for perm in itertools.permutations(range(4)):
        brute = sum(1 for i in range(4) for j in range(i + 1, 4)
                    if perm[i] > perm[j])
        assert inversion_count(list(perm)) == brute


def test_inversion_parity_matches_inversion_count():
    import itertools
    perms = np.array(list(itertools.permutations(range(5))))
    rows = np.random.default_rng(7).integers(-1, 2, size=(500, 9))
    for batch in (perms, rows):
        want = [inversion_count(list(r)) % 2 for r in batch]
        assert inversion_parity(batch).tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda b: st.permutations(range(b))))
@example([])
@example(list(range(9)))
def test_permutation_parity_matches_inversion_count(sigma):
    assert permutation_parity(sigma) == inversion_count(sigma) % 2


def test_vertical_tiling_twist_zero():
    for dims, floors in (((2, 2), 2), ((2, 2, 2), 4), ((2, 3), 2)):
        t = vertical_tiling(make_box(dims), floors)
        assert twist(t) == 0


def test_twist_is_zero_or_one():
    r = make_box((2, 2, 2))
    for t in enumerate_tilings(r):
        assert twist(t) in (0, 1)


def test_twist_batch_agrees_with_scalar():
    r = make_cylinder(make_box((2, 2)), 3)
    ts = list(enumerate_tilings(r))
    states = [pack_state(t) for t in ts]
    tw = twist_batch(r, states)
    assert [int(x) for x in tw] == [twist(t) for t in ts]


@pytest.mark.parametrize("spec", ["cyl:2,2,2xN=2", "box:2,2,2,2", "box:2,2,2,2,2", "cyl:2,5xN=2"])
def test_scalar_twist_matches_batch_twist(spec):
    # the pure-Python twist reads its signs from _negative_edges, the batch
    # twist from the numpy table built out of it; the canonical SignSystem
    # takes every sign from canonical_sign on its own, and signed_det_term
    # under it takes the parity from the cycles, the batch twist from the
    # inversions; on every tiling of the small regions and on about 20,000
    # of the 589,185 of the 5-cube
    region = parse_region_spec(spec)
    canonical = SignSystem.canonical(region)
    batch = twist_batch(region, partner_matrix(region)).tolist()
    stride = max(1, len(batch) // 20000)
    for k, (t, tw) in enumerate(zip(enumerate_tilings(region), batch, strict=True)):
        assert twist(t) == tw
        if k % stride == 0:
            assert signed_det_term(t) == signed_det_term(t, canonical) == (-1) ** tw


def test_twist_of_unbalanced_region_is_error():
    region = make_box((3,))
    with pytest.raises(KasteleynError, match="^twist needs a balanced region$"):
        twist(Tiling(region, (1, 0, 1)))
    with pytest.raises(KasteleynError, match="^twist needs a balanced region$"):
        twist_batch(region, [bytes((1, 0, 1))])


def test_twist_census_2222():
    assert twist_census(make_box((2, 2, 2, 2))) == (264, 8)


def test_twist_census_past_255_cells():
    # box:2,2,2,2 plus a 240-cell tail along the first axis: 256 cells, too
    # many to pack in bytes, so the census runs the scalar twist over
    # enumerate_tilings; the tail has one tiling, the box keeps its split
    tail = [(x, 0, 0, 0) for x in range(2, 242)]
    r = Region(4, list(make_box((2, 2, 2, 2)).cells) + tail)
    assert len(r.cells) == 256
    assert twist_census(r) == (264, 8)
    assert defect_by_determinant(r) == 256


def test_planar_tilings_have_twist_zero():
    # two-dimensional regions never produce inversions with sign weight
    for dims in ((2, 2), (2, 4), (4, 4)):
        for t in enumerate_tilings(make_box(dims)):
            assert twist(t) == 0


def test_bareiss_determinant_small_cases():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    m = [[2, 0, 1], [0, 3, 0], [1, 0, 2]]
    assert bareiss_determinant(m) == 9
    assert bareiss_determinant([]) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                         min_size=3, max_size=3), min_size=3, max_size=3))
def test_bareiss_matches_float_det(rows):
    import numpy as np
    expect = round(float(np.linalg.det(np.array(rows, dtype=float))))
    assert bareiss_determinant(rows) == expect


def test_sign_matrix_shape_and_entries():
    r = make_box((2, 2))
    m = sign_matrix(r)
    assert len(m) == 2 and len(m[0]) == 2
    flat = [x for row in m for x in row]
    assert all(x in (-1, 0, 1) for x in flat)


def test_defect_determinant_equals_enumeration_small():
    for dims in ((2, 2), (2, 2, 2), (2, 3), (2, 2, 3)):
        r = make_box(dims)
        assert defect_by_determinant(r) == defect_by_enumeration(r), dims


def test_defect_2222_is_256():
    r = make_box((2, 2, 2, 2))
    d = defect_by_determinant(r)
    assert d == 256
    assert d == defect_by_enumeration(r)
    assert d == 264 - 8


def test_signed_det_term_product_structure():
    r = make_box((2, 2, 2))
    sys_c = SignSystem.canonical(r)
    for t in enumerate_tilings(r):
        term = signed_det_term(t)
        assert term in (-1, 1)
        assert term == signed_det_term(t, sys_c)
        assert term == (-1) ** twist(t) * abs(term)


def test_sign_system_validity_and_gauge():
    r = make_box((2, 2, 2))
    canon = SignSystem.canonical(r)
    assert canon.is_valid()
    # negating all edges at one cell is a gauge move: stays valid
    g = SignSystem.gauge(r, [0])
    assert g.is_valid()
    rep = gauge_twist_comparison(r, g)
    assert rep.consistent and rep.epsilon in (-1, 1)


def test_single_edge_negation_breaks_validity():
    r = make_box((2, 2))
    canon = SignSystem.canonical(r)
    bad = canon.negate_edge(0, 1)
    assert not bad.is_valid()


def test_random_systems_are_valid_and_seeded():
    r = make_box((2, 2, 2))
    a = SignSystem.random_system(r, 7)
    b = SignSystem.random_system(r, 7)
    c = SignSystem.random_system(r, 8)
    assert a.is_valid() and c.is_valid()
    edges = [(i, j) for i in range(8) for j in r.neighbors[i] if j > i]
    assert [a.edge(i, j) for i, j in edges] == [b.edge(i, j) for i, j in edges]
    assert any(a.edge(i, j) != c.edge(i, j) for i, j in edges)


def test_gauge_comparison_flags_invalid_system():
    r = make_box((2, 2, 2))
    bad = SignSystem.canonical(r).negate_edge(0, 1)
    rep = gauge_twist_comparison(r, bad)
    assert not rep.consistent
    assert rep.counterexample is not None
