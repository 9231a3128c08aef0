from __future__ import annotations

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominotwist.regions import Region, make_box, make_cylinder, parse_region_spec
from dominotwist.tilings import (
    Tiling,
    TilingError,
    as_cylinder,
    concat,
    count_tilings,
    decompose_floors,
    enumerate_tilings,
    partner_matrix,
    recompose_floors,
    tiling_from_json_obj,
    tiling_from_text,
    vertical_tiling,
)

# 2D fibonacci-style and classic counts for cross-checking the enumerator
KNOWN_COUNTS = {
    (1, 2): 1,
    (2, 2): 2,
    (2, 3): 3,
    (2, 4): 5,
    (4, 4): 36,
    (2, 2, 2): 9,
    (2, 2, 3): 32,
    (2, 2, 2, 2): 272,
}


def test_known_counts_enumeration_and_dp():
    for dims, expect in KNOWN_COUNTS.items():
        r = make_box(dims)
        assert count_tilings(r) == expect, dims
        assert sum(1 for _ in enumerate_tilings(r)) == expect, dims


def test_count_of_unbalanced_region_is_zero():
    assert count_tilings(make_box((3, 3))) == 0
    assert list(enumerate_tilings(make_box((1, 3)))) == []
    # returned at once, without walking the search tree
    assert list(enumerate_tilings(make_box((9, 9)))) == []
    assert partner_matrix(make_box((9, 9))).shape == (0, 81)


def test_empty_region_has_one_empty_tiling():
    r = Region(2, [])
    assert count_tilings(r) == 1
    ts = list(enumerate_tilings(r))
    assert len(ts) == 1 and ts[0].dominoes() == []


RECURSION_PROBE = """
import sys
from dominotwist.regions import make_box
from dominotwist.tilings import count_tilings, enumerate_tilings
before = sys.getrecursionlimit()
region = make_box((3000,))
assert count_tilings(region) == 1
next(enumerate_tilings(region))
print(before, sys.getrecursionlimit())
"""


def test_long_region_leaves_recursion_limit_alone():
    # a fresh interpreter, so no earlier test has moved the limit
    proc = subprocess.run([sys.executable, "-c", RECURSION_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_enumeration_is_deterministic_and_unique():
    r = make_box((2, 2, 2))
    a = [t.partner for t in enumerate_tilings(r)]
    b = [t.partner for t in enumerate_tilings(r)]
    assert a == b
    assert len(set(a)) == len(a)


def test_validate_rejects_garbage():
    r = make_box((2, 2))
    with pytest.raises(TilingError):
        Tiling(r, [1, 0, 3, 3]).validate()  # 3 matched to itself
    with pytest.raises(TilingError):
        Tiling(r, [3, 2, 1, 0]).validate()  # diagonal pairs
    with pytest.raises(TilingError):
        Tiling(r, [1, 0]).validate()  # wrong length


def test_from_dominoes_checks_cover():
    r = make_box((2, 2))
    t = Tiling.from_dominoes(r, [((0, 0), (1, 0)), ((1, 1), (0, 1))])
    assert count_tilings(r) == 2
    with pytest.raises(TilingError):
        Tiling.from_dominoes(r, [((0, 0), (1, 0))])
    with pytest.raises(TilingError):
        Tiling.from_dominoes(r, [((0, 0), (1, 0)), ((0, 0), (1, 0)),
                                 ((1, 1), (0, 1))])
    assert t.dominoes()[0] == ((0, 0), (1, 0))


def test_text_roundtrip():
    r = make_cylinder(make_box((2, 2)), 2)
    for t in enumerate_tilings(r):
        back = tiling_from_text(t.to_text())
        assert back.partner == t.partner
        assert back.region.cells == r.cells


def test_json_roundtrip():
    t = vertical_tiling(make_box((2, 3)), 2)
    back = tiling_from_json_obj(json.loads(json.dumps(t.to_json_obj())))
    assert back.partner == t.partner


def test_text_parse_errors():
    with pytest.raises(TilingError):
        tiling_from_text("")
    with pytest.raises(TilingError):
        tiling_from_text("tiling v2 dim=2 region=box:2,2\n")
    with pytest.raises(TilingError):
        tiling_from_text("tiling v1 dim=2 region=box:2,2\n(0,0)(1,0)\n")


@pytest.mark.parametrize("text, message", [
    ("tiling v1 dim=3 region=box:2,2\n", "line 1: header says dim=3, region has dim=2"),
    ("tiling v1 dim=2 region=box:2,2\n(0,0)-(1,0)\n(0,1,0)-(1,1,0)\n",
     "line 3: cell arity does not match dim=2"),
], ids=["header-dim", "domino-arity"])
def test_text_reader_refuses(text, message):
    with pytest.raises(TilingError) as err:
        tiling_from_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("dims, pairs, message", [
    ((2, 2), [((0, 0), (2, 0)), ((0, 1), (1, 1))], "cell (2, 0) not in region"),
    ((2, 3), [((0, 0), (1, 2)), ((1, 0), (1, 1)), ((0, 1), (0, 2))],
     "cells (0, 0) and (1, 2) are not adjacent"),
], ids=["outside", "opposite-colours-apart"])
def test_from_dominoes_refuses(dims, pairs, message):
    # (0, 0) and (1, 2) differ in colour, so only the adjacency check of
    # validate stands between them and a domino
    with pytest.raises(TilingError) as err:
        Tiling.from_dominoes(make_box(dims), pairs)
    assert str(err.value) == message


def test_vertical_tiling_needs_even_floors():
    base = make_box((2, 2))
    t = vertical_tiling(base, 4)
    assert all(b[:-1] == w[:-1] for b, w in t.dominoes())
    with pytest.raises(TilingError):
        vertical_tiling(base, 3)


def test_floor_decomposition_roundtrip():
    r = make_cylinder(make_box((2, 2)), 3)
    for t in enumerate_tilings(r):
        fd = decompose_floors(t)
        assert fd.plugs[0] == 0 and fd.plugs[-1] == 0
        assert len(fd.plugs) == 4 and len(fd.floor_pairs) == 3
        back = recompose_floors(fd)
        assert back.partner == t.partner


def test_as_cylinder_reads_the_cells():
    # equal regions give equal answers, and a base that is a box at the
    # origin is that box, spec included
    box, cyl = parse_region_spec("box:2,2,3"), parse_region_spec("cyl:2,2xN=3")
    assert as_cylinder(box) == as_cylinder(cyl) == (make_box((2, 2)), 3)
    assert [as_cylinder(r)[0].spec for r in (box, cyl)] == ["box:2,2", "box:2,2"]
    # stacking two box:2,2,3 tilings gives a cyl: region, not a cells: list
    t = next(enumerate_tilings(box))
    assert concat(t, t).region.spec == "cyl:2,2xN=6"
    # cylinders built from cyl: regions keep their specs
    t = next(enumerate_tilings(cyl))
    assert concat(t, vertical_tiling(make_box((2, 2)), 2)).region.spec == "cyl:2,2xN=5"
    assert recompose_floors(decompose_floors(t)).region.spec == "cyl:2,2xN=3"
    # a base that is not a box at the origin keeps no spec
    shifted = Region(2, [(1, 0), (2, 0), (1, 1), (2, 1)])
    base, floors = as_cylinder(shifted)
    assert (base.cells, base.spec, floors) == (((1,), (2,)), None, 2)
    for region in (make_box((4,)), Region(2, [(0, 0), (1, 0), (0, 1)]),
                   Region(2, [(0, 0), (0, 2)])):
        with pytest.raises(TilingError, match="not a cylinder"):
            as_cylinder(region)


def test_decompose_plug_masks_are_balanced():
    r = make_cylinder(make_box((2, 3)), 2)
    base, _ = as_cylinder(r)
    for t in enumerate_tilings(r):
        fd = decompose_floors(t)
        for m in fd.plugs:
            blacks = sum(1 for i in range(6) if m >> i & 1 and base.colors[i] == 1)
            whites = bin(m).count("1") - blacks
            assert blacks == whites


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (4, 2), (2, 2, 2)]),
       st.integers(min_value=0, max_value=3))
def test_cylinder_count_multiplicativity_lower_bound(dims, n):
    # concatenating tilings of two stacks is injective into the tall stack
    base = make_box(dims)
    c1 = count_tilings(make_cylinder(base, n))
    c2 = count_tilings(make_cylinder(base, 2))
    tall = count_tilings(make_cylinder(base, n + 2))
    assert tall >= c1 * c2
