from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominotwist import regions
from dominotwist.regions import (
    Region,
    RegionError,
    build_spec,
    cell_color,
    make_box,
    make_cork,
    make_cylinder,
    parse_region_spec,
    read_spec,
    region_spec,
)
from dominotwist.tilings import as_cylinder


def test_cell_color_alternates():
    assert cell_color((0, 0)) == 1
    assert cell_color((1, 0)) == -1
    assert cell_color((1, 1)) == 1
    assert cell_color((2, 3, 4, 5)) == 1


def test_box_basics():
    r = make_box((2, 3))
    assert len(r.cells) == 6
    assert r.dim == 2
    # colexicographic labeling: last coordinate most significant
    assert r.cells == ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
    assert r.balanced
    assert sum(r.colors) == 0


def test_box_rejects_bad_dims():
    with pytest.raises(RegionError):
        make_box((0, 2))
    with pytest.raises(RegionError):
        make_box(())


def test_unbalanced_box():
    r = make_box((3, 3))
    assert not r.balanced
    assert sum(r.colors) == 1  # 5 black, 4 white


def test_neighbors_are_adjacent_and_sorted():
    r = make_box((2, 2, 2))
    for i, nbs in enumerate(r.neighbors):
        assert list(nbs) == sorted(nbs)
        for j in nbs:
            a, b = r.cells[i], r.cells[j]
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1
            assert i in r.neighbors[j]


def test_cylinder_layout():
    base = make_box((2, 2))
    r = make_cylinder(base, 3)
    assert r.dim == 3
    assert len(r.cells) == 12
    # floor-major: cell h*B+i sits over base cell i at height h
    for h in range(3):
        for i, c in enumerate(base.cells):
            assert r.cells[h * 4 + i] == c + (h,)
    assert as_cylinder(r) == (base, 3)
    assert as_cylinder(r)[0].spec == "box:2,2"


def test_cylinder_zero_floors():
    r = make_cylinder(make_box((2, 2)), 0)
    assert len(r.cells) == 0
    with pytest.raises(RegionError):
        r.bounding_box  # noqa: B018


def test_cork_removes_plugs():
    base = make_box((2, 2))
    # plug 0b0011 = cells (0,0) and (1,0)
    r = make_cork(base, 2, 0, 0b0011)
    assert len(r.cells) == 8 - 2
    assert (0, 0, 1) not in r.index and (1, 0, 1) not in r.index
    assert (0, 0, 0) in r.index


def test_cork_with_unbalanced_plug_is_unbalanced():
    r = make_cork(make_box((2, 2)), 2, 0, 0b0001)
    assert not r.balanced
    from dominotwist.tilings import count_tilings
    assert count_tilings(r) == 0


def test_cork_zero_floors_needs_empty_plugs():
    r = make_cork(make_box((2, 2)), 0, 0, 0)
    assert len(r.cells) == 0
    with pytest.raises(RegionError):
        make_cork(make_box((2, 2)), 0, 0, 0b0011)


def test_squares_are_unit_squares():
    r = make_box((2, 2, 2))
    assert len(r.squares) > 0
    for a, b, c, d in r.squares:
        # (a,b) and (c,d) opposite edges of a unit square on two axes
        ca, cb, cc, cd = (r.cells[k] for k in (a, b, c, d))
        assert sorted([ca, cb, cc, cd]) == sorted(set([ca, cb, cc, cd]))
        assert sum(abs(x - y) for x, y in zip(ca, cb)) == 1
        assert sum(abs(x - y) for x, y in zip(cc, cd)) == 1
        assert sum(abs(x - y) for x, y in zip(ca, cc)) == 1


def test_spec_roundtrip_box_cyl_cork():
    for spec in ("box:2,2,2", "cyl:2,2xN=3", "cork:2,2xN=2:p0=0x0:pN=0x3"):
        r = parse_region_spec(spec)
        r2 = parse_region_spec(region_spec(r))
        assert r2.cells == r.cells


def test_spec_cells_fallback():
    r = Region(2, [(0, 0), (1, 0)])
    spec = region_spec(r)
    assert spec.startswith("cells:dim=2;")
    assert parse_region_spec(spec).cells == r.cells


def _no_region(*args, **kwargs):
    raise AssertionError("a region was built while reading a spec")


@pytest.mark.parametrize("spec", [
    "box:2,2", "box: 2, 3 ", "box:+2,2,2", "cyl:2,2xN=3", "cyl: 2,+3xN= 0",
    "cork:2,2xN=2:p0=0x0:pN=0x3", "cork:2, 2xN=2:p0=0:pN=3", "cells:dim=2;1,0;0,0",
    "cells:dim=2; 0, +1;"])
def test_read_spec_gives_the_builders_arguments(monkeypatch, spec):
    with monkeypatch.context() as m:
        m.setattr(regions, "Region", _no_region)
        kind, *args = read_spec(spec)
    builders = {"box": make_box, "cells": Region,
                "cyl": lambda dims, n: make_cylinder(make_box(dims), n),
                "cork": lambda dims, *rest: make_cork(make_box(dims), *rest)}
    region = builders[kind](*args)
    assert region == build_spec((kind, *args)) == parse_region_spec(spec)
    assert region_spec(region) == region_spec(parse_region_spec(spec))
    if kind in ("box", "cyl"):
        assert regions.spec_text((kind, *args)) == region_spec(region)


@pytest.mark.parametrize("spec", [
    "box:100000,100000", "cyl:1000,1000xN=1000", "cork:1000,1000xN=1000:p0=0:pN=0",
    "cork:1000,1000xN=0:p0=0:pN=0", "cork:1000,1000xN=1:p0=0:pN=0"])
def test_oversized_spec_is_rejected_before_it_is_built(monkeypatch, spec):
    def small_box(dims):
        assert math.prod(dims) <= regions.MAX_BASE_CELLS, "cork base built before its check"
        return make_box(dims)

    message = "region too large"
    if spec.startswith("cork"):
        monkeypatch.setattr(regions, "make_box", small_box)
        message = "base too large"
    with pytest.raises(RegionError, match=message):
        parse_region_spec(spec)
    # read, the spec lists no cell: the reader refuses a cylinder or cork,
    # and make_box a box before any cell is listed
    monkeypatch.setattr(regions, "Region", _no_region)
    with pytest.raises(RegionError, match=message):
        build_spec(read_spec(spec))


def test_oversized_region_is_rejected_before_it_is_built():
    with pytest.raises(RegionError, match="region too large"):
        make_cylinder(make_box((2, 2)), 10**9)
    with pytest.raises(RegionError, match="region too large"):
        make_cork(make_box((2, 2)), 10**9, 0, 0)


def test_bad_specs_raise(monkeypatch):
    bad_specs = ("box", "box:", "cyl:2,2", "cork:2,2xN=2", "nope:1",
                 "cells:2;0,0", "box:2,a", "box:0,2", "cyl:2,2xN=-1")
    for bad in bad_specs:
        with pytest.raises((RegionError, ValueError)):
            parse_region_spec(bad)
    # the reader refuses each of them without building a region
    monkeypatch.setattr(regions, "Region", _no_region)
    for bad in bad_specs:
        with pytest.raises(RegionError):
            read_spec(bad)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_box_cell_count_and_color_balance(dims):
    r = make_box(dims)
    n = 1
    for d in dims:
        n *= d
    assert len(r.cells) == n
    blacks = sum(1 for c in r.colors if c == 1)
    whites = n - blacks
    assert abs(blacks - whites) == (n % 2)
    assert r.balanced == (n % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
def test_cylinder_spec_roundtrip(w, floors):
    r = make_cylinder(make_box((w, 2)), floors)
    assert parse_region_spec(region_spec(r)).cells == r.cells
