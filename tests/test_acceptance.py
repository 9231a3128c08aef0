"""Frozen end-to-end checks, one test per numbered requirement.

Each `pytest -v` line of this file is the pass/fail record for its
criterion.  Expensive censuses come from session fixtures that record
their own build time, so runtime bounds are asserted on the measured
wall clock without recomputation.
"""

from __future__ import annotations

import resource
from random import Random

import pytest

from dominotwist.kasteleyn import (
    SignSystem,
    defect_by_determinant,
    defect_by_enumeration,
    gauge_twist_comparison,
    twist,
)
from dominotwist.moves import (
    apply_trit,
    connected_with_padding,
    Connectivity,
    concat,
    flip_neighbors_bytes,
    is_flip_pair,
    padded_merge_search,
    trit_sites,
)
from dominotwist.regions import make_box, make_cylinder
from dominotwist.tilings import (
    Tiling,
    count_tilings,
    enumerate_tilings,
    vertical_tiling,
)
from dominotwist.transfer import (
    cylinder_count,
    cylinder_defect,
    enumerate_plugs,
    get_transfer,
    plug_inversions,
    spectral_estimates,
    twist_split,
)

B222 = make_box((2, 2, 2))
B223 = make_box((2, 2, 3))


def test_criterion_01_census_of_the_four_dim_box(census_2222):
    got = census_2222.sizes_twists()
    assert got == [(264, 0)] + [(1, 1)] * 8
    report = census_2222.report
    assert len(report.states) == 272
    assert int((report.twists == 0).sum()) == 264  # every twist-0 tiling
    assert report.components[0].twist == 0         # ...is in the big one
    assert census_2222.elapsed < 1.0


def test_criterion_02_cylinder_censuses_depths_three_and_four(
        census_222_n3, census_222_n4):
    assert census_222_n3.sizes_twists() == [(5985, 0), (180, 1), (180, 1)]
    got4 = census_222_n4.sizes_twists()
    assert got4[:3] == [(143065, 0), (6412, 1), (6412, 1)]
    small = got4[3:]
    assert len(small) == 56
    assert all(size in (1, 2) and tw == 0 for size, tw in small)
    assert census_222_n3.elapsed + census_222_n4.elapsed < 120.0


def test_criterion_03_tall_base_census_depth_three(census_223_n3):
    got = census_223_n3.sizes_twists()
    assert got == [(762572, 0), (99280, 1)] + [(16, 0)] * 16 + [(2, 0)] * 2
    assert census_223_n3.elapsed < 600.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 4 * 1024 * 1024  # under 4 GB for the whole session


def _census_count_defect(tc) -> tuple[int, int]:
    tw = tc.report.twists
    n0 = int((tw == 0).sum())
    n1 = int((tw == 1).sum())
    return n0 + n1, n0 - n1


def test_criterion_04_transfer_agrees_with_enumeration(
        census_222_n3, census_222_n4, census_223_n3):
    by_census = {(B222, 3): census_222_n3, (B222, 4): census_222_n4,
                 (B223, 3): census_223_n3}
    for base, max_n in ((B222, 4), (B223, 3)):
        for n in range(1, max_n + 1):
            r = make_cylinder(base, n)
            tc = by_census.get((base, n))
            if tc is not None:
                count, defect = _census_count_defect(tc)
            else:
                count = count_tilings(r)
                defect = defect_by_enumeration(r)
            assert cylinder_count(base, n) == count
            assert cylinder_defect(base, n) == defect


def test_criterion_05_twist_splits_at_depth():
    import time
    start = time.perf_counter()
    # Exact anchors: these splits reproduce the exhaustive depth-3 and
    # depth-4 censuses digit for digit, and first-order extrapolation
    # from the depth-4 values by the dominant eigenvalue pair predicts
    # 1.119e64 / 1.079e64 for the tall base at depth 30; the rounded
    # 3-significant-figure strings below follow from the exact integers.
    expectations = [
        (B222, 30, "1.05e+41", "7.36e+40"),
        (B222, 50, "5.15e+68", "4.63e+68"),
        (B223, 30, "1.12e+64", "1.08e+64"),
    ]
    for base, n, s0, s1 in expectations:
        z, o = twist_split(base, n)
        assert f"{float(z):.2e}" == s0
        assert f"{float(o):.2e}" == s1
    assert time.perf_counter() - start < 60.0


def _random_balanced_box(rng: Random):
    while True:
        dim = rng.choice((2, 3, 4))
        dims = tuple(rng.randint(1, 4) for _ in range(dim))
        cells = 1
        for d in dims:
            cells *= d
        if cells <= 16 and cells % 2 == 0:
            return make_box(dims)


def test_criterion_06_determinant_equals_signed_enumeration():
    r = make_box((2, 2, 2, 2))
    det = defect_by_determinant(r)
    assert abs(det) == 256
    assert det == defect_by_enumeration(r)
    rng = Random(20260816)
    for _ in range(50):
        box = _random_balanced_box(rng)
        assert defect_by_determinant(box) == defect_by_enumeration(box)


def _assert_flip_edges_twist_equal(tc) -> int:
    rep = tc.report
    twist_of = {rep.state(i): int(x) for i, x in enumerate(rep.twists)}
    squares = rep.region.squares
    half_edges = 0
    for s, tw in twist_of.items():
        for nb in flip_neighbors_bytes(s, squares):
            assert twist_of[nb] == tw
            half_edges += 1
    return half_edges // 2


def test_criterion_07_flips_preserve_twist_trits_toggle_it(
        census_2222, census_222_n3, census_222_n4, census_223_n3):
    edges = 0
    for tc in (census_2222, census_222_n3, census_222_n4, census_223_n3):
        edges += _assert_flip_edges_twist_equal(tc)
    assert edges > 0
    trits = 0
    for dims in ((3, 3, 2), (2, 2, 2, 2), (4, 4, 2)):
        region = make_box(dims)
        for t in enumerate_tilings(region):
            tw = twist(t)
            for site in trit_sites(t):
                assert twist(apply_trit(t, site)) == tw ^ 1
                trits += 1
    assert trits >= 10 ** 3


def test_criterion_08_signed_matrix_symmetry_and_inversion_identity():
    for base in (B222, B223):
        tm = get_transfer(base)
        signed = {}
        for i, row in enumerate(tm.rows_signed):
            for j, v in row:
                signed[(i, j)] = v
        assert signed  # nonempty
        for (i, j), v in signed.items():
            assert signed.get((j, i)) == v
    nb = len(B222.cells) // 2
    plugs = enumerate_plugs(B222)
    pairs = 0
    for p0 in plugs:
        for p1 in plugs:
            if p0 & p1:
                continue
            b0 = bin(p0).count("1") // 2
            b1 = bin(p1).count("1") // 2
            lhs = plug_inversions(B222, p0, p1)[0] + \
                plug_inversions(B222, p1, p0)[0]
            assert lhs == b0 * b1 + (b0 + b1) * (nb - b0 - b1)
            pairs += 1
    assert pairs > 0


def test_criterion_09_gauge_changes_shift_all_signs_together():
    region = make_box((2, 2, 2, 2))
    for seed in range(100):
        system = SignSystem.random_system(region, seed)
        assert system.is_valid()
        rep = gauge_twist_comparison(region, system)
        assert rep.consistent
        assert rep.epsilon in (1, -1)
        assert rep.counterexample is None


def test_criterion_10_spectral_gap_and_growth_rate():
    for base in (B222, B223):
        rep = spectral_estimates(base, tol=1e-14)
        assert rep.lam_tilde < rep.lam
        assert rep.residual <= 1e-9
        assert rep.residual_tilde <= 1e-9
        ratio = cylinder_count(base, 41) / cylinder_count(base, 40)
        assert abs(ratio - rep.lam) <= 0.01 * rep.lam


def test_criterion_11a_small_component_merges_under_padding(census_223_n3):
    rep = census_223_n3.report
    region = rep.region
    base = B223
    nb = len(base.cells)
    # component 0 is the big twist-0 one; components 2.. are the size-16s
    targets = {rep.state(i) for i, c in enumerate(rep.comp_of) if c == 0}
    assert len(targets) == 762572
    sixteen = rep.components[2]
    assert (sixteen.size, sixteen.twist) == (16, 0)
    t16 = Tiling(region, sixteen.representative)
    found_m = None
    path = None
    for m in (2, 4):
        path = padded_merge_search(t16, targets, m)
        if path is not None:
            found_m = m
            break
    assert found_m is not None, "no merge certificate with padding <= 4"
    padded_region = concat(t16, vertical_tiling(base, found_m)).region
    for a, b in zip(path, path[1:]):
        assert is_flip_pair(padded_region, a, b)
    final = path[-1]
    for h in range(3, 3 + found_m, 2):  # padding slab is vertical again
        for i in range(nb):
            assert final[h * nb + i] == (h + 1) * nb + i
    assert final[:3 * nb] in targets


def test_criterion_11b_twist_one_components_stay_apart_under_padding(
        census_222_n3):
    import time
    rep = census_222_n3.report
    ones = [c for c in rep.components if c.twist == 1]
    assert len(ones) == 2
    t0 = Tiling(rep.region, ones[0].representative)
    t1 = Tiling(rep.region, ones[1].representative)
    start = time.perf_counter()
    verdict = connected_with_padding(t0, t1, 2)
    elapsed = time.perf_counter() - start
    assert verdict is Connectivity.DISCONNECTED
    assert elapsed < 900.0


@pytest.mark.extended
def test_criterion_02_extended_depth_five_census():
    import time
    start = time.perf_counter()
    from dominotwist.moves import flip_components
    r = make_cylinder(B222, 5)
    rep = flip_components(r)
    got = [(c.size, c.twist) for c in rep.components]
    assert got == [(3386376, 0), (202224, 1), (202224, 1),
                   (2028, 0), (2028, 0)]
    assert rep.complete
    print(f"depth-5 census in {time.perf_counter() - start:.1f}s")
