from __future__ import annotations

import json
import math
import struct
import zlib
from operator import add

import numpy as np
import pytest

from dominotwist.kasteleyn import defect_by_determinant, defect_by_enumeration, twist
from dominotwist.regions import Region, make_box, make_cork, make_cylinder
from dominotwist.tilings import count_tilings, decompose_floors, enumerate_tilings
from dominotwist.transfer import (
    _CSR,
    _base_tables,
    _parity_table,
    TransferError,
    TransferMatrices,
    build_transfer,
    cork_count,
    count_with_few_vertical_floors,
    cylinder_count,
    cylinder_defect,
    enumerate_plugs,
    floor_subregion,
    floor_tilings,
    floor_twist,
    get_transfer,
    load_transfer_cache,
    plug_inversions,
    power_vector,
    save_transfer_cache,
    signed_floor_sum,
    signed_floor_sum_by_enumeration,
    spectral_estimates,
    transfer_to_json_obj,
    twist_split,
)

B222 = make_box((2, 2, 2))
B223 = make_box((2, 2, 3))


def test_enumerate_plugs_counts():
    assert len(enumerate_plugs(make_box((2, 2)))) == 6  # sum C(2,k)^2
    assert len(enumerate_plugs(B222)) == 70  # sum C(4,k)^2
    assert len(enumerate_plugs(B223)) == 924  # sum C(6,k)^2


def test_plugs_sorted_and_balanced():
    plugs = enumerate_plugs(B222)
    assert plugs == sorted(plugs)
    assert plugs[0] == 0
    blacks = sum(1 << i for i in B222.black_cells)
    for p in plugs:
        assert bin(p & blacks).count("1") * 2 == bin(p).count("1")


def test_floor_tilings_match_entries():
    tm = get_transfer(B222)
    plugs = tm.plugs
    for i in (0, 1, 7, 35):
        for j in (0, 2, 11, 69):
            fts = floor_tilings(B222, plugs[i], plugs[j])
            assert len(fts) == tm.entry_count(plugs[i], plugs[j])


def test_entry_zero_when_plugs_overlap():
    tm = get_transfer(B222)
    p = tm.plugs[1]
    assert tm.entry_count(p, p) == 0
    assert tm.entry_signed(p, p) == 0
    assert floor_tilings(B222, p, p) == []


def test_signed_floor_sum_matches_enumeration():
    # both mask tables come from one expansion of K; on every mask, the count
    # table against the enumerator and the signed table against the floor twist
    for base in (B222, make_box((2, 3)), RING):
        tables = _base_tables(base)
        for mask in range(1 << len(base.cells)):
            assert tables.count_table[mask] == count_tilings(floor_subregion(base, mask)), bin(mask)
            assert signed_floor_sum(base, mask) == \
                signed_floor_sum_by_enumeration(base, mask), bin(mask)


def test_transfer_count_small_cylinders():
    for n in range(5):
        direct = count_tilings(make_cylinder(B222, n))
        assert cylinder_count(B222, n) == direct, n


def test_transfer_matches_frozen_cylinder_counts():
    assert cylinder_count(B222, 2) == 272
    assert cylinder_count(B222, 3) == 6345
    assert cylinder_count(B223, 3) == 862112


def test_defect_transfer_vs_enumeration():
    for n in range(4):
        r = make_cylinder(B222, n)
        assert cylinder_defect(B222, n) == defect_by_enumeration(r), n


def test_cylinder_count_rejects_negative():
    for call in (lambda: cylinder_count(B222, -1),
                 lambda: count_with_few_vertical_floors(B222, -1, 3),
                 lambda: count_with_few_vertical_floors(B222, -1, 0),
                 lambda: cork_count(B222, -2, 0, 0)):
        with pytest.raises(TransferError, match="floor count"):
            call()


def test_twist_split_identities():
    for base, n in ((B222, 3), (B222, 4), (B223, 2)):
        t0, t1 = twist_split(base, n)
        assert t0 + t1 == cylinder_count(base, n)
        assert t0 - t1 == cylinder_defect(base, n)
        assert t0 >= 0 and t1 >= 0


def test_twist_split_2222():
    t0, t1 = twist_split(B222, 2)
    assert (t0, t1) == (264, 8)


def test_atilde_symmetric():
    # CSR.step computes M v, which is a row of M^N only for symmetric M:
    # A, At and both parts of A split by vertical floors must be symmetric
    for base in (B222, B223):
        tm = get_transfer(base)
        plugs = np.array(tm.plugs)
        vertical = (plugs[:, None] | plugs[None, :]) == (1 << len(base.cells)) - 1
        a = tm.dense_count()
        for m in (a, tm.dense_signed(), np.where(vertical, 0, a), np.where(vertical, a, 0)):
            assert m.any()
            assert np.array_equal(m, m.T)


def test_parity_table_matches_plug_inversions():
    # the one cached table per label count k, looked up by both colors'
    # projections, gives the parity of the exact scalar counts
    for base in (B222, B223):
        tables = _base_tables(base)
        k, par = tables.k, _parity_table(tables.k)
        for i, p0 in enumerate(tables.plugs):
            cols = np.flatnonzero((tables.plugs_np & p0) == 0)
            got = zip(par[(tables.bproj[i] << k) | tables.bproj[cols]].tolist(),
                      par[(tables.wproj[i] << k) | tables.wproj[cols]].tolist())
            want = [tuple(inv % 2 for inv in plug_inversions(base, p0, tables.plugs[j]))
                    for j in cols.tolist()]
            assert list(got) == want


def test_plug_inversions_identity_disjoint_pairs():
    # inv counts swap-symmetrize to a pure cardinality formula on
    # disjoint plug pairs
    base = make_box((2, 2))
    plugs = enumerate_plugs(base)
    nb = len(base.cells) // 2
    for p0 in plugs:
        for p1 in plugs:
            if p0 & p1:
                continue
            b0 = bin(p0).count("1") // 2
            b1 = bin(p1).count("1") // 2
            lhs = plug_inversions(base, p0, p1)[0] + \
                plug_inversions(base, p1, p0)[0]
            assert lhs == b0 * b1 + (b0 + b1) * (nb - b0 - b1)


def test_floor_twist_sums_to_global_twist():
    # the per-floor twist bookkeeping must add up to the tiling's twist
    r = make_cylinder(B222, 2)
    for t in enumerate_tilings(r):
        fd = decompose_floors(t)
        total = 0
        for k in range(fd.floors):
            sub = [(i, j) for i, j in fd.floor_pairs[k]]
            f = _floor_tiling_of(B222, fd.plugs[k], fd.plugs[k + 1], sub)
            total ^= floor_twist(B222, fd.plugs[k], fd.plugs[k + 1], f)
        assert total == twist(t)


def _floor_tiling_of(base, p0, p1, pairs):
    from dominotwist.tilings import Tiling
    from dominotwist.transfer import floor_subregion
    full = (1 << len(base.cells)) - 1
    sub = floor_subregion(base, full & ~(p0 | p1))
    return Tiling.from_dominoes(
        sub, [(base.cells[i], base.cells[j]) for i, j in pairs])


def test_power_vector_matches_dense_power():
    tm = get_transfer(make_box((2, 2)))
    a = np.array(tm.dense_count(), dtype=object)
    vec = power_vector(tm.rows_count, 0, 3, tm.size)
    expect = np.linalg.matrix_power(a, 3)[0]
    assert list(vec) == list(expect)


def test_transfer_matrix_api():
    # the calls bench/make_data.py and bench/wl_transfer.py make
    tm = get_transfer(B222)
    assert build_transfer(B222) is tm
    assert power_vector(tm.rows_count, 0, 3, tm.size)[0] == 6345
    with pytest.raises(TransferError):
        power_vector(tm.rows_count, 0, 3, tm.size + 1)
    for dense, rows, nnz in ((tm.dense_count(), tm.rows_count, tm.nnz[0]),
                             (tm.dense_signed(), tm.rows_signed, tm.nnz[1])):
        a = np.array(dense, dtype=np.float64)
        assert a.shape == (70, 70) and np.count_nonzero(a) == nnz == rows.nnz
        pairs = [(i, j, v) for i, row in enumerate(rows) for j, v in row]
        assert len(pairs) == nnz
        assert all(type(j) is int and type(v) is int and a[i, j] == v for i, j, v in pairs)
    assert tm.nnz == (559, 551)


def test_cork_count_matches_enumeration():
    base = make_box((2, 2))
    plugs = enumerate_plugs(base)
    for p_top in plugs:
        for floors in (1, 2, 3):
            if floors == 1 and p_top:
                continue
            r = make_cork(base, floors, 0, p_top)
            assert cork_count(base, floors, 0, p_top) == count_tilings(r), \
                (floors, p_top)


def test_count_with_few_vertical_floors():
    # strictly fewer than `bound` floors may have their plugs cover the
    # whole base; bound 0 is vacuous, bound > floors is the full count
    assert count_with_few_vertical_floors(B222, 3, 0) == 0
    full3 = cylinder_count(B222, 3)
    assert count_with_few_vertical_floors(B222, 3, 4) == full3
    no_vert = count_with_few_vertical_floors(B222, 3, 1)
    assert 9 ** 3 <= no_vert < full3
    # at N=2 the all-vertical tiling is the unique one with a vertical
    # floor (and it has two of them)
    full2 = cylinder_count(B222, 2)
    assert count_with_few_vertical_floors(B222, 2, 1) == full2 - 1
    assert count_with_few_vertical_floors(B222, 2, 2) == full2 - 1
    assert count_with_few_vertical_floors(B222, 2, 3) == full2


@pytest.mark.parametrize("base, max_floors", [(B222, 4), (make_box((2, 3)), 5)],
                         ids=["2,2,2", "2,3"])
def test_few_vertical_floors_match_enumeration(base, max_floors):
    # bucket every tiling of base x [0, N] by its vertical floors (both
    # plugs cover the base), against the lumped A-sharp layers
    full = (1 << len(base.cells)) - 1
    for n in range(max_floors + 1):
        by_vertical = [0] * (n + 1)
        for t in enumerate_tilings(make_cylinder(base, n)):
            p = decompose_floors(t).plugs
            by_vertical[sum(p[k] | p[k + 1] == full for k in range(n))] += 1
        for bound in range(n + 2):
            want = sum(by_vertical[:bound])
            assert count_with_few_vertical_floors(base, n, bound) == want, (n, bound)


def test_spectral_estimates_values():
    lam, lam_tilde, ratio = spectral_estimates(B222, tol=1e-12)
    assert math.isclose(lam, 24.373194549258, rel_tol=1e-9)
    assert math.isclose(lam_tilde, 22.956439237389, rel_tol=1e-9)
    assert lam_tilde < lam
    assert math.isclose(ratio, lam_tilde / lam, rel_tol=1e-12)


def test_spectral_iterates_on_the_sparse_matrices(monkeypatch):
    def no_dense(self):
        raise AssertionError("spectral_estimates made a dense copy")

    monkeypatch.setattr(_CSR, "dense", no_dense)
    rep = spectral_estimates(B222, tol=1e-12)
    assert math.isclose(rep.lam, 24.373194549258, rel_tol=1e-9)
    assert math.isclose(rep.lam_tilde, 22.956439237389, rel_tol=1e-9)
    assert (rep.iterations, rep.iterations_tilde) == (19, 11)


def test_spectral_refuses_a_gap_within_the_residuals():
    # every tiling of 2x2xN has twist 0, so lambda = lambda_tilde = 2 + sqrt(3)
    with pytest.raises(TransferError, match="cannot separate"):
        spectral_estimates(make_box((2, 2)), tol=1e-12)


def test_spectral_growth_matches_lambda():
    lam = spectral_estimates(B222, tol=1e-12).lam
    c20, c21 = cylinder_count(B222, 20), cylinder_count(B222, 21)
    assert abs(c21 / c20 - lam) / lam < 1e-3


def test_transfer_json_export_shape():
    tm = get_transfer(make_box((2, 2)))
    obj = transfer_to_json_obj(tm)
    assert obj["version"] == 1
    assert obj["base"] == "box:2,2"
    assert len(obj["plugs"]) == 6 == len(obj["A"]) == len(obj["Atilde"])
    assert obj["A"][0][0] == 2  # one floor of the bare base: two tilings


def test_cache_roundtrip(tmp_path):
    tm = get_transfer(B222)
    path = str(tmp_path / "b222.dtrc")
    save_transfer_cache(tm, path)
    back = load_transfer_cache(path)
    assert isinstance(back, TransferMatrices)
    assert back.plugs == tm.plugs
    assert np.array_equal(back.dense_count(), tm.dense_count())
    assert np.array_equal(back.dense_signed(), tm.dense_signed())


def test_cache_rejects_wrong_base(tmp_path):
    tm = get_transfer(B222)
    path = str(tmp_path / "b222.dtrc")
    save_transfer_cache(tm, path)
    with pytest.raises(TransferError):
        load_transfer_cache(path, base=B223)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.dtrc"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(TransferError):
        load_transfer_cache(str(path))


def _edit_cache_body(raw: bytes, edit) -> bytes:
    """The cache with its body rewritten by edit(body, offset of the plug list,
    plug count)."""
    body = zlib.decompress(raw[8:])
    hlen = struct.unpack_from("<I", body)[0]
    n = json.loads(body[4:4 + hlen])["plugs"]
    return raw[:8] + zlib.compress(edit(body, 4 + hlen, n))


def _foreign_plugs(body: bytes, off: int, n: int) -> bytes:
    # plugs 1 and 2 become masks that are no plugs of the base
    return body[:off + 8] + struct.pack("<2q", 999, 12345) + body[off + 24:]


def _repeated_entry(body: bytes, off: int, n: int) -> bytes:
    # the first count triple twice, and the entry count raised by one
    off += 8 * n
    count = struct.unpack_from("<q", body, off)[0]
    first = body[off + 8:off + 24]
    return body[:off] + struct.pack("<q", count + 1) + first + body[off + 8:]


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:len(raw) // 2],
    lambda raw: raw[:8] + b"\x78\x9c" + b"\xff" * (len(raw) - 10),
    lambda raw: raw[:4],
    lambda raw: raw[:8] + zlib.compress(zlib.decompress(raw[8:]) + bytes(40)),
    lambda raw: _edit_cache_body(raw, _foreign_plugs),
    lambda raw: _edit_cache_body(raw, _repeated_entry),
], ids=["half-length", "bad-zlib-body", "four-bytes", "trailing-bytes", "foreign-plugs",
        "repeated-entry"])
def test_cache_rejects_corrupt_file(tmp_path, corrupt):
    path = tmp_path / "b222.dtrc"
    save_transfer_cache(get_transfer(B222), str(path))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(TransferError):
        load_transfer_cache(str(path))


def test_build_transfer_plug_cap():
    with pytest.raises(TransferError, match="cylinder_count and cylinder_defect need no matrix"):
        build_transfer(B223, max_plugs=10)


@pytest.mark.extended
def test_large_base_matrix_free_route():
    # 3x3x2 base: 48620 plugs, too many for build_transfer's matrices; the
    # lumped count and the block-recursion defect must agree with direct
    # enumeration at one and two floors
    base = make_box((3, 3, 2))
    for floors in (1, 2):
        r = make_cylinder(base, floors)
        assert cylinder_count(base, floors) == count_tilings(r)
        assert cylinder_defect(base, floors) == defect_by_enumeration(r)


# ------------------------------------------------ lumped symmetry-orbit engine

LUMP_BASES = [(2, 2, 2), (2, 3), (2, 5), (2, 2, 3), (3, 4)]
RING = Region(2, [c for c in np.ndindex(3, 3) if c != (1, 1)])  # 3x3 minus its centre
SMALL_BASES = [make_box(dims) for dims in LUMP_BASES] + [RING]
SMALL_IDS = [",".join(map(str, dims)) for dims in LUMP_BASES] + ["ring"]


@pytest.mark.parametrize("base", SMALL_BASES, ids=SMALL_IDS)
def test_lumped_power_matches_unlumped(base):
    tm = get_transfer(base)
    tables = _base_tables(base)
    assert tables.reps[0] == 0 and len(tables.reps) < tm.size
    vec = power_vector(tm.rows_count, 0, 0, tm.size)
    for n in range(21):
        assert tables.lumped.power(0, n) == [vec[r] for r in tables.reps.tolist()], n
        vec = tm.rows_count.step(vec)


def test_orbit_counts():
    # plug orbits under the base symmetries
    for dims, orbits in (((2, 2, 2, 2), 93), ((2, 2, 3), 95), ((3, 4), 274), ((2, 5), 82)):
        assert len(_base_tables(make_box(dims)).reps) == orbits


@pytest.mark.parametrize("base", [B222, make_box((2, 3)), B223, make_box((3, 4)), RING],
                         ids=["2,2,2", "2,3", "2,2,3", "3,4", "ring"])
def test_vertical_floors_are_the_complement_map(base):
    # in row p of A the only column q with p | q full is ~p, with entry 1:
    # the vertical part of A is a permutation, which count_with_few_vertical_floors
    # subtracts from the lumped A
    tm = get_transfer(base)
    full = (1 << len(base.cells)) - 1
    for p, row in zip(tm.plugs, tm.rows_count):
        assert [(tm.plugs[j], v) for j, v in row if p | tm.plugs[j] == full] == [(full ^ p, 1)]


def reference_few_vertical(base, max_floors: int, max_bound: int) -> list[list[int]]:
    """counts[n][b]: tilings of base x [0, n] with fewer than b vertical
    floors, from the unlumped rows of A split by p | q = full into a sharp
    and a vertical matrix, layer m holding the tilings with m vertical floors."""
    tm = get_transfer(base)
    a, plugs = tm.rows_count, np.array(tm.plugs)
    rows = a.row_ids()
    vertical = (plugs[rows] | plugs[a.cols]) == (1 << len(base.cells)) - 1

    def part(keep):
        indptr = np.cumsum(np.bincount(rows[keep] + 1, minlength=a.size + 1))
        return _CSR(indptr, a.cols[keep], a.vals[keep])

    sharp, vert = part(~vertical), part(vertical)
    layers = [[0] * a.size for _ in range(max_bound)]
    layers[0][0] = 1
    counts = []
    for _ in range(max_floors + 1):
        counts.append([sum(layer[0] for layer in layers[:b]) for b in range(max_bound + 1)])
        layers = [sharp.step(layers[0])] + [list(map(add, sharp.step(layer), vert.step(below)))
                                            for below, layer in zip(layers, layers[1:])]
    return counts


@pytest.mark.parametrize("base", [B223, make_box((3, 4)), make_box((2, 5)), RING],
                         ids=["2,2,3", "3,4", "2,5", "ring"])
def test_few_vertical_floors_match_unlumped_split(base):
    for n, want in enumerate(reference_few_vertical(base, 12, 4)):
        assert [count_with_few_vertical_floors(base, n, b) for b in range(5)] == want, n


# ------------------------------------------------ block-tridiagonal defects

@pytest.mark.parametrize("base", SMALL_BASES, ids=SMALL_IDS)
def test_block_defect_matches_signed_power(base):
    # 2,3 and 2,5 have an odd number k of cells of each colour, where the
    # sign (-1)^(k N(N+1)/2) of the closing determinant is not always +1
    tm = get_transfer(base)
    vec = power_vector(tm.rows_signed, 0, 0, tm.size)
    for n in range(21):
        assert cylinder_defect(base, n) == vec[0], n
        vec = tm.rows_signed.step(vec)


@pytest.mark.parametrize("dims", [(3, 3, 4), (4, 4, 4), (2, 2, 2, 4)],
                         ids=lambda d: ",".join(map(str, d)))
def test_block_defect_beyond_plug_bases(dims):
    # 36, 64 and 32 base cells: more than plug enumeration allows
    base = make_box(dims)
    assert cylinder_defect(base, 0) == 1
    for n in (1, 2):
        assert cylinder_defect(base, n) == defect_by_determinant(make_cylinder(base, n))


def test_block_defect_rejects_bad_input():
    with pytest.raises(TransferError):
        cylinder_defect(make_box((3, 3)), 2)  # unbalanced
    with pytest.raises(TransferError):
        cylinder_defect(B222, -1)


def test_sixteen_cell_bases_at_depth_twenty():
    # 173 to 212 bits: beyond any fixed-width route
    pinned = {
        (4, 4): (7809135024054862596779790263077462459250128764587008,
                 712394554679299792691281753190200513916103608555776),
        (2, 2, 2, 2): (4749750003675681573864071440383157204159007090777755443968203905,
                       4942596858422239177105908253573700114286151958973125625390625),
    }
    for dims, (count, defect) in pinned.items():
        base = make_box(dims)
        assert cylinder_count(base, 20) == count
        assert cylinder_defect(base, 20) == defect


def test_one_floor_over_4x4_matches_oracles():
    base = make_box((4, 4))
    region = make_cylinder(base, 1)
    assert cylinder_count(base, 1) == count_tilings(region) == 36
    assert cylinder_defect(base, 1) == defect_by_determinant(region)


@pytest.mark.parametrize("mask", [-1, 256], ids=["negative", "too-large"])
def test_signed_floor_sum_rejects_mask_out_of_range(mask):
    with pytest.raises(TransferError):
        signed_floor_sum(B222, mask)
    with pytest.raises(TransferError):
        signed_floor_sum_by_enumeration(B222, mask)
