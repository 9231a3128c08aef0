"""Regenerate bench/data.json, the pinned answers the benchmark checks.

Run from the repository root:  python3 bench/make_data.py

Every value is computed once, where possible by a method other than the
one the benchmark times:
  - census component lists are the ones frozen in tests/test_acceptance.py
    (the depth-4 list is pinned in full after checking it against the
    test's constraints);
  - small-N cylinder counts and defects come from count_tilings and
    defect_by_determinant on the cylinder region itself;
  - 16-cell bases at N=4 likewise; at N=20 they come from the sparse
    Python-integer engine (build_transfer with a raised plug limit plus
    power_vector), because the matrix-free int64 route overflows there;
  - spectral values come from numpy eigenvalue solvers, not from power
    iteration;
  - everything else (N=300 splits, the few-vertical count, CLI payloads) is
    the answer of the code at the commit that added the benchmark.
Fixed inputs (the padding pair, the fold target path) are pinned as text
so that later changes to enumeration order cannot change the workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dominotwist as dt  # noqa: E402
from dominotwist.transfer import power_vector  # noqa: E402

CENSUS_FROZEN = {
    "box:2,2,2,2": [(264, 0)] + [(1, 1)] * 8,
    "cyl:2,2,2xN=3": [(5985, 0), (180, 1), (180, 1)],
    "cyl:2,2,3xN=3": [(762572, 0), (99280, 1)] + [(16, 0)] * 16 + [(2, 0)] * 2,
}
EXACT_BASES = ("2,2,3", "3,4", "2,5")
LARGE_BASES = ("4,4", "2,2,2,2")


def census() -> dict:
    out = {}
    for spec in ("box:2,2,2,2", "cyl:2,2,2xN=3", "cyl:2,2,2xN=4", "cyl:2,2,3xN=3"):
        rep = dt.flip_components(dt.parse_region_spec(spec))
        got = [(c.size, c.twist) for c in rep.components]
        if spec in CENSUS_FROZEN:
            assert got == CENSUS_FROZEN[spec], spec
        else:  # the depth-4 constraints of test_criterion_02
            assert got[:3] == [(143065, 0), (6412, 1), (6412, 1)]
            assert len(got) == 59
            assert all(s in (1, 2) and t == 0 for s, t in got[3:])
        out[spec] = {"tilings": len(rep.states), "components": got}
    return out


def spectral(base) -> dict:
    tm = dt.get_transfer(base)
    a = np.array(tm.dense_count(), dtype=np.float64)
    at = np.array(tm.dense_signed(), dtype=np.float64)
    return {"lambda": float(max(np.linalg.eigvals(a).real)),
            "lambda_tilde": float(max(abs(np.linalg.eigvalsh(at))))}


def transfer() -> dict:
    out = {"split300": {}, "small": {}, "large": {}, "spectral": {}}
    for dims in EXACT_BASES:
        base = dt.parse_region_spec(f"box:{dims}")
        z, o = dt.twist_split(base, 300)
        out["split300"][dims] = [str(z), str(o)]
        out["small"][dims] = [
            [dt.count_tilings(r), dt.defect_by_determinant(r)]
            for r in (dt.make_cylinder(base, n) for n in (1, 2, 3))]
    b223 = dt.parse_region_spec("box:2,2,3")
    out["few_vertical"] = str(dt.count_with_few_vertical_floors(b223, 40, 3))
    for dims in LARGE_BASES:
        base = dt.parse_region_spec(f"box:{dims}")
        r4 = dt.make_cylinder(base, 4)
        tm = dt.build_transfer(base, max_plugs=1 << 20)
        out["large"][dims] = {
            "4": [str(dt.count_tilings(r4)), str(dt.defect_by_determinant(r4))],
            "20": [str(power_vector(tm.rows_count, 0, 20, tm.size)[0]),
                   str(power_vector(tm.rows_signed, 0, 20, tm.size)[0])],
        }
    for dims in ("2,2,3", "3,4"):
        out["spectral"][dims] = spectral(dt.parse_region_spec(f"box:{dims}"))
    tm = dt.get_transfer(b223)
    out["export_223"] = {"plugs": tm.size, "nnz": list(tm.nnz)}
    return out


def cli() -> dict:
    path34 = dt.box_path((3, 4))
    r3 = dt.parse_region_spec("cyl:2,2,2xN=3")
    rep = dt.flip_components(r3)
    ones = [c for c in rep.components if c.twist == 1]
    r6 = dt.parse_region_spec("cyl:2,2,2xN=6")
    first6 = next(iter(dt.enumerate_tilings(r6)))
    vert6 = dt.vertical_tiling(dt.make_box((2, 2, 2)), 6)
    box666 = dt.parse_region_spec("box:6,6,6")
    return {
        "count": {"box:2,2,2,2": "272",
                  "box:4,4,4": str(dt.count_tilings(dt.parse_region_spec("box:4,4,4"))),
                  "cyl:2,2,3xN=100": str(dt.cylinder_count(dt.make_box((2, 2, 3)), 100))},
        "defect_abs": {"box:6,6,6": str(abs(dt.defect_by_determinant(box666)))},
        "components": {"box:2,2,2,2": CENSUS_FROZEN["box:2,2,2,2"]},
        "spectral": {"2,2,2": spectral(dt.make_box((2, 2, 2)))},
        "export_223": {"plugs": 924, "nnz": list(dt.get_transfer(dt.make_box((2, 2, 3))).nnz)},
        "flux_3,4": [list(d) for d in dt.non_respecting_base_dominoes(path34)],
        "flux_3,4_d1,6": sorted(list(v) for v in dt.flux_set(path34, (1, 6))),
        "generators_3,4": len(dt.generator_set(path34)),
        "padding": [
            {"t0": dt.Tiling(r3, ones[0].representative).to_text(),
             "t1": dt.Tiling(r3, ones[1].representative).to_text(),
             "floors": 2, "connected": False},
            {"t0": vert6.to_text(), "t1": first6.to_text(),
             "floors": 0, "connected": True},
        ],
        "fold_dst_2,2,2": [list(c) for c in dt.box_path((2, 2, 2)).cells],
    }


def main() -> None:
    data = {"census": census(), "transfer": transfer(), "cli": cli()}
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    (ROOT / "bench" / "data.json").write_text(text)
    print(f"wrote bench/data.json ({len(text)} bytes)")


if __name__ == "__main__":
    main()
