from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import zlib
from decimal import Decimal
from pathlib import Path

import pytest

from dominotwist.cli import main, render_tiling
from dominotwist.kasteleyn import twist
from dominotwist.moves import flip_neighbors
from dominotwist.regions import Region, make_box, make_cylinder, parse_region_spec
from dominotwist.tilings import Tiling, enumerate_tilings, tiling_from_text, vertical_tiling
from dominotwist.transfer import (cylinder_count, get_transfer, load_transfer_cache,
                                  transfer_to_json_obj)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv: list[str]) -> tuple[int, dict]:
    code, out, _ = run_cli(argv + ["--json"])
    return code, json.loads(out)


def test_count_box_enumeration():
    code, obj = run_json(["count", "--region", "box:2,2,2"])
    assert code == 0
    assert obj["status"] == "ok"
    assert obj["region"] == "box:2,2,2"
    assert obj["payload"] == {"count": 9, "method": "enum"}


def test_count_cylinder_auto_routes_to_transfer():
    code, obj = run_json(["count", "--region", "cyl:2,2xN=3"])
    assert code == 0
    assert obj["payload"] == {"count": 32, "method": "transfer"}
    code, obj = run_json(["count", "--region", "cyl:2,2xN=3",
                          "--method", "enum"])
    assert obj["payload"] == {"count": 32, "method": "enum"}


def test_count_transfer_needs_cylinder():
    code, obj = run_json(["count", "--region", "box:2,2",
                          "--method", "transfer"])
    assert code == 1
    assert obj["status"] == "error"
    assert "cyl" in obj["payload"]["message"]


def test_cylinder_over_unbalanced_base_auto_routes():
    # 3x3 has five cells of one colour and four of the other: the plug and
    # block engines need a balanced base, but the cylinder is balanced at
    # even depth and has tilings
    code, obj = run_json(["count", "--region", "cyl:3,3xN=2"])
    assert (code, obj["payload"]) == (0, {"count": 229, "method": "enum"})
    code, obj = run_json(["defect", "--region", "cyl:3,3xN=2"])
    assert (code, obj["payload"]["method"], obj["payload"]["abs"]) == (0, "det", 225)
    code, obj = run_json(["count", "--region", "cyl:3,3xN=1"])
    assert (code, obj["payload"]) == (0, {"count": 0, "method": "enum"})


def test_cork_is_not_counted_as_its_cylinder():
    # the cork lacks two bottom cells of cyl:2,2xN=3, whose count is 32
    cork = "cork:2,2xN=3:p0=0x3:pN=0x0"
    for method in ("auto", "enum"):
        code, obj = run_json(["count", "--region", cork, "--method", method])
        assert (code, obj["payload"]["count"]) == (0, 12), method
    for method in ("auto", "det", "enum"):
        code, obj = run_json(["defect", "--region", cork, "--method", method])
        assert (code, obj["payload"]["defect"]) == (0, 12), method
    for command in ("count", "defect"):
        code, obj = run_json([command, "--region", cork, "--method", "transfer"])
        assert (code, obj["status"]) == (1, "error")
        assert obj["payload"]["message"] == "transfer method needs a cyl: region"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_count_prints_integers_past_the_digit_limit(as_json):
    # 6,864 digits: beyond the interpreter's default int-to-str limit of
    # 4,300, which Decimal does not apply
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(["count", "--region", "cyl:2,2xN=12000"]
                             + ["--json"] * as_json)
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    value = (json.loads(out, parse_int=Decimal)["payload"]["count"] if as_json
             else Decimal(out.split("count: ")[1].split()[0]))
    assert len(str(value)) > 4300
    assert value == cylinder_count(make_box((2, 2)), 12000)


def test_components_complete():
    code, obj = run_json(["components", "--region", "box:2,2,2"])
    assert code == 0
    p = obj["payload"]
    assert p["component_count"] == 1
    assert p["complete"] is True
    assert p["visited"] == 9
    assert p["flip_edges"] == 12
    assert p["components"][0]["size"] == 9
    assert p["components"][0]["twist"] == 0


def test_negative_budget_is_error(tmp_path):
    t = vertical_tiling(make_box((2, 2)), 2)
    f = tmp_path / "t.txt"
    f.write_text(t.to_text())
    code, obj = run_json(["padding", "--t0", str(f), "--t1", str(f),
                          "--floors", "2", "--budget", "-5"])
    assert (code, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == "budget must be non-negative"


def test_twist_of_file(tmp_path):
    t = vertical_tiling(make_box((2, 2)), 2)
    f = tmp_path / "t.txt"
    f.write_text(t.to_text())
    code, obj = run_json(["twist", "--tiling", str(f)])
    assert code == 0
    assert obj["payload"] == {"twist": 0}
    # JSON serialization is accepted too
    g = tmp_path / "t.json"
    g.write_text(json.dumps(t.to_json_obj()))
    code, obj = run_json(["twist", "--tiling", str(g)])
    assert obj["payload"] == {"twist": 0}


def test_defect_methods_agree():
    code, obj = run_json(["defect", "--region", "box:2,2,2,2"])
    assert code == 0
    det = obj["payload"]
    assert det["method"] == "det"
    assert det["abs"] == 256
    code, obj = run_json(["defect", "--region", "box:2,2,2,2",
                          "--method", "enum"])
    assert obj["payload"]["abs"] == 256
    code, obj = run_json(["defect", "--region", "cyl:2,2,2xN=2",
                          "--method", "transfer"])
    assert obj["payload"]["method"] == "transfer"
    assert obj["payload"]["abs"] == 256


def test_transfer_export_files(tmp_path):
    out = tmp_path / "m.json"
    cache = tmp_path / "m.dtrc"
    code, obj = run_json(["transfer-export", "--base", "box:2,2",
                          "--out", str(out), "--binary", str(cache)])
    assert code == 0
    p = obj["payload"]
    assert p["plugs"] == 6
    assert p["nnz_count"] > 0
    data = json.loads(out.read_text())
    assert data["base"] == "box:2,2"
    assert len(data["A"]) == 6 and len(data["A"][0]) == 6
    assert data["A"][0][0] == 2  # two pure-floor tilings over the empty plug
    base = make_box((2, 2))
    tm = get_transfer(base)
    loaded = load_transfer_cache(str(cache), base)
    assert loaded.plugs.tolist() == tm.plugs.tolist()
    assert list(loaded.rows_count) == list(tm.rows_count)
    assert list(loaded.rows_signed) == list(tm.rows_signed)


@pytest.mark.parametrize("spec, json_sha, cache_sha", [
    ("box:2,2,2", "bc29d9df3cb778a5716614c6ef371f2c5207ff3083c55875fd25f450edd7c4d4",
     "8dbd65b487d054eb851b43bc0e27769057e5d8a4c49ea6362e2b4c596bb76a05"),
    ("box:2,2,3", "48a5bbaf2bda6cfbbf36cfb1f8c03f6a40398593f496b7919d282a3fd4bd03eb",
     "698654d61e40b49905f7987f345096d46a1e993588b6f67f05dc601f5807c35c"),
], ids=["2,2,2", "2,2,3"])
def test_transfer_export_bytes_are_pinned(tmp_path, spec, json_sha, cache_sha):
    # the JSON export and the version-1 cache, byte for byte, of a 70-plug
    # and a 924-plug base; the cache is pinned through its decompressed
    # body, since the compressed bytes belong to the zlib build
    out, cache = tmp_path / "m.json", tmp_path / "m.dtrc"
    code, _ = run_json(["transfer-export", "--base", spec,
                        "--out", str(out), "--binary", str(cache)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha
    raw = cache.read_bytes()
    body = zlib.decompress(raw[8:])
    assert raw == raw[:8] + zlib.compress(body, 6)
    assert hashlib.sha256(raw[:8] + body).hexdigest() == cache_sha


@pytest.mark.parametrize("spec", ["box:2,2,3", "box:3,4", "box:2,5"])
def test_transfer_export_streams_the_json_object(tmp_path, spec):
    # the file is written a row at a time, and reads byte for byte as the
    # compact dump of transfer_to_json_obj, whose rows are those of the
    # dense matrices
    out = tmp_path / "m.json"
    code, _ = run_json(["transfer-export", "--base", spec, "--out", str(out)])
    assert code == 0
    tm = get_transfer(parse_region_spec(spec))
    obj = transfer_to_json_obj(tm)
    assert obj["A"] == tm.dense_count().tolist()
    assert obj["Atilde"] == tm.dense_signed().tolist()
    assert out.read_text() == json.dumps(obj, separators=(",", ":")) + "\n"


def test_spectral_payload():
    code, obj = run_json(["spectral", "--base", "box:2,2,2",
                          "--tol", "1e-12"])
    assert code == 0
    p = obj["payload"]
    assert p["lambda"] == pytest.approx(24.373194549, abs=1e-6)
    assert p["lambda_tilde"] == pytest.approx(22.956439237, abs=1e-6)
    assert p["lambda_tilde"] < p["lambda"]
    assert p["ratio"] == pytest.approx(p["lambda_tilde"] / p["lambda"])
    # convergence is relative to max(1, lambda)
    assert p["residual"] <= 1e-12 * max(1.0, p["lambda"])
    assert p["residual_tilde"] <= 1e-12 * max(1.0, p["lambda_tilde"] ** 2)


def test_spectral_without_a_certain_gap_is_an_error():
    code, obj = run_json(["spectral", "--base", "box:2,2"])
    assert code == 1
    assert obj["status"] == "error"
    assert "cannot separate" in obj["payload"]["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
def test_spectral_rejects_bad_tol_before_building(monkeypatch, tol):
    # a tolerance that can never be met used to run all 200,000 power
    # iterations before it failed
    def refuse(base):
        raise AssertionError("built a transfer matrix for a bad tol")

    monkeypatch.setattr("dominotwist.transfer.build_transfer", refuse)
    code, out, err = run_cli(["spectral", "--base", "box:2,2", "--tol", tol, "--json"])
    assert code == 1
    assert len(out.splitlines()) == 1
    obj = json.loads(out)
    assert obj["status"] == "error"
    assert obj["payload"]["message"] == "tol must be a positive finite number"
    assert obj["timing"] < 1.0
    assert "Traceback" not in err


def _write_tiling(tmp_path, name: str, t: Tiling) -> str:
    f = tmp_path / name
    f.write_text(t.to_text())
    return str(f)


def test_padding_connected_and_indeterminate(tmp_path):
    r = make_cylinder(make_box((2, 2)), 2)
    t0 = vertical_tiling(make_box((2, 2)), 2)
    t1 = Tiling.from_dominoes(r, [
        ((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 1)), ((0, 1, 1), (1, 1, 1)),
    ])
    f0 = _write_tiling(tmp_path, "t0.txt", t0)
    f1 = _write_tiling(tmp_path, "t1.txt", t1)
    code, obj = run_json(["padding", "--t0", f0, "--t1", f1, "--floors", "2"])
    assert code == 0
    assert obj["payload"]["connected"] is True
    code, obj = run_json(["padding", "--t0", f0, "--t1", f1, "--floors", "2",
                          "--budget", "1"])
    assert code == 2
    assert obj["status"] == "indeterminate"
    assert obj["payload"]["connected"] is None


def test_padding_past_255_cells_is_error(tmp_path):
    # 256 cells, one more than byte packing takes: box:2,2,2,2 plus a
    # 240-cell tail (not a cylinder), and cyl:2,2,2xN=32
    tail = [(x, 0, 0, 0) for x in range(2, 242)]
    region = Region(4, list(make_box((2, 2, 2, 2)).cells) + tail)
    tailed = [t for t in itertools.islice(enumerate_tilings(region), 20) if twist(t) == 0][:2]
    tall = vertical_tiling(make_box((2, 2, 2)), 32)
    messages = []
    for k, (t0, t1) in enumerate((tailed, (tall, flip_neighbors(tall)[0]))):
        f0 = _write_tiling(tmp_path, f"t0_{k}.txt", t0)
        f1 = _write_tiling(tmp_path, f"t1_{k}.txt", t1)
        code, obj = run_json(["padding", "--t0", f0, "--t1", f1, "--floors", "0"])
        assert code == 1
        assert obj["status"] == "error"
        messages.append(obj["payload"]["message"])
    assert all("byte packing" in m for m in messages)


def test_padding_zero_floors_on_a_non_cylinder(tmp_path):
    tail = [(x, 0, 0, 0) for x in range(2, 12)]
    region = Region(4, list(make_box((2, 2, 2, 2)).cells) + tail)
    t0, t1 = [t for t in itertools.islice(enumerate_tilings(region), 20) if twist(t) == 0][:2]
    f0 = _write_tiling(tmp_path, "t0.txt", t0)
    f1 = _write_tiling(tmp_path, "t1.txt", t1)
    code, obj = run_json(["padding", "--t0", f0, "--t1", f1, "--floors", "0"])
    assert code == 0
    assert obj["payload"]["connected"] is True


def test_generators_inline_and_files(tmp_path):
    code, obj = run_json(["generators", "--base", "box:2,3"])
    assert code == 0
    p = obj["payload"]
    assert p["generator_count"] == 6
    for entry in p["generators"]:
        t = tiling_from_text(entry["tiling"])
        t.validate()
        assert entry["twist"] in (0, 1)
    out_dir = tmp_path / "gens"
    code, obj = run_json(["generators", "--base", "box:2,3",
                          "--out", str(out_dir)])
    assert code == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert len(files) == 6
    assert files[0] == "gen_000_d1-4.txt"
    for entry in obj["payload"]["generators"]:
        t = tiling_from_text((out_dir / entry["file"]).read_text())
        t.validate()


def test_flux_modes():
    code, obj = run_json(["flux", "--base", "box:2,3"])
    assert code == 0
    assert obj["payload"] == {"non_respecting_dominoes": [[1, 4], [3, 6]]}
    code, obj = run_json(["flux", "--base", "box:2,3", "--d", "1,4"])
    assert obj["payload"] == {
        "d": [1, 4],
        "flux_set": [[0, -1, 1], [0, 0, 0], [0, 1, -1]],
    }
    code, obj = run_json(["flux", "--base", "box:2,3", "--d", "1,4",
                          "--plug", "0"])
    assert obj["payload"] == {"d": [1, 4], "plug": 0, "flux": [0, 0, 0]}
    code, obj = run_json(["flux", "--base", "box:2,3", "--d", "1"])
    assert (code, obj["status"], obj["region"]) == (1, "error", "box:2,3")
    assert obj["payload"]["message"] == "--d wants two path positions 'i,j'"


def test_fold_roundtrip_and_failure(tmp_path):
    strip = vertical_tiling(make_box((4,)), 2)
    f = _write_tiling(tmp_path, "strip.txt", strip)
    out = tmp_path / "folded.txt"
    code, obj = run_json(["fold", "--tiling", f, "--src", "box:4",
                          "--dst", "box:2,2", "--out", str(out)])
    assert code == 0
    assert obj["payload"]["region"] == "cyl:2,2xN=2"
    folded = tiling_from_text(out.read_text())
    folded.validate()
    # and back
    back = tmp_path / "back.txt"
    code, obj = run_json(["fold", "--tiling", str(out), "--src", "box:2,2",
                          "--dst", "box:4", "--unfold", "--out", str(back)])
    assert code == 0
    assert tiling_from_text(back.read_text()).partner == strip.partner
    # folding toward the strip without --unfold checks every base edge and
    # the square base has edges the strip lacks
    code, obj = run_json(["fold", "--tiling", str(out), "--src", "box:2,2",
                          "--dst", "box:4"])
    assert code == 1
    assert "folding condition" in obj["payload"]["message"]


def test_render_golden_3d(tmp_path):
    t = vertical_tiling(make_box((2, 2)), 2)
    f = _write_tiling(tmp_path, "t.txt", t)
    code, out, _ = run_cli(["render", "--tiling", f])
    assert code == 0
    assert out == "floor 0\n  UU\n  UU\nfloor 1\n  DD\n  DD\n"


def test_render_golden_4d_slices(tmp_path):
    t = vertical_tiling(make_box((2, 2, 2)), 2)
    f = _write_tiling(tmp_path, "t.txt", t)
    code, out, _ = run_cli(["render", "--tiling", f])
    assert code == 0
    assert "[x2=0]" in out and "[x2=1]" in out
    assert out.count("UU") == 4 and out.count("DD") == 4


@pytest.mark.parametrize(("spec", "dominoes", "want"), [
    ("cyl:2,2xN=0", [], "(empty region)\n"),
    ("box:4", [((0,), (1,)), ((2,), (3,))], "UDUD\n"),
    ("box:3,2", [((0, 0), (1, 0)), ((2, 0), (2, 1)), ((0, 1), (1, 1))],
     "floor 0\n  []U\nfloor 1\n  []D\n"),
], ids=["empty", "1d", "2d"])
def test_render_golden_low_dimensions(tmp_path, spec, dominoes, want):
    t = Tiling.from_dominoes(parse_region_spec(spec), dominoes)
    code, out, _ = run_cli(["render", "--tiling", _write_tiling(tmp_path, "t.txt", t)])
    assert (code, out) == (0, want)


def test_render_in_floor_glyphs(tmp_path):
    r = make_cylinder(make_box((2, 2)), 2)
    t = Tiling.from_dominoes(r, [
        ((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 1)), ((0, 1, 1), (1, 1, 1)),
    ])
    text = render_tiling(t)
    assert text == "floor 0\n  []\n  []\nfloor 1\n  []\n  []\n"


def test_render_names_four_in_floor_axes_and_refuses_five(tmp_path):
    # a domino along each region's last in-floor axis, on both floors
    def along_last_in_floor_axis(dims):
        region = make_box(dims)
        lo, hi = [0] * len(dims), [0] * len(dims)
        hi[-2] = 1
        return Tiling.from_dominoes(region, [((*lo[:-1], h), (*hi[:-1], h)) for h in (0, 1)])

    t = along_last_in_floor_axis((1, 1, 1, 2, 2))
    code, out, _ = run_cli(["render", "--tiling", _write_tiling(tmp_path, "t5.txt", t)])
    assert (code, out) == (0, "floor 0\n  [x2=0,x3=0]\n  w\n  [x2=0,x3=1]\n  s\n"
                               "floor 1\n  [x2=0,x3=0]\n  w\n  [x2=0,x3=1]\n  s\n")
    t = along_last_in_floor_axis((1, 1, 1, 1, 2, 2))
    code, obj = run_json(["render", "--tiling", _write_tiling(tmp_path, "t6.txt", t)])
    assert (code, obj["status"], obj["region"]) == (1, "error", "box:1,1,1,1,2,2")
    assert obj["payload"]["message"] == "render draws at most 4 in-floor axes, the region has 5"


def test_json_output_deterministic():
    outs = set()
    for _ in range(2):
        code, obj = run_json(["components", "--region", "box:2,2,2"])
        obj.pop("timing")
        outs.add(json.dumps(obj, sort_keys=True))
    assert len(outs) == 1


def test_bad_region_spec_is_error():
    code, obj = run_json(["count", "--region", "box:0,2"])
    assert code == 1
    assert obj["status"] == "error"
    code, obj = run_json(["count", "--region", "pyramid:3"])
    assert code == 1
    code, obj = run_json(["count", "--region", "box:100000,100000"])
    assert (code, obj["status"]) == (1, "error")
    assert "region too large" in obj["payload"]["message"]


def test_missing_tiling_file_is_error(tmp_path):
    code, obj = run_json(["twist", "--tiling", str(tmp_path / "nope.txt")])
    assert code == 1
    assert obj["status"] == "error"


@pytest.mark.parametrize("obj", [
    {"version": 1},
    {"version": 1, "region": 5, "dominoes": []},
    {"version": 1, "region": "box:2,2"},
    {"version": 1, "region": "box:2,2", "dominoes": 5},
    {"version": 1, "region": "box:2,2", "dominoes": [[0, 0], [1, 0]]},
    {"version": 1, "region": "box:2,2", "dominoes": [[[0, 0], [1, 0], [0, 1]]]},
    {"version": 1, "region": "box:2,2",
     "dominoes": [[[0, 0], [1, 0]], [[0, 1.0], [1, 1]]]},
    {"version": 1, "region": "box:2,2",
     "dominoes": [[[0, 0], [1, 0]], [[0, "1"], [1, 1]]]},
    {"version": 2, "region": "box:2,2",  # with version 1, a tiling of box:2,2
     "dominoes": [[[0, 0], [1, 0]], [[1, 1], [0, 1]]]},
], ids=["no-region", "region-not-spec", "no-dominoes", "dominoes-not-list",
        "domino-not-pair", "domino-three-cells", "float-coordinate",
        "string-coordinate", "version-2"])
def test_malformed_json_tiling_is_error(tmp_path, obj):
    f = tmp_path / "t.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(["twist", "--tiling", str(f), "--json"])
    assert code == 1
    assert json.loads(out)["status"] == "error"
    assert "Traceback" not in err


@pytest.mark.parametrize("obj", [
    {"version": 1, "cells": []},
    {"version": 1, "region": "box:2,2"},
    {"version": 1, "region": "box:2,2", "cells": 3},
    [{"version": 1, "region": "box:2,2", "cells": []}],
], ids=["no-region", "no-cells", "cells-not-list", "not-object"])
def test_malformed_path_file_is_error(tmp_path, obj):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(["flux", "--base", str(f), "--json"])
    assert code == 1
    assert json.loads(out)["status"] == "error"
    assert "Traceback" not in err


@pytest.mark.parametrize("version", [7, None], ids=["version-7", "no-version"])
def test_path_file_of_another_version_is_error(tmp_path, version):
    # the serpentine path of box:2,2, refused as tiling files are
    obj = {"region": "box:2,2", "cells": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    if version is not None:
        obj["version"] = version
    f = tmp_path / "p.json"
    f.write_text(json.dumps(obj))
    code, obj = run_json(["flux", "--base", str(f)])
    assert (code, obj["status"], obj["region"]) == (1, "error", "box:2,2")
    assert obj["payload"]["message"] == "expected a path object with version 1"


def test_error_result_names_the_region():
    # parsed: the command's region; given but unparsable: the spec as given
    code, obj = run_json(["flux", "--base", "box:3,4", "--d", "1,6", "--plug", "3"])
    assert (code, obj["status"], obj["region"]) == (1, "error", "box:3,4")
    code, obj = run_json(["count", "--region", "cyl:2,2,3xN=-1"])
    assert (code, obj["status"], obj["region"]) == (1, "error", "cyl:2,2,3xN=-1")
    code, obj = run_json(["flux", "--base", "box:3,x"])
    assert (code, obj["status"], obj["region"]) == (1, "error", None)


@pytest.mark.parametrize("plug", ["0x20", "0x10000"], ids=["unbalanced", "outside-base"])
def test_flux_rejects_a_non_plug(plug):
    # one cell of box:3,4, and a bit past its 12 cells
    code, obj = run_json(["flux", "--base", "box:3,4", "--d", "1,6", "--plug", plug])
    assert (code, obj["status"]) == (1, "error")
    assert "balanced subset" in obj["payload"]["message"]


def test_flux_plug_needs_d():
    code, obj = run_json(["flux", "--base", "box:3,4", "--plug", "0x3"])
    assert (code, obj["status"], obj["region"]) == (1, "error", "box:3,4")
    assert obj["payload"]["message"] == "--plug needs --d"


@pytest.mark.parametrize("base,d,message", [
    ("box:3", "1,3", "path positions (1, 3) are not adjacent base cells"),
    ("box:2,2", "4,1", "positions (4, 1) must satisfy 1 <= i < j <= 4"),
    ("box:2,2", "0,3", "positions (0, 3) must satisfy 1 <= i < j <= 4"),
    ("box:2,3", "1,2", "domino at (1, 2) respects the path"),
], ids=["unbalanced-base", "reversed", "zero", "respecting"])
def test_flux_checks_the_domino_before_listing_plugs(base, d, message):
    code, obj = run_json(["flux", "--base", base, "--d", d])
    assert (code, obj["status"], obj["region"]) == (1, "error", base)
    assert obj["payload"]["message"] == message


def test_path_json_of_an_unnamed_region_reads_back(tmp_path):
    from dominotwist.hamiltonian import path_from_cells
    path = path_from_cells(Region(2, [(0, 0), (1, 0), (1, 1), (0, 1)]),
                           [(0, 0), (1, 0), (1, 1), (0, 1)])
    f = tmp_path / "p.json"
    f.write_text(json.dumps(path.to_json_obj()))
    code, obj = run_json(["flux", "--base", str(f)])
    assert (code, obj["status"]) == (0, "ok")
    assert obj["region"] == path.to_json_obj()["region"]


@pytest.mark.parametrize("argv,command,fragment", [
    (["count"], "count", "required: --region"),
    (["count", "--region", "box:2,2", "--method", "nope"], "count", "invalid choice"),
    (["components", "--region", "box:2,2,2,2", "--budget", "10"], "components",
     "unrecognized arguments: --budget 10"),
    (["nope"], None, "invalid choice"),
    ([], None, "required: subcommand"),
], ids=["missing-flag", "bad-choice", "unknown-flag", "unknown-subcommand", "no-subcommand"])
def test_usage_error_is_an_error_result(argv, command, fragment):
    code, out, err = run_cli(argv + ["--json"])
    obj = json.loads(out)
    assert (code, obj["status"], obj["command"]) == (1, "error", command)
    assert fragment in obj["payload"]["message"]
    assert err == ""
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and fragment in err


def test_components_help_exits_zero_and_lists_no_budget():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["components", "--help"])
    assert exc.value.code == 0
    assert "--region" in out.getvalue() and "--budget" not in out.getvalue()


def test_text_mode_prints_fields(tmp_path):
    code, out, err = run_cli(["count", "--region", "box:2,2"])
    assert code == 0
    assert "count" in out and "2" in out
    assert err == ""
    code, out, _ = run_cli(["components", "--region", "box:2,2,2"])
    assert (code, out) == (0, "components box:2,2,2\n  component_count: 1\n"
                              "  component 0: size=9 twist=0\n  complete: True\n"
                              "  visited: 9\n  flip_edges: 12\n")
    code, out, _ = run_cli(["generators", "--base", "box:2,2"])
    assert (code, out) == (0, "generators box:2,2\n  generator_count: 1\n"
                              "  d=[1, 4] plug=0x0 flux=[0, 0, 0] twist=0 half=2\n")
    # a tiling payload is printed as tiling text
    strip = _write_tiling(tmp_path, "strip.txt", vertical_tiling(make_box((4,)), 2))
    code, out, _ = run_cli(["fold", "--tiling", strip, "--src", "box:4", "--dst", "box:2,2"])
    head, body = out.split("tiling v1 ", 1)
    assert (code, head) == (0, "fold cyl:4xN=2\n  region: cyl:2,2xN=2\n")
    tiling_from_text("tiling v1 " + body).validate()
    # a result that is not ok ends with its status
    t0 = _write_tiling(tmp_path, "t0.txt", vertical_tiling(make_box((2, 2)), 2))
    flat = next(enumerate_tilings(make_cylinder(make_box((2, 2)), 2)))
    t1 = _write_tiling(tmp_path, "t1.txt", flat)
    code, out, _ = run_cli(["padding", "--t0", t0, "--t1", t1, "--floors", "2", "--budget", "1"])
    assert (code, out) == (2, "padding cyl:2,2xN=2\n  floors: 2\n  connected: None\n"
                              "  budget: 1\n  status: indeterminate\n")


def _declared_script_spec(name: str = "dominotwist") -> str | None:
    """The ``module:attr`` target of console script *name*, or None.

    Read from ``[project.scripts]`` in the repository's ``pyproject.toml``;
    where ``tomllib`` is missing (Python 3.10), from the metadata of an
    installed distribution instead.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = None
    if tomllib is not None and PYPROJECT.is_file():
        with PYPROJECT.open("rb") as fh:
            return tomllib.load(fh)["project"]["scripts"][name]
    eps = importlib.metadata.entry_points(group="console_scripts", name=name)
    return next((ep.value for ep in eps), None)


# Runs one command in a fresh interpreter, then reports whether numpy was
# imported: the first line of stdout is the JSON result, the last the flag.
NUMPY_PROBE = (
    "import sys\n"
    "from dominotwist.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)


def _probe_numpy(argv: list[str]) -> tuple[dict, bool]:
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv, "--json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    obj = json.loads(lines[0])
    assert obj["status"] == "ok"
    return obj, {"True": True, "False": False}[lines[1]]


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory) -> dict:
    d = tmp_path_factory.mktemp("probe")
    cube = vertical_tiling(make_box((2, 2)), 2)
    strip = vertical_tiling(make_box((4,)), 2)
    (d / "cube.json").write_text(json.dumps(cube.to_json_obj()))
    return {"cube_txt": _write_tiling(d, "cube.txt", cube),
            "cube_json": str(d / "cube.json"),
            "strip": _write_tiling(d, "strip.txt", strip)}


NUMPY_FREE_COMMANDS = {
    "twist-text": ["twist", "--tiling", "{cube_txt}"],
    "twist-json": ["twist", "--tiling", "{cube_json}"],
    "render": ["render", "--tiling", "{cube_txt}"],
    "fold": ["fold", "--tiling", "{strip}", "--src", "box:4", "--dst", "box:2,2"],
    "flux": ["flux", "--base", "box:2,3"],
    "flux-d": ["flux", "--base", "box:2,3", "--d", "1,4"],
    "generators": ["generators", "--base", "box:2,3"],
    "count-box": ["count", "--region", "box:2,2,2,2"],
    "defect-det": ["defect", "--region", "box:2,2,2,2", "--method", "det"],
}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE_COMMANDS))
def test_scalar_commands_do_not_import_numpy(probe_inputs, name):
    argv = [a.format(**probe_inputs) for a in NUMPY_FREE_COMMANDS[name]]
    _, loaded = _probe_numpy(argv)
    assert not loaded, f"{name} imported numpy"


def test_array_commands_import_numpy():
    # the control: the probe does see numpy when a command runs array code
    obj, loaded = _probe_numpy(["components", "--region", "box:2,2,2"])
    assert obj["payload"]["component_count"] >= 1
    assert loaded


# Imports the CLI in a fresh interpreter and runs each argument, split at
# "|", as a command; prints the exit codes on one line, then which of the
# modules named below the import and the commands added.  site may load
# some of them before the import, so the count starts there.
LAZY_PROBE = (
    "import contextlib, io, sys\n"
    "before = set(sys.modules)\n"
    "from dominotwist.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    codes = [main(argv.split('|')) for argv in sys.argv[1:]]\n"
    "print(*codes)\n"
    "print(*sorted({'dataclasses', 'inspect', 'dominotwist.hamiltonian'} & (set(sys.modules) - before)))\n"
)


def _probe_lazy(argvs: list[list[str]]) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, *map("|".join, argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, added = proc.stdout.split("\n")[:2]
    assert codes.split() == ["0"] * len(argvs), proc.stdout
    return added.split()


def test_cli_start_up_leaves_hamiltonian_and_dataclasses_unimported(probe_inputs):
    # only fold, flux and generators need the path engine, and no result
    # type of the scalar engines is a dataclass (dataclasses imports
    # inspect); the import alone, and twist, render, a box count and a
    # determinant defect after it, load none of them
    scalar = [[a.format(**probe_inputs) for a in NUMPY_FREE_COMMANDS[name]]
              for name in ("twist-text", "twist-json", "render", "count-box", "defect-det")]
    assert _probe_lazy([]) == []
    assert _probe_lazy(scalar) == []
    # the control: fold does import the path engine
    fold = [a.format(**probe_inputs) for a in NUMPY_FREE_COMMANDS["fold"]]
    assert "dominotwist.hamiltonian" in _probe_lazy([fold])


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_closed_stdout_gives_no_traceback(mode):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write of the child meets a broken pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dominotwist.cli", "components",
             "--region", "box:2,2,2,2", *mode],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize("argv", [
    ["count", "--region", "box:200000"],
    ["defect", "--method", "enum", "--region", "box:100000"],
], ids=["count", "defect"])
def test_long_region_answers_in_capped_memory(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "dominotwist.cli", *argv, "--json"],
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def _run_capped(argv: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
    """One command in a fresh interpreter under a 1.5 GB address space."""
    proc = subprocess.run(
        [sys.executable, "-m", "dominotwist.cli", *argv, "--json"],
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    return proc, json.loads(lines[0])


def test_out_of_memory_is_an_error_result():
    # about 32 M tilings: the census needs more than the cap allows
    proc, obj = _run_capped(["components", "--region", "cyl:2,2,2xN=6"])
    assert (proc.returncode, obj["status"], obj["region"]) == (1, "error", "cyl:2,2,2xN=6")
    assert obj["payload"]["message"]


@pytest.mark.parametrize("argv", [
    ["flux", "--base", "box:1000,1000,100"],
    ["generators", "--base", "box:1000,1000,100"],
    ["fold", "--tiling", "{strip}", "--src", "box:1000,1000,100", "--dst", "box:2,2"],
], ids=["flux", "generators", "fold"])
def test_box_path_too_large_is_refused_before_its_cells(tmp_path, argv):
    # 100 M cells: listing them would take many GB, so only the size check
    # may run; an error result names the first argument read, the path
    # itself or fold's tiling
    strip = _write_tiling(tmp_path, "strip.txt", vertical_tiling(make_box((4,)), 2))
    proc, obj = _run_capped([a.format(strip=strip) for a in argv])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == "region too large: 100000000 > 1048576 cells"
    assert obj["region"] == ("cyl:4xN=2" if argv[0] == "fold" else "box:1000,1000,100")
    assert obj["timing"] < 1


# one large cylinder in each spelling the spec reader takes, by method; an
# error result names its canonical text
LARGE_CYLINDERS = [
    pytest.param(method, spec, id=method + spelling)
    for spelling, spec in [("", "cyl:1000,1000xN=1"), ("-spaced", "cyl:1000, 1000xN=1"),
                           ("-signed", "cyl:+1000,1000xN=1")]
    for method in ("auto", "transfer")]


@pytest.mark.parametrize("method, spec", LARGE_CYLINDERS)
def test_cylinder_count_over_a_large_base_is_refused_before_its_cells(method, spec):
    # the base's cell count is the product of the spec's dims: a base of
    # 10^6 cells is refused for the transfer engine before any cell is built
    proc, obj = _run_capped(["count", "--region", spec, "--method", method])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == "plug enumeration needs a base with at most 24 cells, got 1000000"
    assert obj["region"] == "cyl:1000,1000xN=1"
    assert obj["timing"] < 1


@pytest.mark.parametrize("method, spec", LARGE_CYLINDERS)
def test_cylinder_defect_over_a_large_base_is_refused_before_its_cells(method, spec):
    # the defect recursion needs no plugs but keeps k x k matrices: a base of
    # 10^6 cells is refused from the spec before any cell is built
    proc, obj = _run_capped(["defect", "--region", spec, "--method", method])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == \
        "the cylinder defect needs a base with at most 1024 cells, got 1000000"
    assert obj["region"] == "cyl:1000,1000xN=1"
    assert obj["timing"] < 1


@pytest.mark.parametrize("argv", [
    ["--region", "cyl:1000,1000xN=1", "--method", "det"],
    ["--region", "box:1000,1000"],
    ["--region", "box:1000, 1000"],
], ids=["det", "auto-box", "auto-box-spaced"])
def test_determinant_defect_over_a_large_region_is_refused_before_its_cells(argv):
    # det keeps a k x k sign matrix, k = cells/2: a balanced region of 10^6
    # cells is refused from the spec before any cell is built
    proc, obj = _run_capped(["defect", *argv])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == \
        "the determinant defect needs a region with at most 1024 cells, got 1000000"
    assert obj["region"] == argv[1].replace(" ", "")
    assert obj["timing"] < 1


def test_determinant_defect_over_a_large_cork_is_refused_before_its_cells():
    # a cork's cells are base x floors less its two plugs' cells, counted
    # from the spec: 64 x 16000 cells are refused before any is built
    cork = "cork:8,8xN=16000:p0=0x0:pN=0x0"
    proc, obj = _run_capped(["defect", "--method", "det", "--region", cork])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == \
        "the determinant defect needs a region with at most 1024 cells, got 1024000"
    assert obj["region"] == cork
    assert obj["timing"] < 0.1
    # the two plugs' cells are left out of the count
    code, obj = run_json(["defect", "--method", "det", "--region", "cork:1,1xN=1028:p0=0x1:pN=0x1"])
    assert (code, obj["status"]) == (1, "error")
    assert obj["payload"]["message"].endswith("got 1026")


@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["transfer-export", "--out", "{tmp}/m.json"],
], ids=["spectral", "transfer-export"])
def test_transfer_base_too_large_is_refused_before_its_cells(tmp_path, argv):
    # plug enumeration takes a base of at most 24 cells: a box base of 10^6
    # cells is refused from its spec before any cell is built
    proc, obj = _run_capped([a.format(tmp=tmp_path) for a in argv] + ["--base", "box:1000,1000"])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == "plug enumeration needs a base with at most 24 cells, got 1000000"
    assert obj["region"] == "box:1000,1000"
    assert obj["timing"] < 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["transfer-export", "--out", "{tmp}/m.json"],
], ids=["spectral", "transfer-export"])
def test_transfer_base_past_the_matrix_limit_is_refused_before_its_plugs(tmp_path, argv):
    # box:4,6 is within the 24 cells of plug enumeration, but its C(24, 12)
    # plugs are past the matrix limit: refused from the cell count, where
    # listing the plugs first took about 2 s
    proc, obj = _run_capped([a.format(tmp=tmp_path) for a in argv] + ["--base", "box:4,6"])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == \
        "2704156 plugs exceeds the matrix limit 4096; cylinder_count and cylinder_defect need no matrix"
    assert obj["region"] == "box:4,6"
    assert obj["timing"] < 0.1
    assert not (tmp_path / "m.json").exists()


def test_components_past_byte_packing_is_refused_before_its_cells():
    # a census packs partner vectors in bytes: a region of 10^6 cells is
    # refused from its spec, where building its cells first took about 0.9 s
    proc, obj = _run_capped(["components", "--region", "box:1000,1000"])
    assert (proc.returncode, obj["status"]) == (1, "error")
    assert obj["payload"]["message"] == \
        "byte packing needs a region with at most 255 cells, got 1000000"
    assert obj["region"] == "box:1000,1000"
    assert obj["timing"] < 0.1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dominotwist.cli", "count",
         "--region", "box:2,2", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["payload"]["count"] == 2
    # the declared console script, called the way its generated wrapper
    # calls it, so a renamed or broken target fails whether installed or not
    spec = _declared_script_spec()
    if spec is None:
        pytest.skip("no tomllib to read pyproject.toml and no installed "
                    "dominotwist distribution to read the entry point from")
    module, attr = spec.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "count", "--region", "box:2,2", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["count"] == 2


@pytest.mark.skipif(
    shutil.which("dominotwist") is None,
    reason="no dominotwist executable on PATH; install the package with "
           "`pip install --no-build-isolation -e .`")
def test_installed_console_script():
    proc = subprocess.run(
        ["dominotwist", "count", "--region", "box:2,2", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["count"] == 2
