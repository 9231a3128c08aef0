"""Property test of the CLI contract: on any argv drawn from a small grammar
of subcommands, region specs, flag values and input files, valid or not,
main returns 0, 1 or 2 and raises nothing, and with --json prints exactly
one line whose status names the returned code."""

from __future__ import annotations

import contextlib
import io
import json
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dominotwist.cli import main
from dominotwist.hamiltonian import box_path, path_from_cells
from dominotwist.regions import make_box, make_cylinder
from dominotwist.tilings import Tiling, enumerate_tilings, vertical_tiling
from dominotwist.transfer import get_transfer, save_transfer_cache

STATUS_CODE = {"ok": 0, "error": 1, "indeterminate": 2}

REGION_SPECS = [
    "box:2,2", "box:2,3", "box:3,3", "box:2,2,2", "box:2,2,2,2", "box:4,4", "box:1", "box:4",
    "cyl:2,2xN=3", "cyl:2,2,2xN=2", "cyl:3,3xN=1", "cyl:2,3xN=0", "cyl:4xN=4",
    "cork:2,2xN=2:p0=0x3:pN=0x0", "cork:2,2,2xN=2:p0=0x0:pN=0x0", "cork:2,2xN=1:p0=0x3:pN=0xc",
    "cells:dim=2;0,0;1,0", "cells:dim=2;0,0;1,1", "cells:dim=1;0;1;2;3", "cells:dim=2;",
    # malformed
    "", ":", "nan", "box:", "box:0,2", "box:-1", "box:a", "box:2,,2", "box:100000,100000",
    "pyramid:3", "cyl:2,2", "cyl:2,2xN=", "cyl:2,2xN=-1", "cyl:2,2xN=x", "cyl:2,2xN=nan",
    "cork:2,2xN=2", "cork:2,2xN=2:p0=0x10:pN=0", "cork:2,2xN=1:p0=0x3:pN=0x3",
    "cork:2,2xN=2:p0=x:pN=0", "cells:", "cells:dim=2;0", "cells:dim=x;0,0",
    "cells:dim=2;0,0;0,0", "cells:dim=-1;",
]
PATH_SPECS = ["box:2,3", "box:2,2", "box:4", "box:2,2,2", "box:3,4", "box:0", "box:x", "box:",
              "box:-2,2", "box:1"]
FLOATS = ["1e-9", "1e-3", "0", "-1", "-1e-9", "nan", "inf", "x", ""]
INTS = ["0", "1", "2", "10", "-1", "-2", "x", "nan", "1.5", ""]
PLUGS = ["0", "0x3", "0x9", "-1", "0x10000", "x", "nan", ""]
POSITIONS = ["1,4", "1,2", "2,1", "1,6", "0,0", "-1,2", "1", "x", "nan", "1,2,3", ""]
# "@name" is a file of the `files` directory, which "@" alone names
TILINGS = ["@square.txt", "@cube.txt", "@cube_flat.txt", "@strip.txt", "@slab.txt", "@cube.json",
           "@empty.txt", "@garbage.txt", "@truncated.json", "@wrong.json"]
PATHS = ["@path23.json", "@path22.json", "@nocells.json", "@list.json", "@badcells.json"]
CACHES = ["@b22.dtrc", "@broken.dtrc"]
MISSING = ["@missing.txt", "@"]
GRAMMAR = {  # per subcommand: (flag, values, required); a flag with no values is a switch
    "count": [("--region", REGION_SPECS, True), ("--method", ["auto", "enum", "transfer", "det"], False)],
    "components": [("--region", REGION_SPECS, True)],
    "twist": [("--tiling", TILINGS + CACHES + MISSING, True)],
    "defect": [("--region", REGION_SPECS, True),
               ("--method", ["auto", "det", "enum", "transfer", "x"], False)],
    "transfer-export": [("--base", REGION_SPECS, True), ("--out", ["@out.json", "@missing/x", "@"], True),
                        ("--binary", ["@out.dtrc", "@missing/x", "@"], False)],
    "spectral": [("--base", REGION_SPECS, True), ("--tol", FLOATS, False)],
    "padding": [("--t0", TILINGS, True), ("--t1", TILINGS + CACHES + MISSING, True),
                ("--floors", ["0", "2", "1", "-2", "x", "nan"], True), ("--budget", INTS, False)],
    "generators": [("--base", PATH_SPECS + PATHS, True),
                   ("--out", ["@gens", "@missing/gens", "@square.txt"], False), ("--cap", INTS, False)],
    "flux": [("--base", PATH_SPECS + PATHS + CACHES + MISSING, True), ("--d", POSITIONS, False),
             ("--plug", PLUGS, False)],
    "fold": [("--tiling", TILINGS + MISSING, True), ("--src", PATH_SPECS + PATHS, True),
             ("--dst", PATH_SPECS + PATHS + MISSING, True), ("--unfold", [], False),
             ("--out", ["@fold.txt", "@missing/x", "@"], False)],
    "render": [("--tiling", TILINGS + CACHES + MISSING, True)],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The directory that "@name" stands for, with valid and malformed
    tiling, path and cache files written once."""
    d = tmp_path_factory.mktemp("cli_property")
    cube = make_cylinder(make_box((2, 2)), 2)
    texts = {
        "square.txt": next(enumerate_tilings(make_box((2, 2)))).to_text(),
        "cube.txt": vertical_tiling(make_box((2, 2)), 2).to_text(),
        "cube_flat.txt": Tiling.from_dominoes(cube, [
            ((0, 0, h), (1, 0, h)) for h in (0, 1)] + [((0, 1, h), (1, 1, h)) for h in (0, 1)]).to_text(),
        "strip.txt": vertical_tiling(make_box((4,)), 2).to_text(),
        "slab.txt": vertical_tiling(make_box((2, 3)), 2).to_text(),
        "cube.json": json.dumps(vertical_tiling(make_box((2, 2)), 2).to_json_obj()),
        "empty.txt": "",
        "garbage.txt": "not a tiling\n",
        "truncated.json": "{",
        "wrong.json": json.dumps({"version": 1, "region": "box:2,2", "dominoes": [[0, 0]]}),
        "path23.json": json.dumps(path_from_cells(
            make_box((2, 3)), [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]).to_json_obj()),
        "path22.json": json.dumps(box_path((2, 2)).to_json_obj()),
        "nocells.json": json.dumps({"region": "box:2,2"}),
        "list.json": json.dumps([1, 2]),
        "badcells.json": json.dumps({"region": "box:2,2", "cells": [[0, 0]]}),
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    save_transfer_cache(get_transfer(make_box((2, 2))), str(d / "b22.dtrc"))
    raw = (d / "b22.dtrc").read_bytes()
    (d / "broken.dtrc").write_bytes(raw[:8] + zlib.compress(b"\xff" * 40))
    return d


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(GRAMMAR) + ["nope"]))
    argv = [command]
    for flag, values, required in GRAMMAR.get(command, []):
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv += [flag, draw(st.sampled_from(values))] if values else [flag]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "1"])))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["padding", "--t0", "@cube.txt", "--t1", "@cube_flat.txt", "--floors", "2",
               "--budget", "1", "--json"])  # indeterminate
@example(argv=["fold", "--tiling", "@strip.txt", "--src", "box:4", "--dst", "box:2,2", "--json"])
def test_cli_contract(files, argv):
    argv = [str(files / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--json" in argv:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert STATUS_CODE[json.loads(lines[0])["status"]] == code, argv
