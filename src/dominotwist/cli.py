"""Command-line surface: deterministic, machine-readable access to the engine.

Every subcommand emits a CommandResult: with --json a single JSON object
{"command", "region", "status", "payload", "timing"}; otherwise readable
text.  The timing field is wall-clock seconds and is the only part of the
output that varies between runs.  Exit codes: 0 ok, 2 indeterminate
(budget exhausted, no wrong answer), 1 error, a usage error included.
All configuration is by flags; no environment variables are consulted.

Start-up is most of a short call, so the module imports only the scalar,
pure-Python engines.  A command imports moves or transfer, and with them
numpy, where it runs their array code: twist, render, fold, flux,
generators, count on a box and defect --method det never load numpy.  The
timing of a command that does includes that import.  Only fold, flux and
generators import hamiltonian, the path engine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

from .kasteleyn import defect_by_determinant, defect_by_enumeration, twist
from .plugs import check_defect_base, check_determinant_cells, check_matrix_plugs, check_plug_base
from .regions import (DEFAULT_BUDGET, Region, build_spec, make_box, parse_region_spec, read_spec,
                      region_spec, spec_text)
from .tilings import (Tiling, _is_int_cell, check_packed_cells, count_tilings, tiling_from_json_obj,
                      tiling_from_text)

DIRECTION_GLYPHS = ("[]", "nu", "fb", "ws")  # in-floor axes 0..3, the most render draws
FLOOR_GLYPHS = "UD"  # partner above / below


class CommandResult:
    def __init__(self, command: str, region: str | None, payload: dict,
                 status: str = "ok"):
        self.command = command
        self.region = region
        self.payload = payload
        self.status = status
        self.timing = 0.0

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "region": self.region,
            "status": self.status,
            "payload": self.payload,
            "timing": self.timing,
        }


def _fail(command: str, message: str, region: str | None = None) -> CommandResult:
    return CommandResult(command, region, {"message": message}, status="error")


# An error result names the region of the first region, tiling or path
# argument the command read, kept on the parsed arguments as named_region;
# a region spec that does not parse is named as given, a box: or cyl: spec
# that does by its canonical text, before its region is built.

def _name_region(args, spec: str) -> None:
    if getattr(args, "named_region", None) is None:
        args.named_region = spec


def _read_region(args, text: str) -> tuple[tuple, int]:
    """A spec, read and named, and its cell count if box:, cyl: or cork:
    (base x floors, less the cells of its two plugs), else 0."""
    args.named_region = text.strip()
    spec = read_spec(text)
    if spec[0] == "cork":
        _, dims, floors, p0, pn = spec
        return spec, math.prod(dims) * floors - p0.bit_count() - pn.bit_count()
    if spec[0] not in ("box", "cyl"):
        return spec, 0
    args.named_region = spec_text(spec)
    return spec, math.prod(spec[1]) * (spec[2] if spec[0] == "cyl" else 1)


def _build_region(args, spec: tuple) -> Region:
    region = build_spec(spec)
    args.named_region = region_spec(region)
    return region


def _read_tiling(args, path: str) -> Tiling:
    text = Path(path).read_text()
    is_json = text.lstrip().startswith("{")
    t = tiling_from_json_obj(json.loads(text)) if is_json else tiling_from_text(text)
    _name_region(args, region_spec(t.region))
    return t


def _parse_path_arg(args, text: str):
    """The hamiltonian.HamiltonianPath of a path argument: 'box:<dims>' for
    the serpentine path, or a JSON file holding {"version": 1, "region":
    <spec>, "cells": <ordered cell list>}."""
    from . import hamiltonian as ham
    if text.startswith("box:"):
        dims = read_spec(text)[1]
        _name_region(args, text)
        return ham.box_path(dims)
    obj = json.loads(Path(text).read_text())
    if not isinstance(obj, dict) or not isinstance(obj.get("region"), str):
        raise ham.HamiltonianError("path object needs a 'region' spec string")
    _name_region(args, obj["region"].strip())
    if obj.get("version") != 1:
        raise ham.HamiltonianError("expected a path object with version 1")
    cells = obj.get("cells")
    if not isinstance(cells, list) or not all(map(_is_int_cell, cells)):
        raise ham.HamiltonianError(
            "path 'cells' must be a list of cells of integer coordinates")
    return ham.path_from_cells(parse_region_spec(obj["region"]), cells)


# ------------------------------------------------------------ subcommands

def _engine(args, fallback: str, check_base) -> tuple[str, object]:
    """The engine of count or defect and what it takes: (base, floors) for
    transfer, else the region.  `auto` takes transfer exactly on a cyl: over
    a box base of an even, so balanced, cell count.  Only that engine's
    limit is checked, from the spec's sizes before any cell is built."""
    spec, cells = _read_region(args, args.region)
    kind, dims = spec[:2]
    method = args.method
    if method == "auto":
        method = "transfer" if kind == "cyl" and math.prod(dims) % 2 == 0 else fallback
    if method == "transfer":
        if kind != "cyl":
            raise ValueError("transfer method needs a cyl: region")
        check_base(math.prod(dims))
        return method, (make_box(dims), spec[2])
    if method == "det" and cells % 2 == 0:
        check_determinant_cells(cells)
    return method, _build_region(args, spec)


def _base_arg(args) -> Region:
    """The --base of spectral or transfer-export; a box: or cyl: base of
    more cells than plug enumeration takes is refused from its spec, and one
    of more plugs than the matrices take before numpy is imported."""
    spec, cells = _read_region(args, args.base)
    check_plug_base(cells)
    base = _build_region(args, spec)
    check_matrix_plugs(base)
    return base


def cmd_count(args) -> CommandResult:
    method, target = _engine(args, "enum", check_plug_base)
    if method == "transfer":
        from .transfer import cylinder_count
        n = cylinder_count(*target)
    else:
        n = count_tilings(target)
    return CommandResult("count", args.named_region, {"count": n, "method": method})


def cmd_components(args) -> CommandResult:
    spec, cells = _read_region(args, args.region)
    check_packed_cells(cells)  # counted from a box:, cyl: or cork: spec, before any cell is built
    from .moves import flip_components
    report = flip_components(_build_region(args, spec))
    payload = {
        "component_count": len(report.components),
        "components": report.summary(),
        "complete": report.complete,
        "visited": report.visited,
        "flip_edges": report.flip_edges,
    }
    return CommandResult("components", args.named_region, payload)


def cmd_twist(args) -> CommandResult:
    t = _read_tiling(args, args.tiling)
    return CommandResult("twist", region_spec(t.region), {"twist": twist(t)})


def cmd_defect(args) -> CommandResult:
    method, target = _engine(args, "det", check_defect_base)
    if method == "det":
        value = defect_by_determinant(target)
    elif method == "enum":
        value = defect_by_enumeration(target)
    else:
        from .transfer import cylinder_defect
        value = cylinder_defect(*target)
    payload = {
        "defect": value,
        "abs": abs(value),
        "method": method,
        "note": "sign depends on the cell labeling convention;"
                " only the absolute value is intrinsic",
    }
    return CommandResult("defect", args.named_region, payload)


def cmd_transfer_export(args) -> CommandResult:
    base = _base_arg(args)
    from .transfer import build_transfer, save_transfer_cache, write_transfer_json
    tm = build_transfer(base)
    out = Path(args.out)
    with out.open("w") as fh:
        write_transfer_json(tm, fh)
    nnz_count, nnz_signed = tm.nnz
    payload = {"plugs": tm.size, "nnz_count": nnz_count,
               "nnz_signed": nnz_signed, "out": str(out)}
    if args.binary:
        save_transfer_cache(tm, args.binary)
        payload["binary"] = args.binary
    return CommandResult("transfer-export", args.named_region, payload)


def cmd_spectral(args) -> CommandResult:
    base = _base_arg(args)
    from .transfer import spectral_estimates
    rep = spectral_estimates(base, tol=args.tol)
    payload = {
        "lambda": rep.lam,
        "lambda_tilde": rep.lam_tilde,
        "ratio": rep.ratio,
        "residual": rep.residual,
        "residual_tilde": rep.residual_tilde,
    }
    return CommandResult("spectral", args.named_region, payload)


def cmd_padding(args) -> CommandResult:
    from .moves import Connectivity, connected_with_padding
    t0 = _read_tiling(args, args.t0)
    t1 = _read_tiling(args, args.t1)
    verdict = connected_with_padding(t0, t1, args.floors, budget=args.budget)
    payload = {
        "floors": args.floors,
        "connected": {Connectivity.CONNECTED: True,
                      Connectivity.DISCONNECTED: False,
                      Connectivity.INDETERMINATE: None}[verdict],
        "budget": args.budget,
    }
    status = "indeterminate" if verdict is Connectivity.INDETERMINATE else "ok"
    return CommandResult("padding", region_spec(t0.region), payload, status)


def cmd_generators(args) -> CommandResult:
    from . import hamiltonian as ham
    path = _parse_path_arg(args, args.base)
    cap = ham.DEFAULT_HALF_FLOOR_CAP if args.cap is None else args.cap
    gens = ham.generator_set(path, cap=cap)
    entries = []
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for k, g in enumerate(gens):
        entry = {
            "d": list(g.d),
            "plug": g.plug,
            "half_floors": g.half,
            "flux": list(g.flux),
            "twist": g.twist,
        }
        text = g.tiling.to_text()
        if out_dir:
            name = f"gen_{k:03d}_d{g.d[0]}-{g.d[1]}.txt"
            (out_dir / name).write_text(text)
            entry["file"] = name
        else:
            entry["tiling"] = text
        entries.append(entry)
    payload = {"generator_count": len(gens), "generators": entries}
    if out_dir:
        payload["out"] = str(out_dir)
    return CommandResult("generators", region_spec(path.region), payload)


def cmd_flux(args) -> CommandResult:
    from . import hamiltonian as ham
    path = _parse_path_arg(args, args.base)
    if args.d is None:
        if args.plug is not None:
            return _fail("flux", "--plug needs --d", region_spec(path.region))
        dominoes = ham.non_respecting_base_dominoes(path)
        payload = {"non_respecting_dominoes": [list(d) for d in dominoes]}
        return CommandResult("flux", region_spec(path.region), payload)
    d = tuple(int(x) for x in args.d.split(","))
    if len(d) != 2:
        return _fail("flux", "--d wants two path positions 'i,j'",
                     region_spec(path.region))
    if args.plug is not None:
        phi = ham.flux(path, d, int(args.plug, 0))
        payload = {"d": list(d), "plug": int(args.plug, 0), "flux": list(phi)}
    else:
        values = sorted(ham.flux_set(path, d))
        payload = {"d": list(d), "flux_set": [list(v) for v in values]}
    return CommandResult("flux", region_spec(path.region), payload)


def cmd_fold(args) -> CommandResult:
    from . import hamiltonian as ham
    t = _read_tiling(args, args.tiling)
    src = _parse_path_arg(args, args.src)
    dst = _parse_path_arg(args, args.dst)
    moved = ham.unfold(t, src, dst) if args.unfold else ham.fold(t, src, dst)
    text = moved.to_text()
    payload = {"region": region_spec(moved.region)}
    if args.out:
        Path(args.out).write_text(text)
        payload["out"] = args.out
    else:
        payload["tiling"] = text
    return CommandResult("fold", region_spec(t.region), payload)


# ---------------------------------------------------------------- render

def _cell_glyph(region: Region, t: Tiling, i: int) -> str:
    a, b = region.cells[i], region.cells[t.partner[i]]
    axis = next(k for k in range(region.dim) if a[k] != b[k])
    up = b[axis] > a[axis]
    if axis == region.dim - 1:
        return FLOOR_GLYPHS[0 if up else 1]
    return DIRECTION_GLYPHS[axis][0 if up else 1]


def render_tiling(t: Tiling) -> str:
    """ASCII rendering, one block per floor (last axis), rows by the second
    axis, columns by the first; extra middle axes become labeled slices.
    Each cell shows where its partner lies: [] nu fb ws pairs in-floor,
    U/D for the floor above/below, '.' for cells outside the region.  A
    region of more than four in-floor axes has no glyphs and is refused."""
    region = t.region
    if region.dim - 1 > len(DIRECTION_GLYPHS):
        raise ValueError(f"render draws at most {len(DIRECTION_GLYPHS)} in-floor axes,"
                         f" the region has {region.dim - 1}")
    index = region.index
    if not region.cells:
        return "(empty region)\n"
    box = region.bounding_box
    lo = [b[0] for b in box]
    hi = [b[1] for b in box]
    dim = region.dim
    xs = range(lo[0], hi[0] + 1)

    def row(cell_of) -> str:
        out = []
        for x in xs:
            i = index.get(cell_of(x))
            out.append("." if i is None else _cell_glyph(region, t, i))
        return "  " + "".join(out)

    if dim == 1:
        return row(lambda x: (x,))[2:] + "\n"
    lines: list[str] = []
    for h in range(lo[-1], hi[-1] + 1):
        lines.append(f"floor {h}")
        if dim == 2:
            lines.append(row(lambda x: (x, h)))
            continue
        mids = [range(lo[k], hi[k] + 1) for k in range(2, dim - 1)]
        for mid in itertools.product(*mids) if mids else [()]:
            if mids:
                label = ",".join(f"x{k + 2}={v}" for k, v in enumerate(mid))
                lines.append(f"  [{label}]")
            for y in range(lo[1], hi[1] + 1):
                lines.append(row(lambda x: (x, y, *mid, h)))
    return "\n".join(lines) + "\n"


def cmd_render(args) -> CommandResult:
    t = _read_tiling(args, args.tiling)
    return CommandResult("render", region_spec(t.region),
                         {"text": render_tiling(t)})


# ------------------------------------------------------------------ main

def _print_text(result: CommandResult) -> None:
    p = result.payload
    if result.status == "error":
        print(f"error: {p.get('message', '?')}", file=sys.stderr)
        return
    if result.command == "render":
        sys.stdout.write(p["text"])
        return
    print(f"{result.command} {result.region or ''}".rstrip())
    for key, value in p.items():
        if key == "components":
            for k, c in enumerate(value):
                print(f"  component {k}: size={c['size']} twist={c['twist']}")
        elif key == "generators":
            for g in value:
                print(f"  d={g['d']} plug={g['plug']:#x} flux={g['flux']}"
                      f" twist={g['twist']} half={g['half_floors']}")
        elif key in ("tiling", "text"):
            sys.stdout.write(value)
        else:
            print(f"  {key}: {value}")
    if result.status != "ok":
        print(f"  status: {result.status}")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so main reports them as error
    results; the subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dominotwist",
        description="exact counts, twists, flip components, transfer"
                    " matrices and path constructions for domino tilings",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a single CommandResult JSON object")

    p = sub.add_parser("count", help="number of tilings of a region")
    p.add_argument("--region", required=True)
    p.add_argument("--method", choices=("auto", "enum", "transfer"),
                   default="auto")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("components", help="flip-graph component census")
    p.add_argument("--region", required=True)
    common(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("twist", help="twist of a serialized tiling")
    p.add_argument("--tiling", required=True, help="tiling text or JSON file")
    common(p)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("defect", help="twist-signed tiling count")
    p.add_argument("--region", required=True)
    p.add_argument("--method", choices=("auto", "det", "enum", "transfer"),
                   default="auto")
    common(p)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("transfer-export",
                       help="write plug transfer matrices as JSON")
    p.add_argument("--base", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", help="also write a binary matrix cache here")
    common(p)
    p.set_defaults(func=cmd_transfer_export)

    p = sub.add_parser("spectral",
                       help="dominant growth rates of the transfer matrices")
    p.add_argument("--base", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("padding",
                       help="flip connectivity after adding vertical floors")
    p.add_argument("--t0", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--floors", type=int, required=True,
                   help="even number of vertical floors to append")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p)
    p.set_defaults(func=cmd_padding)

    p = sub.add_parser("generators",
                       help="generator tilings for a box base path")
    p.add_argument("--base", required=True,
                   help="'box:<dims>' or a path JSON file")
    p.add_argument("--out", help="directory for tiling text files")
    p.add_argument("--cap", type=int)  # None: hamiltonian's DEFAULT_HALF_FLOOR_CAP
    common(p)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("flux", help="flux of non-respecting dominoes")
    p.add_argument("--base", required=True,
                   help="'box:<dims>' or a path JSON file")
    p.add_argument("--d", help="1-based path positions 'i,j'")
    p.add_argument("--plug", help="plug bitmask (hex or decimal)")
    common(p)
    p.set_defaults(func=cmd_flux)

    p = sub.add_parser("fold", help="transport a tiling between path regions")
    p.add_argument("--tiling", required=True)
    p.add_argument("--src", required=True, help="path of the tiling's base")
    p.add_argument("--dst", required=True, help="target path")
    p.add_argument("--unfold", action="store_true",
                   help="skip the global fold precheck, fail per-domino")
    p.add_argument("--out", help="write the transported tiling here")
    common(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("render", help="ASCII picture of a tiling, by floors")
    p.add_argument("--tiling", required=True)
    common(p)
    p.set_defaults(func=cmd_render)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # parsing fills args in place, so a usage error still finds the
    # subcommand on it once one was read
    args = argparse.Namespace(subcommand=None, json="--json" in argv)
    start = time.perf_counter()
    try:
        build_parser().parse_args(argv, args)
        start = time.perf_counter()  # the timing covers the command only
        result: CommandResult = args.func(args)
    except (OSError, ValueError, MemoryError) as e:  # package errors subclass ValueError
        message = str(e) or ("out of memory" if isinstance(e, MemoryError) else "")
        result = _fail(args.subcommand, message, getattr(args, "named_region", None))
    result.timing = round(time.perf_counter() - start, 6)
    # exact answers can exceed the interpreter's limit on the digits of an
    # int-to-str conversion (0 or absent: no limit); lift it while printing
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps(result.to_json_obj(), separators=(",", ":")))
        else:
            _print_text(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left in the buffer to
        # devnull, so that the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return {"ok": 0, "indeterminate": 2, "error": 1}[result.status]


if __name__ == "__main__":
    sys.exit(main())
