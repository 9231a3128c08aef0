"""Workload `cli`: one `python -m dominotwist.cli ... --json` subprocess per
request, one client in a closed loop over a fixed script of 38 requests.

The seed picks the tilings given to `twist`, `render` and `fold` (uniformly
from the sorted tilings of a stated region) and the request order; the
program receives only the generated files.  Start-up and import dominate
the short requests; the two padding requests run the pairwise flip search
of `moves`, the code the census sweeps.  The padding pair is pinned: seeded
pairs can exceed any budget (a cyl:2,2,2xN=8 pair reached 4.3 GB).
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time

from harness import BudgetExceeded, Pass, expect, median, tail

TWIST_REGION = "cyl:2,2,2xN=3"  # twist and render inputs are drawn from its tilings
FOLD_REGION = "cyl:8xN=3"       # fold inputs; folded from path box:8 onto box:2,2,2
DRAWS = {"twist": 10, "render": 8, "fold": 8}  # half as tiling text, half as JSON
BUDGET_S = 10.0
PADDING_BUDGET_S = 30.0
PEAK_RSS = "RUSAGE_CHILDREN"
PAYLOAD_SUBS = ("padding", "generators", "defect", "count", "components",
                "spectral", "transfer-export")
PROBE_REPS = 5

DIRECTIONS = {"[": (0, 1), "]": (0, -1), "n": (1, 1), "u": (1, -1),
              "f": (2, 1), "b": (2, -1), "w": (3, 1), "s": (3, -1)}
CELL_RE = re.compile(r"\(([-\d,]+)\)-\(([-\d,]+)\)")


class RequestFailed(Exception):
    """The program answered with an error, a traceback or no result."""


def parse_dominoes(text: str) -> set:
    """Domino set of a tiling in the documented text format."""
    out = set()
    for line in text.splitlines()[1:]:
        m = CELL_RE.fullmatch(line.strip())
        if m:
            a, b = (tuple(int(x) for x in g.split(",")) for g in m.groups())
            out.add(frozenset((a, b)))
    return out


def decode_render(text: str, dims: tuple) -> set:
    """Domino set drawn by `render` for a 4-dimensional cylinder: blocks per
    floor, [x2=..] slices, rows by x1, columns by x0; a glyph names the
    direction of the cell's partner (U/D along the floor axis)."""
    cells = []
    h = mid = None
    for line in text.splitlines():
        if line.startswith("floor "):
            h, y = int(line[6:]), 0
        elif line.strip().startswith("[x2="):
            mid, y = int(line.strip()[4:-1]), 0
        elif line.strip():
            for x, glyph in enumerate(line.strip()):
                cells.append(((x, y, mid, h), glyph))
            y += 1
    out = set()
    last = len(dims) - 1
    for cell, glyph in cells:
        axis, step = (last, 1 if glyph == "U" else -1) if glyph in "UD" else DIRECTIONS[glyph]
        other = list(cell)
        other[axis] += step
        out.add(frozenset((cell, tuple(other))))
    return out


def dominoes_of(tiling) -> set:
    return {frozenset((tuple(a), tuple(b))) for a, b in tiling.dominoes()}


class Cli:
    name = "cli"
    peak_rss = PEAK_RSS
    min_passes = 1

    def __init__(self, data: dict, work_dir, src_dir):
        self.expected = data["cli"]
        self.dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))

    # ----------------------------------------------------------- inputs

    def setup(self, dt, seed: int) -> list:
        """Write the request files and return the request script in the
        seeded order: (subcommand, argv, check, budget)."""
        exp = self.expected
        rng = random.Random(seed)
        d = self.dir
        pool = {}
        for spec in (TWIST_REGION, FOLD_REGION):
            region = dt.parse_region_spec(spec)
            pool[spec] = sorted(dt.enumerate_tilings(region), key=lambda t: t.partner)
        reqs = []

        def write(name: str, tiling, as_json: bool) -> str:
            text = (json.dumps(tiling.to_json_obj()) + "\n") if as_json else tiling.to_text()
            (d / name).write_text(text)
            return name

        twist_region = dt.parse_region_spec(TWIST_REGION)
        picks = [rng.choice(pool[TWIST_REGION]) for _ in range(DRAWS["twist"])]
        twists = dt.twist_batch(twist_region, [bytes(t.partner) for t in picks])
        for k, (t, tw) in enumerate(zip(picks, twists)):
            f = write(f"twist_{k}.{'json' if k % 2 else 'txt'}", t, k % 2 == 1)
            reqs.append(("twist", ["twist", "--tiling", f],
                         lambda p, tw=int(tw): expect(p["twist"] == tw, "twist differs")))
        for k in range(DRAWS["render"]):
            t = rng.choice(pool[TWIST_REGION])
            f = write(f"render_{k}.{'json' if k % 2 else 'txt'}", t, k % 2 == 1)
            want = dominoes_of(t)
            reqs.append(("render", ["render", "--tiling", f],
                         lambda p, want=want: expect(
                             decode_render(p["text"], (2, 2, 2, 3)) == want,
                             "render does not draw the tiling")))
        dst = [tuple(c) for c in exp["fold_dst_2,2,2"]]
        for k in range(DRAWS["fold"]):
            t = rng.choice(pool[FOLD_REGION])
            f = write(f"fold_{k}.{'json' if k % 2 else 'txt'}", t, k % 2 == 1)
            want = {frozenset(dst[c[0]] + (c[1],) for c in dom) for dom in dominoes_of(t)}
            reqs.append(("fold", ["fold", "--tiling", f, "--src", "box:8", "--dst", "box:2,2,2"],
                         lambda p, want=want: expect(parse_dominoes(p["tiling"]) == want,
                                                     "folded tiling differs")))
        for k, pair in enumerate(exp["padding"]):
            (d / f"pad{k}_t0.txt").write_text(pair["t0"])
            (d / f"pad{k}_t1.txt").write_text(pair["t1"])
            reqs.append(("padding", ["padding", "--t0", f"pad{k}_t0.txt", "--t1", f"pad{k}_t1.txt",
                                     "--floors", str(pair["floors"])],
                         lambda p, want=pair["connected"]: expect(
                             p["connected"] is want, "padding verdict differs")))
        reqs += self._fixed_requests(dt)
        rng.shuffle(reqs)
        return [(r[0], r[1], r[2], PADDING_BUDGET_S if r[0] == "padding" else BUDGET_S)
                for r in reqs]

    def _fixed_requests(self, dt) -> list:
        exp = self.expected
        d = self.dir
        reqs = []
        for spec, count in exp["count"].items():
            reqs.append(("count", ["count", "--region", spec],
                         lambda p, c=int(count): expect(p["count"] == c, "count differs")))
        defect = int(exp["defect_abs"]["box:6,6,6"])
        reqs.append(("defect", ["defect", "--method", "det", "--region", "box:6,6,6"],
                     lambda p: expect(p["abs"] == defect == abs(p["defect"]), "defect differs")))
        comps = exp["components"]["box:2,2,2,2"]
        reqs.append(("components", ["components", "--region", "box:2,2,2,2"],
                     lambda p: expect(p["complete"] and [[c["size"], c["twist"]]
                                      for c in p["components"]] == comps,
                                      "components differ")))
        lam = exp["spectral"]["2,2,2"]

        def check_spectral(p) -> None:
            for key in ("lambda", "lambda_tilde"):
                expect(abs(p[key] - lam[key]) <= 1e-6 * lam[key], f"{key} differs")

        reqs.append(("spectral", ["spectral", "--base", "box:2,2,2"], check_spectral))
        export = exp["export_223"]

        def check_export(p) -> None:
            expect([p["plugs"], p["nnz_count"], p["nnz_signed"]] == [export["plugs"], *export["nnz"]],
                   "export sizes differ")
            obj = json.loads((d / "export.json").read_text())
            expect(sum(v != 0 for row in obj["A"] for v in row) == export["nnz"][0],
                   "exported A differs")
            tm = dt.load_transfer_cache(str(d / "export.dtrc"))
            expect(list(tm.nnz) == export["nnz"], "binary cache differs")

        reqs.append(("transfer-export", ["transfer-export", "--base", "box:2,2,3",
                                         "--out", "export.json", "--binary", "export.dtrc"],
                     check_export))
        reqs.append(("flux", ["flux", "--base", "box:3,4"],
                     lambda p: expect(p["non_respecting_dominoes"] == exp["flux_3,4"],
                                      "non-respecting dominoes differ")))
        reqs.append(("flux", ["flux", "--base", "box:3,4", "--d", "1,6"],
                     lambda p: expect(p["flux_set"] == exp["flux_3,4_d1,6"], "flux set differs")))
        path = dt.box_path((3, 4))

        def check_generators(p) -> None:
            expect(p["generator_count"] == exp["generators_3,4"] == len(p["generators"]),
                   "generator count differs")
            for g in p["generators"]:
                t = dt.tiling_from_text(g["tiling"])
                expect(len(dt.non_respecting_dominoes(path, t)) == 1,
                       "generator has not exactly one non-respecting domino")

        reqs.append(("generators", ["generators", "--base", "box:3,4"], check_generators))
        return reqs

    # --------------------------------------------------------- requests

    def _request(self, argv: list, limit: float) -> dict:
        try:
            proc = subprocess.run([sys.executable, "-m", "dominotwist.cli", *argv, "--json"],
                                  cwd=self.dir, env=self.env, capture_output=True,
                                  text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            raise BudgetExceeded from None
        lines = proc.stdout.strip().splitlines()
        if "Traceback" in proc.stderr or not lines:
            raise RequestFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        obj = json.loads(lines[-1])
        if proc.returncode != 0 or obj.get("status") != "ok":
            raise RequestFailed(f"exit {proc.returncode}, status {obj.get('status')}:"
                                f" {obj.get('payload')}"[:300])
        return obj

    def run_pass(self, dt, script: list, p: Pass) -> dict:
        for sub, argv, check, budget in script:
            op = p.run(" ".join(argv), sub, budget,
                       lambda limit: self._request(argv, limit),
                       lambda obj: check(obj["payload"]), layer=f"cli.{sub}",
                       in_process=False)
            if op.ok:
                op.payload_s = op.value["timing"]
                op.value = None
        return {}

    def named(self, passes: list[Pass]) -> dict:
        times = [op.charged for p in passes for op in p.ops]
        value, pct, n = tail(times)
        return {"cli_p50_ms": (median(times) * 1e3, "ms"),
                "cli_tail_ms": (value * 1e3, "ms"),
                "cli_tail_pct": (pct, "%"),
                "cli_samples": (n, "count"),
                "cli_session_s": (median([p.charged() for p in passes]), "s")}

    def probes(self, dt, script: list, p: Pass) -> dict:
        """Bare interpreter start-up and the import of dominotwist.cli."""
        def wall(code: str) -> float:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.dir, env=self.env,
                           check=True, timeout=BUDGET_S)
            return time.perf_counter() - start

        with p.span("cli.probe_interpreter"):
            bare = median([wall("pass") for _ in range(PROBE_REPS)])
        with p.span("cli.probe_import"):
            imp = median([wall("import dominotwist.cli") for _ in range(PROBE_REPS)])
        return {"cli.interpreter_ms": bare * 1e3, "cli.import_ms": (imp - bare) * 1e3}

    def layers(self, p: Pass, counts: dict, probes: dict) -> dict:
        ok = [op for op in p.ops if op.ok]
        out = {"cli.overhead_ms": median([op.elapsed - op.payload_s for op in ok]) * 1e3}
        for sub in PAYLOAD_SUBS:
            out[f"cli.{sub}_payload_s"] = sum(op.payload_s for op in ok if op.group == sub)
        return out | probes
