"""Workload `transfer`: exact transfer-matrix counts, the 16-cell bases,
spectral estimates and the export and cache write path.

Fixed inputs; the seed is not used.  Every pass runs in a fresh process
(empty transfer cache, fresh Region objects), as a CLI call would.  The
16-cell bases at N=20 fail today (int64 overflow in the matrix-free route);
they stay in the script and are charged their budget while they fail.
"""

from __future__ import annotations

import json

from harness import Pass, expect, median

EXACT_BASES = ("2,2,3", "3,4", "2,5")
LARGE_BASES = ("4,4", "2,2,2,2")
LARGE_FLOORS = (4, 20)
SPECTRAL_BASES = ("2,2,3", "3,4")
SPLIT_FLOORS = 300
SPECTRAL_TOL = 1e-12
BUDGET_S = {"split": 10.0, "few_vertical": 5.0, "small": 5.0, "large": 10.0,
            "spectral": 10.0, "export": 10.0}
PEAK_RSS = "RUSAGE_SELF"


def _tag(dims: str) -> str:
    return "b" + dims.replace(",", "")


def _rows(rows) -> list:
    return [sorted((int(j), int(v)) for j, v in row) for row in rows]


class Transfer:
    name = "transfer"
    peak_rss = PEAK_RSS
    min_passes = 1

    def __init__(self, data: dict, work_dir):
        self.expected = data["transfer"]
        self.json_path = work_dir / "transfer_2,2,3.json"
        self.cache_path = work_dir / "transfer_2,2,3.dtrc"

    def setup(self, dt, seed: int) -> dict:
        return {dims: dt.parse_region_spec(f"box:{dims}")
                for dims in EXACT_BASES + LARGE_BASES}

    def run_pass(self, dt, bases: dict, p: Pass) -> dict:
        exp = self.expected
        for dims in EXACT_BASES:
            want = [int(x) for x in exp["split300"][dims]]
            p.run(f"twist_split {dims} N={SPLIT_FLOORS}", "exact", BUDGET_S["split"],
                  lambda: dt.twist_split(bases[dims], SPLIT_FLOORS),
                  lambda got: expect(list(got) == want, f"twist_split {dims} differs"),
                  layer="transfer.twist_split")
        few = int(exp["few_vertical"])
        p.run("count_with_few_vertical_floors 2,2,3 N=40 bound=3", "exact",
              BUDGET_S["few_vertical"],
              lambda: dt.count_with_few_vertical_floors(bases["2,2,3"], 40, 3),
              lambda got: expect(got == few, "few-vertical count differs"),
              layer="transfer.few_vertical")
        p.run("cylinder_count/defect N=1..3 on 2,2,3 3,4 2,5", "exact", BUDGET_S["small"],
              lambda: {dims: [[dt.cylinder_count(bases[dims], n),
                               dt.cylinder_defect(bases[dims], n)] for n in (1, 2, 3)]
                       for dims in EXACT_BASES},
              self._check_small, layer="transfer.small")
        for dims in LARGE_BASES:
            for n in LARGE_FLOORS:
                count, defect = (int(x) for x in exp["large"][dims][str(n)])
                p.run(f"cylinder_count {dims} N={n}", "large", BUDGET_S["large"],
                      lambda: dt.cylinder_count(bases[dims], n),
                      lambda got: expect(got == count and (got + defect) % 2 == 0,
                                         f"count {dims} N={n} differs"),
                      layer="transfer.large")
                p.run(f"cylinder_defect {dims} N={n}", "large", BUDGET_S["large"],
                      lambda: dt.cylinder_defect(bases[dims], n),
                      lambda got: expect(got == defect, f"defect {dims} N={n} differs"),
                      layer="transfer.large")
        counts = {"transfer.spectral_iterations": 0, "transfer.spectral_residual": 0.0}
        for dims in SPECTRAL_BASES:
            op = p.run(f"spectral_estimates {dims} tol={SPECTRAL_TOL}", "spectral",
                       BUDGET_S["spectral"],
                       lambda: dt.spectral_estimates(bases[dims], tol=SPECTRAL_TOL),
                       lambda rep: self._check_spectral(dims, rep),
                       layer="transfer.spectral")
            if op.ok:
                counts["transfer.spectral_iterations"] += op.value.iterations + op.value.iterations_tilde
                counts["transfer.spectral_residual"] = max(
                    counts["transfer.spectral_residual"], op.value.residual, op.value.residual_tilde)
        self._export(dt, bases["2,2,3"], p)
        return counts

    def _check_small(self, got: dict) -> None:
        for dims in EXACT_BASES:
            for n, ((c, d), (c_ref, d_ref)) in enumerate(
                    zip(got[dims], self.expected["small"][dims]), start=1):
                expect((c + d) % 2 == 0, f"{dims} N={n}: count and defect differ in parity")
                expect(c == c_ref, f"{dims} N={n}: count {c} != count_tilings {c_ref}")
                expect(d == d_ref, f"{dims} N={n}: defect {d} != determinant {d_ref}")

    def _check_spectral(self, dims: str, rep) -> None:
        want = self.expected["spectral"][dims]
        for key, got in (("lambda", rep.lam), ("lambda_tilde", rep.lam_tilde)):
            expect(abs(got - want[key]) <= 1e-9 * want[key],
                   f"spectral {dims}: {key} {got} != eigensolver {want[key]}")
        expect(rep.lam_tilde < rep.lam, f"spectral {dims}: no gap")
        bound = SPECTRAL_TOL * max(1.0, rep.lam)
        expect(rep.residual <= bound, f"spectral {dims}: residual {rep.residual}")
        expect(rep.residual_tilde <= SPECTRAL_TOL * max(1.0, rep.lam_tilde ** 2),
               f"spectral {dims}: residual {rep.residual_tilde}")

    def _export(self, dt, base, p: Pass) -> None:
        """JSON export, then a binary cache round trip, of the 2,2,3 matrices."""
        want = self.expected["export_223"]
        json_path, cache_path = self.json_path, self.cache_path

        def export():
            obj = dt.transfer_to_json_obj(dt.get_transfer(base))
            json_path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
            return obj

        def check_export(obj) -> None:
            tm = dt.get_transfer(base)
            expect(len(obj["plugs"]) == want["plugs"] == tm.size, "plug count differs")
            for key, rows, nnz in (("A", tm.rows_count, want["nnz"][0]),
                                   ("Atilde", tm.rows_signed, want["nnz"][1])):
                dense = obj[key]
                expect(sum(v != 0 for row in dense for v in row) == nnz,
                       f"{key}: nonzero count differs")
                expect(all(dense[i][j] == v for i, row in enumerate(rows) for j, v in row),
                       f"{key}: entry differs from the sparse rows")

        p.run("transfer_to_json_obj 2,2,3", "exact", BUDGET_S["export"], export,
              check_export, layer="transfer.export")
        p.run("save_transfer_cache 2,2,3", "exact", BUDGET_S["export"],
              lambda: dt.save_transfer_cache(dt.get_transfer(base), str(cache_path)),
              lambda _: expect(cache_path.stat().st_size > 0, "empty cache file"),
              layer="transfer.cache_write")

        def check_load(tm) -> None:
            orig = dt.get_transfer(base)
            expect(list(tm.plugs) == list(orig.plugs), "loaded plugs differ")
            expect(_rows(tm.rows_count) == _rows(orig.rows_count), "loaded count rows differ")
            expect(_rows(tm.rows_signed) == _rows(orig.rows_signed), "loaded signed rows differ")

        p.run("load_transfer_cache 2,2,3", "exact", BUDGET_S["export"],
              lambda: dt.load_transfer_cache(str(cache_path), base),
              check_load, layer="transfer.cache_read")

    def named(self, passes: list[Pass]) -> dict:
        return {"exact_s": (median([p.charged("exact") for p in passes]), "s"),
                "large_base_s": (median([p.charged("large") for p in passes]), "s"),
                "spectral_s": (median([p.charged("spectral") for p in passes]), "s")}

    def probes(self, dt, bases: dict, p: Pass) -> dict:
        """Matrix build per base; this runs in a process of its own, so the
        transfer cache starts empty."""
        out = {"transfer.plugs": 0, "transfer.nnz": 0}
        for dims in EXACT_BASES + LARGE_BASES:
            base = dt.parse_region_spec(f"box:{dims}")
            try:
                with p.span(f"transfer.build.{_tag(dims)}"):
                    tm = dt.get_transfer(base)
            except dt.TransferError:
                continue  # the 16-cell bases have no matrix today; the time to refuse is kept
            out["transfer.plugs"] += tm.size
            out["transfer.nnz"] += sum(tm.nnz)
        return out

    def layers(self, p: Pass, counts: dict, probes: dict) -> dict:
        tr = p.tracer
        builds = {f"transfer.build_s.{_tag(d)}": tr.total(f"transfer.build.{_tag(d)}")
                  for d in EXACT_BASES + LARGE_BASES}
        exact_builds = sum(builds[f"transfer.build_s.{_tag(d)}"] for d in EXACT_BASES)
        large = {f"transfer.large_base_s.{_tag(dims)}.n{n}":
                 sum(op.charged for op in p.ops if op.name.endswith(f" {dims} N={n}"))
                 for dims in LARGE_BASES for n in LARGE_FLOORS}
        return {
            **builds,
            "transfer.power_s": tr.total("transfer.twist_split") - exact_builds,
            "transfer.few_vertical_s": tr.total("transfer.few_vertical"),
            **large,
            "transfer.spectral_s": tr.total("transfer.spectral"),
            "transfer.cache_write_s": tr.total("transfer.cache_write"),
            "transfer.cache_read_s": tr.total("transfer.cache_read"),
            "transfer.export_s": tr.total("transfer.export"),
            **counts,
            **probes,
        }

