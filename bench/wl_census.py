"""Workload `census`: flip-graph censuses and the criterion-11a merge.

Fixed inputs; the seed is not used.  Enumeration, batch twist and the
component sweep do nearly all the work, at two working-set sizes (the
depth-4 cylinder over 2,2,2 and the depth-3 cylinder over 2,2,3); the
transfer layer does none.
"""

from __future__ import annotations

from harness import Pass, expect, median

SPECS = ("box:2,2,2,2", "cyl:2,2,2xN=3", "cyl:2,2,2xN=4", "cyl:2,2,3xN=3")
BUDGET_S = {"box:2,2,2,2": 2.0, "cyl:2,2,2xN=3": 5.0, "cyl:2,2,2xN=4": 20.0,
            "cyl:2,2,3xN=3": 60.0}
MERGE_SPEC = "cyl:2,2,3xN=3"
MERGE_FLOORS = 2
MERGE_BUDGET_S = 10.0
PEAK_RSS = "RUSAGE_SELF"


class Census:
    name = "census"
    peak_rss = PEAK_RSS
    # One pass takes about 20 s on a shared 2-core host; a lone pass left
    # the run-to-run spread of pass_s near 9 %, so every run takes two.
    min_passes = 2

    def __init__(self, data: dict):
        self.expected = data["census"]
        self.total_tilings = sum(e["tilings"] for e in self.expected.values())

    def setup(self, dt, seed: int) -> dict:
        return {spec: dt.parse_region_spec(spec) for spec in SPECS}

    def run_pass(self, dt, regions: dict, p: Pass) -> dict:
        counts = {"tilings.enumerated": 0, "moves.components": 0, "moves.visited": 0}
        merge_rep = None
        for spec in SPECS:
            region = regions[spec]
            op = p.run(f"flip_components {spec}", "census", BUDGET_S[spec],
                       lambda: dt.flip_components(region),
                       lambda rep: self._check_census(spec, rep),
                       layer="moves.flip_components")
            if op.ok:
                rep = op.value
                counts["tilings.enumerated"] += len(rep.states)
                counts["moves.components"] += len(rep.components)
                counts["moves.visited"] += rep.visited
                if p.traced:  # the batch twist alone, on a region with no cached tables
                    fresh = dt.parse_region_spec(spec)
                    with p.span("kasteleyn.twist_batch", spec=spec):
                        dt.twist_batch(fresh, rep.states)
                if spec == MERGE_SPEC:
                    merge_rep = rep
                del rep
            op.value = None
        counts["moves.merge_path_len"] = self._merge(dt, merge_rep, p)
        del merge_rep
        if p.traced:  # enumeration plus batch twist, after the census objects are gone
            for spec in SPECS:
                fresh = dt.parse_region_spec(spec)
                with p.span("kasteleyn.twist_census", spec=spec):
                    dt.twist_census(fresh)
        return counts

    def _check_census(self, spec: str, rep) -> None:
        want = self.expected[spec]
        got = [[c.size, c.twist] for c in rep.components]
        expect(rep.complete, f"{spec}: census incomplete")
        expect(len(rep.states) == want["tilings"],
               f"{spec}: {len(rep.states)} tilings, want {want['tilings']}")
        expect(got == want["components"], f"{spec}: component (size, twist) list differs")

    def _merge(self, dt, rep, p: Pass) -> int:
        """Padded merge search from the first size-16 component into the
        giant one; the path is re-verified flip by flip."""
        name = f"padded_merge_search {MERGE_SPEC} +{MERGE_FLOORS}"
        if rep is None:
            p.fail(name, "census", MERGE_BUDGET_S, "not-run", "census failed")
            return 0
        region = rep.region
        base = dt.parse_region_spec("box:2,2,3")
        nb, n0 = len(base.cells), 3
        giant = {bytes(s) for s, c in zip(rep.states, rep.comp_of) if int(c) == 0}
        small = rep.components[2]
        start_tiling = dt.Tiling(region, bytes(small.representative))
        padded = dt.make_cylinder(base, n0 + MERGE_FLOORS)
        start = list(start_tiling.partner)
        for h in range(n0, n0 + MERGE_FLOORS, 2):
            start += [(h + 1) * nb + i for i in range(nb)] + [h * nb + i for i in range(nb)]
        start = bytes(start)

        def check(path) -> None:
            from dominotwist.moves import is_flip_pair
            expect(small.size == 16, "component 2 is not a size-16 component")
            expect(path is not None, "no merge path within the search budget")
            expect(bytes(path[0]) == start, "path does not start at the padded tiling")
            for a, b in zip(path, path[1:]):
                expect(is_flip_pair(padded, bytes(a), bytes(b)), "path step is not a flip")
            final = bytes(path[-1])
            for h in range(n0, n0 + MERGE_FLOORS, 2):
                expect(all(final[h * nb + i] == (h + 1) * nb + i for i in range(nb)),
                       "padding slab is not vertical at the end")
            expect(final[:n0 * nb] in giant, "path does not end in the giant component")

        op = p.run(name, "census", MERGE_BUDGET_S,
                   lambda: dt.padded_merge_search(start_tiling, giant, MERGE_FLOORS),
                   check, layer="moves.merge_search")
        return len(op.value) if op.ok else 0

    def named(self, passes: list[Pass]) -> dict:
        rates = [self.total_tilings / p.charged() for p in passes]
        return {"census_tilings_per_s": (median(rates), "1/s")}

    def layers(self, p: Pass, counts: dict, probes: dict) -> dict:
        tr = p.tracer
        comps = tr.total("moves.flip_components")
        enum_twist = tr.total("kasteleyn.twist_census")
        return {
            "kasteleyn.twist_census_s": enum_twist,
            "kasteleyn.twist_batch_s": tr.total("kasteleyn.twist_batch"),
            "moves.flip_components_s": comps,
            "moves.components_self_s": comps - enum_twist,
            "moves.merge_search_s": tr.total("moves.merge_search"),
            **counts,
        }

    def probes(self, dt, regions: dict, p: Pass) -> dict:
        return {}
