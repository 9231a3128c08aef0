"""Benchmark of dominotwist: end-to-end and per-layer metrics on fixed,
offline workloads, with every answer checked.

    python3 bench/run.py --workload census|transfer|cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src and never from an installed copy.  One client issues operations one
at a time, in a closed loop; no thread is started.  Each pass of the
workload's operation script runs in a fresh process (bench/worker.py),
so that every pass starts from an empty transfer cache and cold memory,
as a CLI call does.  Passes repeat until the next one would end after
--seconds, and at least min_passes times (two for census).  With
--trace 1 a round is an untraced pass, a traced pass and a probe
process; the per-layer metrics come from the traced pass and the probes,
and the tracing overhead is traced minus untraced.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the environment, the
workload's named metrics, per-operation times and every failure.

End-to-end metrics (--trace 0), the same on every workload:
  setup_s      median over at least five fresh processes, spread over the
               run, of importing the package and building the inputs
  pass_s       median wall time of one pass of the operation script
  peak_rss_mb  median over passes of the pass process's peak resident set
               (census, transfer), or of its largest child (cli)
  ok_ratio     operations answered correctly within budget over operations
               attempted, i.e. 1 - failed_ratio
A failed operation (error, traceback, indeterminate, wrong answer, over
budget) is charged its budget in every timing metric.

Which layer metric should move which end-to-end metric (on its workload):
  census:   kasteleyn.twist_census_s, kasteleyn.twist_batch_s,
            moves.flip_components_s, moves.components_self_s,
            moves.merge_search_s -> census_tilings_per_s (= 1,024,698
            tilings / pass_s) and pass_s
  transfer: transfer.build_s.* -> exact_s, large_base_s, spectral_s;
            transfer.power_s, transfer.few_vertical_s, transfer.export_s,
            transfer.cache_write_s, transfer.cache_read_s -> exact_s;
            transfer.large_base_s.* -> large_base_s; transfer.spectral_s ->
            spectral_s; the three sum to pass_s
  cli:      cli.interpreter_ms, cli.import_ms, cli.overhead_ms ->
            cli_p50_ms; cli.<sub>_payload_s -> cli_session_s (= pass_s)
            and cli_tail_ms
Per-layer metrics that a workload does not exercise read 0 on it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "transfer", "cli")
SETUP_REPS = 5
# No process is started after this many seconds of a run, and a running one
# is stopped then: the run must exit within 180 s even when every budget is
# exhausted.
HARD_LIMIT_S = 150.0


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def limit_blas_threads() -> None:
    """One BLAS thread in every process the run starts: a single-threaded
    baseline that stays within nproc and starts no extra threads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def worker(mode: str, name: str, seed: int, end: float) -> dict | None:
    """Run bench/worker.py and return its JSON line; None if it failed or
    was stopped at the end of the run's time."""
    time_left = end - time.perf_counter()
    if time_left <= 0:
        return None
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode, name,
                               str(seed), f"{time_left:.3f}"],
                              capture_output=True, text=True, timeout=time_left + 20)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}\n")
        return None
    return json.loads(lines[-1])


def measure(wl, args) -> dict:
    """Rounds of pass processes until the next round would end after
    --seconds, with set-up processes before each round (and after the last
    if fewer than SETUP_REPS ran), so set-up is sampled across the run."""
    from harness import Pass

    end = time.perf_counter() + HARD_LIMIT_S
    m = {"setups": [], "untraced": [], "traced": [], "layers": [], "info": None}

    def setups(k: int) -> None:
        for _ in range(k):
            r = worker("setup", args.workload, args.seed, end)
            if r:
                m["setups"].append(r["setup_s"])
                m["info"] = m["info"] or r

    deadline = time.perf_counter() + args.seconds
    traced = counts = None
    while True:
        round_start = time.perf_counter()
        setups(3)
        for mode in ("pass", "traced", "probe") if args.trace else ("pass",):
            budget = end - time.perf_counter()
            r = worker(mode, args.workload, args.seed, end)
            if r is None:  # crashed or stopped: one failed operation, charged its time
                p = Pass(None, 0.0)
                p.fail(f"{mode} process", "process", max(budget, 0.0), "error",
                       "the pass process crashed or was stopped")
                if mode != "probe":
                    m["traced" if mode == "traced" else "untraced"].append(p)
                continue
            m["info"] = m["info"] or r
            p = Pass.from_json(r["pass"])
            if mode == "pass":
                m["setups"].append(r["setup_s"])
                m["untraced"].append(p)
            elif mode == "traced":
                m["traced"].append(p)
                traced, counts = p, r["counts"]
            elif traced is not None and m["traced"][-1] is traced:
                shift = len(traced.tracer.spans)  # probe spans join the traced pass
                for span in p.tracer.spans:
                    span["id"] += shift
                    span["parent"] = None if span["parent"] is None else span["parent"] + shift
                traced.tracer.spans += p.tracer.spans
                m["layers"].append(wl.layers(traced, counts, r["probes"]))
        elapsed = time.perf_counter() - round_start
        now = time.perf_counter()
        enough = args.trace or len(m["untraced"]) >= wl.min_passes
        if (enough and now + elapsed > deadline) or now + elapsed > end:
            break
    setups(max(0, SETUP_REPS - len(m["setups"])))
    return m


def run_workload(args) -> dict:
    from harness import median
    from worker import make_workload

    e2e_units, layer_units = declared_metrics()
    work_dir = HERE / ".work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    wl = make_workload(args.workload)
    m = measure(wl, args)
    untraced, traced = m["untraced"], m["traced"]
    ops = [op for p in untraced + traced for op in p.ops]
    failed = [op for op in ops if not op.ok]

    def e2e(passes: list, setups: list) -> dict:
        done = [op.ok for p in passes for op in p.ops]
        return {"setup_s": median(setups),
                "pass_s": median([p.charged() for p in passes]),
                "peak_rss_mb": median([p.peak_rss_mb for p in passes]),
                "ok_ratio": sum(done) / len(done)}

    info = m["info"] or {}
    env = {"workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "python": info.get("python"), "numpy": info.get("numpy"),
           "blas_threads": info.get("blas_threads"),
           "blas_threads_source": info.get("blas_threads_source"),
           "peak_rss_source": wl.peak_rss,
           "client": "one client, closed loop, no threads started by the benchmark",
           "machine_settings": "none touched (no cache dropping, cgroups or huge pages)",
           "passes": {"untraced": len(untraced), "traced": len(traced)}}
    named = wl.named(untraced)
    report = {
        "env": env,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "op_ms": {op.name: median([o.charged for p in untraced for o in p.ops
                                   if o.name == op.name]) * 1e3 for op in untraced[0].ops},
        "failures": sorted({f"{op.name}: {op.outcome} {op.detail}" for op in failed}),
    }
    if not args.trace:
        metrics, units = e2e(untraced, m["setups"]), e2e_units
    else:
        base = e2e(untraced, [p.setup_s for p in untraced])
        over = e2e(traced, [p.setup_s for p in traced])
        metrics, units = dict.fromkeys(layer_units, 0), layer_units
        metrics |= {f"trace_overhead.{k}": over[k] - base[k] for k in e2e_units}
        metrics |= {k: v for k, (v, _) in named.items()}
        if m["layers"]:
            metrics |= {k: median([row[k] for row in m["layers"]]) for k in m["layers"][0]}
        metrics |= {"failed_ratio": len(failed) / len(ops), "env.nproc": env["nproc"],
                    "env.blas_threads": env["blas_threads"] or 0}
        trace_file = work_dir / f"trace_seed{args.seed}.jsonl"
        with open(trace_file, "w") as fh:
            for k, p in enumerate(traced):
                for span in p.tracer.spans if p.tracer else ():
                    fh.write(json.dumps({"pass": k, **span}) + "\n")
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}")
    for key, value in report.items():
        print(f"bench {key}: {json.dumps(value)}")
    return {"correct": not any(op.outcome == "wrong" for op in ops),
            "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def run_all(args) -> int:
    """Every workload untraced and traced, each run in its own process;
    prints every metric by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"bench {name}: exit {proc.returncode}")
                code = code or proc.returncode or 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            for key in ("attempted", "failed"):
                combined[key] += result[key]
            combined["correct"] &= result["correct"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
                print(f"bench {name} {metric}: {value['value']} {value['unit']}")
    print(json.dumps(combined))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "dominotwist" / "__init__.py").is_file():
        print(f"error: no dominotwist sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    limit_blas_threads()
    result = run_workload(args)
    if not result["attempted"]:
        print("error: no operation ran", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
