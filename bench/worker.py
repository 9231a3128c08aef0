"""One benchmark pass, or one set-up or probe, in a fresh process.

    python3 bench/worker.py <setup|pass|traced|probe> <workload> <seed> <time-left-s>

A fresh process per pass makes every pass pay what a new CLI call pays:
interpreter start aside, the imports, an empty transfer cache and memory
touched for the first time.  Prints one JSON line.  bench/run.py starts it
with the environment already capped (BLAS threads) and reads that line.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def make_workload(name: str):
    data = json.loads((HERE / "data.json").read_text())
    work_dir = HERE / ".work" / name
    if name == "census":
        from wl_census import Census
        return Census(data)
    if name == "transfer":
        from wl_transfer import Transfer
        return Transfer(data, work_dir)
    from wl_cli import Cli
    return Cli(data, work_dir, SRC)


def blas_threads() -> tuple[int, str]:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn(), sym
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "OPENBLAS_NUM_THREADS (library not queried)"


def main() -> int:
    mode, name, seed, time_left = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    from harness import Pass, Tracer

    wl = make_workload(name)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dominotwist as dt
    if Path(dt.__file__).resolve().parent != (SRC / "dominotwist").resolve():
        print(f"error: imported dominotwist from {dt.__file__}", file=sys.stderr)
        return 2
    inputs = wl.setup(dt, seed)
    setup_s = time.perf_counter() - start
    import numpy
    out = {"setup_s": setup_s, "numpy": numpy.__version__,
           "python": platform.python_version()}
    if mode in ("pass", "traced", "probe"):
        p = Pass(Tracer() if mode != "pass" else None, time_left)
        p.setup_s = setup_s
        with p.span("pass" if mode != "probe" else "probe", workload=name, seed=seed):
            if mode == "probe":
                out["probes"] = wl.probes(dt, inputs, p)
            else:
                out["counts"] = wl.run_pass(dt, inputs, p)
        p.peak_rss_mb = resource.getrusage(getattr(resource, wl.peak_rss)).ru_maxrss / 1024
        out["pass"] = p.to_json()
    out["blas_threads"], out["blas_threads_source"] = blas_threads()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
