"""The benchmark scripts in bench/ are not edited alongside the library, so
every name they take from dominotwist must keep resolving."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import numpy as np

import dominotwist as dt
from dominotwist import enumerate_tilings, parse_region_spec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(BENCH.glob("*.py"))}


def test_bench_names_resolve():
    sources = _bench_sources()
    assert sources, "no bench scripts found"
    missing = []
    for name, text in sources.items():
        for attr in sorted(set(re.findall(r"\bdt\.(\w+)", text))):
            if not hasattr(dt, attr):
                missing.append(f"{name}: dt.{attr}")
        for module, names in re.findall(r"from (dominotwist(?:\.\w+)?) import ([\w, ]+)", text):
            mod = importlib.import_module(module)
            for attr in (n.strip() for n in names.split(",")):
                if not hasattr(mod, attr):
                    missing.append(f"{name}: {module}.{attr}")
    assert not missing, missing


def test_enumerate_tilings_is_lazy():
    # 92,524,801 tilings: only a lazy enumerator returns the first at once
    region = parse_region_spec("cyl:2,2,2xN=6")
    first = next(iter(enumerate_tilings(region)))
    first.validate()
    assert first.region == region


def test_component_report_surface_used_by_bench():
    # bench/wl_census.py counts len(rep.states), passes rep.states to
    # twist_batch, rebuilds the giant component as {bytes(row), ...} and
    # starts the merge search from a representative
    region = parse_region_spec("cyl:2,2,2xN=3")
    rep = dt.flip_components(region)
    assert len(rep.states) == dt.count_tilings(region) == 6345
    assert all(bytes(row) == rep.state(i) for i, row in enumerate(rep.states))
    assert np.array_equal(dt.twist_batch(region, rep.states), rep.twists)
    assert all(type(c.representative) is bytes for c in rep.components)
    giant = {bytes(s) for s, c in zip(rep.states, rep.comp_of) if int(c) == 0}
    assert len(giant) == rep.components[0].size == 5985
