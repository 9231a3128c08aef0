"""The benchmark scripts in bench/ are not edited alongside the library, so
every name they take from dominotwist must keep resolving."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

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
