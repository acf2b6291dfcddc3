"""bench/tracer.py wraps netctl functions at the module attributes its
callers look them up by. Every (module, attribute) it names must exist,
or each traced benchmark command crashes before it starts."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("netctl_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() only runs as a script
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    importlib.import_module("netctl.cli")
    targets = [(module, attr) for module, attr, *_ in tracer.SPANS + tracer.TALLIES]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(sys.modules.get(module), attr)
    ]
    assert missing == []
