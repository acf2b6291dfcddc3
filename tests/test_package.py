"""The package's lazy exports, and the CLI's BLAS thread count.

The subprocess probes start from an empty environment, so neither the
test runner's environment nor its already-imported modules leak in.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import netctl

SRC = Path(netctl.__file__).resolve().parents[1]


def _probe(code: str, **env: str) -> str:
    result = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC), **env},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_package_import_loads_no_numpy():
    assert _probe("import sys, netctl; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_runs_one_thread():
    probe = "import os, netctl.cli; print(len(os.listdir('/proc/self/task')))"
    assert _probe(probe) == "1"


def test_cli_keeps_the_callers_blas_thread_count():
    probe = "import os, netctl.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _probe(probe, OPENBLAS_NUM_THREADS="2") == "2"


def test_every_export_is_its_submodules_attribute():
    for name, module in netctl._SOURCE.items():
        source = importlib.import_module(f"netctl.{module}")
        assert getattr(netctl, name) is getattr(source, name), name


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from netctl import *", namespace)
    assert set(netctl.__all__) <= set(namespace)
    assert set(netctl.__all__) <= set(dir(netctl))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        getattr(netctl, "nope")
