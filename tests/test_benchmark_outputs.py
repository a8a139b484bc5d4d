"""The benchmark's workloads, run in-process, pass its output checks.

Each workload of ``perfbench/run.py`` runs once at seed 0 into a
temporary directory; its physics checks and the comparison with the
stored reference output must report no problem.  Nothing is written
under ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

from heisenglass import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in perfbench/

import checks  # noqa: E402
import run  # noqa: E402

sys.dont_write_bytecode = dont_write_bytecode


@pytest.mark.parametrize("name", ["report-dense", "scaling-mc"])
def test_workload_output_passes_the_benchmark_checks(tmp_path, name):
    workload = run.WORKLOADS[name]
    assert cli.main(workload.argv(0, tmp_path)) == 0
    assert workload.check(tmp_path) == []
    assert checks.compare_to_reference(tmp_path, PERFBENCH / "reference" / name) == []
