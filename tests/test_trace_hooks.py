"""The benchmark's tracer still attaches to the functions it wraps.

``perfbench/tracing.py`` wraps package functions by name and reads
their arguments and results.  A rename or a changed signature would only
show in a traced benchmark run; this test runs three small traced CLI
calls in a fresh interpreter so it shows here too.
"""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
import tracing

tracer = tracing.instrument(tracing.Tracer("hooks"))
from heisenglass import cli

out = sys.argv[1]
runs = {
    "report": ["spectrum-report", "-L", "8", "-m", "2", "--samples", "2"],
    "eigenstates": ["scaling", "--target", "eigenstates", "-L", "8,9,10,11", "-m", "2", "--samples", "2"],
    "promoted-all": ["scaling", "--target", "random-promoted", "--pairs", "all", "-L", "8,9,10,11",
                     "--samples", "100"],
}
result = {}
for name, argv in runs.items():
    mark = len(tracer.spans)
    rc = cli.main(argv + ["--workers", "1", "--out", f"{out}/{name}"])
    result[name] = {"rc": rc, "layers": tracing.layer_metrics(tracer.spans[mark:])}
print(json.dumps(result))
"""


def test_tracer_attaches_to_every_layer(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert {name: run["rc"] for name, run in runs.items()} == {"report": 0, "eigenstates": 0, "promoted-all": 0}
    for name in ("report", "eigenstates"):
        assert runs[name]["layers"]["ladder.promoted_ratio"] == 1.0, name
    for name in ("eigenstates", "promoted-all"):
        assert runs[name]["layers"]["entanglement.pair_columns"] > 0, name
    # every eigh runs inside diagonalize, where the tracer records it
    assert runs["report"]["layers"]["spectrum.eigh_s"] > 0
    # pair columns, C(L, 2) pairs times the states measured, count each spin block once:
    # every state of two L=8 m=2 samples, and the L promoted states of two samples per L
    assert runs["report"]["layers"]["entanglement.pair_columns"] == 2 * comb(8, 2) * comb(8, 2) == 1568
    assert runs["eigenstates"]["layers"]["entanglement.pair_columns"] == sum(
        2 * comb(L, 2) * L for L in (8, 9, 10, 11)) == 3206
    assert runs["promoted-all"]["layers"]["ensembles.draws"] > 0
