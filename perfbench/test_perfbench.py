"""Self-tests of the benchmark: checker, self-time arithmetic, exact counts.

    python3 -m pytest perfbench -q

Small inputs only; the full workloads are never run here.
"""

from __future__ import annotations

import gzip
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from heisenglass import cli  # noqa: E402

L, M, SAMPLES = 8, 3, 2


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("report")
    argv = ["spectrum-report", "-L", str(L), "-m", str(M), "--samples", str(SAMPLES), "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    return out


@pytest.fixture(scope="module")
def scaling_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("scaling")
    argv = ["scaling", "--target", "random-promoted", "-L", "8,9,10,11", "--samples", "200", "--out", str(out)]
    assert cli.main(argv) == 0
    return out


def _rewrite(src: Path, dst: Path, row: int, column: str, fn) -> Path:
    """Copy a CLI CSV, applying ``fn`` to one field."""
    lines = src.read_text().splitlines()
    cols = lines[1].split(",")
    fields = lines[row + 2].split(",")
    fields[cols.index(column)] = fn(fields[cols.index(column)])
    lines[row + 2] = ",".join(fields)
    dst.mkdir(parents=True, exist_ok=True)
    (dst / src.name).write_text("\n".join(lines) + "\n")
    return dst / src.name


def test_report_checks_pass_on_real_output(report_dir):
    assert checks.check_report(report_dir / "spectrum_report.csv", L, M, SAMPLES) == []


def test_report_check_rejects_flipped_promoted_label(report_dir, tmp_path):
    bad = _rewrite(report_dir / "spectrum_report.csv", tmp_path, 3, "promoted", lambda v: str(1 - int(v)))
    problems = checks.check_report(bad, L, M, SAMPLES)
    assert any("promoted" in p for p in problems)


def test_report_check_rejects_concurrence_out_of_range(report_dir, tmp_path):
    bad = _rewrite(report_dir / "spectrum_report.csv", tmp_path, 0, "avg_concurrence", lambda v: "1.5")
    assert any("avg_concurrence" in p for p in checks.check_report(bad, L, M, SAMPLES))


def test_scaling_check_rejects_zero_stderr(scaling_dir, tmp_path):
    name = "scaling_random-promoted"
    bad = _rewrite(scaling_dir / f"{name}.csv", tmp_path, 0, "stderr", lambda v: "0.0")
    (tmp_path / f"{name}_fits.json").write_bytes((scaling_dir / f"{name}_fits.json").read_bytes())
    assert checks.check_scaling(scaling_dir / f"{name}.csv", scaling_dir / f"{name}_fits.json", 200) == []
    assert checks.check_scaling(bad, tmp_path / f"{name}_fits.json", 200)


def test_reference_accepts_same_and_round_off_rejects_beyond_tolerance(report_dir, tmp_path):
    ref = tmp_path / "ref"
    checks.record_reference(report_dir, ref)
    assert checks.compare_to_reference(report_dir, ref) == []

    src = report_dir / "spectrum_report.csv"
    nudged = _rewrite(src, tmp_path / "nudged", 5, "eigenvalue", lambda v: repr(float(v) * (1 + 1e-13)))
    assert checks.compare_to_reference(nudged.parent, ref) == []

    moved = _rewrite(src, tmp_path / "moved", 5, "eigenvalue", lambda v: repr(float(v) + 1e-6))
    assert any("eigenvalue" in p for p in checks.compare_to_reference(moved.parent, ref))

    relabeled = _rewrite(src, tmp_path / "relabeled", 5, "promoted", lambda v: str(1 - int(v)))
    assert any("promoted" in p for p in checks.compare_to_reference(relabeled.parent, ref))


def test_reference_rejects_fit_parameter_beyond_tolerance(scaling_dir, tmp_path):
    ref = tmp_path / "ref"
    checks.record_reference(scaling_dir, ref)
    out = tmp_path / "out"
    out.mkdir()
    for path in scaling_dir.iterdir():
        (out / path.name).write_bytes(path.read_bytes())
    fits = out / "scaling_random-promoted_fits.json"
    text = fits.read_text()
    key = '"a": '
    start = text.index(key) + len(key)
    end = text.index(",", start)
    fits.write_text(text[:start] + repr(float(text[start:end]) * 1.001) + text[end:])
    assert any(".a:" in p for p in checks.compare_to_reference(out, ref))


def test_every_workload_has_a_reference():
    for name in run.WORKLOADS:
        refs = list((HERE / "reference" / name).glob("*.gz"))
        assert refs and all(gzip.decompress(ref.read_bytes()) for ref in refs), name


def _span(sid, parent, name, start, end, pid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "pid": pid, "run": "r",
            "attrs": attrs}


def test_self_time_with_worker_returned_spans():
    spans = [
        _span("1-1", None, "cli.main", 0.0, 10.0),
        _span("1-2", "1-1", "cli.map_jobs", 1.0, 9.0, workers=2),
        # two workers run in parallel; their spans came back with the results
        _span("7-1", "1-2", "cli.job", 2.0, 6.0, pid=7),
        _span("8-1", "1-2", "cli.job", 3.0, 8.0, pid=8),
        _span("7-2", "7-1", "spectrum.diagonalize", 4.0, 5.5, pid=7, dim=1000),
        _span("7-3", "7-2", "spectrum.eigh", 4.5, 5.0, pid=7),
        # clipped to its parent's interval
        _span("1-3", "1-1", "cli.write_output", 9.5, 10.5),
    ]
    got = tracing.self_times(spans)
    assert got["1-1"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert got["1-2"] == pytest.approx(8.0 - 6.0)  # union of [2,6] and [3,8]
    assert got["7-1"] == pytest.approx(4.0 - 1.5)
    assert got["8-1"] == pytest.approx(5.0)
    assert got["7-2"] == pytest.approx(1.0)
    assert got["7-3"] == pytest.approx(0.5)
    layers = tracing.layer_metrics(spans)
    assert layers["spectrum.checks_s"] == pytest.approx(1.0)
    assert layers["spectrum.eigh_s"] == pytest.approx(0.5)
    assert layers["spectrum.gflop"] == pytest.approx(10.0 / 3.0)
    assert layers["cli.map_jobs_s"] == pytest.approx(8.0)
    assert layers["cli.pool_busy_ratio"] == pytest.approx((4.0 + 5.0) / (2 * 8.0))


def test_counts_repeat_between_traced_runs(tmp_path):
    argv = ["scaling", "--target", "eigenstates", "--model", "nn", "-L", "8,9,10,11", "-m", "2",
            "--samples", "4", "--workers", "2", "--seed", "3"]
    layers = []
    for k in range(2):
        inv = run.invoke(ROOT, tmp_path, f"t{k}", argv + ["--out", str(tmp_path / f"out{k}")], True,
                         time.perf_counter() + 120)
        assert inv.ok, inv.problems
        spans = inv.record["spans"]
        main_pid = next(sp["pid"] for sp in spans if sp["name"] == "cli.main")
        pool = {sp["id"] for sp in spans if sp["name"] == "cli.map_jobs"}
        jobs = [sp for sp in spans if sp["name"] == "cli.job"]
        assert len(jobs) == 16 and all(sp["parent"] in pool and sp["pid"] != main_pid for sp in jobs)
        layers.append(tracing.layer_metrics(spans))
    assert {k: layers[0][k] for k in tracing.EXACT} == {k: layers[1][k] for k in tracing.EXACT}
    assert layers[0]["basis.states"] > 0 and layers[0]["ladder.promoted_ratio"] == 1.0
    assert layers[0]["entanglement.useful_ratio"] == 0.5


def test_host_probe_samples_during_the_call_and_leaves_output_alone(tmp_path):
    argv = ["scaling", "--target", "random-promoted", "--pairs", "single", "-L", "8,10,12,14", "-m", "2",
            "--samples", "1500", "--seed", "3"]
    invs = [run.invoke(ROOT, tmp_path, f"p{probe}", argv + ["--out", str(tmp_path / f"out{probe}")], False,
                       time.perf_counter() + 120, probe=bool(probe)) for probe in (0, 1)]
    assert all(inv.ok for inv in invs), [inv.problems for inv in invs]
    assert invs[0].record["probe_s"] == [] and len(invs[1].record["probe_s"]) >= 2
    assert checks.digest(tmp_path / "out0") == checks.digest(tmp_path / "out1")
    assert run.host_scale({"probe_s": [run.PROBE_REF_S * 2, run.PROBE_REF_S * 2]}) == pytest.approx(0.5)
