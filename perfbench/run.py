"""Benchmark of the heisenglass CLI: end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-reference

Run it from the root of a checkout; it imports heisenglass from ``src/``
and exits with code 2 when that is missing.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it hold the environment
record (CPU count, Python/numpy/scipy/BLAS versions, the live OpenBLAS
thread count, ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``, none of
which the benchmark sets) and, with ``--trace 1``, the share of traced
self time per module.  The full record of the run (environment,
per-invocation figures, problems, and the spans of traced invocations)
is written to ``perfbench/.results/`` when the run ends.

Each workload is a closed loop of one client: one CLI invocation at a
time, each in a fresh interpreter calling ``heisenglass.cli.main`` with
the benchmark's seed as ``--seed``.  A run first starts one set-up-only
interpreter and discards it (the cold one), then five more whose median
is ``setup_s``.  Then it runs invocations until ``--seconds`` have been
used, at least two.  With ``--trace 1`` untraced and traced invocations
alternate; the traced ones give the per-layer metrics, the untraced ones
the tracing overhead.

Workloads (sizes chosen so one invocation takes a few seconds on 2 cores):

* ``report-dense``: ``spectrum-report --model ir -L 13 -m 6 --samples 1
  --workers 1``, one dense sector of dimension 1716, serial.  Dense
  solve, post-solve checks and pair concurrence dominate; worker and
  pool changes should leave it unchanged.
* ``scaling-mc``: ``scaling --target random-promoted
  -L 8,12,16,24,32,40 --samples 5000 --pairs single``, Monte Carlo
  draws only, no dense linear algebra; spectrum, entanglement and pool
  changes should leave it unchanged.
* ``scaling-eigen-w2``: ``scaling --target eigenstates --model nn
  -L 8,12,16,20 -m 2 --samples 20 --workers 2``, many small sectors
  through the process pool, where per-sample fixed cost and BLAS
  oversubscription show.  Its bytes are also compared with one
  ``--workers 1`` pass of the same seed.  It is not in BENCHMARK.json:
  with two workers each starting a full OpenBLAS thread pool on two
  cores, the wall time of identical invocations ranges over a factor of
  three (2.0 to 6.8 s on a 2-vCPU VM), and over five runs the per-run
  median spread by 0.27 (IQR/median), more than any bound the benchmark
  may set.  Run it by name to measure the pool layer.

End-to-end metrics (tracing off).  On a shared host, other tenants slow
identical serial invocations by up to 1.7x in episodes of a few seconds
to minutes, so one run's plain wall time depends on how much of it fell
in such episodes: across 50 s runs on a 2-vCPU VM (Xeon, 2.1 GHz) the
lower quartile of scaling-mc's invocation times spread by 0.24-0.28
(IQR/median).  For ``host_scaled`` workloads the two timings are
therefore given at a reference host speed: each invocation's times are
multiplied by ``PROBE_REF_S`` / the mean time of the host-speed probe
sampled during it (see ``child.py``).  The probe is fixed numpy work
that shares no code with heisenglass, so a change to the program moves
these metrics as it moves wall time; the plain figures are printed
before the result line and kept in the record.  Only ``scaling-mc`` is
scaled: its time goes to the same kind of interpreter-bound numpy calls
as the probe's.  In two sets of ten 50 s runs its samples_per_s spread
0.007 and 0.029 scaled against 0.088 and 0.050 plain, and the two sets'
medians differed by 0.2% scaled against 10% plain.  ``report-dense``
spends its time in two-thread BLAS and large arrays, which the episodes
slow much less than the probe (over 72 invocations its log time moved
0.37 times as much as the probe's), so scaling overcorrects it: 0.086
scaled against 0.055 plain over five runs.

* ``samples_per_s``: work units per second of ``cli.main`` wall time,
  from the median of the run's invocations.  A unit is a disorder sample
  (eigenstate workloads) or a requested Monte Carlo draw
  (``scaling-mc``), i.e. ``samples`` x number of L.
* ``cpu_s_per_sample``: user + system CPU seconds of the CLI process and
  its reaped worker processes, per unit, from the median of the run's
  invocations.
* ``peak_rss_mb``: peak resident set, in MiB, of the largest process of
  the invocation (the CLI process or one worker), from ``getrusage``.
* ``setup_s``: fresh interpreter to ready: start, ``import
  heisenglass.cli`` and the first BLAS call; median of five.
* ``ok_ratio``: invocations that passed ÷ invocations attempted, i.e.
  1 - failed_ratio.  An invocation fails on a non-zero exit code, an
  exception or a failed output check.

Output checks, on every invocation: the physics invariants in
``checks.py``; identical ``--out`` bytes across all invocations of the
run (traced ones included); for pooled workloads equality with a
``--workers 1`` pass; for the default seed, agreement with the recorded
reference in ``reference/`` (integers and labels exactly, floats within
``checks.CSV_*``/``checks.FIT_*`` tolerances).  ``HELD_OUT_SEED`` is the
second seed on which any later performance claim must also hold.

Per-layer metrics are described in ``tracing.layer_metrics``, plus
``cli.output_bytes`` (bytes under ``--out``), ``setup.import_s`` and
``setup.blas_first_call_s`` (medians of the set-up interpreters) and
``trace.overhead_ratio`` (traced ÷ untraced median wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks
import tracing

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

PROBE_REF_S = 0.010  # host-speed probe time of the reference host
SETUP_REPEATS = 5
MIN_INVOCATIONS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # CLI arguments other than -L, -m, --samples, --seed, --out
    sites: tuple[int, ...]
    samples: int
    magnons: int = 2
    host_scaled: bool = False  # timings at the reference host speed (see the module docstring)

    @property
    def units(self) -> int:
        return self.samples * len(self.sites)

    @property
    def pooled(self) -> bool:
        return "--workers" in self.command and self.command[self.command.index("--workers") + 1] != "1"

    def argv(self, seed: int, out: Path, serial: bool = False) -> list[str]:
        cmd = list(self.command)
        if serial:
            cmd[cmd.index("--workers") + 1] = "1"
        return cmd + [
            "-L", ",".join(map(str, self.sites)), "-m", str(self.magnons),
            "--samples", str(self.samples), "--seed", str(seed), "--out", str(out),
        ]

    def check(self, out: Path) -> list[str]:
        if self.command[0] == "spectrum-report":
            return checks.check_report(out / "spectrum_report.csv", self.sites[0], self.magnons, self.samples)
        target = self.command[self.command.index("--target") + 1]
        return checks.check_scaling(out / f"scaling_{target}.csv", out / f"scaling_{target}_fits.json", self.samples)


WORKLOADS = {
    "report-dense": Workload(
        ("spectrum-report", "--model", "ir", "--workers", "1"), sites=(13,), magnons=6, samples=1
    ),
    "scaling-eigen-w2": Workload(
        ("scaling", "--target", "eigenstates", "--model", "nn", "--workers", "2"), sites=(8, 12, 16, 20), samples=20
    ),
    "scaling-mc": Workload(
        ("scaling", "--target", "random-promoted", "--pairs", "single"), sites=(8, 12, 16, 24, 32, 40), samples=5000,
        host_scaled=True,
    ),
}


@dataclass
class Invocation:
    setup_s: float
    record: dict | None
    problems: list[str] = field(default_factory=list)
    out: Path | None = None
    traced: bool = False

    @property
    def ok(self) -> bool:
        return self.record is not None and not self.problems


def invoke(root: Path, work: Path, tag: str, argv: list[str], trace: bool, deadline: float,
           probe: bool = False) -> Invocation:
    """Run child.py once; set-up-only when ``argv`` is empty."""
    result = work / f"{tag}.json"
    errors = work / f"{tag}.err"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), str(result), tag, str(int(trace)), str(int(probe)), *argv]
    t0 = time.perf_counter()
    with open(errors, "w") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        line = ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI process and its pool workers
        proc.communicate()
    if proc.returncode != 0 or line != "READY\n" or not result.is_file():
        tail = errors.read_text()[-400:].strip()
        return Invocation(setup_s, None, [f"{tag}: child exited {proc.returncode}: {tail or 'timed out'}"])
    record = json.loads(result.read_text())
    problems = []
    if not Path(record["module"]).resolve().is_relative_to((root / "src").resolve()):
        problems.append(f"{tag}: imported heisenglass from {record['module']}, not from the checkout")
    if argv and record["rc"] != 0:
        problems.append(f"{tag}: cli exit code {record['rc']}")
    if argv and record["error"]:
        problems.append(f"{tag}: exception {record['error'].strip().splitlines()[-1]}")
    return Invocation(setup_s, record, problems, traced=trace)


def host_scale(record: dict) -> float:
    """Factor that brings the invocation's times to the reference host speed."""
    return PROBE_REF_S / (sum(record["probe_s"]) / len(record["probe_s"]))


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    wl = WORKLOADS[name]
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        setups = [invoke(root, work, f"setup{k}", [], False, deadline) for k in range(SETUP_REPEATS + 1)][1:]
        bad = [p for s in setups for p in s.problems]
        if bad:
            raise SystemExit(f"set-up failed: {bad[0]}")

        def workload_run(tag: str, traced: bool, serial: bool = False) -> Invocation:
            out = work / f"out-{tag}"
            probe = wl.host_scaled and not traced
            inv = invoke(root, work, tag, wl.argv(seed, out, serial), traced, deadline, probe)
            if inv.record is not None:
                if probe and not inv.record["probe_s"]:
                    inv.problems.append(f"{tag}: no host-speed probe ran during cli.main")
                inv.out = out
                inv.problems += wl.check(out)
                inv.record["digest"] = checks.digest(out)
                inv.record["output_bytes"] = checks.output_bytes(out)
            return inv

        checks_only = [workload_run("serial", False, serial=True)] if wl.pooled else []

        runs: list[Invocation] = []
        loop_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            runs.append(workload_run(f"run{len(runs)}", trace and len(runs) % 2 == 1))
            took = time.perf_counter() - t0
            if runs[-1].record is None and runs[-1].problems[0].endswith("timed out"):
                break
            now = time.perf_counter()
            if now + took > deadline or (len(runs) >= MIN_INVOCATIONS and now + took > loop_end):
                break

        measured = [inv for inv in runs if inv.record is not None]
        if not measured:
            raise SystemExit(f"no invocation finished: {runs[0].problems[0]}")
        first = measured[0].record["digest"]
        for inv in measured[1:] + [c for c in checks_only if c.record is not None]:
            if inv.record["digest"] != first:
                inv.problems.append("--out bytes differ from the run's first invocation")
        if seed == DEFAULT_SEED:
            measured[0].problems += checks.compare_to_reference(measured[0].out, HERE / "reference" / name)

        traced = [inv for inv in measured if inv.traced]
        untraced = [inv for inv in measured if not inv.traced]
        if trace and not (traced and untraced):
            raise SystemExit("--trace 1 needs a traced and an untraced invocation that finished")
        layers = [tracing.layer_metrics(inv.record["spans"]) for inv in traced]
        for inv, lm in zip(traced[1:], layers[1:]):
            moved = [k for k in tracing.EXACT if lm[k] != layers[0][k]]
            if moved:
                inv.problems.append(f"counts differ between traced invocations of one seed: {moved}")

        unscaled = None
        everything = checks_only + runs
        attempted = len(everything)
        failed = sum(1 for inv in everything if not inv.ok)
        if trace:
            metrics = {k: (median(lm[k] for lm in layers), unit) for k, unit in tracing.UNITS.items()}
            metrics["cli.output_bytes"] = (measured[0].record["output_bytes"], "bytes")
            metrics["setup.import_s"] = (median(s.record["import_s"] for s in setups), "s")
            metrics["setup.blas_first_call_s"] = (median(s.record["blas_first_call_s"] for s in setups), "s")
            metrics["trace.overhead_ratio"] = (
                median(i.record["wall_s"] for i in traced) / median(i.record["wall_s"] for i in untraced), "ratio"
            )
        else:
            timed = [i for i in measured if i.record["probe_s"] or not wl.host_scaled]
            if not timed:
                raise SystemExit("no invocation ran the host-speed probe")
            scale = [host_scale(i.record) if wl.host_scaled else 1.0 for i in timed]
            metrics = {
                "samples_per_s": (wl.units / median(i.record["wall_s"] * f for i, f in zip(timed, scale)), "1/s"),
                "cpu_s_per_sample": (median(i.record["cpu_s"] * f for i, f in zip(timed, scale)) / wl.units, "s"),
                "peak_rss_mb": (median(i.record["peak_rss_mib"] for i in measured), "MiB"),
                "setup_s": (median(s.setup_s for s in setups), "s"),
                "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            }
            if wl.host_scaled:
                unscaled = {
                    "samples_per_s": wl.units / median(i.record["wall_s"] for i in timed),
                    "cpu_s_per_sample": median(i.record["cpu_s"] for i in timed) / wl.units,
                    "probe_s": median(p for i in timed for p in i.record["probe_s"]),
                }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        detail = {
            "unscaled": unscaled,
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "environment": setups[0].record["environment"],
            "problems": [p for inv in everything for p in inv.problems],
            "invocations": [
                {k: inv.record.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mib", "probe_s")} | {"traced": inv.traced}
                for inv in measured
            ],
            "setup_s": [s.setup_s for s in setups],
            "module_shares": [tracing.module_shares(inv.record["spans"]) for inv in traced],
            "spans": [inv.record["spans"] for inv in traced],
            "run_s": time.perf_counter() - t_start,
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_reference(name: str, root: Path) -> int:
    """Write ``reference/<workload>/`` from one default-seed invocation that passes its checks."""
    wl = WORKLOADS[name]
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        out = work / "out"
        inv = invoke(root, work, "reference", wl.argv(DEFAULT_SEED, out), False, time.perf_counter() + RUN_LIMIT_S)
        problems = inv.problems + (wl.check(out) if inv.record is not None else [])
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        checks.record_reference(out, HERE / "reference" / name)
        print(f"recorded reference/{name} for seed {DEFAULT_SEED}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed passed to the CLI; {HELD_OUT_SEED} is the held-out seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="time spent on measured invocations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"record the seed-{DEFAULT_SEED} reference outputs instead of measuring")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heisenglass" / "cli.py").is_file():
        print(f"error: no heisenglass sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload, root)

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps({"result": result} | detail, indent=1) + "\n"
    )
    print(json.dumps({"environment": detail["environment"]}))
    for problem in detail["problems"]:
        print(json.dumps({"problem": problem}))
    if detail["unscaled"]:
        print(json.dumps({"unscaled": detail["unscaled"]}))
    for shares in detail["module_shares"]:
        print(json.dumps({"self_time_share": shares}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
