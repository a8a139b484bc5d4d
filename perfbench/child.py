"""One benchmark invocation of the heisenglass CLI in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON RUN_ID TRACE PROBE [CLI ARGS...]

Set-up comes first and is timed: import ``heisenglass.cli`` (numpy,
scipy) and make the first BLAS call.  A ``READY`` line on standard output
marks its end, so the parent can time set-up from process start.  With
no CLI arguments the process stops there.  Otherwise it calls
``heisenglass.cli.main`` with TRACE ``1`` wrapping each layer in spans
(see ``tracing.py``) or with PROBE ``1`` sampling the host's speed, and
writes wall time, CPU time of itself and its reaped workers, peak RSS,
the probe times and the spans to RESULT_JSON.

Host speed.  On a shared host the same serial invocation runs up to 1.7x
slower in episodes of a few seconds (other tenants on the same physical
cores), which no number of invocations averages out.  With PROBE ``1``,
while ``cli.main`` runs, a timer interrupts it every ``PROBE_PERIOD_S``
and runs a fixed piece of reference work (``probe_work``: numpy only, no
heisenglass code) in the same thread.  Its times sample the host's speed
during the call; their total is taken out of the call's wall and CPU
time.  The probe takes 10-20 ms, so it costs about a tenth of the call.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _openblas_threads() -> int | None:
    """Live OpenBLAS thread count from numpy's bundled library, if found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


PROBE_PERIOD_S = 0.1
PROBE_DRAWS = 400


def probe_work() -> None:
    """Reference work: seed and draw like a Monte Carlo sample, PROBE_DRAWS times."""
    import numpy as np

    for i in range(PROBE_DRAWS):
        a = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(7, i)))).standard_normal(16)
        a /= np.linalg.norm(a)


class HostProbe:
    """Runs ``probe_work`` on a timer inside a block and records its times."""

    def __init__(self) -> None:
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        probe_work()
        self.wall_s.append(time.perf_counter() - t0)
        self.cpu_s.append(time.thread_time() - c0)

    def __enter__(self) -> HostProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    result_path, run_id, cli_argv = argv[0], argv[1], argv[4:]
    trace, probing = argv[2] == "1", argv[3] == "1"

    t0 = time.perf_counter()
    from heisenglass import cli

    t1 = time.perf_counter()
    import numpy as np

    sym = np.add.outer(np.arange(256.0), np.arange(256.0)) % 7.0
    np.linalg.eigh(sym @ sym)
    t2 = time.perf_counter()
    sys.stdout.write("READY\n")
    sys.stdout.flush()

    record: dict = {"import_s": t1 - t0, "blas_first_call_s": t2 - t1, "module": cli.__file__}
    if not cli_argv:
        record["environment"] = environment()
    else:
        tracer = None
        if trace:
            import tracing

            tracer = tracing.instrument(tracing.Tracer(run_id))
        probe = HostProbe()
        if probing:
            probe_work()  # first call: warm numpy's random module before timing
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        rc, error = None, None
        try:
            with tracer.span("cli.main") if tracer else probe if probing else nullcontext():
                rc = cli.main(cli_argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0 - sum(probe.wall_s)
        cpu = _cpu_s() - cpu0 - sum(probe.cpu_s)
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record.update(
            rc=rc,
            error=error,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mib=rss_kb / 1024.0,
            probe_s=probe.wall_s,
            spans=[] if tracer is None else tracer.spans,
        )
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
