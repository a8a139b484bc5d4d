"""Outside-in spans around the public functions of each heisenglass module.

:func:`instrument` replaces module attributes with wrappers that record a
span per call (name, start, end, parent span, run id, process id) plus
exact counts computed from the call's arguments and result.  The program
itself is not edited.  Spans stay in memory; the caller writes them out
when the run ends.

Worker processes of ``cli._map_jobs`` record their spans locally.  The
job function shipped to the pool is wrapped in :class:`JobWrapper`, which
returns ``(result, spans)``; the traced ``_map_jobs`` separates the two
and adopts the worker spans.  Span times come from ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so intervals from
different processes of one machine are comparable.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager

# The tracer of this process; set by instrument(), inherited by forked workers.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Collects finished spans of one run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._open: dict[str, str] = {}
        self._count = 0

    @contextmanager
    def span(self, name: str):
        self._count += 1
        sp = {
            "id": f"{os.getpid()}-{self._count}",
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "run": self.run_id,
            "pid": os.getpid(),
            "attrs": {},
            "start": time.perf_counter(),
        }
        self.stack.append(sp["id"])
        self._open[sp["id"]] = name
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            self.stack.pop()
            del self._open[sp["id"]]
            self.spans.append(sp)

    def innermost(self) -> str | None:
        """Name of the innermost open span of this process, if any."""
        return self._open.get(self.stack[-1]) if self.stack else None


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping
    children (parallel workers) are counted once.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        lo, hi = sp["start"], sp["end"]
        covered = 0.0
        edge = lo
        for a, b in sorted(children.get(sp["id"], [])):
            a, b = max(a, edge), min(b, hi)
            if b > a:
                covered += b - a
                edge = b
        out[sp["id"]] = (hi - lo) - covered
    return out


class JobWrapper:
    """Picklable wrapper around the job function ``cli._map_jobs`` ships.

    Returns ``(result, spans)``: the spans recorded while this job ran in
    a worker process, or an empty list when the job ran in the process
    that owns the tracer (those spans are already in its tracer).
    """

    def __init__(self, fn, parent_id: str, run_id: str, owner_pid: int):
        self.fn = fn
        self.parent_id = parent_id
        self.run_id = run_id
        self.owner_pid = owner_pid

    def __call__(self, job):
        tracer = _ACTIVE if _ACTIVE is not None else instrument(Tracer(self.run_id))
        mark = len(tracer.spans)
        saved, tracer.stack = tracer.stack, [self.parent_id]
        try:
            with tracer.span("cli.job"):
                result = self.fn(job)
        finally:
            tracer.stack = saved
        if os.getpid() == self.owner_pid:
            return result, []
        spans = tracer.spans[mark:]
        del tracer.spans[mark:]
        return result, spans


def _fingerprint(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, (bytes, memoryview)) else repr(p).encode())
    return h.hexdigest()


def instrument(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every heisenglass layer; return ``tracer``."""
    global _ACTIVE
    _ACTIVE = tracer

    import numpy as np

    from heisenglass import basis, cli, couplings, ensembles, entanglement, fitting, ladder, sector, spectrum

    modules = [m for name, m in sys.modules.items() if name.startswith("heisenglass")]

    def patch(module, attr: str, name: str, after=None):
        """Replace ``module.attr`` (and every alias of it) with a spanning wrapper."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                out = orig(*args, **kwargs)
            if after is not None:
                after(sp["attrs"], out, *args, **kwargs)
            return out

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)

    def basis_counts(attrs, out, *args, **kwargs):
        attrs["states"] = out.dim

    def sector_counts(attrs, out, *args, **kwargs):
        # each coupled pair links C(L-2, m-1) antiparallel states, both triangles
        pairs = int(np.count_nonzero(np.triu(out.couplings.J, 1)))
        attrs["offdiag_nnz"] = 2 * pairs * math.comb(out.basis.sites - 2, out.basis.magnons - 1)

    def spectrum_counts(attrs, out, sm, *args, **kwargs):
        attrs["dim"] = out.dim

    def classify_counts(attrs, out, spec, pmap, *args, **kwargs):
        b = spec.matrix.basis
        attrs["degenerate_groups"] = sum(1 for a, z in spec.groups if z - a > 1)
        attrs["promoted"] = out.n_promoted
        attrs["expected_promoted"] = math.comb(b.sites, b.magnons - 1)

    def pair_counts(attrs, out, b, coefficients):
        a = np.ascontiguousarray(coefficients, dtype=np.float64)
        cols = 1 if a.ndim == 1 else a.shape[1]
        pairs = math.comb(b.sites, 2)
        attrs["pair_columns"] = pairs * cols
        # per pair: the four population groups cover all dim rows, plus
        # the ud and du amplitude gathers for the coherence
        rows = b.dim + 2 * math.comb(b.sites - 2, b.magnons - 1)
        attrs["gather_bytes"] = 8 * pairs * cols * rows
        attrs["input"] = _fingerprint(b.sites, b.magnons, a.shape, memoryview(a).cast("B"))

    def draw_counts(attrs, out, spec, quantity):
        attrs["draws"] = spec.n_samples
        attrs["stream"] = _fingerprint(spec.kind, spec.sites, spec.seed, spec.zero_sum)

    def fit_counts(attrs, out, *args, **kwargs):
        fits = [r for r in out.values() if r is not None]
        attrs["fits"] = len(fits)
        attrs["iterations"] = sum(r.n_iter for r in fits)
        attrs["converged"] = sum(1 for r in fits if r.converged)

    patch(couplings, "sample_couplings", "couplings.sample_couplings")
    patch(basis, "build_basis", "basis.build_basis", basis_counts)
    patch(sector, "assemble", "sector.assemble", sector_counts)
    patch(spectrum, "diagonalize", "spectrum.diagonalize", spectrum_counts)
    patch(ladder, "promotion_map", "ladder.promotion_map")
    patch(ladder, "classify", "ladder.classify", classify_counts)
    patch(entanglement, "pair_concurrences", "entanglement.pair_concurrences", pair_counts)
    patch(ensembles, "sample_values", "ensembles.sample_values", draw_counts)
    patch(fitting, "scaling_pipeline", "fitting.scaling_pipeline", fit_counts)
    patch(cli, "_write_output", "cli.write_output")

    # numpy.linalg.eigh is a child span of spectrum.diagonalize only; other
    # callers (ladder.classify's group solves) stay in their own self time.
    eigh = np.linalg.eigh

    @functools.wraps(eigh)
    def traced_eigh(*args, **kwargs):
        if tracer.innermost() != "spectrum.diagonalize":
            return eigh(*args, **kwargs)
        with tracer.span("spectrum.eigh"):
            return eigh(*args, **kwargs)

    np.linalg.eigh = traced_eigh

    map_jobs = cli._map_jobs

    def traced_map_jobs(fn, jobs, workers):
        with tracer.span("cli.map_jobs") as sp:
            pairs = map_jobs(JobWrapper(fn, sp["id"], tracer.run_id, os.getpid()), jobs, workers)
        sp["attrs"]["workers"] = workers if workers > 1 and len(jobs) > 1 else 1
        results = []
        for result, spans in pairs:
            tracer.spans.extend(spans)
            results.append(result)
        return results

    cli._map_jobs = traced_map_jobs
    return tracer


# per-layer time metric -> span name whose self time it sums
LAYER_TIMES = {
    "couplings.sample_s": "couplings.sample_couplings",
    "basis.build_s": "basis.build_basis",
    "sector.assemble_s": "sector.assemble",
    "spectrum.eigh_s": "spectrum.eigh",
    "spectrum.checks_s": "spectrum.diagonalize",
    "ladder.promotion_map_s": "ladder.promotion_map",
    "ladder.classify_s": "ladder.classify",
    "entanglement.pair_concurrences_s": "entanglement.pair_concurrences",
    "ensembles.sample_values_s": "ensembles.sample_values",
    "fitting.pipeline_s": "fitting.scaling_pipeline",
    "cli.write_s": "cli.write_output",
}

# counts and ratios that must repeat exactly between traced runs of one seed
EXACT = (
    "basis.states",
    "sector.offdiag_nnz",
    "spectrum.gflop",
    "ladder.degenerate_groups",
    "ladder.promoted_ratio",
    "entanglement.pair_columns",
    "entanglement.gather_gb",
    "entanglement.useful_ratio",
    "ensembles.draws",
    "ensembles.useful_draw_ratio",
    "fitting.iterations",
    "fitting.converged_ratio",
)


UNITS = {
    **{metric: "s" for metric in LAYER_TIMES},
    "basis.states": "count",
    "sector.offdiag_nnz": "count",
    "spectrum.gflop": "Gflop",
    "spectrum.gflop_per_s": "Gflop/s",
    "ladder.degenerate_groups": "count",
    "ladder.promoted_ratio": "ratio",
    "entanglement.pair_columns": "count",
    "entanglement.gather_gb": "GB",
    "entanglement.useful_ratio": "ratio",
    "ensembles.draws": "count",
    "ensembles.draws_per_s": "1/s",
    "ensembles.useful_draw_ratio": "ratio",
    "fitting.iterations": "count",
    "fitting.converged_ratio": "ratio",
    "cli.map_jobs_s": "s",
    "cli.pool_busy_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times, counts and ratios of one traced run.

    A layer a workload never reaches reads 0, and so do its ratios.
    ``spectrum.gflop`` is computed, not measured: 10/3 dim^3 per solve,
    the tridiagonal reduction (4/3 n^3) plus the back-transformation of
    the eigenvectors (2 n^3), leaving out the data-dependent
    divide-and-conquer stage.  ``entanglement.gather_gb`` counts the
    bytes the per-pair fancy-index gathers copy, also computed; neither
    sees cache misses.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)

    def attr_sum(name: str, key: str) -> float:
        return sum(sp["attrs"][key] for sp in by_name.get(name, []))

    m = {metric: sum(selfs[sp["id"]] for sp in by_name.get(name, [])) for metric, name in LAYER_TIMES.items()}

    m["basis.states"] = attr_sum("basis.build_basis", "states")
    m["sector.offdiag_nnz"] = attr_sum("sector.assemble", "offdiag_nnz")
    m["spectrum.gflop"] = sum(10.0 / 3.0 * sp["attrs"]["dim"] ** 3 for sp in by_name.get("spectrum.diagonalize", [])) / 1e9
    m["spectrum.gflop_per_s"] = _ratio(m["spectrum.gflop"], m["spectrum.eigh_s"])
    m["ladder.degenerate_groups"] = attr_sum("ladder.classify", "degenerate_groups")
    m["ladder.promoted_ratio"] = _ratio(
        attr_sum("ladder.classify", "promoted"), attr_sum("ladder.classify", "expected_promoted")
    )

    pcs = by_name.get("entanglement.pair_concurrences", [])
    m["entanglement.pair_columns"] = attr_sum("entanglement.pair_concurrences", "pair_columns")
    m["entanglement.gather_gb"] = attr_sum("entanglement.pair_concurrences", "gather_bytes") / 1e9
    m["entanglement.useful_ratio"] = _ratio(len({sp["attrs"]["input"] for sp in pcs}), len(pcs))

    draws = by_name.get("ensembles.sample_values", [])
    m["ensembles.draws"] = attr_sum("ensembles.sample_values", "draws")
    m["ensembles.draws_per_s"] = _ratio(m["ensembles.draws"], m["ensembles.sample_values_s"])
    # sample indices 0..n-1 of one stream are the distinct draws
    distinct: dict[str, int] = {}
    for sp in draws:
        key = sp["attrs"]["stream"]
        distinct[key] = max(distinct.get(key, 0), sp["attrs"]["draws"])
    m["ensembles.useful_draw_ratio"] = _ratio(sum(distinct.values()), m["ensembles.draws"])

    m["fitting.iterations"] = attr_sum("fitting.scaling_pipeline", "iterations")
    m["fitting.converged_ratio"] = _ratio(
        attr_sum("fitting.scaling_pipeline", "converged"), attr_sum("fitting.scaling_pipeline", "fits")
    )

    pools = by_name.get("cli.map_jobs", [])
    m["cli.map_jobs_s"] = sum(sp["end"] - sp["start"] for sp in pools)
    busy = sum(sp["end"] - sp["start"] for sp in by_name.get("cli.job", []))
    m["cli.pool_busy_ratio"] = _ratio(busy, sum(sp["attrs"]["workers"] * (sp["end"] - sp["start"]) for sp in pools))
    return m


def module_shares(spans: list[dict]) -> dict[str, float]:
    """Share of all traced self time (every process) spent in each module."""
    selfs = self_times(spans)
    total = sum(selfs.values())
    shares: dict[str, float] = {}
    for sp in spans:
        module = sp["name"].split(".")[0]
        shares[module] = shares.get(module, 0.0) + _ratio(selfs[sp["id"]], total)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
