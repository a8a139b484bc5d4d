"""Batch command-line front end.

Four commands: ``spectrum-report`` (per-eigenstate rows for one system),
``phase-diagram`` (eigenstate scatter data across a list of decay
exponents), ``scaling`` (mean concurrence and positive-concurrence
probability versus L, with fits), and ``verify`` (the invariant suite).
Outputs are CSV with a single ``# {json}`` config-echo header line, or
JSON for fit results.  Reruns with the same master seed are
byte-identical regardless of worker count, ``OPENBLAS_NUM_THREADS`` and
the host's cores: every disorder sample is seeded by (master, index)
alone, rows are written in sample order, and importing the package fixes
numpy's OpenBLAS at one thread in every process (:mod:`heisenglass.blas`).
For throughput, run samples in parallel with ``--workers``.

Exit codes: 0 ok, 1 invariant or runtime failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, basis, couplings, ensembles, entanglement, fitting, ladder, sector, spectrum, verify

REPORT_HEADER = "sample,index,eigenvalue,E_minus_SJ,avg_concurrence,PR,promoted,degenerate"
PHASE_HEADER = "sample,index,avg_concurrence,PR,promoted,degenerate"

SCALING_TARGETS = ("eigenstates", "random", "random-promoted")
_TARGET_KIND = {"random": ensembles.RANDOM_2P, "random-promoted": ensembles.RANDOM_PROMOTED_2P}


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's full parameter set; echoed into every output header."""

    command: str
    model: str = "ir"
    sigma: float | None = None
    sites: tuple[int, ...] = (25,)
    magnons: int = 2
    samples: int = 50
    seed: int = 0
    pairs: str = "all"
    out: Path = Path("out")
    target: str | None = None
    sigmas: tuple[float, ...] | None = None
    zero_sum: bool = False
    workers: int = 1

    def header(self) -> dict:
        """JSON-safe config echo.

        The worker count is deliberately omitted: it must never change
        the output bytes, so it has no business in the header.  "degtol"
        stays null: the degeneracy tolerance is always 1e-8 max(1, ||H||_F).
        """
        d = {
            "command": self.command,
            "model": self.model,
            "sigma": _json_float(self.sigma),
            "sites": list(self.sites),
            "magnons": self.magnons,
            "samples": self.samples,
            "seed": self.seed,
            "pairs": self.pairs,
            "target": self.target,
            "sigmas": None if self.sigmas is None else [_json_float(s) for s in self.sigmas],
            "zero_sum": self.zero_sum,
            "degtol": None,
            "ladder_tol": ladder.LADDER_TOL,
            "version": __version__,
        }
        return d


def _json_float(x: float | None):
    if x is None:
        return None
    return "inf" if math.isinf(x) else x


def format_sigma(sigma: float) -> str:
    return "inf" if math.isinf(sigma) else format(sigma, "g")


# decay exponent of each --model flag; pl reads it from --sigma
_MODEL_SIGMA = {"ir": 0.0, "nn": math.inf}


def model_sigma(cfg: ExperimentConfig) -> float:
    """The decay exponent of the run's couplings."""
    return cfg.sigma if cfg.model == "pl" else _MODEL_SIGMA[cfg.model]


def scoped_seed(master_seed: int, scope: int) -> int:
    """Derive an independent master seed for one scope (e.g. one L)."""
    return int(np.random.SeedSequence(entropy=(master_seed, scope)).generate_state(1, np.uint64)[0])


class InvariantError(RuntimeError):
    """A per-sample invariant of the exact algebra failed (exit code 1)."""


def _classified_sample(
    upper: basis.SectorBasis,
    sigma: float,
    master_seed: int,
    index: int,
    measure: Callable[[int, np.ndarray], None],
) -> tuple[couplings.CouplingMatrix, spectrum.Spectrum, ladder.Classification]:
    """Sample, diagonalize and classify one disorder realization of the sector ``upper``.

    ``measure(two_s, vectors)`` receives each spin block's eigenvectors
    (:func:`spectrum.diagonalize`).  Raises InvariantError unless the
    uniform state is an eigenstate at S_J to within the eigenpair
    tolerance and the promoted count is the one
    :func:`ladder.expected_counts` gives.
    """
    sites, magnons = upper.sites, upper.magnons
    cm = couplings.sample_couplings(sites, sigma, couplings.sample_seed(master_seed, index))
    sm = sector.assemble(cm, upper)
    residual = sector.all_up_residual(sm)
    if not residual <= spectrum.RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(sm.matrix.data))):
        raise InvariantError(f"sample {index} (L={sites}, m={magnons}): uniform state residual {residual:.3e} at S_J")
    raising = ladder.promotion_map(upper)
    spec = spectrum.diagonalize(sm, raising, measure)
    cls = ladder.classify(spec, raising)
    expected, _ = ladder.expected_counts(sites, magnons)
    if cls.n_promoted != expected:
        raise InvariantError(
            f"sample {index} (L={sites}, m={magnons}): {cls.n_promoted} promoted states, expected {expected}"
        )
    return cm, spec, cls


class StateArrays(NamedTuple):
    """Per-eigenstate columns of one disorder realization, ascending in energy.

    Each statistic is computed on one spin block's eigenvectors as
    :func:`spectrum.diagonalize` hands them over, so a state's values
    depend on its block alone, and put into energy order by the one
    permutation ``Spectrum.order``.
    ``promoted`` holds the ladder labels and ``degenerate`` is 1 for
    states in a degeneracy group, 0 otherwise.
    """

    eigenvalue: np.ndarray
    e_minus_sj: np.ndarray
    avg_concurrence: np.ndarray
    participation: np.ndarray
    promoted: np.ndarray
    degenerate: np.ndarray


def eigenstate_sample(
    sigma: float,
    sites: int,
    magnons: int,
    master_seed: int,
    index: int,
) -> StateArrays:
    """Full per-eigenstate report for one disorder realization."""
    upper = basis.build_basis(sites, magnons)
    concurrence, participation = [], []

    def measure(two_s: int, vectors: np.ndarray) -> None:
        concurrence.append(entanglement.pair_concurrences(upper, vectors).mean(axis=0))
        participation.append(entanglement.participation_ratio(vectors))

    cm, spec, cls = _classified_sample(upper, sigma, master_seed, index, measure)
    order = spec.order
    eigenvalue = spec.eigenvalues[order]
    return StateArrays(
        eigenvalue=eigenvalue,
        e_minus_sj=eigenvalue - cm.coupling_sum(),
        avg_concurrence=np.concatenate(concurrence)[order],
        participation=np.concatenate(participation)[order],
        promoted=cls.labels[order],
        degenerate=spec.degenerate_mask().astype(np.int64),
    )


def state_rows(columns) -> list[str]:
    """CSV rows ``index,col,...`` over per-state numeric columns.

    Values go through ``tolist``, so each is written as the repr of a
    Python float or int and no numpy scalar repr reaches the output.
    """
    lists = [np.asarray(c).tolist() for c in columns]
    return [",".join(map(repr, (k, *row))) for k, row in enumerate(zip(*lists))]


def _eigen_job(args: tuple) -> StateArrays:
    """``args`` is (sigma, sites, magnons, seed, index), sigma the decay exponent."""
    return eigenstate_sample(*args)


def _promoted_summary_job(args: tuple) -> tuple[float, float]:
    """Per-sample (mean avg-concurrence, mean positive-pair fraction) of promoted states.

    ``args`` is (sigma, sites, magnons, seed, index).  The spin blocks
    ascend in 2S and only the lowest one, 2S = L - 2m when 2m <= L, holds
    new states, so its pair concurrences are never taken, and the
    promoted states are the last ``n_promoted`` columns in spin-block
    order.  Each promoted block's statistics are taken on that block
    alone, as :func:`spectrum.diagonalize` hands it over.  Raises
    InvariantError unless the labels agree.  The per-state values are
    averaged in energy order.
    """
    sigma, sites, magnons, seed, index = args
    upper = basis.build_basis(sites, magnons)
    mean, positive = [], []

    def promoted(two_s: int, vectors: np.ndarray) -> None:
        if two_s > sites - 2 * magnons:
            pc = entanglement.pair_concurrences(upper, vectors)
            mean.append(pc.mean(axis=0))
            positive.append((pc > 0.0).mean(axis=0))

    _, spec, cls = _classified_sample(upper, sigma, seed, index, promoted)
    first = spec.dim - cls.n_promoted
    if not np.all(cls.labels[first:] == ladder.PROMOTED):
        raise InvariantError(
            f"sample {index} (L={sites}, m={magnons}): promoted states are not the last {cls.n_promoted} columns"
        )
    energy = spec.order[spec.order >= first] - first  # promoted columns in energy order
    return float(np.concatenate(mean)[energy].mean()), float(np.concatenate(positive)[energy].mean())


# Jobs in flight per pool worker: one running, one queued behind it.
JOB_WINDOW = 2


def _pool_size(workers: int, n_jobs: int) -> int:
    """Processes that run ``n_jobs`` jobs: at most the jobs and the CPUs."""
    return min(workers, n_jobs, os.cpu_count() or 1)


def _map_jobs(fn, jobs: list[tuple], workers: int) -> list:
    """Run jobs, preserving submission order independent of completion order.

    The pool never exceeds the job count or the CPU count: the executor
    starts every worker it is given at the first submit.  At most
    ``JOB_WINDOW`` jobs per worker are in flight: the next job is
    submitted once the oldest result is taken.
    """
    workers = _pool_size(workers, len(jobs))
    if workers <= 1:
        return [fn(j) for j in jobs]
    results, pending = [], deque()
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for job in jobs:
            if len(pending) == JOB_WINDOW * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(fn, job))
        results.extend(future.result() for future in pending)
    return results


def _write_output(path: Path, header: dict, lines: list[str]) -> None:
    """Write the ``# {json}`` header line, then each line, straight to the open file.

    No joined copy of the lines is made.  Every caller passes at least
    the column-header line.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(f"# {json.dumps(header, sort_keys=True)}\n")
        for line in lines:
            f.write(line)
            f.write("\n")


def cmd_spectrum_report(cfg: ExperimentConfig) -> int:
    sigma, sites = model_sigma(cfg), cfg.sites[0]
    jobs = [(sigma, sites, cfg.magnons, cfg.seed, k) for k in range(cfg.samples)]
    rows = [REPORT_HEADER]
    for k, arrays in enumerate(_map_jobs(_eigen_job, jobs, cfg.workers)):
        rows.extend(f"{k},{row}" for row in state_rows(arrays))
    _write_output(cfg.out / "spectrum_report.csv", cfg.header(), rows)
    return 0


def cmd_phase_diagram(cfg: ExperimentConfig) -> int:
    assert cfg.sigmas is not None
    sites = cfg.sites[0]
    for sigma in cfg.sigmas:
        jobs = [(sigma, sites, cfg.magnons, cfg.seed, k) for k in range(cfg.samples)]
        rows = [PHASE_HEADER]
        for k, a in enumerate(_map_jobs(_eigen_job, jobs, cfg.workers)):
            columns = (a.avg_concurrence, a.participation, a.promoted, a.degenerate)
            rows.extend(f"{k},{row}" for row in state_rows(columns))
        header = dict(cfg.header(), sigma=_json_float(sigma))
        _write_output(cfg.out / f"phase_sigma_{format_sigma(sigma)}.csv", header, rows)
    return 0


def _eigenstate_estimates(cfg: ExperimentConfig) -> list[ensembles.MCEstimate]:
    quantities = (ensembles.MEAN_CONCURRENCE, ensembles.PROB_POSITIVE)  # the columns of _promoted_summary_job
    sigma = model_sigma(cfg)
    if math.isinf(sigma):
        kind = "eigenstates-nearest-neighbour"
    else:
        kind = "eigenstates-infinite-range" if cfg.model == "ir" else "eigenstates-power-law"
    out = []
    for sites in cfg.sites:
        seed = scoped_seed(cfg.seed, sites)
        jobs = [(sigma, sites, cfg.magnons, seed, k) for k in range(cfg.samples)]
        values = np.array(_map_jobs(_promoted_summary_job, jobs, cfg.workers)).T
        out.extend(ensembles.summarize(quantities, values, kind, "all", sites))
    return out


def _ensemble_estimates(cfg: ExperimentConfig, kind: str) -> list[ensembles.MCEstimate]:
    out = []
    for sites in cfg.sites:
        spec = ensembles.EnsembleSpec(
            kind=kind,
            sites=sites,
            n_samples=cfg.samples,
            seed=scoped_seed(cfg.seed, sites),
            pair_policy=cfg.pairs,
            zero_sum=cfg.zero_sum,
        )
        out.extend(ensembles.estimates(spec, (ensembles.MEAN_CONCURRENCE, ensembles.PROB_POSITIVE)))
    return out


def _reference_rows(sites: tuple[int, ...]) -> list[ensembles.MCEstimate]:
    """Closed-form overlay curves, emitted with kind='reference'."""
    rows = []
    for L in sites:
        bound = ladder.localized_promotion_bound(L)
        forms = ensembles.closed_forms(L)
        for quantity, value in (
            ("bound-average-concurrence", bound.mean_concurrence),
            ("bound-prob-positive", bound.probability),
            ("reference-promoted-concurrence", forms.mean_concurrence_promoted2p),
            ("reference-random2p-concurrence", forms.mean_concurrence_random2p),
        ):
            rows.append(
                ensembles.MCEstimate(
                    quantity=quantity,
                    kind="reference",
                    pair_policy="-",
                    sites=L,
                    n_samples=0,
                    mean=float(value),
                    stderr=0.0,
                )
            )
    return rows


def _fit_block(family: str, estimates: list[ensembles.MCEstimate]) -> dict:
    L = np.array([e.sites for e in estimates], dtype=np.float64)
    y = np.array([e.mean for e in estimates])
    err = np.array([e.stderr for e in estimates])
    if not np.all(err > 0):
        err = None  # a zero stderr would poison the weighted fit
    block: dict = {"family": family}
    try:
        results = fitting.scaling_pipeline(family, L, y, err)
    except fitting.FitError as exc:
        return {"family": family, "error": str(exc)}
    for key, res in results.items():
        block[key] = None if res is None else res.as_dict()
    return block


def cmd_scaling(cfg: ExperimentConfig) -> int:
    if cfg.target == "eigenstates":
        estimates = _eigenstate_estimates(cfg)
        prob_family = fitting.EXP_SATURATION
    else:
        estimates = _ensemble_estimates(cfg, _TARGET_KIND[cfg.target])
        prob_family = fitting.POWER_OFFSET

    rows = [ensembles.MCEstimate.CSV_HEADER]
    rows.extend(e.csv_row() for e in estimates)
    rows.extend(r.csv_row() for r in _reference_rows(cfg.sites))
    _write_output(cfg.out / f"scaling_{cfg.target}.csv", cfg.header(), rows)

    by_quantity: dict[str, list[ensembles.MCEstimate]] = {}
    for e in estimates:
        by_quantity.setdefault(e.quantity, []).append(e)
    fits = {
        ensembles.MEAN_CONCURRENCE: _fit_block(fitting.POWER_LAW, by_quantity[ensembles.MEAN_CONCURRENCE]),
        ensembles.PROB_POSITIVE: _fit_block(prob_family, by_quantity[ensembles.PROB_POSITIVE]),
    }
    payload = {"header": cfg.header(), "fits": fits}
    path = cfg.out / f"scaling_{cfg.target}_fits.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    results = verify.run_checks()
    print(verify.report(results))
    return 0 if all(ok for _, ok, _ in results) else 1


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from err


def _parse_sigma(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected a float or 'inf', got {text!r}") from err
    return value


def _parse_sigma_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_sigma(part) for part in text.split(","))


def _add_common(sp: argparse.ArgumentParser, samples: int) -> None:
    sp.add_argument("--model", choices=("ir", "nn", "pl"), default="ir", help="coupling model family")
    sp.add_argument("--sigma", type=_parse_sigma, default=None, metavar="FLOAT|inf",
                    help="power-law decay exponent (inf selects nearest-neighbour)")
    sp.add_argument("-L", "--sites", type=_parse_int_list, default=(25,), metavar="INT[,INT...]",
                    help="system size(s)")
    sp.add_argument("-m", "--magnons", type=int, default=2, help="up-spin sector")
    sp.add_argument("--samples", type=int, default=samples, help="disorder or Monte Carlo samples")
    sp.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    sp.add_argument("--pairs", choices=("all", "single"), default="all",
                    help="concurrence pair policy for random ensembles")
    sp.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sp.add_argument("--workers", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heisenglass", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum-report", help="per-eigenstate CSV for one system")
    _add_common(sp, samples=1)

    sp = sub.add_parser("phase-diagram", help="eigenstate scatter data per decay exponent")
    _add_common(sp, samples=50)
    sp.add_argument("--sigmas", type=_parse_sigma_list, required=True, metavar="S[,S...]",
                    help="decay exponents; 'inf' selects nearest-neighbour")

    sp = sub.add_parser("scaling", help="mean concurrence and P(C>0) versus L, with fits")
    _add_common(sp, samples=1000)
    sp.add_argument("--target", choices=SCALING_TARGETS, required=True)
    sp.add_argument("--zero-sum", action="store_true",
                    help="constrain one-magnon seed coefficients to sum to zero")

    sub.add_parser("verify", help="run the invariant and oracle checks")
    return parser


def config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    if ns.command == "verify":
        return ExperimentConfig(command="verify")
    cfg = ExperimentConfig(**{f.name: getattr(ns, f.name, f.default) for f in fields(ExperimentConfig)})
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("--seed must fit in an unsigned 64-bit integer")
    if cfg.samples < 1:
        raise ConfigError("--samples must be positive")
    if not cfg.sites:
        raise ConfigError("-L needs at least one system size")
    if cfg.workers < 1:
        raise ConfigError("--workers must be at least 1")
    # written as "not x >= 0" so that NaN fails too
    if cfg.sigma is not None and not cfg.sigma >= 0:
        raise ConfigError("--sigma must be non-negative")
    _check_unread_options(cfg)
    if cfg.model == "pl" and cfg.sigma is None:
        raise ConfigError("--model pl requires --sigma")

    if cfg.command in ("spectrum-report", "phase-diagram"):
        if len(cfg.sites) != 1:
            raise ConfigError(f"{cfg.command} takes exactly one -L value")
        sites = cfg.sites[0]
        _check_sector(sites, cfg.magnons, _pool_size(cfg.workers, cfg.samples), cfg.samples,
                      math.comb(sites, cfg.magnons))
    if cfg.command == "phase-diagram":
        assert cfg.sigmas is not None  # argparse enforces --sigmas
        if any(not s >= 0 for s in cfg.sigmas):
            raise ConfigError("--sigmas entries must be non-negative")
        labels = [format_sigma(s) for s in cfg.sigmas]
        if len(set(labels)) != len(labels):
            raise ConfigError("--sigmas entries must be distinct")
    if cfg.command == "scaling":
        if cfg.target == "eigenstates":
            for sites in cfg.sites:
                _check_sector(sites, cfg.magnons, _pool_size(cfg.workers, cfg.samples), cfg.samples, 0)
        else:
            if cfg.samples < 100:
                raise ConfigError("random-ensemble scaling needs --samples >= 100")
            if cfg.samples > ensembles.MAX_SAMPLES:
                raise ConfigError(f"random-ensemble scaling allows at most --samples {ensembles.MAX_SAMPLES}")
            if any(sites < 3 for sites in cfg.sites):
                raise ConfigError("random ensembles need L >= 3")
            if cfg.pairs == "all":
                for sites in cfg.sites:
                    _check_all_pairs_ensemble(_TARGET_KIND[cfg.target], sites, cfg.samples)
        if len(set(cfg.sites)) != len(cfg.sites):
            raise ConfigError("-L values must be distinct")
        if sum(1 for s in cfg.sites if s >= fitting.DEFAULT_MIN_SITES) < 4:
            raise ConfigError("scaling fits need at least four L values >= 8")


def _check_unread_options(cfg: ExperimentConfig) -> None:
    """Reject a non-default value of an option that the run never reads.

    The header echoes every option, so such a value would be recorded
    as if it had been used.  Defaults stay accepted.
    """
    random = cfg.command == "scaling" and cfg.target != "eigenstates"
    fixed_model = random or cfg.command == "phase-diagram"
    unread = {
        "--pairs": cfg.pairs != "all" and not random,
        "--zero-sum": cfg.zero_sum and cfg.target != "random-promoted",
        "--model": cfg.model != "ir" and fixed_model,
        "--sigma": cfg.sigma is not None and fixed_model,
        "--sigma without --model pl": cfg.sigma is not None and cfg.model != "pl",
        "-m": cfg.magnons != 2 and random,
    }
    run = cfg.command if cfg.target is None else f"{cfg.command} --target {cfg.target}"
    for option, given in unread.items():
        if given:
            raise ConfigError(f"{run} does not read {option}; leave it at its default")


# cgroup v2, then v1: the memory limit of the container the run is in
CGROUP_MEMORY_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _cgroup_memory_limit() -> int | None:
    """The first numeric cgroup memory limit in bytes; None when every file is absent or "max"."""
    for path in CGROUP_MEMORY_LIMITS:
        try:
            text = Path(path).read_text().strip()
        except OSError:
            continue
        if text.isdigit():
            return int(text)
    return None


def _check_memory(need: int, what: str) -> None:
    """Reject ``need`` bytes for ``what`` above the smaller of the physical memory and a cgroup limit."""
    have, source = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    limit = _cgroup_memory_limit()
    if limit is not None and limit < have:
        have, source = limit, "cgroup memory limit"
    if need > have:
        raise ConfigError(f"{what} needs {need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of {source}")


# Upper estimates of what the main process holds until a run's output is
# written: per sample, its job tuple and its result (a pool holds futures for
# its window of jobs alone, see _map_jobs); per
# CSV row of at most 128 characters, six per-state array entries and the
# row's list slot and str (about 190 B measured for an 83-character row);
# _write_output makes no joined copy of the rows.
HELD_SAMPLE_BYTES = 2048
HELD_ROW_BYTES = 320


def _check_sector(sites: int, magnons: int, workers: int, samples: int, rows: int) -> None:
    """Reject an empty sector, or a run whose solves and held results do not fit in memory.

    ``workers`` is the pool size that will run; each worker holds its own
    solve and statistics, of at most ``spectrum.solve_bytes`` bytes.  The
    main process keeps every one of the ``samples`` results, each with
    ``rows`` CSV rows, until the output is written.
    """
    if not 1 <= magnons < sites:
        raise ConfigError(f"need 1 <= m < L, got m={magnons} L={sites}")
    _check_memory(
        spectrum.solve_bytes(sites, magnons) * workers + samples * (HELD_SAMPLE_BYTES + rows * HELD_ROW_BYTES),
        f"{samples} sample(s) of sector dimension C({sites},{magnons}) = {math.comb(sites, magnons)}"
        f" with {workers} worker(s)",
    )


def _check_all_pairs_ensemble(kind: str, sites: int, samples: int) -> None:
    """Reject an all-pairs ensemble whose two-magnon sector is too large or whose kernel does not fit."""
    dim = math.comb(sites, 2)
    if dim > basis.DEFAULT_MAX_DIM:
        raise ConfigError(f"--pairs all at L={sites} needs a sector of dimension {dim}, above {basis.DEFAULT_MAX_DIM}")
    _check_memory(ensembles.all_pairs_bytes(kind, sites, samples), f"--pairs all at L={sites}")


_COMMANDS = {
    "spectrum-report": cmd_spectrum_report,
    "phase-diagram": cmd_phase_diagram,
    "scaling": cmd_scaling,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = config_from_args(ns)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except (
        InvariantError,
        spectrum.SpectrumError,
        fitting.FitError,
        ensembles.StreamError,
    ) as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
