import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from heisenglass import basis, blas, cli, couplings, ensembles, entanglement, ladder, sector, spectrum, verify
from heisenglass.cli import ConfigError, ExperimentConfig


def _read_output(path: Path) -> tuple[dict, list[str]]:
    text = path.read_text()
    head, _, body = text.partition("\n")
    assert head.startswith("# ")
    lines = body.rstrip("\n").split("\n")
    return json.loads(head[2:]), lines


def _python(script: str, *args: str, environ=os.environ, **kwargs) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                          timeout=300, **kwargs)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # every CLI process pays for what importing the package loads
    script = ("import sys, heisenglass.cli; "
              "print(sorted({'scipy.integrate', 'scipy.optimize', 'scipy.special'} & set(sys.modules)))")
    assert _python(script, check=True).stdout.strip() == "[]"


def test_every_package_export_resolves():
    import heisenglass

    assert [name for name in heisenglass.__all__ if not hasattr(heisenglass, name)] == []


def test_spectrum_report_output(tmp_path):
    rc = cli.main(
        ["spectrum-report", "-L", "12", "-m", "2", "--samples", "2",
         "--seed", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, lines = _read_output(tmp_path / "spectrum_report.csv")
    assert header["command"] == "spectrum-report"
    assert header["sites"] == [12]
    assert "workers" not in header
    assert lines[0] == cli.REPORT_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 66
    for sample in ("0", "1"):
        block = [r for r in rows if r[0] == sample]
        assert len(block) == 66
        # one fully promoted ladder per realization, one energy at S_J
        assert sum(r[6] == "1" for r in block) == 12
        assert sum(abs(float(r[3])) <= 1e-9 for r in block) == 1


def test_phase_diagram_worker_independence(tmp_path):
    args = ["phase-diagram", "-L", "10", "-m", "2", "--samples", "3",
            "--sigmas", "0,1.5,inf", "--seed", "7"]
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "pooled"), "--workers", "2"]) == 0

    names = ["phase_sigma_0.csv", "phase_sigma_1.5.csv", "phase_sigma_inf.csv"]
    for name in names:
        serial = (tmp_path / "serial" / name).read_bytes()
        assert (tmp_path / "pooled" / name).read_bytes() == serial

    header, lines = _read_output(tmp_path / "serial" / "phase_sigma_inf.csv")
    assert header["sigma"] == "inf"
    assert lines[0] == cli.PHASE_HEADER
    assert len(lines) - 1 == 3 * 45
    header0, _ = _read_output(tmp_path / "serial" / "phase_sigma_0.csv")
    assert header0["sigma"] == 0


def test_scaling_random_promoted_outputs(tmp_path):
    args = ["scaling", "--target", "random-promoted", "-L", "8,12,16,24",
            "--samples", "150", "--seed", "5", "--pairs", "single",
            "--out", str(tmp_path)]
    assert cli.main(args) == 0
    header, lines = _read_output(tmp_path / "scaling_random-promoted.csv")
    assert lines[0] == cli.ensembles.MCEstimate.CSV_HEADER
    # two estimates per L plus four reference rows per L
    assert len(lines) - 1 == 4 * 2 + 4 * 4
    assert header["target"] == "random-promoted"

    fits = json.loads((tmp_path / "scaling_random-promoted_fits.json").read_text())
    mean_block = fits["fits"]["mean-concurrence"]
    prob_block = fits["fits"]["prob-positive-concurrence"]
    assert mean_block["family"] == "power-law"
    assert prob_block["family"] == "power-offset"
    assert mean_block["unweighted"]["converged"]
    assert mean_block["weighted"]["a"] > 0

    # byte-identical rerun
    again = tmp_path / "again"
    assert cli.main(args[:-1] + [str(again)]) == 0
    for name in ("scaling_random-promoted.csv", "scaling_random-promoted_fits.json"):
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize(
    "model,kind",
    [
        (["nn"], "eigenstates-nearest-neighbour"),
        (["pl", "--sigma", "inf"], "eigenstates-nearest-neighbour"),
        (["pl", "--sigma", "0"], "eigenstates-power-law"),
        (["ir"], "eigenstates-infinite-range"),
    ],
    ids=["nn", "pl-inf", "pl-0", "ir"],
)
def test_scaling_eigenstates_uses_saturation_family(tmp_path, model, kind):
    rc = cli.main(
        ["scaling", "--target", "eigenstates", "--model", *model, "-L", "8,9,10,11",
         "-m", "2", "--samples", "4", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    fits = json.loads((tmp_path / "scaling_eigenstates_fits.json").read_text())
    assert fits["fits"]["prob-positive-concurrence"]["family"] == "exp-saturation"
    _, lines = _read_output(tmp_path / "scaling_eigenstates.csv")
    kinds = {line.split(",")[5] for line in lines[1:]}
    assert kinds == {kind, "reference"}


def test_scaling_eigenstates_fit_raises_no_warning(tmp_path):
    # rejected damping trials overflow exp(-L / r) for tiny or negative r
    argv = ["scaling", "--target", "eigenstates", "-L", "8,9,10,11", "-m", "2", "--samples", "3",
            "--seed", "0", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum-report", "-L", "10,12"],                        # one size only
        ["spectrum-report", "-L", "10", "-m", "0"],                # empty sector
        ["spectrum-report", "-L", "10", "-m", "10"],               # m must stay below L
        ["spectrum-report", "-L", "60", "-m", "5"],                # memory budget
        ["spectrum-report", "-L", "10", "--samples", "0"],
        ["spectrum-report", "-L", "10", "--seed", "-1"],
        ["spectrum-report", "-L", "10", "--sigma", "-0.5"],
        ["spectrum-report", "-L", "10", "--model", "pl"],          # pl needs sigma
        ["spectrum-report", "-L", "10", "--workers", "0"],
        ["phase-diagram", "-L", "10", "--sigmas", "1,1.0"],        # duplicate labels
        ["phase-diagram", "-L", "10", "--sigmas", "-2"],
        ["scaling", "--target", "random", "-L", "4,8,12,16", "--samples", "200"],
        ["scaling", "--target", "random", "-L", "8,12,16,24", "--samples", "50"],
        ["scaling", "--target", "random", "-L", "8,12,16,24", "--zero-sum"],
        ["scaling", "--target", "random-promoted", "-L", "2,8,12,16,24"],
        ["scaling", "--target", "eigenstates", "-L", "8,12,16,16"],
        ["spectrum-report", "-L", "10", "--model", "pl", "--sigma", "nan"],
        ["spectrum-report", "-L", "10", "--seed", str(2**64)],
        ["phase-diagram", "-L", "10,12", "--sigmas", "0"],           # one size only
        ["phase-diagram", "-L", "60", "-m", "5", "--sigmas", "0"],   # memory budget
        ["scaling", "--target", "eigenstates", "-L", "8,9,10,11", "-m", "0"],  # empty sector
        ["scaling", "--target", "eigenstates", "-L", "8,9,10,60", "-m", "5"],  # memory budget
        ["phase-diagram", "-L", "10", "--sigmas", "0,nan"],
        # options the run never reads, which the header would echo as used
        ["spectrum-report", "-L", "6", "--pairs", "single"],
        ["phase-diagram", "-L", "6", "--samples", "1", "--sigmas", "0", "--pairs", "single"],
        ["scaling", "--target", "eigenstates", "--model", "nn", "-L", "8,9,10,11", "--samples", "2",
         "--pairs", "single"],
        ["scaling", "--target", "eigenstates", "-L", "8,9,10,11", "--samples", "2", "--zero-sum"],
        ["phase-diagram", "-L", "6", "--samples", "1", "--sigmas", "0", "--model", "nn"],
        ["phase-diagram", "-L", "6", "--samples", "1", "--sigmas", "0", "--sigma", "1"],
        ["scaling", "--target", "random", "-L", "8,12,16,24", "--samples", "100", "--model", "nn"],
        ["scaling", "--target", "random-promoted", "-L", "8,12,16,24", "--samples", "100", "--sigma", "1"],
        ["spectrum-report", "-L", "6", "--sigma", "1"],
        ["scaling", "--target", "eigenstates", "--model", "nn", "-L", "8,9,10,11", "--samples", "2",
         "--sigma", "2"],
        ["scaling", "--target", "random", "-L", "8,12,16,24", "--samples", "100", "-m", "3"],
        ["scaling", "--target", "random-promoted", "-L", "8,12,16,24", "--samples", "100", "-m", "1"],
    ],
)
def test_bad_configuration_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_degtol_option_is_gone():
    # the degeneracy tolerance is always 1e-8 max(1, ||H||_F); the header keeps its null entry
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum-report", "-L", "10", "--degtol", "1e-6"])
    assert exc.value.code == 2
    assert ExperimentConfig(command="spectrum-report").header()["degtol"] is None


def test_sample_count_beyond_32_bit_indices_exits_two(tmp_path, monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("validation must reject the run before any draw")

    monkeypatch.setattr(ensembles, "sample_values", no_draws)
    argv = ["scaling", "--target", "random-promoted", "-L", "8,12,16,24", "--pairs", "single",
            "--samples", str(2**32 + 1), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # 2**32 samples use indices 0 .. 2**32 - 1, all representable: validation only
    cli.validate_config(ExperimentConfig(command="scaling", target="random", sites=(8, 12, 16, 24),
                                         samples=2**32))


def test_sector_over_memory_budget_exits_two(tmp_path, monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("validation must reject the run before any allocation")

    monkeypatch.setattr(couplings, "sample_couplings", no_sampling)
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS", (str(tmp_path / "absent"),))  # no cgroup limit
    # L=13, m=6: room for one worker's solve, not two
    per_worker = spectrum.solve_bytes(13, 6)
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (3 * per_worker // 2) // 4096}
    monkeypatch.setattr(cli.os, "sysconf", memory.__getitem__)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    report = ["spectrum-report", "-L", "13", "-m", "6", "--out", str(tmp_path / "out")]
    cli.validate_config(ExperimentConfig(command="spectrum-report", sites=(13,), magnons=6, samples=3))
    cli.validate_config(ExperimentConfig(command="spectrum-report", sites=(13,), magnons=6, samples=1, workers=3))
    for argv in (
        report + ["--samples", "2", "--workers", "2"],
        report + ["--samples", "5", "--workers", "3"],
        ["scaling", "--target", "eigenstates", "-L", "8,10,12,13", "-m", "6", "--workers", "2",
         "--out", str(tmp_path / "out")],
    ):
        assert cli.main(argv) == 2
        assert "physical memory" in capsys.readouterr().err
    # one CPU clamps the pool to one worker, which fits
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    cli.validate_config(ExperimentConfig(command="spectrum-report", sites=(13,), magnons=6, samples=2, workers=2))
    assert not (tmp_path / "out").exists()
    # the half-filled L=16 sector (dim 12870) fits one worker in 7.8 GiB; eight dense
    # dim^2 copies per worker would need 9.9 GiB
    memory["SC_PHYS_PAGES"] = int(7.8 * 2**30) // 4096
    cli.config_from_args(cli.build_parser().parse_args(  # validates
        ["spectrum-report", "-L", "16", "-m", "8", "--workers", "1", "--out", str(tmp_path / "out")]))


def test_half_filled_l16_report_fits_two_workers_in_7_83_gib(tmp_path, monkeypatch):
    # L=16, m=8 (dim 12870): each worker's solve holds one spin block of
    # eigenvectors at a time, so two samples on two workers pass validation on 7.83 GiB
    def no_sampling(*args):
        raise AssertionError("validation must not start a sample")

    monkeypatch.setattr(couplings, "sample_couplings", no_sampling)
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS", (str(tmp_path / "absent"),))
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": int(7.83 * 2**30) // 4096}
    monkeypatch.setattr(cli.os, "sysconf", memory.__getitem__)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["spectrum-report", "-L", "16", "-m", "8", "--samples", "2", "--workers", "2",
            "--out", str(tmp_path / "out")]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))  # validates
    assert cli._pool_size(cfg.workers, cfg.samples) == 2
    assert not (tmp_path / "out").exists()


def test_pair_kernel_over_memory_budget_exits_two(tmp_path, monkeypatch, capsys):
    # at m = 1 the C(L, 2) x L output of the concurrence kernel and its
    # gathered antiparallel rows outweigh the solve: L=800 needs 4.8 GiB of them
    def no_sampling(*args):
        raise AssertionError("validation must reject the run before any allocation")

    monkeypatch.setattr(couplings, "sample_couplings", no_sampling)
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS", (str(tmp_path / "absent"),))
    monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}.__getitem__)  # 1 GiB
    assert cli.main(["spectrum-report", "-L", "800", "-m", "1", "--out", str(tmp_path / "out")]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a run that allocated before validation would hit the address-space limit
# and fail with MemoryError, not exit 2
_LIMITED_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from heisenglass import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["spectrum-report", "-L", "8", "-m", "2"],
    ["phase-diagram", "-L", "8", "-m", "2", "--sigmas", "0"],
    ["scaling", "--target", "eigenstates", "-L", "8,9,10,11", "-m", "2"],
])
def test_results_beyond_memory_exit_two_before_allocating(tmp_path, argv):
    # every sample's result is held until the output is written: 10^12 of them cannot be
    out = _python(_LIMITED_SCRIPT, *argv, "--samples", str(10**12), "--out", str(tmp_path / "out"))
    assert out.returncode == 2, out.stderr
    assert "1000000000000 sample(s)" in out.stderr
    assert not (tmp_path / "out").exists()


_HELD_SCRIPT = """
import sys, tempfile
from heisenglass import cli

def status_kib(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))

with tempfile.TemporaryDirectory() as out:
    cli.main(["spectrum-report", "-L", "6", "-m", "3", "--out", out])  # first calls into BLAS, LAPACK and scipy
    before = status_kib("VmRSS")
    assert cli.main(sys.argv[1:] + ["--out", out]) == 0
print(status_kib("VmHWM") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the resident set from /proc")
@pytest.mark.parametrize("sites,magnons,workers,counts", [
    (10, 5, 1, (20, 120)),  # 252 rows a sample: the rows dominate
    (2, 1, 2, (200, 2200)),  # 2 rows a sample on a pool: the samples dominate
])
def test_held_results_stay_within_their_budget(sites, magnons, workers, counts):
    # peak resident set of the main process at two sample counts: both the
    # growth per sample and the whole run stay below what validation counts
    argv = ["spectrum-report", "-L", str(sites), "-m", str(magnons), "--workers", str(workers)]
    per_sample = cli.HELD_SAMPLE_BYTES + math.comb(sites, magnons) * cli.HELD_ROW_BYTES
    growth = [1024 * int(_python(_HELD_SCRIPT, *argv, "--samples", str(n), check=True).stdout)
              for n in counts]
    assert 0 < growth[1] - growth[0] < (counts[1] - counts[0]) * per_sample
    assert growth[1] < workers * spectrum.solve_bytes(sites, magnons) + counts[1] * per_sample


# the variables OpenBLAS reads its thread count from at load, in this order
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_environ(threads: str | None) -> dict:
    """The test's environment without any BLAS thread variable, plus OPENBLAS_NUM_THREADS=threads if given."""
    environ = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    return environ if threads is None else {**environ, "OPENBLAS_NUM_THREADS": threads}


def _has_live_blas_threads() -> bool:
    """Does numpy's BLAS export the numpy 2.x OpenBLAS thread-count getter the scripts below read?"""
    return hasattr(blas._numpy_library(), "scipy_openblas_get_num_threads64_")


# prints the live BLAS thread count before each sample, in the process that solves
# it (a forked worker inherits the patched job), and in the main process at the end;
# each line is one os.write, atomic on a pipe, so two workers' lines never interleave
_COUNTED_SCRIPT = """
import ctypes, os, sys
from numpy._core import _multiarray_umath
from heisenglass import cli

live = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
job = cli._eigen_job

def report():
    os.write(1, f"threads {live()}\\n".encode())

def counted(args):
    report()
    return job(args)

cli._eigen_job = counted
rc = cli.main(sys.argv[1:])
report()
sys.exit(rc)
"""

_SPAWNED_SCRIPT = """
import multiprocessing, sys
from heisenglass import cli

multiprocessing.set_start_method("spawn")
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not _has_live_blas_threads(), reason="reads the thread count of numpy's OpenBLAS")
def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the package sets its own BLAS thread count, so neither the environment, the
    # host's cores nor worker processes (forked or spawned) change a byte
    argv = ["spectrum-report", "--model", "ir", "-L", "11", "-m", "5", "--samples", "2"]
    runs = {
        "one": (_COUNTED_SCRIPT, "1", []),
        "two": (_COUNTED_SCRIPT, "2", []),
        "unset": (_COUNTED_SCRIPT, None, []),
        "forked": (_COUNTED_SCRIPT, None, ["--workers", "2"]),
        "spawned": (_SPAWNED_SCRIPT, "2", ["--workers", "2"]),
    }
    outputs = {}
    for name, (script, threads, extra) in runs.items():
        out = tmp_path / name
        run = _python(script, *argv, *extra, "--out", str(out), environ=_blas_environ(threads))
        assert run.returncode == 0, run.stderr
        if script is _COUNTED_SCRIPT:
            assert run.stdout.split("\n")[:-1] == ["threads 1"] * 3, name  # two samples, then the main process
        outputs[name] = (out / "spectrum_report.csv").read_bytes()
    assert all(data == outputs["one"] for data in outputs.values())


_IMPORT_SCRIPT = """
import ctypes, importlib, sys
from numpy._core import _multiarray_umath

live = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
before = live()
importlib.import_module(sys.argv[1])
print(before, live())
"""


@pytest.mark.skipif(not _has_live_blas_threads(), reason="reads the thread count of numpy's OpenBLAS")
@pytest.mark.parametrize("module", ["heisenglass.cli", "heisenglass.spectrum"])
def test_package_import_pins_blas_threads_after_numpy(module):
    # library callers (the acceptance suite calls diagonalize, eigenstate_sample and
    # _eigenstate_estimates directly) load numpy first, at the environment's count
    run = _python(_IMPORT_SCRIPT, module, environ=_blas_environ("2"), check=True)
    assert run.stdout.split() == ["2", str(blas.THREADS)]


# no BLAS symbol resolves, as in a numpy built on MKL or Accelerate
_NO_SETTER_SCRIPT = """
import ctypes, sys

def unresolved(self, name):
    raise AttributeError(name)

ctypes.CDLL.__getattr__ = unresolved
import heisenglass
from heisenglass import blas, cli

assert heisenglass.BLAS_THREADS is None and blas.pin_threads() is None
sys.exit(cli.main(sys.argv[1:]))
"""


def test_run_without_a_blas_thread_setter_still_succeeds(tmp_path):
    run = _python(_NO_SETTER_SCRIPT, "spectrum-report", "-L", "8", "-m", "3", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "spectrum_report.csv").exists()


@pytest.mark.parametrize("sites,reason", [
    ("8,12,16,700", "dimension 244650"),  # C(700, 2) is above DEFAULT_MAX_DIM
    ("8,12,16,300", "physical memory"),  # the pair indicators alone are 2 C(300, 2)^2 floats
])
def test_all_pairs_ensemble_too_large_exits_two(tmp_path, monkeypatch, capsys, sites, reason):
    def no_draws(*args):
        raise AssertionError("validation must reject the run before any draw")

    monkeypatch.setattr(ensembles, "sample_values", no_draws)
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS", (str(tmp_path / "absent"),))
    monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.__getitem__)  # 8 GiB
    argv = ["scaling", "--target", "random", "--pairs", "all", "-L", sites, "--samples", "100",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("files,limited", [
    ({"memory.max": "max\n"}, False),
    ({"memory.max": "{limit}\n"}, True),
    ({"memory.limit_in_bytes": "{limit}\n"}, True),
    ({"memory.limit_in_bytes": "9223372036854771712\n"}, False),
    ({}, False),
])
def test_sector_budget_honours_cgroup_limit(tmp_path, monkeypatch, capsys, files, limited):
    # L=14, m=7: four workers fit in 8 GiB; a limit of three workers' budgets holds two, not four
    per_worker = spectrum.solve_bytes(14, 7)
    assert 4 * per_worker < 2**33
    for name, text in files.items():
        (tmp_path / name).write_text(text.format(limit=3 * per_worker))
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS",
                        (str(tmp_path / "memory.max"), str(tmp_path / "memory.limit_in_bytes")))
    monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.__getitem__)  # 8 GiB
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    argv = ["spectrum-report", "-L", "14", "-m", "7", "--samples", "4", "--workers", "4",
            "--out", str(tmp_path / "out")]
    if limited:
        assert cli.main(argv) == 2
        assert "cgroup memory limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    else:
        cli.config_from_args(cli.build_parser().parse_args(argv))  # validates


def test_stream_key_mismatch_exits_one(tmp_path, monkeypatch, capsys):
    good = couplings.sample_keys

    def corrupted(master, indices):
        keys = good(master, indices)
        keys[0, 0] += np.uint64(1)
        return keys

    monkeypatch.setattr(ensembles, "sample_keys", corrupted)
    argv = ["scaling", "--target", "random", "-L", "8,12,16,24", "--pairs", "single",
            "--samples", "100", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "failure: batched Philox key of sample 0" in capsys.readouterr().err
    assert not (tmp_path / "scaling_random.csv").exists()


def test_verify_command_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "14/14 checks passed" in out
    assert "FAIL" not in out


def test_verify_negative_control(monkeypatch):
    # broken on purpose: the production concurrence formula without its sqrt(v y) term
    with monkeypatch.context() as patch:
        patch.setattr(entanglement, "concurrence_from_elements", lambda v, y, z: 2.0 * np.abs(z))
        results = verify.run_checks()
    failed = [name for name, ok, _ in results if not ok]
    assert failed == ["concurrence-wootters", "uniform-closed-forms"]
    assert len(results) == 14
    assert "FAIL concurrence-wootters" in verify.report(results)

    # broken on purpose: from three magnons on, each pair's (i down, j up) rows are
    # reversed, so z pairs every (i up, j down) row with the wrong swap partner
    swap_rows = basis.SectorBasis.swap_rows

    def reversed_partners(self, first, second):
        ud, du = swap_rows(self, first, second)
        return (ud, du[:, ::-1]) if self.magnons >= 3 else (ud, du)

    with monkeypatch.context() as patch:
        patch.setattr(basis.SectorBasis, "swap_rows", reversed_partners)
        failed = [name for name, ok, _ in verify.run_checks() if not ok]
    assert "concurrence-wootters" in failed


def test_parse_helpers():
    assert cli._parse_sigma("inf") == math.inf
    assert cli._parse_sigma("0.5") == 0.5
    assert cli._parse_int_list("8,12") == (8, 12)
    assert cli._parse_sigma_list("0,inf") == (0.0, math.inf)
    with pytest.raises(Exception):
        cli._parse_sigma("wide")
    with pytest.raises(Exception):
        cli._parse_int_list("8;12")
    assert cli.format_sigma(math.inf) == "inf"
    assert cli.format_sigma(0.0) == "0"
    assert cli.format_sigma(1.5) == "1.5"


def test_model_flag_sets_sigma():
    def sigma(model, value=None):
        return cli.model_sigma(ExperimentConfig(command="spectrum-report", model=model, sigma=value))

    assert sigma("ir") == 0.0
    assert sigma("nn") == math.inf
    assert sigma("pl", 1.5) == 1.5
    assert sigma("pl", math.inf) == math.inf
    with pytest.raises(ConfigError):
        cli.validate_config(ExperimentConfig(command="spectrum-report", model="pl", sites=(8,)))


def test_scoped_seed_is_stable_and_scope_sensitive():
    a = cli.scoped_seed(20260814, 8)
    assert a == cli.scoped_seed(20260814, 8)
    scopes = {cli.scoped_seed(20260814, L) for L in (8, 12, 16, 24, 32)}
    assert len(scopes) == 5


def test_reference_rows_pass_through():
    rows = {r.quantity: r for r in cli._reference_rows((10,))}
    bound = ladder.localized_promotion_bound(10)
    assert rows["bound-average-concurrence"].mean == bound.mean_concurrence
    assert rows["bound-prob-positive"].mean == bound.probability
    assert rows["reference-promoted-concurrence"].mean == pytest.approx(0.0465)
    assert all(r.kind == "reference" and r.n_samples == 0 for r in rows.values())


def test_header_serializes_infinite_sigma():
    cfg = ExperimentConfig(command="phase-diagram", sigma=math.inf, sigmas=(0.0, math.inf))
    header = cfg.header()
    assert header["sigma"] == "inf"
    assert header["sigmas"] == [0.0, "inf"]
    json.dumps(header)  # must stay JSON-safe


def test_eigenstate_sample_matches_job_wrapper():
    direct = cli.eigenstate_sample(0.0, 8, 2, 11, 0)
    wrapped = cli._eigen_job((0.0, 8, 2, 11, 0))
    assert all(np.array_equal(a, b) for a, b in zip(direct, wrapped))
    assert all(len(column) == 28 for column in direct)
    assert int(direct.promoted.sum()) == 8


@pytest.mark.parametrize("sigma,sites,magnons", [(math.inf, 12, 4), (0.0, 13, 6)])
def test_block_statistics_come_from_that_block_alone(monkeypatch, sigma, sites, magnons):
    # each spin block reaches the statistics on its own, so a state's values are
    # those of its block taken alone, whatever the blocks beside it
    blocks, spectra = [], []
    diagonalize = spectrum.diagonalize

    def recording(sm, raising=None, measure=None):
        def hook(two_s, vectors):
            blocks.append(vectors.copy())
            measure(two_s, vectors)

        spectra.append(diagonalize(sm, raising, hook))
        return spectra[-1]

    monkeypatch.setattr(spectrum, "diagonalize", recording)
    arrays = cli.eigenstate_sample(sigma, sites, magnons, 0, 0)
    upper = basis.build_basis(sites, magnons)
    order = spectra[0].order
    assert sum(block.shape[1] for block in blocks) == order.size
    concurrence = np.concatenate([entanglement.pair_concurrences(upper, block).mean(axis=0) for block in blocks])
    participation = np.concatenate([entanglement.participation_ratio(block) for block in blocks])
    assert np.array_equal(arrays.avg_concurrence, concurrence[order])
    assert np.array_equal(arrays.participation, participation[order])


def test_promoted_count_mismatch_exits_one(tmp_path, capsys, monkeypatch):
    # a threshold above every ladder value labels all 28 states new
    monkeypatch.setattr(ladder, "LADDER_TOL", 1e9)
    rc = cli.main(["spectrum-report", "-L", "8", "-m", "2", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "failure: sample 0" in err
    assert "0 promoted states, expected 8" in err
    assert not (tmp_path / "spectrum_report.csv").exists()


def test_shifted_uniform_eigenvalue_exits_one(tmp_path, capsys, monkeypatch):
    # H + 1 keeps the spin symmetry, every eigenpair and every ladder label,
    # but moves the uniform state's eigenvalue off S_J
    assemble = sector.assemble

    def shifted(cm, b):
        sm = assemble(cm, b)
        return dataclasses.replace(sm, matrix=sparse.csr_array(sm.matrix + sparse.eye_array(sm.dim)))

    monkeypatch.setattr(sector, "assemble", shifted)
    rc = cli.main(["spectrum-report", "-L", "8", "-m", "2", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "failure: sample 0" in err
    assert "uniform state residual" in err
    assert not (tmp_path / "spectrum_report.csv").exists()


def test_every_state_promoted_above_half_filling(tmp_path):
    # 2m > L: sigma^+ maps the 20-dim m=3 sector onto the 15-dim m=4 sector
    assert cli.main(["spectrum-report", "-L", "6", "-m", "4", "--out", str(tmp_path)]) == 0
    _, lines = _read_output(tmp_path / "spectrum_report.csv")
    assert [line.split(",")[6] for line in lines[1:]] == ["1"] * 15


@pytest.mark.parametrize("sites,magnons", [(8, 3), (7, 5)])  # 2m < L and 2m > L
def test_every_row_pairs_its_statistics_with_its_energy(sites, magnons):
    # dense eigh of the whole sector, sorted by energy, against each row of
    # eigenstate_sample: a 1-D output left in spin-block order lands on the
    # wrong energy
    seed, index = 5, 1
    rows = cli.eigenstate_sample(0.0, sites, magnons, seed, index)
    cm = couplings.sample_couplings(sites, 0.0, couplings.sample_seed(seed, index))
    b = basis.build_basis(sites, magnons)
    w, U = np.linalg.eigh(sector.assemble(cm, b).matrix.toarray())
    assert np.abs(rows.eigenvalue - w).max() <= 1e-10
    gaps = np.diff(w)
    isolated = np.flatnonzero(np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-6)
    assert isolated.size >= 0.9 * w.size
    lowered = ladder.promotion_map(b).T @ U[:, isolated]
    labels = np.where(np.einsum("ij,ij->j", lowered, lowered) > 0.5, ladder.PROMOTED, ladder.NEW)
    assert np.array_equal(rows.promoted[isolated], labels)
    conc = entanglement.pair_concurrences(b, U[:, isolated]).mean(axis=0)
    assert np.abs(rows.avg_concurrence[isolated] - conc).max() <= 1e-12
    pr = entanglement.participation_ratio(U[:, isolated])
    assert np.abs(rows.participation[isolated] - pr).max() <= 1e-9 * pr.max()

    mean_c, positive = cli._promoted_summary_job((0.0, sites, magnons, seed, index))
    promoted = rows.promoted == ladder.PROMOTED
    assert abs(mean_c - rows.avg_concurrence[promoted].mean()) <= 1e-14
    assert np.isin(np.flatnonzero(promoted), isolated).all()
    fraction = (entanglement.pair_concurrences(b, U[:, promoted]) > 0.0).mean(axis=0)
    assert abs(positive - fraction.mean()) <= 1e-14


def test_promoted_columns_off_the_last_block_exit_one(tmp_path, capsys, monkeypatch):
    # labels reversed keep the promoted count but no longer mark the last columns
    classify = ladder.classify

    def reversed_labels(spec, raising):
        cls = classify(spec, raising)
        return dataclasses.replace(cls, labels=cls.labels[::-1].copy())

    monkeypatch.setattr(ladder, "classify", reversed_labels)
    argv = ["scaling", "--target", "eigenstates", "-L", "8,9,10,11", "-m", "2", "--samples", "2",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "promoted states are not the last 8 columns" in capsys.readouterr().err
    assert not (tmp_path / "scaling_eigenstates.csv").exists()


class _InlinePool(concurrent.futures.Executor):
    """Stand-in for ProcessPoolExecutor: records its size and the most jobs in flight, runs jobs in-process.

    A job is in flight from its submit until its result is taken.
    """

    sizes: list[int] = []
    most_in_flight = 0

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.in_flight = 0

    def submit(self, fn, *args):
        self.in_flight += 1
        _InlinePool.most_in_flight = max(_InlinePool.most_in_flight, self.in_flight)
        return _Taken(self, fn(*args))


class _Taken(concurrent.futures.Future):
    """A finished future that tells its pool when its result is taken."""

    def __init__(self, pool: _InlinePool, value):
        super().__init__()
        self.pool = pool
        self.set_result(value)

    def result(self, timeout=None):
        self.pool.in_flight -= 1
        return super().result(timeout)


@pytest.mark.parametrize(
    ("requested", "n_jobs", "cpus", "pool_size"),
    [
        (10_000, 5, 3, 3),   # CPU count binds
        (10_000, 2, 8, 2),   # job count binds
        (3, 9, 8, 3),        # request binds
        (4, 9, None, None),  # unknown CPU count: serial, no pool
        (5, 1, 8, None),     # one job: serial, no pool
    ],
)
def test_map_jobs_clamps_pool_size(monkeypatch, requested, n_jobs, cpus, pool_size):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    jobs = [(k,) for k in range(n_jobs)]
    assert cli._map_jobs(lambda job: job[0] * 2, jobs, requested) == [2 * k for k in range(n_jobs)]
    assert _InlinePool.sizes == ([] if pool_size is None else [pool_size])


def test_map_jobs_keeps_two_jobs_a_worker_in_flight(monkeypatch):
    # the pool's futures are the main process's only per-job cost beyond the results
    monkeypatch.setattr(_InlinePool, "most_in_flight", 0)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    jobs = [(k,) for k in range(100)]
    assert cli._map_jobs(lambda job: job[0] * 2, jobs, 3) == [2 * k for k in range(100)]
    assert _InlinePool.most_in_flight == 2 * 3


def test_huge_worker_request_runs_on_a_clamped_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["spectrum-report", "-L", "6", "-m", "2", "--samples", "3", "--seed", "4"]
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "pooled"), "--workers", "100000"]) == 0
    assert _InlinePool.sizes == [2]
    name = "spectrum_report.csv"
    assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
