import os
import subprocess
import sys
from math import inf
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import oracles
from heisenglass import basis, couplings, sector, spectrum
from heisenglass.verify import jacobi_eigenvalues


def _sector(sigma, sites, magnons, seed):
    cm = couplings.sample_couplings(sites, sigma, seed)
    return cm, sector.assemble(cm, basis.build_basis(sites, magnons))


def test_two_spin_eigenvalues():
    J = np.array([[0.0, 1.0], [1.0, 0.0]])
    cm = couplings.CouplingMatrix(2, J)
    spec = spectrum.diagonalize(sector.assemble(cm, basis.build_basis(2, 1)))
    assert np.allclose(spec.eigenvalues, [-3.0, 1.0], atol=1e-12)


def test_all_one_vector_is_eigenvector():
    cm, sm = _sector(0.0, 8, 2, 3)
    spec = spectrum.diagonalize(sm)
    k = int(np.argmin(np.abs(spec.eigenvalues - cm.coupling_sum())))
    assert abs(spec.eigenvalues[k] - cm.coupling_sum()) <= 1e-9
    uniform = np.full(sm.dim, 1.0 / np.sqrt(sm.dim))
    v = spec.vectors[:, k]
    assert min(np.abs(v - uniform).max(), np.abs(v + uniform).max()) <= 1e-9


def test_matches_jacobi_oracle_on_random_symmetric():
    rng = np.random.Generator(np.random.Philox(5))
    J = np.triu(rng.standard_normal((4, 4)), 1)
    cm = couplings.CouplingMatrix(4, J + J.T)
    sm = sector.assemble(cm, basis.build_basis(4, 2))
    spec = spectrum.diagonalize(sm)
    assert np.abs(spec.eigenvalues - jacobi_eigenvalues(sm.matrix.toarray())).max() <= 1e-10


def test_rejects_symmetric_matrix_without_su2_symmetry():
    rng = np.random.Generator(np.random.Philox(5))
    M = rng.standard_normal((6, 6))
    cm, sm = _sector(0.0, 4, 2, 0)
    sm = sector.SectorMatrix(basis=sm.basis, couplings=cm, matrix=sparse.csr_array(0.5 * (M + M.T)))
    with pytest.raises(spectrum.SpectrumError, match="residual"):
        spectrum.diagonalize(sm)


@pytest.mark.parametrize("triangle", [sparse.triu, sparse.tril])
def test_rejects_sector_block_missing_one_triangle(triangle):
    _, sm = _sector(0.0, 8, 3, 1)
    half = sector.SectorMatrix(basis=sm.basis, couplings=sm.couplings, matrix=sparse.csr_array(triangle(sm.matrix)))
    with pytest.raises(spectrum.SpectrumError, match="residual"):
        spectrum.diagonalize(half)


def test_eigensolve_is_deterministic():
    _, sm = _sector(1.0, 9, 2, 11)
    a = spectrum.diagonalize(sm)
    b = spectrum.diagonalize(sm)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_eigensolver_postconditions():
    _, sm = _sector(inf, 10, 3, 2)
    spec = spectrum.diagonalize(sm)
    H = sm.matrix.toarray()
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(spec.dim)).max() <= 1e-10
    assert spec.eigenvalues.sum() == pytest.approx(np.trace(H), rel=1e-9)
    assert (spec.eigenvalues**2).sum() == pytest.approx(np.linalg.norm(H) ** 2, rel=1e-9)


def test_nonfinite_input_raises():
    # stored entry 0 is the diagonal H[0, 0]; the last one is off the diagonal
    for sites, magnons, bad, entry in ((6, 2, np.nan, 0), (10, 2, np.nan, -1), (10, 2, np.inf, 0)):
        _, sm = _sector(0.0, sites, magnons, 0)
        sm.matrix.data[entry] = bad
        with pytest.raises(spectrum.SpectrumError):
            spectrum.diagonalize(sm)


def test_group_degeneracies_simple():
    groups = spectrum.group_degeneracies(np.array([1.0, 1.0, 2.0]), 1e-8)
    assert groups == [(0, 2), (2, 3)]


def test_triplet_grouping():
    J = np.array([[0.0, 1.0], [1.0, 0.0]])
    cm = couplings.CouplingMatrix(2, J)
    evals = np.sort(np.linalg.eigvalsh(sector.full_space_oracle(cm)))
    groups = spectrum.group_degeneracies(evals, 1e-8)
    assert groups == [(0, 1), (1, 4)]


def test_columns_carry_their_spin_block():
    _, sm = _sector(1.0, 9, 4, 6)
    spec = spectrum.diagonalize(sm)
    blocks = basis.total_spin_blocks(9, 4)
    assert spec.two_s.dtype.kind == "i"
    assert {k: int((spec.two_s == k).sum()) for k in blocks} == {k: q.shape[1] for k, q in blocks.items()}
    # column k lies entirely in the span of block two_s[k]
    inside = np.empty(spec.dim)
    for k, q in blocks.items():
        cols = spec.two_s == k
        inside[cols] = np.linalg.norm(q.T @ spec.vectors[:, cols], axis=0)
    assert np.abs(inside - 1.0).max() <= 1e-12


def test_degenerate_mask():
    _, sm = _sector(0.0, 4, 2, 0)
    spec = spectrum.Spectrum(
        matrix=sm,
        eigenvalues=np.array([1.0, 1.0, 2.0]),
        vectors=np.eye(3),
        two_s=np.array([0, 0, 2]),
        degtol=1e-8,
        groups=[(0, 2), (2, 3)],
    )
    assert np.array_equal(spec.degenerate_mask(), [True, True, False])


def test_nn_degeneracy_grouping_against_gap_scan():
    cm, sm = _sector(inf, 20, 1, 4)
    spec = spectrum.diagonalize(sm)
    assert spec.groups == oracles.gap_scan_groups(spec.eigenvalues, spec.degtol)
    # multiplicity of the group holding the all-one eigenvalue S_J
    k = int(np.argmin(np.abs(spec.eigenvalues - cm.coupling_sum())))
    (size,) = [b - a for a, b in spec.groups if a <= k < b]
    assert size >= 1


def test_containment_infinite_range():
    cm = couplings.sample_couplings(12, 0.0, 8)
    s1 = spectrum.diagonalize(sector.assemble(cm, basis.build_basis(12, 1)))
    s2 = spectrum.diagonalize(sector.assemble(cm, basis.build_basis(12, 2)))
    assert spectrum.contains_spectrum(s2.eigenvalues, s1.eigenvalues, 1e-9)


def test_containment_rejects_missing_and_multiplicity():
    outer = np.array([0.0, 1.0, 2.0])
    assert spectrum.contains_spectrum(outer, np.array([1.0]), 1e-12)
    assert not spectrum.contains_spectrum(outer, np.array([1.5]), 1e-12)
    assert not spectrum.contains_spectrum(outer, np.array([1.0, 1.0]), 1e-12)


_PEAK_SCRIPT = """
import sys
from heisenglass import basis, cli, couplings, sector, spectrum

def status_kib(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))

def solve(L, m):
    cm = couplings.sample_couplings(L, 0.0, 0)
    return sector.assemble(cm, basis.build_basis(L, m))

spectrum.diagonalize(solve(6, 3))  # first calls into BLAS, LAPACK and scipy.sparse
L, m = int(sys.argv[1]), int(sys.argv[2])
if sys.argv[3:] == ["sample"]:  # a whole CLI sample: bases, solve, labels and per-state statistics
    cli.eigenstate_sample(0.0, 6, 3, 0, 0)
    before = status_kib("VmRSS")
    cli.eigenstate_sample(0.0, L, m, 0, 0)
else:
    sm = solve(L, m)
    before = status_kib("VmRSS")
    spectrum.diagonalize(sm)
print(status_kib("VmHWM") - before)
"""


def _peak_growth(*args) -> int:
    # VmHWM is ru_maxrss of the child's own address space: ru_maxrss itself
    # keeps the parent's value across fork and exec.
    src = str(Path(spectrum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *map(str, args)],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    return 1024 * int(out.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the resident set from /proc")
@pytest.mark.parametrize("sites,magnons", [(60, 2), (25, 2), (16, 3), (13, 6), (14, 7)])
def test_solve_peak_stays_within_budget(sites, magnons):
    # Peak resident set of a lone diagonalize above the post-assembly one.
    growth = _peak_growth(sites, magnons)
    assert 0 < growth < spectrum.solve_bytes(sites, magnons)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the resident set from /proc")
@pytest.mark.parametrize("sites,magnons", [(150, 1)])
def test_sample_peak_stays_within_budget(sites, magnons):
    # A whole eigenstate sample at m = 1, where the dim x C(L, 2) pair
    # indicators of the concurrence kernel outweigh the solve.
    growth = _peak_growth(sites, magnons, "sample")
    assert 0 < growth < spectrum.solve_bytes(sites, magnons)
