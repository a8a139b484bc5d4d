import os
import subprocess
import sys
import tracemalloc
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import blocks
import oracles
from heisenglass import basis, cli, couplings, ladder, sector, spectrum
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
    spec, vectors = blocks.eigenvectors(sm)
    k = int(np.argmin(np.abs(spec.eigenvalues - cm.coupling_sum())))
    assert abs(spec.eigenvalues[k] - cm.coupling_sum()) <= 1e-9
    uniform = np.full(sm.dim, 1.0 / np.sqrt(sm.dim))
    v = vectors[:, k]
    assert min(np.abs(v - uniform).max(), np.abs(v + uniform).max()) <= 1e-9


def test_matches_jacobi_oracle_on_random_symmetric():
    rng = np.random.Generator(np.random.Philox(5))
    J = np.triu(rng.standard_normal((4, 4)), 1)
    cm = couplings.CouplingMatrix(4, J + J.T)
    sm = sector.assemble(cm, basis.build_basis(4, 2))
    spec = spectrum.diagonalize(sm)
    assert np.abs(spec.eigenvalues[spec.order] - jacobi_eigenvalues(sm.matrix.toarray())).max() <= 1e-10


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
    a, a_vectors = blocks.eigenvectors(sm)
    b, b_vectors = blocks.eigenvectors(sm)
    assert np.array_equal(a_vectors, b_vectors)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_eigensolver_postconditions():
    _, sm = _sector(inf, 10, 3, 2)
    spec, vectors = blocks.eigenvectors(sm)
    H = sm.matrix.toarray()
    assert np.all(np.diff(spec.eigenvalues[spec.order]) >= 0)
    assert np.abs(vectors.T @ vectors - np.eye(spec.dim)).max() <= 1e-10
    assert spec.eigenvalues.sum() == pytest.approx(np.trace(H), rel=1e-9)
    assert (spec.eigenvalues**2).sum() == pytest.approx(np.linalg.norm(H) ** 2, rel=1e-9)


@pytest.mark.parametrize("first,second", [
    (3, 40),  # off the diagonal, in the first panel of 128 rows
    (150, 200),  # in a middle panel
    (20, 290),  # in the last, partial panel (300 = 128 + 128 + 44)
    (290, 290),  # on the diagonal, in the last panel
])
def test_panelled_orthonormality_matches_dense_gram(first, second):
    rng = np.random.Generator(np.random.Philox(9))
    V, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    V = np.ascontiguousarray(V)
    if first == second:
        V[:, first] *= 1.0 + 1e-6
    else:
        V[:, second] += 1e-6 * V[:, first]
    dense = np.abs(V.T @ V - np.eye(300)).max()
    assert dense > 1e-7  # the perturbation, not rounding, sets the deviation
    assert abs(spectrum.orthonormality_deviation(V) - dense) <= 1e-15


def test_rescaled_eigenvector_fails_the_orthonormality_check(monkeypatch):
    # a column scaled by 1 + 1e-7 keeps its eigenpair and Casimir residuals near
    # rounding, so only the block's Gram check (its diagonal) can catch it
    eigh = np.linalg.eigh
    scaled = []

    def scale_one_column(a, UPLO="L"):
        w, X = eigh(a, UPLO=UPLO)
        if not scaled and X.shape[1] > 1:
            X[:, 1] *= 1.0 + 1e-7
            scaled.append(X.shape[1])
        return w, X

    monkeypatch.setattr(np.linalg, "eigh", scale_one_column)
    _, sm = _sector(1.0, 10, 4, 3)
    with pytest.raises(spectrum.SpectrumError, match="not orthonormal"):
        spectrum.diagonalize(sm)
    assert scaled


def test_swapped_eigenvector_columns_fail_the_residual_check(monkeypatch):
    # two columns of X exchanged, w left as eigh returned it: the columns stay
    # orthonormal and in their spin block and the trace holds, so only the
    # residual of H V can catch it
    eigh = np.linalg.eigh
    gaps = []

    def swap_two_columns(a, UPLO="L"):
        w, X = eigh(a, UPLO=UPLO)
        if not gaps and X.shape[1] > 1:
            X[:, [0, -1]] = X[:, [-1, 0]]
            gaps.append(w[-1] - w[0])
        return w, X

    monkeypatch.setattr(np.linalg, "eigh", swap_two_columns)
    _, sm = _sector(1.0, 10, 4, 3)
    with pytest.raises(spectrum.SpectrumError, match="residual"):
        spectrum.diagonalize(sm)
    assert gaps and gaps[0] > 1e-3


def test_returned_columns_are_eigenpairs_of_the_dense_matrix():
    # dim 210 spans two column panels of the residual check; five spin blocks interleave in energy
    _, sm = _sector(1.0, 10, 4, 8)
    handed = []
    spec = spectrum.diagonalize(sm, measure=lambda two_s, vectors: handed.append((two_s, vectors)))
    H = sm.matrix.toarray()
    assert [two_s for two_s, _ in handed] == [2, 4, 6, 8, 10]
    assert all(v.flags.c_contiguous and v.shape == (sm.dim, basis.multiplets(10, two_s)) for two_s, v in handed)
    vectors = np.hstack([v for _, v in handed])
    assert np.unique(spec.two_s).size == 5 and np.any(np.diff(spec.two_s) != 0)
    residual = np.linalg.norm(H @ vectors - vectors * spec.eigenvalues, axis=0)
    assert residual.max() <= 1e-10 * np.linalg.norm(H)


def test_block_solve_allocates_less_than_one_dim_by_d_array(monkeypatch):
    # the widest spin block of IR L=13, m=6 (d = 572 of dim 1716): A = Q^T H Q is
    # formed one column panel at a time, so no dim x d product H Q is ever alive;
    # both builds of Q are made before tracing, so the solve's own arrays are measured
    _, sm = _sector(0.0, 13, 6, 0)
    built = [basis.spin_block(13, 6, 3) for _ in range(2)]
    Q = built[0]
    assert Q.shape == (sm.dim, 572) == (sm.dim, max(basis.multiplets(13, s2) for s2 in basis.block_spins(13, 6)))
    monkeypatch.setattr(spectrum.basis, "spin_block", lambda sites, magnons, two_s: built.pop())
    tracemalloc.start()
    try:
        spectrum._solve_block(sm.matrix, 13, 6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not built
    assert peak < 8 * sm.dim * Q.shape[1]


def test_eigh_runs_with_no_dim_by_d_array_alive(monkeypatch):
    # Q_S is dropped once A is formed and built again after eigh, so at every
    # eigh call of an IR L=13, m=6 solve the traced memory (A and what
    # diagonalize keeps) stays below one dim x d array of the widest block
    _, sm = _sector(0.0, 13, 6, 0)
    raising = ladder.promotion_map(sm.basis)
    eigh = np.linalg.eigh
    current = []

    def recorded(a, UPLO="L"):
        current.append(tracemalloc.get_traced_memory()[0])
        return eigh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    tracemalloc.start()
    try:
        spectrum.diagonalize(sm, raising)
    finally:
        tracemalloc.stop()
    assert len(current) == len(basis.block_spins(13, 6))
    assert max(current) < 8 * 1716 * 572


def test_lower_triangle_formation_matches_the_full_product():
    # _solve_block forms A = Q^T H Q from each panel's diagonal down and eigh reads the lower
    # triangle alone.  Its eigenpairs are those of the full product, to rounding: OpenBLAS
    # sends a thin product (M N K <= 10^6) to its small-matrix kernel, which sums in another
    # order, so the short last panel of a block (26 of 154 rows here) can differ in the last bits.
    _, sm = _sector(0.0, 12, 6, 7)
    H = sm.matrix
    scale = np.linalg.norm(H.data)
    for two_s in basis.block_spins(12, 6):
        Q = basis.spin_block(12, 6, two_s)
        d = Q.shape[1]
        full = np.empty((d, d))
        for p in range(0, d, spectrum.PANEL):
            full[:, p:p + spectrum.PANEL] = Q.T @ (H @ Q[:, p:p + spectrum.PANEL])
        w_full, X_full = np.linalg.eigh(full)
        V_full = Q @ X_full
        w, V, _ = spectrum._solve_block(H, 12, 6, two_s)
        assert np.abs(w - w_full).max() <= 1e-13 * scale
        overlap = np.abs(np.sum(V * V_full, axis=0))  # |<v, v_full>| per eigenpair, up to sign
        simple = np.diff(w_full, prepend=-np.inf, append=np.inf)
        simple = np.minimum(simple[:-1], simple[1:]) > 1e-6 * scale
        assert np.abs(overlap[simple] - 1.0).max() <= 1e-9


def _rewrite_first_column(monkeypatch, into: int, rewrite) -> list:
    """Make _solve_block replace the first returned column v of block 2S = ``into`` by ``rewrite(v)``.

    The change comes after the block's eigenpair residuals are taken, as a
    faulty write-back would, so only the checks that follow can see it.
    Returns the list that receives the block's Gram deviation after the change.
    """
    solve = spectrum._solve_block
    gram = []

    def rewritten(H, sites, magnons, two_s):
        w, V, residual = solve(H, sites, magnons, two_s)
        if two_s == into:
            V[:, 0] = rewrite(V[:, 0])
            gram.append(spectrum.orthonormality_deviation(V))
        return w, V, residual

    monkeypatch.setattr(spectrum, "_solve_block", rewritten)
    return gram


def test_overlap_with_another_spin_block_fails_the_casimir_check(monkeypatch):
    # 1e-9 of a column of block 2S=2 added to a column of block 2S=4: the block's
    # own Gram moves by 1e-18 only, but the column now overlaps block 2 by 1e-9,
    # which a whole-sector Gram would catch and the Casimir residual does
    _, sm = _sector(1.0, 10, 4, 3)
    foreign = basis.spin_block(10, 4, 2)[:, 0]
    own = basis.spin_block(10, 4, 4)[:, 0]
    assert spectrum.orthonormality_deviation(np.column_stack([own + 1e-9 * foreign, foreign])) > 1e-10
    gram = _rewrite_first_column(monkeypatch, 4, lambda v: v + 1e-9 * foreign)
    measured = []
    with pytest.raises(spectrum.SpectrumError, match="Casimir residual .* at 2S=4"):
        spectrum.diagonalize(sm, measure=lambda two_s, vectors: measured.append(two_s))
    assert gram and gram[0] <= 1e-10
    assert measured == [2]  # the failing block is never measured


def test_vector_mixing_two_spins_fails_the_casimir_check(monkeypatch):
    # (a + b) / sqrt(2), a of block 2S=3 and b of block 2S=5 (L=7, m=2): a unit vector
    # orthogonal to the rest of block 3, so only the Casimir residual sees the mix
    _, sm = _sector(0.0, 7, 2, 4)
    other = basis.spin_block(7, 2, 5)[:, 0]
    gram = _rewrite_first_column(monkeypatch, 3, lambda v: (v + other) / np.sqrt(2))
    with pytest.raises(spectrum.SpectrumError, match="Casimir residual .* at 2S=3"):
        spectrum.diagonalize(sm)
    assert gram and gram[0] <= 1e-10


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
    spec, vectors = blocks.eigenvectors(sm)
    Q, block_two_s = blocks.spin_blocks(9, 4)
    assert spec.two_s.dtype.kind == "i"
    # spin-block order: the blocks as built, eigh's ascending energies within each
    assert np.array_equal(spec.two_s, block_two_s)
    for k in np.unique(block_two_s):
        assert np.all(np.diff(spec.eigenvalues[spec.two_s == k]) >= 0)
    assert np.array_equal(spec.order, np.argsort(spec.eigenvalues, kind="stable"))
    assert not np.array_equal(spec.order, np.arange(spec.dim))  # the blocks interleave in energy
    assert spec.groups == spectrum.group_degeneracies(spec.eigenvalues[spec.order], spec.degtol)
    # column k lies entirely in the span of block two_s[k], and |sigma^- v|^2 is recorded for it
    inside = np.empty(spec.dim)
    for k in np.unique(block_two_s):
        cols = spec.two_s == k
        inside[cols] = np.linalg.norm(Q[:, block_two_s == k].T @ vectors[:, cols], axis=0)
    assert np.abs(inside - 1.0).max() <= 1e-12
    lowered = ladder.promotion_map(sm.basis).T @ vectors
    assert np.abs(spec.ladder_values - np.einsum("ij,ij->j", lowered, lowered)).max() <= 1e-12


def test_degenerate_mask():
    _, sm = _sector(0.0, 4, 2, 0)
    spec = spectrum.Spectrum(
        matrix=sm,
        eigenvalues=np.array([1.0, 1.0, 2.0]),
        two_s=np.array([0, 0, 2]),
        ladder_values=np.array([0.0, 0.0, 2.0]),
        order=np.arange(3),
        degtol=1e-8,
        groups=[(0, 2), (2, 3)],
    )
    assert np.array_equal(spec.degenerate_mask(), [True, True, False])


def test_nn_degeneracy_grouping_against_gap_scan():
    cm, sm = _sector(inf, 20, 1, 4)
    spec = spectrum.diagonalize(sm)
    ascending = spec.eigenvalues[spec.order]
    assert spec.groups == oracles.gap_scan_groups(ascending, spec.degtol)
    # multiplicity of the group holding the all-one eigenvalue S_J
    k = int(np.argmin(np.abs(ascending - cm.coupling_sum())))
    (size,) = [b - a for a, b in spec.groups if a <= k < b]
    assert size >= 1


def test_containment_infinite_range():
    cm = couplings.sample_couplings(12, 0.0, 8)
    s1 = spectrum.diagonalize(sector.assemble(cm, basis.build_basis(12, 1)))
    s2 = spectrum.diagonalize(sector.assemble(cm, basis.build_basis(12, 2)))
    assert spectrum.contains_spectrum(s2.eigenvalues[s2.order], s1.eigenvalues[s1.order], 1e-9)


def test_containment_rejects_missing_and_multiplicity():
    outer = np.array([0.0, 1.0, 2.0])
    assert spectrum.contains_spectrum(outer, np.array([1.0]), 1e-12)
    assert not spectrum.contains_spectrum(outer, np.array([1.5]), 1e-12)
    assert not spectrum.contains_spectrum(outer, np.array([1.0, 1.0]), 1e-12)


@pytest.mark.parametrize("outer,inner", [
    ([0.0, 2.0, 1.0], [1.0]),  # a block-ordered outer spectrum: 1.0 is there, yet the scan would miss it
    ([0.0, 1.0, 2.0], [2.0, 1.0]),
    ([0.0, np.nan, 2.0], [0.0]),
])
def test_containment_rejects_unsorted_input(outer, inner):
    with pytest.raises(ValueError, match="ascending"):
        spectrum.contains_spectrum(np.array(outer), np.array(inner), 1e-12)


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
    # A whole eigenstate sample at m = 1, where the C(L, 2) x L output of the
    # concurrence kernel and its gathered antiparallel rows outweigh the solve.
    growth = _peak_growth(sites, magnons, "sample")
    assert 0 < growth < spectrum.solve_bytes(sites, magnons)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the resident set from /proc")
@pytest.mark.parametrize("args,limit", [
    ((13, 6, "sample"), 1.0),  # one spin block at a time, no (dim, dim) array, and at most one
    ((14, 7, "sample"), 0.8),  # dim x d array of it: its cone next to X, or eigh's d x d arrays
    ((60, 2), 5.3),  # one block of nearly dim columns: eigh's own d x d arrays set the peak
    ((150, 1, "sample"), 200.0),  # the C(L, 2) x L concurrences and one gathered row set of that size
])
def test_peak_growth_in_dense_matrices(args, limit):
    # Peak resident set above the starting one, in units of one dim x dim float64 array.
    dim = comb(args[0], args[1])
    assert _peak_growth(*args) < limit * 8 * dim * dim


def test_sample_allocates_less_than_one_dim_by_dim_array():
    # IR L=13, m=6 (dim 1716): a whole CLI sample, bases, solve, labels and per-state
    # statistics, holds one spin block at a time and never a (dim, dim) array
    cli.eigenstate_sample(0.0, 6, 3, 0, 0)  # first calls into BLAS, LAPACK and scipy.sparse
    tracemalloc.start()
    try:
        cli.eigenstate_sample(0.0, 13, 6, 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * comb(13, 6) ** 2
