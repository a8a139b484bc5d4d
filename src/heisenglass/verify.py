"""Self-contained invariant and oracle checks at small system sizes.

Every check recomputes its expectation through an independent route
(full Pauli construction, general Wootters concurrence on full-space
partial traces, Jacobi rotations, closed forms) rather than trusting
the production kernels, so a silent regression in any kernel trips at
least one named check.
"""

from __future__ import annotations

import math

import numpy as np

from . import basis, couplings, ensembles, entanglement, fitting, ladder, sector, spectrum

CheckResult = tuple[str, bool, str]

_SY2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # i * sigma_y, real form
_FLIP = np.kron(_SY2, _SY2)  # sigma_y x sigma_y up to a sign that drops out


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary real 4x4 two-qubit density matrix.

    For real rho the spin-flipped matrix is F rho F with F = sy x sy, so
    the usual square roots of eigvals(rho F rho F) equal the absolute
    eigenvalues of the symmetric matrix sqrt(rho) F sqrt(rho).  The
    symmetric form avoids the precision loss of rooting near-zero
    eigenvalues; no X-matrix shortcut is involved.
    """
    w, U = np.linalg.eigh(rho)
    root = U @ (np.sqrt(np.clip(w, 0.0, None))[:, None] * U.T)
    lam = np.abs(np.linalg.eigvalsh(root @ _FLIP @ root))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def embed_full_space(b: basis.SectorBasis, coefficients: np.ndarray) -> np.ndarray:
    """Sector coefficients -> full 2^L vector (bit k of the index = site k)."""
    full = np.zeros(2**b.sites)
    full[np.fromiter(b.states, dtype=np.int64)] = coefficients
    return full


def two_site_rdm(psi_full: np.ndarray, sites: int, i: int, j: int) -> np.ndarray:
    """4x4 pair RDM of a full-space pure state, (uu, ud, du, dd) ordered.

    Reshape to one axis per site (axis L-1-k holds bit k), pull the pair
    to the front, and contract the rest.  The row index 2*s_i + s_j runs
    (dd, du, ud, uu), so both axes are reversed at the end.
    """
    t = psi_full.reshape((2,) * sites)
    t = np.moveaxis(t, (sites - 1 - i, sites - 1 - j), (0, 1))
    m = t.reshape(4, -1)
    rho = m @ m.T
    return rho[::-1, ::-1]


def kernel_wootters_deviation(b: basis.SectorBasis, coefficients: np.ndarray) -> float:
    """Largest |pair_concurrences - Wootters| over all pairs of one state.

    The oracle side embeds the state in the full 2^L space, traces out
    all but each pair and applies :func:`wootters_concurrence`; it
    shares no code with the kernel.
    """
    kernel = entanglement.pair_concurrences(b, coefficients)
    psi = embed_full_space(b, coefficients)
    first, second = np.triu_indices(b.sites, k=1)
    oracle = [wootters_concurrence(two_site_rdm(psi, b.sites, i, j)) for i, j in zip(first, second)]
    return float(np.abs(kernel - oracle).max(initial=0.0))


def jacobi_eigenvalues(A: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.abs(A - np.diag(np.diag(A))).max(initial=0.0)
        if off < 1e-14 * max(1.0, np.abs(np.diag(A)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
    return np.sort(np.diag(A))


def _check_basis() -> CheckResult:
    b = basis.build_basis(10, 3)
    parents = {s: k for k, s in enumerate(basis.build_basis(10, 2).states)}
    ok = all(a < c for a, c in zip(b.states, b.states[1:]))
    expected = [[parents.get(s & ~(1 << i)) for i in range(10) if s >> i & 1] for s in b.states]
    ok = ok and basis.cleared_ranks(b).tolist() == expected
    return ("basis-cleared-ranks", ok, f"{b.dim} states, L=10 m=3")


def _check_sector_oracle() -> CheckResult:
    cm = couplings.sample_couplings(6, 0.0, 3)
    full = sector.full_space_oracle(cm)
    worst = 0.0
    for m in range(7):
        b = basis.build_basis(6, m)
        block = sector.sector_of_full_space(full, b)
        worst = max(worst, float(np.abs(sector.assemble(cm, b).matrix.toarray() - block).max(initial=0.0)))
    pops = np.array([bin(n).count("1") for n in range(64)])
    off = np.abs(full[pops[:, None] != pops[None, :]]).max(initial=0.0)
    ok = worst <= 1e-12 and off == 0.0
    return ("sector-block-oracle", ok, f"max block deviation {worst:.2e}, off-block {off:.1e}")


def _check_uniform_eigenstate() -> CheckResult:
    worst = 0.0
    for sigma in (0.0, math.inf, 1.5):
        cm = couplings.sample_couplings(10, sigma, 11)
        sm = sector.assemble(cm, basis.build_basis(10, 2))
        worst = max(worst, sector.all_up_residual(sm))
    return ("uniform-eigenstate", worst <= 1e-10, f"max residual {worst:.2e}")


def _check_promotion_commutes() -> CheckResult:
    cm = couplings.sample_couplings(8, 0.0, 5)
    b1, b2 = basis.build_basis(8, 1), basis.build_basis(8, 2)
    H1 = sector.assemble(cm, b1).matrix.toarray()
    H2 = sector.assemble(cm, b2).matrix.toarray()
    P = ladder.promotion_map(b2).toarray()
    resid = float(np.abs(H2 @ P - P @ H1).max(initial=0.0))
    s1 = spectrum.diagonalize(sector.assemble(cm, b1))
    s2 = spectrum.diagonalize(sector.assemble(cm, b2))
    contained = spectrum.contains_spectrum(s2.eigenvalues[s2.order], s1.eigenvalues[s1.order], 1e-9)
    ok = resid <= 1e-9 and contained
    return ("promotion-commutes", ok, f"commutator {resid:.2e}, containment {contained}")


def _check_concurrence_oracle() -> CheckResult:
    rng = np.random.Generator(np.random.Philox(42))
    worst = 0.0
    for _ in range(50):
        b = basis.build_basis(6, int(rng.integers(1, 4)))
        a = rng.standard_normal(b.dim)
        worst = max(worst, kernel_wootters_deviation(b, a / np.linalg.norm(a)))
    return ("concurrence-wootters", worst <= 1e-10, f"max |kernel - oracle| {worst:.2e} over all pairs")


def _check_uniform_closed_forms() -> CheckResult:
    worst = 0.0
    for L in (4, 8, 16):
        b1, b2 = basis.build_basis(L, 1), basis.build_basis(L, 2)
        u1, u2 = np.full(b1.dim, b1.dim**-0.5), np.full(b2.dim, b2.dim**-0.5)
        c1 = entanglement.pair_concurrences(b1, u1)
        c2 = entanglement.pair_concurrences(b2, u2).mean()
        worst = max(
            worst,
            float(np.abs(c1 - 2.0 / L).max()),
            abs(c2 - ensembles.uniform_avg_concurrence_2p(L)),
            kernel_wootters_deviation(b1, u1),
            kernel_wootters_deviation(b2, u2),
        )
    return ("uniform-closed-forms", worst <= 1e-12, f"max deviation {worst:.2e}")


def _check_ipr_identity() -> CheckResult:
    rng = np.random.Generator(np.random.Philox(7))
    L = 12
    raising = ladder.promotion_map(basis.build_basis(L, 2))
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal(L)
        a -= a.mean()
        a /= np.linalg.norm(a)
        direct = entanglement.inverse_participation_ratio(ladder.promote(a, raising))
        ipr1 = entanglement.inverse_participation_ratio(a)
        predicted = ((L - 8.0) * ipr1 + 3.0) / (L - 2.0) ** 2
        worst = max(worst, abs(direct - predicted))
    return ("ipr-promotion-identity", worst <= 1e-12, f"max deviation {worst:.2e}")


def _check_localized_bound() -> CheckResult:
    L = 10
    b2 = basis.build_basis(L, 2)
    coeff = np.zeros(L)
    coeff[3] = 1.0
    conc = entanglement.pair_concurrences(b2, ladder.promote(coeff, ladder.promotion_map(b2)))
    bound = ladder.localized_promotion_bound(L)
    dev = max(
        abs(conc.mean() - bound.mean_concurrence),
        abs((conc > 0).mean() - bound.probability),
        abs(conc.max() - bound.pair_concurrence),
    )
    return ("localized-bound", dev <= 1e-12, f"max deviation {dev:.2e}")


def _check_classification() -> CheckResult:
    cm = couplings.sample_couplings(12, 0.0, 21)
    b2 = basis.build_basis(12, 2)
    spec = spectrum.diagonalize(sector.assemble(cm, b2))
    expected = ladder.expected_counts(12, 2)
    try:
        # classify raises unless every ladder value sits on its spin block's integer
        cls = ladder.classify(spec, ladder.promotion_map(b2))
    except spectrum.SpectrumError as err:
        return ("classification-counts", False, str(err))
    ok = (cls.n_promoted, cls.n_new) == expected
    detail = (
        f"promoted/new {cls.n_promoted}/{cls.n_new}, expected {expected}, "
        f"worst integer distance {cls.integer_distance:.1e}"
    )
    return ("classification-counts", ok, detail)


def _check_degeneracy_grouping() -> CheckResult:
    cm = couplings.sample_couplings(12, math.inf, 2)
    sm = sector.assemble(cm, basis.build_basis(12, 1))
    spec = spectrum.diagonalize(sm)
    # brute-force gap scan must induce the same grouping
    ev = spec.eigenvalues[spec.order]
    cuts = [k for k in range(1, ev.size) if ev[k] - ev[k - 1] > spec.degtol]
    starts = [0] + cuts
    stops = cuts + [ev.size]
    ok = list(zip(starts, stops)) == spec.groups
    return ("degeneracy-grouping", ok, f"{len(spec.groups)} groups at degtol {spec.degtol:.2e}")


def _check_jacobi() -> CheckResult:
    cm = couplings.sample_couplings(6, 1.0, 17)
    sm = sector.assemble(cm, basis.build_basis(6, 2))
    spec = spectrum.diagonalize(sm)
    dev = float(np.abs(spec.eigenvalues[spec.order] - jacobi_eigenvalues(sm.matrix.toarray())).max(initial=0.0))
    return ("eigensolver-jacobi", dev <= 1e-10, f"max eigenvalue deviation {dev:.2e}")


def _check_total_spin_blocks() -> CheckResult:
    L, m = 12, 5
    spins = basis.block_spins(L, m)
    Q = np.hstack([basis.spin_block(L, m, s2) for s2 in spins])
    two_s = np.repeat(spins, [basis.multiplets(L, s2) for s2 in spins])
    ortho = float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0))
    # sigma^+ sigma^- = S^2 - S_z^2 + S_z: the integer S(S+1) - M^2 + M on spin S
    b = basis.build_basis(L, m)
    raising = ladder.promotion_map(b)
    value = basis.ladder_integer(L, m, two_s)
    ladder_dev = float(np.abs(raising @ (raising.T @ Q) - value * Q).max(initial=0.0))
    cm = couplings.sample_couplings(L, 0.0, 23)
    H = sector.assemble(cm, b).matrix.toarray()
    # entries of Q^T H Q between columns of different spin
    coupling = (Q.T @ H @ Q)[two_s[:, None] != two_s[None, :]]
    leak = float(np.abs(coupling).max(initial=0.0)) / max(1.0, float(np.linalg.norm(H)))
    ok = ortho <= 1e-13 and ladder_dev <= 1e-12 and leak <= 1e-12
    detail = f"{len(spins)} blocks, orthonormality {ortho:.1e}, ladder {ladder_dev:.1e}, coupling {leak:.1e}"
    return ("total-spin-blocks", ok, detail)


def _check_fit_recovery() -> CheckResult:
    L = np.array([8.0, 12, 16, 20, 28, 40, 64])
    truth = np.array([0.9, 1.1])
    y = fitting.model_value(fitting.POWER_LAW, truth, L)
    res = fitting.fit(fitting.POWER_LAW, L, y)
    dev = float(np.abs(res.parameters - truth).max(initial=0.0))
    return ("fit-recovery", res.converged and dev <= 1e-6, f"parameter deviation {dev:.2e}")


def _check_estimate_determinism() -> CheckResult:
    spec = ensembles.EnsembleSpec(ensembles.RANDOM_PROMOTED_2P, 20, 200, 5)
    a = ensembles.estimate(spec, ensembles.MEAN_CONCURRENCE)
    b = ensembles.estimate(spec, ensembles.MEAN_CONCURRENCE)
    ok = repr(a.mean) == repr(b.mean) and repr(a.stderr) == repr(b.stderr)
    return ("estimate-determinism", ok, f"mean {a.mean!r}")


def run_checks() -> list[CheckResult]:
    """Run every named check."""
    return [
        _check_basis(),
        _check_sector_oracle(),
        _check_uniform_eigenstate(),
        _check_promotion_commutes(),
        _check_concurrence_oracle(),
        _check_uniform_closed_forms(),
        _check_ipr_identity(),
        _check_localized_bound(),
        _check_classification(),
        _check_degeneracy_grouping(),
        _check_jacobi(),
        _check_total_spin_blocks(),
        _check_fit_recovery(),
        _check_estimate_determinism(),
    ]


def report(results: list[CheckResult]) -> str:
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    n_bad = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - n_bad}/{len(results)} checks passed")
    return "\n".join(lines)
