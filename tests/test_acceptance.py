"""Acceptance suite: twelve numbered criteria, one verdict line each.

Every criterion is a single test named after its number, so the pytest
report itself is the pass/fail summary; run with -s to see the printed
lines with measured values.  All randomness is seeded from one master
value, which makes every number here reproducible across runs and
worker counts.
"""

import math
import os

import blocks
import numpy as np
import oracles

from heisenglass import (
    basis,
    cli,
    couplings,
    ensembles,
    entanglement,
    fitting,
    ladder,
    sector,
    spectrum,
    verify,
)

MASTER = 20260814
WORKERS = min(4, os.cpu_count() or 1)

SIGMAS = (0.0, math.inf, 1.0)  # infinite range, nearest neighbour, power law


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} ({name}): {detail}")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def test_criterion_01_sector_blocks_match_full_oracle():
    worst_block = 0.0
    worst_off = 0.0
    for seed in range(50):
        for L in (4, 6, 8):
            cm = couplings.sample_couplings(L, SIGMAS[seed % 3], seed)
            full = sector.full_space_oracle(cm)
            pops = np.array([bin(n).count("1") for n in range(1 << L)])
            off = np.abs(full[pops[:, None] != pops[None, :]]).max(initial=0.0)
            worst_off = max(worst_off, float(off))
            for m in range(L + 1):
                b = basis.build_basis(L, m)
                block = sector.sector_of_full_space(full, b)
                dev = np.abs(sector.assemble(cm, b).matrix.toarray() - block).max(initial=0.0)
                worst_block = max(worst_block, float(dev))
    ok = worst_block <= 1e-12 and worst_off == 0.0
    _criterion(1, "sector blocks equal the full-space oracle", ok,
               f"max block deviation {worst_block:.2e}, off-block max {worst_off:.1e}")


def test_criterion_02_uniform_state_is_eigenstate():
    rng = np.random.Generator(np.random.Philox(MASTER))
    worst = 0.0
    for k in range(100):
        L = int(rng.integers(3, 15))
        m = int(rng.integers(1, min(3, L - 1) + 1))
        cm = couplings.sample_couplings(L, SIGMAS[k % 3], k)
        sm = sector.assemble(cm, basis.build_basis(L, m))
        worst = max(worst, sector.all_up_residual(sm))
    _criterion(2, "uniform state is an eigenstate at S_J", worst <= 1e-10,
               f"max ||H u - S_J u|| = {worst:.2e} over 100 matrices")


def test_criterion_03_promotion_preserves_eigenpairs():
    worst = 0.0
    contained = True
    for L in (8, 12):
        for seed in (0, 1):
            cm = couplings.sample_couplings(L, 0.0, seed)
            b2 = basis.build_basis(L, 2)
            raising = ladder.promotion_map(b2)
            H2 = sector.assemble(cm, b2).matrix.toarray()
            s1, vectors = blocks.eigenvectors(sector.assemble(cm, basis.build_basis(L, 1)))
            s2 = spectrum.diagonalize(sector.assemble(cm, b2))
            for k in range(s1.dim):
                phi = raising @ vectors[:, k]
                phi /= np.linalg.norm(phi)
                worst = max(worst, float(np.linalg.norm(H2 @ phi - s1.eigenvalues[k] * phi)))
            ascending = [s.eigenvalues[s.order] for s in (s2, s1)]
            contained = contained and spectrum.contains_spectrum(*ascending, 1e-9)
    _criterion(3, "promotion preserves eigenpairs", worst <= 1e-9 and contained,
               f"max residual {worst:.2e}, spectrum containment {contained}")


def test_criterion_04_concurrence_shortcut_and_closed_forms():
    # the kernel row of the drawn pair against Wootters on the full-space partial trace
    rng = np.random.Generator(np.random.Philox(MASTER + 4))
    worst_pair = 0.0
    for _ in range(1000):
        L = int(rng.integers(3, 9))
        m = int(rng.integers(1, min(3, L - 1) + 1))
        b = basis.build_basis(L, m)
        a = rng.standard_normal(b.dim)
        a /= np.linalg.norm(a)
        i, j = sorted(int(t) for t in rng.choice(L, size=2, replace=False))
        kernel = entanglement.pair_concurrences(b, a)[oracles.site_pairs(L).index((i, j))]
        rho = verify.two_site_rdm(verify.embed_full_space(b, a), L, i, j)
        worst_pair = max(worst_pair, abs(kernel - verify.wootters_concurrence(rho)))

    worst_form = 0.0
    for L in range(3, 65):
        b1 = basis.build_basis(L, 1)
        conc = entanglement.pair_concurrences(b1, np.full(b1.dim, b1.dim**-0.5))
        worst_form = max(worst_form, float(np.abs(conc - 2.0 / L).max()))
    for L in (4, 8, 16, 25, 32, 48, 64):
        b2 = basis.build_basis(L, 2)
        average = entanglement.pair_concurrences(b2, np.full(b2.dim, b2.dim**-0.5)).mean()
        worst_form = max(worst_form, abs(average - ensembles.uniform_avg_concurrence_2p(L)))

    ok = worst_pair <= 1e-10 and worst_form <= 1e-12
    _criterion(4, "concurrence kernel matches the Wootters oracle", ok,
               f"max |kernel - oracle| {worst_pair:.2e}, closed-form deviation {worst_form:.2e}")


def test_criterion_05_promoted_ipr_identity():
    rng = np.random.Generator(np.random.Philox(MASTER + 5))
    raising = {}  # L -> sigma^+ into the sector (L, 2)

    def promoted_ipr(L: int) -> tuple[float, float]:
        if L not in raising:
            raising[L] = ladder.promotion_map(basis.build_basis(L, 2))
        a = rng.standard_normal(L)
        a -= a.mean()
        a /= np.linalg.norm(a)
        promoted = ladder.promote(a, raising[L])
        return float(np.sum(a**4)), float(entanglement.inverse_participation_ratio(promoted))

    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(6, 41))
        ipr1, ipr2 = promoted_ipr(L)
        worst = max(worst, abs(ipr2 - ((L - 8.0) * ipr1 + 3.0) / (L - 2.0) ** 2))
    # at L = 8 the seed dependence drops out entirely
    eight = max(abs(promoted_ipr(8)[1] - 1.0 / 12.0) for _ in range(100))
    ok = worst <= 1e-12 and eight <= 1e-15
    _criterion(5, "promoted IPR identity for zero-sum seeds", ok,
               f"max identity deviation {worst:.2e}; |IPR - 1/12| at L=8 max {eight:.1e}")


def test_criterion_06_random_ensemble_asymptotics():
    spec200 = ensembles.EnsembleSpec(
        ensembles.RANDOM_PROMOTED_2P, 200, 10_000, cli.scoped_seed(MASTER, 200))
    prob = ensembles.estimate(spec200, ensembles.PROB_POSITIVE)
    in_band = 0.560 <= prob.mean <= 0.605

    approach = []
    for L in (50, 100, 200):
        spec = ensembles.EnsembleSpec(
            ensembles.RANDOM_PROMOTED_2P, L, 200_000, cli.scoped_seed(MASTER, L))
        approach.append(ensembles.estimate(spec, ensembles.PROB_POSITIVE).mean)
    from_above = (approach[0] > approach[1] > approach[2]
                  and all(m > ensembles.PROB_POSITIVE_ASYMPTOTE for m in approach))

    conc = ensembles.estimate(spec200, ensembles.MEAN_CONCURRENCE)
    coeff_ok = abs(conc.mean * 200 - ensembles.PROMOTED_CONCURRENCE_COEFF) <= 0.15 * ensembles.PROMOTED_CONCURRENCE_COEFF

    big = 10_000
    ipr1 = ensembles.estimate(
        ensembles.EnsembleSpec(ensembles.RANDOM_1P, big, 2000, cli.scoped_seed(MASTER, 1)),
        ensembles.MEAN_IPR)
    ipr1_ok = abs(ipr1.mean - 3.0 / big) <= 2.0 * ipr1.stderr
    ipr2 = ensembles.estimate(
        ensembles.EnsembleSpec(ensembles.RANDOM_PROMOTED_2P, big, 500, cli.scoped_seed(MASTER, 2)),
        ensembles.MEAN_IPR)
    ipr2_ok = abs(ipr2.mean - 6.0 / big**2) <= 2.0 * ipr2.stderr

    ok = in_band and from_above and coeff_ok and ipr1_ok and ipr2_ok
    _criterion(6, "random-ensemble asymptotics", ok,
               f"P(C>0)={prob.mean:.4f}, approach {[round(m, 4) for m in approach]}, "
               f"<C>*L={conc.mean * 200:.4f}, IPR within 2 stderr: {ipr1_ok}/{ipr2_ok}")


def test_criterion_07_random_two_magnon_reference():
    spec = ensembles.EnsembleSpec(ensembles.RANDOM_2P, 25, 10_000, cli.scoped_seed(MASTER, 7))
    est = ensembles.estimate(spec, ensembles.MEAN_CONCURRENCE)
    ref = 16.0 / (25**2 * math.pi**1.5)
    alt = 4.0 / (math.sqrt(math.pi) * 25**2)
    dev = est.mean / ref - 1.0
    _criterion(7, "random two-magnon mean concurrence reference", abs(dev) <= 0.15,
               f"mean {est.mean:.6f} (stderr {est.stderr:.6f}) vs 16/(L^2 pi^1.5) = {ref:.6f} "
               f"({dev:+.1%}); cf. 4/(sqrt(pi) L^2) = {alt:.6f} ({est.mean / alt - 1.0:+.1%})")


def _eigen_reports(sigma, sites, magnons, seed, samples):
    jobs = [(sigma, sites, magnons, seed, k) for k in range(samples)]
    return cli._map_jobs(cli._eigen_job, jobs, WORKERS)


def _cloud_ratio(sigma, samples=50):
    counts = []
    promoted, new = [], []
    for arrays in _eigen_reports(sigma, 25, 2, MASTER, samples):
        counts.append(int((arrays.promoted == 1).sum()))
        promoted.append(arrays.avg_concurrence[arrays.promoted == 1])
        new.append(arrays.avg_concurrence[arrays.promoted == 0])
    return float(np.concatenate(promoted).mean() / np.concatenate(new).mean()), set(counts)


def test_criterion_08_promoted_cloud_separation():
    ratio, counts = _cloud_ratio(0.0)
    ok = counts == {25} and ratio >= 2.0
    _criterion(8, "promoted cloud sits well above new states", ok,
               f"promoted per sample {sorted(counts)}, concurrence ratio {ratio:.3f}")


def test_criterion_09_clouds_merge_with_decay_exponent():
    sigmas = (0.0, 1.0, 2.5)
    ratios = [_cloud_ratio(s)[0] for s in sigmas]
    ok = ratios[0] >= ratios[1] >= ratios[2]
    _criterion(9, "cloud separation shrinks as interactions shorten", ok,
               "ratio(sigma) = " + ", ".join(f"{s:g}: {r:.3f}" for s, r in zip(sigmas, ratios)))


def test_criterion_10_fit_recovery():
    L = np.array([8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 200.0])
    truths = {
        fitting.POWER_OFFSET: np.array([0.564, 0.426, 0.754]),
        fitting.EXP_SATURATION: np.array([0.65, 0.20, 18.0]),
        fitting.POWER_LAW: np.array([0.900, 1.138]),
    }
    noiseless_ok = jacobian_ok = True
    for family, truth in truths.items():
        res = fitting.fit(family, L, fitting.model_value(family, truth, L))
        noiseless_ok = noiseless_ok and np.abs(res.parameters - truth).max() <= 1e-6
        fd = oracles.finite_difference_jacobian(family, truth, L)
        jacobian_ok = jacobian_ok and np.abs(fitting.model_jacobian(family, truth, L) - fd).max() <= 1e-6

    rng = np.random.Generator(np.random.Philox(MASTER + 10))
    noisy_ok = True
    for family in (fitting.POWER_OFFSET, fitting.POWER_LAW):
        truth = truths[family]
        clean = fitting.model_value(family, truth, L)
        sigma = 0.01 * np.abs(clean)
        res = fitting.fit(family, L, clean + sigma * rng.standard_normal(L.size), sigma=sigma)
        noisy_ok = noisy_ok and bool(np.all(np.abs(res.parameters - truth) <= 3.0 * res.stderr))

    ok = noiseless_ok and noisy_ok and jacobian_ok
    _criterion(10, "fit recovery", ok,
               f"noiseless-1e-6 {noiseless_ok}, noisy-within-3se {noisy_ok}, jacobians-vs-fd {jacobian_ok}")


def test_criterion_11_scaling_exponents():
    cfg = cli.ExperimentConfig(command="scaling", sites=(8, 12, 16, 24, 32, 40),
                               samples=10_000, seed=MASTER, pairs="single")
    estimates = cli._ensemble_estimates(cfg, ensembles.RANDOM_PROMOTED_2P)
    conc = [e for e in estimates if e.quantity == ensembles.MEAN_CONCURRENCE]
    fits = fitting.scaling_pipeline(
        fitting.POWER_LAW,
        np.array([e.sites for e in conc], dtype=np.float64),
        np.array([e.mean for e in conc]),
        np.array([e.stderr for e in conc]),
    )
    a_plain = float(fits["unweighted"].parameters[1])
    a_weighted = float(fits["weighted"].parameters[1])
    in_band = 1.0 <= a_plain <= 1.3 and 1.0 <= a_weighted <= 1.3

    nn_cfg = cli.ExperimentConfig(command="scaling", model="nn", sites=(8, 12, 16), magnons=2,
                                  samples=400, seed=MASTER, workers=WORKERS)
    probs = [e.mean for e in cli._eigenstate_estimates(nn_cfg) if e.quantity == ensembles.PROB_POSITIVE]
    increasing = probs[0] < probs[1] < probs[2]

    _criterion(11, "scaling exponents at reduced range", in_band and increasing,
               f"power-law a unweighted {a_plain:.4f} / weighted {a_weighted:.4f} in [1.0, 1.3]: {in_band}; "
               f"NN P(C>0) {[round(p, 5) for p in probs]} increasing: {increasing}")


def test_criterion_12_outputs_are_deterministic(tmp_path):
    runs = {
        "report": ["spectrum-report", "-L", "10", "-m", "2", "--samples", "3",
                   "--seed", str(MASTER)],
        "phase": ["phase-diagram", "-L", "8", "-m", "2", "--samples", "2",
                  "--sigmas", "0,inf", "--seed", str(MASTER)],
        "scaling": ["scaling", "--target", "random-promoted", "-L", "8,12,16,24",
                    "--samples", "120", "--pairs", "single", "--seed", str(MASTER)],
    }
    identical = True
    compared = 0
    for name, argv in runs.items():
        first, second = tmp_path / name / "a", tmp_path / name / "b"
        assert cli.main(argv + ["--out", str(first), "--workers", "1"]) == 0
        assert cli.main(argv + ["--out", str(second), "--workers", "2"]) == 0
        for path in sorted(first.iterdir()):
            compared += 1
            identical = identical and path.read_bytes() == (second / path.name).read_bytes()
    _criterion(12, "outputs byte-identical across reruns and workers", identical and compared >= 5,
               f"{compared} files compared across {len(runs)} commands")
