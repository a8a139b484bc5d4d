"""Nonlinear least squares for finite-size scaling curves.

Three model families cover the scaling studies:

* ``power-offset``:    f(L) = p + q / L^r
* ``exp-saturation``:  f(L) = p - q * exp(-L / r)
* ``power-law``:       f(L) = b / L^a

The solver is a damped Gauss-Newton iteration with analytic Jacobians;
standard errors come from the inverse normal matrix scaled by the
reduced residual, so weighted fits with equal weights reproduce the
unweighted answer exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_OFFSET = "power-offset"
EXP_SATURATION = "exp-saturation"
POWER_LAW = "power-law"

FAMILIES = {
    POWER_OFFSET: ("p", "q", "r"),
    EXP_SATURATION: ("p", "q", "r"),
    POWER_LAW: ("b", "a"),
}

MAX_ITER = 200
STEP_TOL = 1e-10
DEFAULT_MIN_SITES = 8


class FitError(RuntimeError):
    """Ill-posed fit input (too few points, singular normal matrix, ...)."""


def model_value(family: str, params: np.ndarray, L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=np.float64)
    if family == POWER_OFFSET:
        p, q, r = params
        return p + q * L**-r
    if family == EXP_SATURATION:
        p, q, r = params
        return p - q * np.exp(-L / r)
    if family == POWER_LAW:
        b, a = params
        return b * L**-a
    raise ValueError(f"unknown family {family!r}")


def model_jacobian(family: str, params: np.ndarray, L: np.ndarray) -> np.ndarray:
    """d f / d params, one row per data point."""
    L = np.asarray(L, dtype=np.float64)
    if family == POWER_OFFSET:
        _, q, r = params
        Lr = L**-r
        return np.column_stack([np.ones_like(L), Lr, -q * Lr * np.log(L)])
    if family == EXP_SATURATION:
        _, q, r = params
        e = np.exp(-L / r)
        return np.column_stack([np.ones_like(L), -e, -q * e * L / (r * r)])
    if family == POWER_LAW:
        b, a = params
        La = L**-a
        return np.column_stack([La, -b * La * np.log(L)])
    raise ValueError(f"unknown family {family!r}")


def initial_guess(family: str, L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic starting point from simple linearizations."""
    L = np.asarray(L, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if family == POWER_LAW:
        # log-log regression; guard nonpositive data away from log
        safe = np.maximum(np.abs(y), 1e-300)
        slope, intercept = np.polyfit(np.log(L), np.log(safe), 1)
        return np.array([np.exp(intercept), -slope])
    if family == POWER_OFFSET:
        # anchor p at the largest L, then scan a fixed r grid solving for q
        p0 = y[np.argmax(L)]
        best = (np.inf, np.array([p0, 0.0, 1.0]))
        for r in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
            basis = L**-r
            denom = float(basis @ basis)
            q = float(basis @ (y - p0)) / denom
            rss = float(((y - p0 - q * basis) ** 2).sum())
            if rss < best[0]:
                best = (rss, np.array([p0, q, r]))
        return best[1]
    if family == EXP_SATURATION:
        # scan a fixed r grid relative to the largest L, solving p and q linearly
        best = (np.inf, None)
        for r in L.max() * 2.0 ** np.arange(-4, 3):
            design = np.column_stack([np.ones_like(L), -np.exp(-L / r)])
            (p, q), *_ = np.linalg.lstsq(design, y, rcond=None)
            rss = float(((y - design @ (p, q)) ** 2).sum())
            if rss < best[0]:
                best = (rss, np.array([p, q, r]))
        return best[1]
    raise ValueError(f"unknown family {family!r}")


@dataclass
class FitResult:
    family: str
    parameters: np.ndarray
    stderr: np.ndarray
    rss: float
    n_points: int
    weighted: bool
    converged: bool
    n_iter: int

    @property
    def names(self) -> tuple[str, ...]:
        return FAMILIES[self.family]

    def as_dict(self) -> dict:
        d = {
            "family": self.family,
            "weighted": self.weighted,
            "converged": self.converged,
            "iterations": self.n_iter,
            "rss": self.rss,
            "n_points": self.n_points,
        }
        for name, value, err in zip(self.names, self.parameters, self.stderr):
            d[name] = float(value)
            d[name + "_stderr"] = float(err)
        return d


def fit(
    family: str,
    L: np.ndarray,
    y: np.ndarray,
    sigma: np.ndarray | None = None,
) -> FitResult:
    """Damped Gauss-Newton least squares for one model family, from :func:`initial_guess`.

    The damping factor scales the diagonal of the normal matrix and
    shrinks after every accepted step, so the residual never increases.
    Convergence means a relative step below 1e-10; running out of
    iterations is reported through ``converged=False``, not hidden.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    L = np.asarray(L, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_par = len(FAMILIES[family])
    if L.shape != y.shape or L.ndim != 1:
        raise FitError("L and y must be matching one-dimensional arrays")
    if L.size <= n_par:
        raise FitError(f"{family} needs more than {n_par} points, got {L.size}")
    if np.any(L <= 0):
        raise FitError("system sizes must be positive")
    weighted = sigma is not None
    if weighted:
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != y.shape or np.any(sigma <= 0):
            raise FitError("weights require one positive sigma per point")
    else:
        sigma = np.ones_like(y)

    params = initial_guess(family, L, y)

    def weighted_rss(par: np.ndarray) -> float:
        res = (y - model_value(family, par, L)) / sigma
        return float(res @ res)

    rss = weighted_rss(params)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        res = (y - model_value(family, params, L)) / sigma
        J = model_jacobian(family, params, L) / sigma[:, None]
        normal = J.T @ J
        grad = J.T @ res
        diag = np.diag(normal).copy()
        diag = np.maximum(diag, 1e-12 * max(diag.max(initial=0.0), 1.0))

        step = None
        while lam < 1e12:
            try:
                trial_step = np.linalg.solve(normal + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + trial_step
            # a trial with tiny or negative r may overflow; its non-finite rss rejects it below
            with np.errstate(over="ignore", invalid="ignore"):
                trial_rss = weighted_rss(trial)
            if np.isfinite(trial_rss) and trial_rss <= rss:
                step = trial_step
                params, rss = trial, trial_rss
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 10.0
        if step is None:
            break
        rel = np.linalg.norm(step) / max(np.linalg.norm(params), 1e-30)
        if rel < STEP_TOL:
            converged = True
            break

    res = (y - model_value(family, params, L)) / sigma
    rss = float(res @ res)
    J = model_jacobian(family, params, L) / sigma[:, None]
    dof = L.size - n_par
    scale = rss / dof if dof > 0 else 0.0
    try:
        cov = scale * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = scale * np.linalg.pinv(J.T @ J)
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))

    return FitResult(
        family=family,
        parameters=params,
        stderr=stderr,
        rss=rss,
        n_points=int(L.size),
        weighted=weighted,
        converged=converged,
        n_iter=iterations,
    )


def scaling_pipeline(
    family: str,
    L: np.ndarray,
    y: np.ndarray,
    sigma: np.ndarray | None = None,
) -> dict[str, FitResult | None]:
    """Filter small systems out, then fit both with and without weights.

    Transients below ``DEFAULT_MIN_SITES`` distort every family here, so
    those points are dropped before fitting.  Returns {"weighted", "unweighted"};
    the weighted entry is None when no sigmas are supplied.
    """
    L = np.asarray(L, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = L >= DEFAULT_MIN_SITES
    if keep.sum() <= len(FAMILIES[family]):
        raise FitError(f"need more than {len(FAMILIES[family])} points with L >= {DEFAULT_MIN_SITES}")
    Lk, yk = L[keep], y[keep]
    out: dict[str, FitResult | None] = {
        "unweighted": fit(family, Lk, yk),
        "weighted": None,
    }
    if sigma is not None:
        sk = np.asarray(sigma, dtype=np.float64)[keep]
        out["weighted"] = fit(family, Lk, yk, sigma=sk)
    return out
