"""Collective spin raising and lowering between adjacent sectors.

The raising operator sum_i sigma_i^+ commutes with the Hamiltonian, so
normalizing its action on an m-magnon eigenstate yields an
(m+1)-magnon eigenstate with the same eigenvalue.  Eigenstates that
arise this way ("promoted") are detected through sigma^+ sigma^-, which
on total spin S and magnetization M = m - L/2 is S^2 - S_z^2 + S_z, the
integer S(S+1) - M^2 + M: 0 for states annihilated by the lowering
operator ("new", S = L/2 - m), at least L - 2m + 2 otherwise.  Every
eigenvector of :func:`spectrum.diagonalize` lies in one total-spin
block, and the solve records its value |sigma^- psi|^2 in the same pass
that checks the block's Casimir residual, so :func:`classify` reads
the values and checks each against the integer of its block.  Since a
value is either 0 or at least 1, the fixed threshold ``LADDER_TOL`` =
1/2 separates the labels.

sigma^+ between adjacent sectors is one sparse 0/1 matrix,
:func:`basis.promotion_map`, built in numpy from the rank arithmetic of
:func:`basis.cleared_ranks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse

from .basis import ladder_integer, promotion_map
from .spectrum import Spectrum, SpectrumError

LADDER_TOL = 0.5

PROMOTED = 1
NEW = 0


class ZeroPromotionError(ValueError):
    """sigma^+ annihilated the state, so no promoted state exists."""


def promote(coefficients: np.ndarray, raising: sparse.csr_array) -> np.ndarray:
    """Normalized sigma^+ of a vector or of each column of a matrix.

    Raises ZeroPromotionError if sigma^+ annihilates any column.
    """
    raw = raising @ np.asarray(coefficients, dtype=np.float64)
    norm = np.linalg.norm(raw, axis=0)
    if not np.all(norm >= 1e-12):
        raise ZeroPromotionError("state is annihilated by the raising operator")
    raw /= norm
    return raw


@dataclass
class Classification:
    """Promoted / new labels for every eigenstate of one spectrum.

    ``ladder_eigenvalues`` holds <psi| sigma^+ sigma^- |psi> per state
    and ``ladder_integers`` the value S(S+1) - M^2 + M that the state's
    total-spin block fixes.
    """

    labels: np.ndarray
    ladder_eigenvalues: np.ndarray
    ladder_integers: np.ndarray

    @property
    def n_promoted(self) -> int:
        return int((self.labels == PROMOTED).sum())

    @property
    def n_new(self) -> int:
        return int((self.labels == NEW).sum())

    @property
    def integer_distance(self) -> float:
        """Worst |ladder eigenvalue - block integer| over the states."""
        return float(np.abs(self.ladder_eigenvalues - self.ladder_integers).max(initial=0.0))


def classify(spectrum: Spectrum, raising: sparse.csr_array) -> Classification:
    """Label each eigenstate by its sigma^+ sigma^- eigenvalue.

    Every eigenvector lies in one total-spin block, so no rotation inside
    degeneracy groups is needed: the value is the squared norm of
    sigma^- |psi>, which :func:`spectrum.diagonalize` records in
    ``spectrum.ladder_values``, and a state is promoted when it exceeds
    ``LADDER_TOL``.  Each value must match the integer S(S+1) - M^2 + M
    of the state's block to within 1e-8 * max(1, integer); otherwise
    SpectrumError is raised, since the vector then mixes total spins or
    carries the wrong block label.  So must their sum, the trace of
    sigma^+ sigma^- over an orthonormal basis: ||``raising``||_F^2 =
    m C(L, m), to within 1e-8 * max(1, trace).
    """
    b = spectrum.matrix.basis
    values = spectrum.ladder_values
    integers = ladder_integer(b.sites, b.magnons, spectrum.two_s)
    off = ~(np.abs(values - integers) <= 1e-8 * np.maximum(1, integers))  # NaN is off too
    if off.any():
        k = int(np.argmax(off))
        raise SpectrumError(
            f"ladder value {values[k]:.12g} of state {k} is not {integers[k]}, "
            f"the integer of its spin block 2S={spectrum.two_s[k]}"
        )
    trace = float(raising.data @ raising.data)
    if not abs(values.sum() - trace) <= 1e-8 * max(1.0, trace):
        raise SpectrumError(f"ladder values sum to {values.sum():.12g}, not the trace {trace:.12g} of sigma^+ sigma^-")
    return Classification(
        labels=np.where(values > LADDER_TOL, PROMOTED, NEW),
        ladder_eigenvalues=values,
        ladder_integers=integers,
    )


def expected_counts(sites: int, magnons: int) -> tuple[int, int]:
    """(promoted, new) eigenstate counts of the m-magnon sector, 0 <= m <= L.

    sigma^+ maps the m-1 sector injectively into the m sector for
    2m <= L and onto it for 2m > L, so min(C(L, m-1), C(L, m)) states
    are promoted.
    """
    dim = comb(sites, magnons)
    promoted = min(comb(sites, magnons - 1), dim) if magnons else 0
    return promoted, dim - promoted


@dataclass(frozen=True)
class LocalizedBound:
    """Pair entanglement of a promoted fully localized magnon."""

    probability: float
    pair_concurrence: float
    mean_concurrence: float


def localized_promotion_bound(sites: int) -> LocalizedBound:
    """Exact pair statistics of promote(single up spin) on L sites.

    The promoted state is the localized spin tensored with the uniform
    one-magnon state of the remaining L-1 sites: a fraction
    C(L-1, 2) / C(L, 2) of the pairs carries concurrence 2 / (L-1),
    the rest none.
    """
    if sites < 3:
        raise ValueError("bound needs at least three sites")
    probability = comb(sites - 1, 2) / comb(sites, 2)
    pair = 2.0 / (sites - 1)
    return LocalizedBound(
        probability=probability,
        pair_concurrence=pair,
        mean_concurrence=pair * probability,
    )
