"""Monte Carlo ensembles of random definite-magnetization states.

Three ensembles: random one-magnon states, random two-magnon states
(i.i.d. Gaussian coefficients, normalized), and promoted two-magnon
states obtained by raising a random one-magnon state.  Estimators are
deterministic per (seed, index) through per-sample Philox streams, so
results never depend on chunking or worker layout.  The Philox keys of a
chunk of samples come from one vectorized pass that reproduces
``SeedSequence((seed, index))`` exactly, and one generator per chunk is
reset to each key in turn.  Every sample is drawn once, however many
quantities are estimated from it.

Pair statistics default to the single pair (0, 1); every ensemble here
is permutation invariant, so that pair is representative and the cost
stays O(L) per sample.  The all-pairs policy materializes the states
and runs the generic kernels instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import build_basis
from .couplings import sample_keys, sample_seed
from .entanglement import (
    concurrence_from_elements,
    inverse_participation_ratio,
    pair_concurrence_bytes,
    pair_concurrences,
)
from .ladder import promote, promotion_map

RANDOM_1P = "random-1p"
RANDOM_2P = "random-2p"
RANDOM_PROMOTED_2P = "random-promoted-2p"
KINDS = (RANDOM_1P, RANDOM_2P, RANDOM_PROMOTED_2P)

PROB_POSITIVE = "prob-positive-concurrence"
MEAN_CONCURRENCE = "mean-concurrence"
MEAN_IPR = "mean-ipr"
QUANTITIES = (PROB_POSITIVE, MEAN_CONCURRENCE, MEAN_IPR)

# erf(1/sqrt2)^2 + erfc(1/sqrt2)^2: large-L probability that a promoted
# pair is entangled, from the signs of the two Gaussian seed amplitudes.
PROB_POSITIVE_ASYMPTOTE = math.erf(2.0**-0.5) ** 2 + math.erfc(2.0**-0.5) ** 2

# <C> * L for promoted random states as L -> infinity, rounded: the mean
# of max(2 (|1 + x1 x2| - |x1 + x2|), 0) over independent standard normal
# seed amplitudes x1, x2 (the test suite evaluates it by quadrature).
PROMOTED_CONCURRENCE_COEFF = 0.465

_CHUNK = 1024

# Sample indices are one 32-bit SeedSequence entropy word each.
MAX_SAMPLES = 2**32


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    sites: int
    n_samples: int
    seed: int
    pair_policy: str = "single"
    zero_sum: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.pair_policy not in ("single", "all"):
            raise ValueError(f"pair policy must be 'single' or 'all', got {self.pair_policy!r}")
        if self.sites < 3:
            raise ValueError("ensembles need at least three sites")
        if self.n_samples < 100:
            raise ValueError("need at least 100 samples for a meaningful estimate")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"sample indices must fit in 32 bits: at most {MAX_SAMPLES} samples")
        if self.zero_sum and self.kind == RANDOM_2P:
            raise ValueError("the zero-sum constraint applies to one-magnon seeds only")


@dataclass(frozen=True)
class MCEstimate:
    quantity: str
    kind: str
    pair_policy: str
    sites: int
    n_samples: int
    mean: float
    stderr: float

    CSV_HEADER = "L,quantity,estimate,stderr,n_samples,kind,pair_policy"

    def csv_row(self) -> str:
        return (
            f"{self.sites},{self.quantity},{self.mean!r},{self.stderr!r},"
            f"{self.n_samples},{self.kind},{self.pair_policy}"
        )


class StreamError(RuntimeError):
    """Batched sample keys disagree with numpy's SeedSequence (exit code 1)."""


def _draw_seed_vectors(spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """Normalized raw coefficients of samples lo..hi-1, one column each.

    One-magnon kinds draw L normals per sample, the plain two-magnon
    ensemble draws C(L, 2).  Sample i is the start of the Philox stream
    keyed by ``sample_seed(seed, i)``: one generator is reset to that key
    with a zero counter and an empty buffer, the state a fresh
    ``Philox(sample_seed(seed, i))`` starts in.  Centering (zero_sum)
    happens before normalization.  Returns a C-ordered (n, hi - lo) array.
    """
    n = math.comb(spec.sites, 2) if spec.kind == RANDOM_2P else spec.sites
    keys = sample_keys(spec.seed, np.arange(lo, hi))
    if not np.array_equal(keys[0], sample_seed(spec.seed, lo).generate_state(2, np.uint64)):
        raise StreamError(f"batched Philox key of sample {lo} differs from its SeedSequence key")
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    A = np.empty((n, hi - lo), dtype=np.float64)
    for col, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        a = rng.standard_normal(n)
        if spec.zero_sum:
            a -= a.mean()
        A[:, col] = a / math.sqrt(a.dot(a))  # the value np.linalg.norm(a) computes, without its overhead
    return A


def _two_magnon_gathers(sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of the {0,k} and {1,k} patterns (k >= 2) in the 2-magnon basis."""
    k = np.arange(2, sites)
    base = k * (k - 1) // 2  # rank of {0, k}
    return base, base + 1


def _pair01_elements(spec: EnsembleSpec, A: np.ndarray) -> tuple[np.ndarray, ...]:
    """(v, y, z) of the pair (0, 1) for a chunk of seed-coefficient columns.

    Exact O(L) per column; ``A`` holds normalized seed vectors (one- or
    two-magnon depending on the ensemble kind).
    """
    if spec.kind == RANDOM_1P:
        v = np.zeros(A.shape[1])
        y = 1.0 - A[0] ** 2 - A[1] ** 2
        z = A[0] * A[1]
    elif spec.kind == RANDOM_2P:
        w_idx, x_idx = _two_magnon_gathers(spec.sites)
        v = A[0] ** 2
        w = (A[w_idx] ** 2).sum(axis=0)
        x = (A[x_idx] ** 2).sum(axis=0)
        y = 1.0 - v - w - x
        z = (A[w_idx] * A[x_idx]).sum(axis=0)
    else:  # promoted: pair elements of b_ij = a_i + a_j without materializing
        s = A.sum(axis=0)
        B = (spec.sites - 2.0) + s * s
        b0 = A[0] + A[2:]
        b1 = A[1] + A[2:]
        v = (A[0] + A[1]) ** 2 / B
        w = (b0 * b0).sum(axis=0) / B
        x = (b1 * b1).sum(axis=0) / B
        y = 1.0 - v - w - x
        z = (b0 * b1).sum(axis=0) / B
    return v, np.maximum(y, 0.0), z  # clip rounding residue of 1 - v - w - x


def _promoted_ipr(A: np.ndarray, sites: int) -> np.ndarray:
    """IPR of the promoted state from its normalized one-magnon seed.

    sum_{i<j} (a_i + a_j)^4 expands to (L - 8) P4 + 4 P3 s + 3 with
    P_k = sum a^k and s = sum a, for unit-norm a.
    """
    s = A.sum(axis=0)
    p3 = (A**3).sum(axis=0)
    p4 = (A**4).sum(axis=0)
    B = (sites - 2.0) + s * s
    return ((sites - 8.0) * p4 + 4.0 * p3 * s + 3.0) / (B * B)


def sample_values(spec: EnsembleSpec, quantities: tuple[str, ...]) -> np.ndarray:
    """Per-sample values, one row per quantity, in sample order.

    Every sample is drawn once, however many quantities are asked for;
    returns a (len(quantities), n_samples) array.
    """
    for quantity in quantities:
        if quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}, got {quantity!r}")
    out = np.empty((len(quantities), spec.n_samples), dtype=np.float64)
    raising = None
    basis = None
    if spec.pair_policy == "all":
        basis = build_basis(spec.sites, 1 if spec.kind == RANDOM_1P else 2)
        if spec.kind == RANDOM_PROMOTED_2P:
            raising = promotion_map(basis)

    for lo in range(0, spec.n_samples, _CHUNK):
        hi = min(lo + _CHUNK, spec.n_samples)
        A = _draw_seed_vectors(spec, lo, hi)
        values = {}
        if MEAN_IPR in quantities:
            if spec.kind == RANDOM_PROMOTED_2P:
                values[MEAN_IPR] = _promoted_ipr(A, spec.sites)
            else:
                values[MEAN_IPR] = inverse_participation_ratio(A)
        if MEAN_CONCURRENCE in quantities or PROB_POSITIVE in quantities:
            if spec.pair_policy == "single":
                v, y, z = _pair01_elements(spec, A)
                conc = concurrence_from_elements(v, y, z)
                values[MEAN_CONCURRENCE] = conc
                values[PROB_POSITIVE] = (conc > 0.0).astype(np.float64)
            else:
                states = A if raising is None else promote(A, raising)
                pc = pair_concurrences(basis, states)
                values[MEAN_CONCURRENCE] = pc.mean(axis=0)
                values[PROB_POSITIVE] = (pc > 0.0).mean(axis=0)
        for row, quantity in zip(out, quantities):
            row[lo:hi] = values[quantity]
    return out


def all_pairs_bytes(kind: str, sites: int, n_samples: int) -> int:
    """Upper estimate of the bytes :func:`sample_values` allocates under the all-pairs policy.

    One chunk of samples at a time: the sector's (dim, L) occupancy
    matrix, the drawn coefficients and their sigma^+ image (dim x chunk
    each, dim = C(L, m)), and the pair-concurrence kernel on the chunk.
    """
    magnons = 1 if kind == RANDOM_1P else 2
    dim, chunk = math.comb(sites, magnons), min(n_samples, _CHUNK)
    return dim * (sites + 16 * chunk) + pair_concurrence_bytes(sites, magnons, chunk)


def summarize(
    quantities: tuple[str, ...], values: np.ndarray, kind: str, pair_policy: str, sites: int
) -> list[MCEstimate]:
    """Means with standard errors (sample stdev / sqrt N) of per-sample value rows, one row per quantity."""
    n_samples = values.shape[1]
    return [
        MCEstimate(
            quantity=quantity,
            kind=kind,
            pair_policy=pair_policy,
            sites=sites,
            n_samples=n_samples,
            mean=float(row.mean()),
            stderr=float(row.std(ddof=1) / math.sqrt(n_samples)),
        )
        for quantity, row in zip(quantities, values)
    ]


def estimates(spec: EnsembleSpec, quantities: tuple[str, ...]) -> list[MCEstimate]:
    """Monte Carlo means with standard errors, every sample drawn once."""
    return summarize(quantities, sample_values(spec, quantities), spec.kind, spec.pair_policy, spec.sites)


def estimate(spec: EnsembleSpec, quantity: str) -> MCEstimate:
    """Monte Carlo mean of one quantity with its standard error."""
    return estimates(spec, (quantity,))[0]


@dataclass(frozen=True)
class ClosedForms:
    """Large-L mean pair concurrences the ensembles should reproduce."""

    sites: int
    mean_concurrence_promoted2p: float
    mean_concurrence_random2p: float


def uniform_avg_concurrence_2p(sites: int) -> float:
    """Pair-averaged concurrence of the uniform two-magnon state."""
    L = sites
    return (2.0 / math.comb(L, 2)) * (L - 2.0 - math.sqrt((L * L - 5.0 * L + 6.0) / 2.0))


def closed_forms(sites: int) -> ClosedForms:
    L = sites
    return ClosedForms(
        sites=L,
        mean_concurrence_promoted2p=PROMOTED_CONCURRENCE_COEFF / L,
        mean_concurrence_random2p=16.0 / (L * L * math.pi**1.5),
    )
