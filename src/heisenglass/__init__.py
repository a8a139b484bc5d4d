"""Entanglement structure of disordered Heisenberg spin sectors.

Fixed-magnon exact diagonalization for Heisenberg models with random
couplings (power-law decay on a ring, from infinite range at exponent 0
to the nearest-neighbour ring at infinity), plus the magnon-promotion
ladder, pairwise concurrence analysis, random-state ensembles, and
finite-size scaling fits.

Importing the package sets numpy's BLAS to ``blas.THREADS`` threads before
any of its numerical work (see :mod:`heisenglass.blas`).
"""

from .blas import pin_threads

BLAS_THREADS = pin_threads()  # None where numpy's BLAS exports no OpenBLAS setter

from .basis import SectorBasis, build_basis, rank, unrank
from .couplings import CouplingMatrix, sample_couplings
from .entanglement import pair_concurrences
from .ladder import Classification, classify, promote, promotion_map
from .sector import SectorMatrix, assemble
from .spectrum import Spectrum, diagonalize

__version__ = "0.1.0"

__all__ = [
    "SectorBasis",
    "build_basis",
    "rank",
    "unrank",
    "CouplingMatrix",
    "sample_couplings",
    "pair_concurrences",
    "Classification",
    "classify",
    "promote",
    "promotion_map",
    "SectorMatrix",
    "assemble",
    "Spectrum",
    "diagonalize",
    "__version__",
]
