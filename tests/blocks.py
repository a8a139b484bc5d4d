"""Whole-sector arrays stacked from the per-block outputs of the package.

The package never holds more than one total-spin block: ``basis.spin_block``
builds one at a time and ``spectrum.diagonalize`` hands each block's
eigenvectors to a ``measure`` hook.  Tests that check a property of the
whole sector stack the blocks here, through the same calls.
"""

from __future__ import annotations

import numpy as np

from heisenglass import basis, spectrum


def spin_blocks(sites: int, magnons: int) -> tuple[np.ndarray, np.ndarray]:
    """All spin blocks of the sector side by side, 2S ascending, and the 2S of each column."""
    spins = basis.block_spins(sites, magnons)
    Q = np.hstack([basis.spin_block(sites, magnons, two_s) for two_s in spins])
    return Q, np.repeat(spins, [basis.multiplets(sites, two_s) for two_s in spins])


def eigenvectors(sm, raising=None) -> tuple[spectrum.Spectrum, np.ndarray]:
    """``diagonalize(sm)`` and its eigenvectors side by side, in the spectrum's spin-block order."""
    blocks = []
    spec = spectrum.diagonalize(sm, raising, lambda two_s, vectors: blocks.append(vectors))
    return spec, np.hstack(blocks)
