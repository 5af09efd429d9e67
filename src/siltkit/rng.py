"""Reproducible random streams.

All Monte Carlo code in the package draws from counter-based Philox
generators keyed directly by ``(master_seed, stream)``.  Streams with
distinct keys are statistically independent, and a stream's output never
depends on how many workers are running or in which order streams are
consumed, which is what makes every experiment bit-reproducible.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox  # at import: forked workers inherit it

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream_generator(master_seed: int, stream: int = 0) -> Generator:
    """Generator for one independent stream of a master seed.

    The Philox key is the pair ``(master_seed mod 2^64, stream mod 2^64)``
    used verbatim (no seed-sequence entropy mixing), so the mapping from
    (seed, stream) to random output is stable across sessions.
    """
    key = np.array([master_seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))
