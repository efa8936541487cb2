"""Counter-based seeded randomness.

Every random draw in the lab flows through a named substream derived from a
64-bit master seed.  Substreams are independent Philox streams, so work items
(slots, seeds, Monte-Carlo batches) can be evaluated in any order, or in
parallel, and still reproduce bit-identical results.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=None)
def _tag_words(tag: tuple) -> tuple[int, ...]:
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4))


def stream(seed: int, *tag) -> np.random.Generator:
    """Generator for the substream named by `tag` under master `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=_tag_words(tag))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian, zero mean, unit variance."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
