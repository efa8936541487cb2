"""Counter-based seeded randomness.

Every random draw in the lab flows through a named substream derived from a
64-bit master seed.  Substreams are independent Philox streams, so work items
(slots, seeds, Monte-Carlo batches) can be evaluated in any order and still
reproduce bit-identical results.  `complex_normals` draws through one
reused generator per thread, which each call re-keys, so threads may draw at
once and every draw has the same bits whichever thread makes it.

The substream named by `tag` under `seed` is the Philox stream whose key
numpy's `SeedSequence(entropy=seed mod 2^64, spawn_key=<tag words>)`
generates.  A Philox stream's key is its whole state (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so `keys` derives
the keys of many (seed, tag) pairs at once, bit for bit as `SeedSequence`
would, and `complex_normals` draws them all through its thread's reused
generator by setting its key.  `SeedSequence`'s hash constants do not
depend on the data, the seed half of its pool does not depend on the tag,
and the tag words' hashes do not depend on the seed; both halves are
memoized in Python, and only the 16 mixing steps that join them run per
key, on stacked arrays.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy.random.SeedSequence's constants (pool of 4 words, 16-bit xor-shift)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, n: int) -> list[int]:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


# hash constant of the k-th hashmix call, and of the k-th output word
_HASH_A = _powers(_INIT_A, _MULT_A, 32)
_HASH_B = _powers(_INIT_B, _MULT_B, 4)


def _hashmix(value: int, k: int) -> int:
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


@functools.lru_cache(maxsize=None)
def _tag_words(tag: tuple) -> tuple[int, ...]:
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4))


@functools.lru_cache(maxsize=1 << 12)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """The pool once the seed's four entropy words (seed mod 2^64, padded
    with zeros) are hashed in and mixed with each other (hashmix calls
    0-15), times the mixing multiplier L that the next step applies."""
    pool = [_hashmix(word, k) for k, word in enumerate((seed & _MASK32, seed >> 32, 0, 0))]
    k = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    return tuple(_MIX_L * word & _MASK32 for word in pool)


@functools.lru_cache(maxsize=256)
def _tag_terms(tags: tuple) -> tuple[np.ndarray, ...]:
    """Per-tag constants of the keys of `tags`, laid out (1, tag * pool word)
    like a row of `keys`' working array: the xor-shift and the multiplier L;
    for each of the four mixing steps, the term its tag word subtracts (R
    times hashmix calls 16-31); and the output step's xor and multiplier."""
    def row(values) -> np.ndarray:
        out = np.array(values, dtype=np.uint32).reshape(1, -1)
        out.setflags(write=False)
        return out

    words = [_tag_words(tag) for tag in tags]
    steps = [row([_MIX_R * _hashmix(tag[src], 16 + 4 * src + dst) & _MASK32
                  for tag in words for dst in range(4)]) for src in range(4)]
    return (row([16] * 4 * len(tags)), row([_MIX_L] * 4 * len(tags)), *steps,
            row(_HASH_B[:4] * len(tags)), row(_HASH_B[1:] * len(tags)))


def keys(seeds, tags) -> np.ndarray:
    """(len(seeds), len(tags), 2) uint64 Philox keys: item [i, j] is the key
    of the substream named by tags[j] under master seeds[i]."""
    tags = tuple(tags)
    shift, left, *steps, out_xor, out_mul = _tag_terms(tags)
    # (seed, tag * pool word); L * pool already applied for the first step
    words = np.array([_seed_pool(int(seed) & _MASK64) * len(tags) for seed in seeds],
                     dtype=np.uint32).reshape(len(seeds), 4 * len(tags))
    shifted = np.empty_like(words)
    for k, terms in enumerate(steps):
        if k:
            np.multiply(words, left, out=words)
        np.subtract(words, terms, out=words)
        np.right_shift(words, shift, out=shifted)
        np.bitwise_xor(words, shifted, out=words)
    np.bitwise_xor(words, out_xor, out=words)
    np.multiply(words, out_mul, out=words)
    np.right_shift(words, shift, out=shifted)
    np.bitwise_xor(words, shifted, out=words)
    return words.astype("<u4", copy=False).view("<u8").reshape(len(seeds), len(tags), 2)


def stream(seed: int, *tag) -> np.random.Generator:
    """Generator for the substream named by `tag` under master `seed`."""
    return np.random.Generator(np.random.Philox(key=keys([seed], [tag])[0, 0]))


_ZEROS = [0, 0, 0, 0]
_INV_SQRT2 = 1 / np.sqrt(2.0)
# each thread's generator, which its `complex_normals` calls reset to each
# key's stream in turn
_reused = threading.local()


def _thread_generator() -> np.random.Generator:
    """This thread's reused generator, made on the thread's first draw."""
    gen = getattr(_reused, "gen", None)
    if gen is None:
        gen = _reused.gen = np.random.Generator(np.random.Philox(key=0))
    return gen


def _keyed(gen: np.random.Generator, key: list[int]) -> np.random.Generator:
    """`gen` reset to the start of `key`'s stream."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def complex_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex values (re + 1j*im) / sqrt(2) of real and imaginary
    standard normal draws: circularly-symmetric, unit variance.

    numpy divides a complex array by a real scalar by multiplying each part
    by the rounded reciprocal, so scaling the parts straight into the real
    and imaginary views of one complex array gives the same bits for every
    nonzero part, without the intermediate complex arrays."""
    out = np.empty(np.shape(re), dtype=complex)
    np.multiply(re, _INV_SQRT2, out=out.real)
    np.multiply(im, _INV_SQRT2, out=out.imag)
    return out


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian, zero mean, unit variance:
    every real part is drawn, then every imaginary part."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return complex_from_parts(re, im)


def complex_normals(seeds, tags, shape) -> np.ndarray:
    """(len(seeds), len(tags), *shape) draws: item [i, j] is bit for bit
    `complex_normal(stream(seeds[i], *tags[j]), shape)`, the first draw of
    that substream."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    size = math.prod(shape)
    both = np.empty((len(seeds) * len(tags), 2, size))    # real parts, then imaginary
    gen = _thread_generator()
    for key, out in zip(keys(seeds, tags).reshape(-1, 2).tolist(), both):
        _keyed(gen, key).standard_normal(out=out)
    draws = complex_from_parts(both[:, 0], both[:, 1])
    return draws.reshape(len(seeds), len(tags), *shape)
