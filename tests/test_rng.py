"""Bulk Philox keys and draws against numpy's SeedSequence definition of the
substream layout."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sdof_lab import rng
from sdof_lab.model import EVE, RX1, RX2, Topology, sample_channels

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1)
TAGS = [("chan", t) for t in range(300)] + [("symbols",)] + \
    [("noise", node) for node in (RX1, RX2, EVE)]


def reference_key(seed: int, tag: tuple) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=rng._tag_words(tag))
    return seq.generate_state(2, np.uint64)


def reference_stream(seed: int, *tag) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=rng._tag_words(tag))
    return np.random.Generator(np.random.Philox(seq))


def test_bulk_keys_equal_seed_sequence():
    bulk = rng.keys(SEEDS, TAGS)
    assert bulk.shape == (len(SEEDS), len(TAGS), 2) and bulk.dtype == np.uint64
    for i, seed in enumerate(SEEDS):
        for j, tag in enumerate(TAGS):
            want = reference_key(seed, tag)
            assert bulk[i, j].tolist() == want.tolist(), (seed, tag)
            assert rng.keys([seed], [tag])[0, 0].tolist() == want.tolist(), (seed, tag)


def test_thousand_keys_in_one_call():
    seeds = range(1000)
    bulk = rng.keys(seeds, [("chan", 7)])
    assert [k.tolist() for k in bulk[:, 0]] == \
        [reference_key(seed, ("chan", 7)).tolist() for seed in seeds]


def reference_draw(seed: int, tag: tuple, shape) -> np.ndarray:
    """The first complex draw of a substream, built from its real draws by
    the literal formula rather than by `rng`'s builder."""
    gen = reference_stream(seed, *tag)
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


@pytest.mark.parametrize("shape", [(3, 3), 5, (2, 1, 2)], ids=str)
def test_bulk_draws_equal_stream_draws(shape):
    draws = rng.complex_normals(SEEDS, TAGS, shape)
    assert draws.shape == (len(SEEDS), len(TAGS), *np.atleast_1d(shape))
    for i, seed in enumerate(SEEDS):
        for j, tag in enumerate(TAGS):
            want = reference_draw(seed, tag, shape)
            assert draws[i, j].tobytes() == want.tobytes(), (seed, tag)
            alone = rng.complex_normal(reference_stream(seed, *tag), shape)
            assert alone.tobytes() == want.tobytes(), (seed, tag)
            one = rng.complex_normals([seed], [tag], shape)[0, 0]
            assert one.tobytes() == want.tobytes(), (seed, tag)


def test_thousand_draws_in_one_call():
    draws = rng.complex_normals(range(1000), [("symbols",)], 4)
    for seed in range(1000):
        want = reference_draw(seed, ("symbols",), 4)
        assert draws[seed, 0].tobytes() == want.tobytes()


def test_stream_continues_like_seed_sequence_stream():
    for seed in SEEDS:
        ours, ref = rng.stream(seed, "mc-mi", RX1), reference_stream(seed, "mc-mi", RX1)
        for size in (1, 7, 1000):
            assert ours.standard_normal(size).tobytes() == ref.standard_normal(size).tobytes()


def test_redraws_continue_the_seed_sequence_substream(monkeypatch):
    """With a tight condition cap many first draws are rejected; each slot
    holds the first acceptable draw of its own substream, as defined by
    SeedSequence."""
    from sdof_lab import model

    monkeypatch.setattr(model, "CONDITION_CAP", 4.0)
    topology = Topology.multi_receiver()
    shape = (topology.state_arity, topology.n_tx)
    seeds = [0, 2**64 - 1, -1]
    redrawn = 0
    for seed, real in zip(seeds, sample_channels(topology, 12, seeds)):
        for t in range(12):
            gen = reference_stream(seed, "chan", t)
            for attempt in range(model._RESAMPLE_LIMIT):
                cand = rng.complex_normal(gen, shape)
                sv = np.linalg.svd(cand, compute_uv=False)
                if sv[0] / sv[-1] <= 4.0:
                    break
            redrawn += attempt > 0
            assert real[:, t].tobytes() == cand.tobytes(), (seed, t)
    assert redrawn > 5


def test_threads_draw_their_own_substreams():
    """Each thread reuses its own generator, so concurrent bulk draws give
    the serial bits, even with threads switching every few bytecodes."""
    jobs = [(range(k, k + 40), [("chan", t) for t in range(k % 7 + 1)]) for k in range(32)]
    serial = [rng.complex_normals(seeds, tags, (3, 3)) for seeds, tags in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(rng.complex_normals, *job, (3, 3)) for job in jobs]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(serial, threaded, strict=True))


def test_empty_requests():
    assert rng.keys([], [("symbols",)]).shape == (0, 1, 2)
    assert rng.keys([3], []).shape == (1, 0, 2)
    assert rng.complex_normals([3], [("symbols",)], 0).shape == (1, 1, 0)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "empty"])
def test_complex_from_parts_equals_dividing_the_complex_sum(layout):
    """Scaling the parts into one complex array gives the values of
    (re + 1j*im) / sqrt(2), with the same sign bit on every nonzero part,
    for contiguous parts, the strided views `complex_normals` passes and
    empty parts."""
    gen = np.random.default_rng(4)
    if layout == "contiguous":
        re, im = gen.standard_normal((2, 4096, 6))
    elif layout == "strided":
        both = gen.standard_normal((300, 2, 7))
        re, im = both[:, 0], both[:, 1]
    else:
        re, im = np.empty((0, 3)), np.empty((0, 3))
    got = rng.complex_from_parts(re, im)
    want = (re + 1j * im) / np.sqrt(2.0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for source, part, expected in ((re, got.real, want.real), (im, got.imag, want.imag)):
        nonzero = source != 0
        assert np.array_equal(np.signbit(part[nonzero]), np.signbit(expected[nonzero]))
