"""Closed-form Gaussian information measures and their numerical oracles.

Rates and leakage are exact log-determinant expressions over the effective
linear systems, one system or a stack of them (the one-system functions are
the one-item case of the stacked ones); which series a scheme reports is
decided by its roles, in `schemes.rate_series` and `schemes.leak_series`.
Prelog slopes are least-squares fits over a power grid, of one series or a
stack of them, and `prelogs` fits every series of a scheme at once.  The
Monte-Carlo estimator re-derives the same mutual information from sampled
log densities as an independent cross-check.  All entropies are in bits and
every computation treats the channel matrices as known side information.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import rng
from .errors import DimensionTooLarge, EmptySystem, GridTooSmall
from .model import Topology
from .precoding import EffectiveLinearSystem

# the default power grid, as base-2 exponents and as powers
GRID_EXPONENTS = (20, 30, 40, 50, 60)
DEFAULT_GRID = tuple(float(2 ** e) for e in GRID_EXPONENTS)


@dataclass(frozen=True)
class MiResult:
    bits: float
    power: float
    std_error: float | None = None


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float | np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    entropy_actual: float
    entropy_twin: float
    abs_gap: float
    std_error: float


def _logdet_bits(mats: np.ndarray, powers: Sequence[float]) -> np.ndarray:
    """log2 det(I + p * mat @ mat^H) of each matrix of a stack (..., rows,
    cols) at each p in `powers`, as (..., power); stable to p ~ 2^60.

    One SVD per matrix serves every power.  Works from singular values of
    the matrix rather than eigenvalues of the Gram: a numerically spurious
    singular value ~1e-16 squares to ~1e-32 and stays invisible at every
    grid power, where a spurious Gram eigenvalue ~1e-16 would be amplified
    into fake rate by p = 2^60.
    """
    if not mats.shape[-2] or not mats.shape[-1]:
        return np.zeros((*mats.shape[:-2], len(powers)))
    sv = np.linalg.svd(mats, compute_uv=False)
    # each (matrix, power) sums its own contiguous row of terms, exactly as
    # a lone matrix's sum would
    terms = np.log2(1.0 + np.array(powers)[:, None] * sv[..., None, :] ** 2)
    return np.sum(terms, axis=-1)


def _kept_columns(systems: EffectiveLinearSystem, node: str,
                  secret, known) -> tuple[np.ndarray, np.ndarray]:
    """node's matrices without the known columns, and the mask of secret columns."""
    if systems.matrices[node].shape[-2] == 0:
        raise EmptySystem(f"node {node} has no observations")
    kept, is_secret = systems.split_columns(secret, known)
    return systems.matrices[node][..., kept], is_secret


def gaussian_mi_stacked(systems: EffectiveLinearSystem, node: str,
                        secret: Iterable[str], powers: Sequence,
                        known: Iterable[str] = ()) -> np.ndarray:
    """`gaussian_mi` of every system of a stack at every power, in bits, as
    a (system, power) array: one SVD each of the kept and of the nuisance
    columns for the whole stack and grid."""
    powers = [float(p) for p in powers]
    full, is_secret = _kept_columns(systems, node, secret, known)
    bits = _logdet_bits(full, powers) - _logdet_bits(full[..., ~is_secret], powers)
    below = bits < -1e-9
    if below.any():
        raise AssertionError(
            f"mutual information {bits[below][0]} below clamp tolerance")
    return np.where(bits < 0.0, 0.0, bits)


def gaussian_mi(system: EffectiveLinearSystem, node: str, secret: Iterable[str],
                power, known: Iterable[str] = ()) -> MiResult | list[MiResult]:
    """Exact I(secret symbols ; node's observations | CSI, known symbols).

    `power` is one power or a sequence of powers, which gets one MiResult per
    power from one spectrum each of the kept and of the nuisance columns.
    Unit-variance observation noise is always assumed so the expression stays
    finite; with unit-variance Gaussian symbols the two log-determinants are
    the exact conditional differential entropies.  The one-system case of
    `gaussian_mi_stacked`.
    """
    single = np.ndim(power) == 0
    powers = [float(p) for p in ([power] if single else power)]
    bits = gaussian_mi_stacked(system.stacked(), node, secret, powers, known)[0]
    results = [MiResult(float(b), power=p) for p, b in zip(powers, bits)]
    return results[0] if single else results


def achievable_rate(system: EffectiveLinearSystem, node: str,
                    power) -> MiResult | list[MiResult]:
    """gaussian_mi with the node's own intended messages as the secret set."""
    return gaussian_mi(system, node, system.message_sids(node), power)


def fit_slope(values, slots, grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    """Least-squares prelog of values/slots against log2(P), where values[i]
    is the metric at power grid[i].

    A 2-D `values` is a stack of series, one per row (values[j, i] at power
    grid[i]); its estimate holds an array of slopes, each bit for bit that
    row's own fit.
    """
    grid = tuple(float(p) for p in grid)
    if len(grid) < 2:
        raise GridTooSmall("slope estimation needs at least two powers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise GridTooSmall("power grid must be strictly increasing")
    slots = float(slots)
    xs = np.log2(np.array(grid))
    ys = np.array(values) / slots
    rows = np.atleast_2d(ys)                        # (series, power)
    # np.polyfit(xs, row, 1) of each series, with the scaled design matrix
    # and cutoff it would rebuild per call made once.  One solve per series:
    # a single solve over all columns at once, as a 2-D polyfit makes, moves
    # the last bits of the slopes on some grids (2^20..2^60 in steps of 5).
    lhs = np.vander(xs, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(xs) * np.finfo(xs.dtype).eps
    solved = [np.linalg.lstsq(lhs, row + 0.0, rcond) for row in rows]
    if solved[0][2] != 2:          # the rank, which lhs alone sets
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    coeffs = np.stack([c for c, *_ in solved], axis=1) / scale[:, None]   # (2, series)
    if ys.ndim == 1:
        return SlopeEstimate(slope=float(coeffs[0, 0]))
    return SlopeEstimate(slope=coeffs[0])


def prelogs(series: Mapping[str, np.ndarray], slots,
            powers: Sequence[float]) -> dict[str, np.ndarray]:
    """The per-system prelogs of each (system, power) series over `powers`,
    from one `fit_slope` call; zeros on a one-power grid, which supports no
    fit.  All series hold the same systems."""
    if len(powers) < 2 or not series:
        return {key: np.zeros(len(values)) for key, values in series.items()}
    slopes = fit_slope(np.concatenate(list(series.values())), slots, powers).slope
    return dict(zip(series, slopes.reshape(len(series), -1)))


def rate_slope(system: EffectiveLinearSystem, node: str, slots,
               grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    return fit_slope([r.bits for r in achievable_rate(system, node, grid)], slots, grid)


def leakage_slope(system: EffectiveLinearSystem, node: str, secret, slots,
                  known: Iterable[str] = (),
                  grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    leaks = gaussian_mi(system, node, secret, grid, known=known)
    return fit_slope([r.bits for r in leaks], slots, grid)


# Rows of Monte-Carlo samples the oracle forms at a time: a chunk's complex
# samples, observations and quadratic forms take about 1 MB at the desk cap,
# whatever the sample count.  `verify` holds them while criterion 3's batches
# are live on its other thread (`acceptance.run_all`), so they are kept
# smaller than one thread alone would need.
MC_CHUNK_ROWS = 1 << 11


def _whitener(cov: np.ndarray) -> np.ndarray:
    """(L^-1)^T of a Hermitian positive definite `cov` = L L^H, so that a
    row y of samples whitens to y @ (L^-1)^T = (L^-1 y)^T."""
    return np.linalg.inv(np.linalg.cholesky(cov)).T


def _quad(values: np.ndarray, whitener: np.ndarray) -> np.ndarray:
    """Per row y of `values`, the quadratic form y^H cov^-1 y = |L^-1 y|^2
    of the covariance that `whitener` came from (`_whitener`): one small
    product per sample instead of a solve."""
    w = values @ whitener
    return np.sum(np.square(w.real) + np.square(w.imag), axis=1)


def _block_streams(gen: np.random.Generator, n_rows: int,
                   widths: Sequence[int]) -> list[np.random.Generator]:
    """Generators at the starts of the consecutive blocks `gen` draws next,
    block j being (n_rows, widths[j]) standard normals: `gen` itself for
    the first block, and for each later one a copy of the previous block's
    start (its `bit_generator.state`) advanced past that block by drawing
    it in `MC_CHUNK_ROWS`-row chunks and discarding them.  A generator
    fills element by element, so each block then yields, in chunks of any
    size, the normals of one whole draw."""
    starts = [gen]
    scratch = np.empty(min(n_rows, MC_CHUNK_ROWS) * max(widths, default=0))
    for width in widths[:-1]:
        walker = np.random.Generator(np.random.Philox(key=0))
        walker.bit_generator.state = starts[-1].bit_generator.state
        for start in range(0, n_rows, MC_CHUNK_ROWS):
            walker.standard_normal(out=scratch[:min(MC_CHUNK_ROWS, n_rows - start) * width])
        starts.append(walker)
    return starts


def mc_mi_oracle(system: EffectiveLinearSystem, node: str, secret: Iterable[str],
                 power, n_samples: int = 100_000, seed: int = 0,
                 known: Iterable[str] = ()) -> MiResult:
    """Monte-Carlo estimate of the same mutual information.

    Samples the forward model y = sqrt(P) R s + n and averages the log ratio
    of the conditional to the marginal Gaussian density at the sampled points;
    converges to the log-det expression but exercises none of its code.

    The variates are the real and imaginary standard normal draws of `s`,
    then of the noise, in the order `rng.complex_normal` draws them: four
    consecutive blocks of one substream.  No block is held whole: one
    generator per block (`_block_streams`, which draws and discards the
    n * (2k + d) normals before the last block's start) draws all four in
    lockstep, `MC_CHUNK_ROWS` rows at a time, into per-call buffers of
    MC_CHUNK_ROWS * (2k + 2d) floats, and the complex samples, `y`, the
    conditional mean and both quadratic forms are formed per chunk; the
    whitening factors and log-dets are taken once, and one float per sample
    is kept.  Each sample's term depends only on its own row, so it has the
    bits of one whole-array pass (tests pin this against that formula), and
    the mean and standard deviation read the same full array.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    p = float(power)
    r_keep, secret_mask = _kept_columns(system, node, secret, known)
    d, k = r_keep.shape
    if d > 8:
        raise DimensionTooLarge(f"observation dimension {d} exceeds the desk cap 8")

    widths = (k, k, d, d)       # real, then imaginary parts of s, then of the noise
    gens = _block_streams(rng.stream(seed, "mc-mi", node), n_samples, widths)
    bufs = [np.empty((min(n_samples, MC_CHUNK_ROWS), width)) for width in widths]

    c_full = np.eye(d) + p * (r_keep @ r_keep.conj().T)
    r_nuis = r_keep[:, ~secret_mask]
    c_cond = np.eye(d) + p * (r_nuis @ r_nuis.conj().T)
    w_full, w_cond = _whitener(c_full), _whitener(c_cond)
    r_secret = r_keep[:, secret_mask]

    ln2 = math.log(2.0)
    offset = (np.linalg.slogdet(c_full)[1] - np.linalg.slogdet(c_cond)[1]) / ln2
    amplitude = math.sqrt(p)
    per_sample = np.empty(n_samples)
    for start in range(0, n_samples, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, n_samples - start)
        s_re, s_im, noise_re, noise_im = (
            gen.standard_normal(out=buf[:rows]) for gen, buf in zip(gens, bufs))
        s = rng.complex_from_parts(s_re, s_im)
        noise = rng.complex_from_parts(noise_re, noise_im)
        y = amplitude * (s @ r_keep.T) + noise
        mean = amplitude * (s[:, secret_mask] @ r_secret.T)
        per_sample[start:start + rows] = (
            (_quad(y, w_full) - _quad(y - mean, w_cond)) / ln2 + offset)
    bits = float(np.mean(per_sample))
    stderr = float(np.std(per_sample, ddof=1) / math.sqrt(n_samples))
    return MiResult(bits=bits, power=p, std_error=stderr)


def check_output_symmetry(topology: Topology, n_trials: int = 1000, seed: int = 0,
                          zero_input: bool = False,
                          twin_equals_actual: bool = False) -> SymmetryReport:
    """Single-letter check that an independent, identically drawn twin channel
    produces the same conditional output entropy as the actual one.

    White Gaussian input of unit total power (or the zero input);
    per-draw entropies are closed-form log-dets, averaged over `n_trials`
    channel draws.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    n_tx = topology.n_tx
    gen_a = rng.stream(seed, "symmetry", "actual")
    g = rng.complex_normal(gen_a, (n_trials, n_tx))
    if twin_equals_actual:
        g_twin = g
    else:
        gen_t = rng.stream(seed, "symmetry", "twin")
        g_twin = rng.complex_normal(gen_t, (n_trials, n_tx))

    per_antenna = 0.0 if zero_input else 1.0 / n_tx
    log2_pie = math.log2(math.pi * math.e)

    def entropies(rows):
        var = 1.0 + per_antenna * np.sum(np.abs(rows) ** 2, axis=1)
        return log2_pie + np.log2(var)

    h_act = entropies(g)
    h_twin = entropies(g_twin)
    gap = abs(float(np.mean(h_act)) - float(np.mean(h_twin)))
    if twin_equals_actual or zero_input:
        stderr = 0.0
    else:
        stderr = math.sqrt(
            np.var(h_act, ddof=1) / n_trials + np.var(h_twin, ddof=1) / n_trials)
    return SymmetryReport(
        entropy_actual=float(np.mean(h_act)),
        entropy_twin=float(np.mean(h_twin)),
        abs_gap=gap,
        std_error=float(stderr),
    )
