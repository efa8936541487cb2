"""Closed-form Gaussian information measures and their numerical oracles.

Rates and leakage are exact log-determinant expressions over the effective
linear systems; prelog slopes are least-squares fits over a power grid; the
Monte-Carlo estimator re-derives the same mutual information from sampled log
densities as an independent cross-check.  All entropies are in bits and every
computation treats the channel matrices as known side information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import rng
from .errors import DimensionTooLarge, EmptySystem, GridTooSmall
from .model import PowerBudget, Topology
from .precoding import EffectiveLinearSystem

DEFAULT_GRID = tuple(float(2 ** e) for e in (20, 30, 40, 50, 60))


@dataclass(frozen=True)
class MiResult:
    bits: float
    conditioning: str
    power: float
    std_error: float | None = None


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    power_grid: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class SymmetryReport:
    entropy_actual: float
    entropy_twin: float
    abs_gap: float
    std_error: float


def _power_value(power) -> float:
    if isinstance(power, PowerBudget):
        return float(power.total_power)
    return float(power)


def _logdet_bits(mat: np.ndarray, p: float) -> float:
    """log2 det(I + p * mat @ mat^H), stable up to p ~ 2^60.

    Works from singular values of the matrix rather than eigenvalues of the
    Gram: a numerically spurious singular value ~1e-16 squares to ~1e-32 and
    stays invisible at every grid power, where a spurious Gram eigenvalue
    ~1e-16 would be amplified into fake rate by p = 2^60.
    """
    if mat.size == 0:
        return 0.0
    sv = np.linalg.svd(mat, compute_uv=False)
    return float(np.sum(np.log2(1.0 + p * sv ** 2)))


def _kept_columns(system: EffectiveLinearSystem, node: str,
                  secret, known) -> tuple[np.ndarray, np.ndarray]:
    """node's matrix without the known columns, and the mask of secret columns."""
    if system.matrices[node].shape[0] == 0:
        raise EmptySystem(f"node {node} has no observations")
    kept, is_secret = system.split_columns(node, secret, known)
    return system.matrices[node][:, kept], is_secret


def gaussian_mi(system: EffectiveLinearSystem, node: str, secret: Iterable[str],
                power, known: Iterable[str] = ()) -> MiResult:
    """Exact I(secret symbols ; node's observations | CSI, known symbols).

    Unit-variance observation noise is always assumed so the expression stays
    finite; with unit-variance Gaussian symbols the two log-determinants are
    the exact conditional differential entropies.
    """
    p = _power_value(power)
    full, is_secret = _kept_columns(system, node, secret, known)
    bits = _logdet_bits(full, p) - _logdet_bits(full[:, ~is_secret], p)
    if bits < -1e-9:
        raise AssertionError(f"mutual information {bits} below clamp tolerance")
    bits = max(bits, 0.0)
    return MiResult(bits=bits, conditioning=f"node={node}", power=p)


def achievable_rate(system: EffectiveLinearSystem, node: str, power) -> MiResult:
    """gaussian_mi with the node's own intended messages as the secret set."""
    return gaussian_mi(system, node, system.message_sids(node), power)


def fit_slope(values: Sequence[float], slots,
              grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    """Least-squares prelog of values/slots against log2(P), where values[i]
    is the metric at power grid[i]."""
    grid = tuple(float(p) for p in grid)
    if len(grid) < 2:
        raise GridTooSmall("slope estimation needs at least two powers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise GridTooSmall("power grid must be strictly increasing")
    slots = float(slots)
    xs = np.log2(np.array(grid))
    ys = np.array(values) / slots
    coeffs = np.polyfit(xs, ys, 1)
    fit = np.polyval(coeffs, xs)
    residual = float(np.sqrt(np.mean((ys - fit) ** 2)))
    return SlopeEstimate(slope=float(coeffs[0]), power_grid=grid, residual=residual)


def estimate_slope(metric: Callable[[float], float], slots,
                   grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    """Least-squares prelog of metric(P)/slots against log2(P) over `grid`."""
    grid = tuple(float(p) for p in grid)
    return fit_slope([metric(p) for p in grid], slots, grid)


def rate_slope(system: EffectiveLinearSystem, node: str, slots,
               grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    return estimate_slope(
        lambda p: achievable_rate(system, node, p).bits, slots, grid)


def leakage_slope(system: EffectiveLinearSystem, node: str, secret, slots,
                  known: Iterable[str] = (),
                  grid: Sequence[float] = DEFAULT_GRID) -> SlopeEstimate:
    return estimate_slope(
        lambda p: gaussian_mi(system, node, secret, p, known=known).bits, slots, grid)


def mc_mi_oracle(system: EffectiveLinearSystem, node: str, secret: Iterable[str],
                 power, n_samples: int = 100_000, seed: int = 0,
                 known: Iterable[str] = ()) -> MiResult:
    """Monte-Carlo estimate of the same mutual information.

    Samples the forward model y = sqrt(P) R s + n and averages the log ratio
    of the conditional to the marginal Gaussian density at the sampled points;
    converges to the log-det expression but exercises none of its code.
    """
    p = _power_value(power)
    r_keep, secret_mask = _kept_columns(system, node, secret, known)
    d = r_keep.shape[0]
    if d > 8:
        raise DimensionTooLarge(f"observation dimension {d} exceeds the desk cap 8")

    gen = rng.stream(seed, "mc-mi", node)
    s = rng.complex_normal(gen, (n_samples, r_keep.shape[1]))
    noise = rng.complex_normal(gen, (n_samples, d))
    y = math.sqrt(p) * (s @ r_keep.T) + noise

    c_full = np.eye(d) + p * (r_keep @ r_keep.conj().T)
    r_nuis = r_keep[:, ~secret_mask]
    c_cond = np.eye(d) + p * (r_nuis @ r_nuis.conj().T)
    mean = math.sqrt(p) * (s[:, secret_mask] @ r_keep[:, secret_mask].T)

    def quad(values, cov):
        solved = np.linalg.solve(cov, values.T).T
        return np.einsum("ij,ij->i", values.conj(), solved).real

    ln2 = math.log(2.0)
    sign_f, logdet_f = np.linalg.slogdet(c_full)
    sign_c, logdet_c = np.linalg.slogdet(c_cond)
    per_sample = (
        (quad(y, c_full) - quad(y - mean, c_cond)) / ln2
        + (logdet_f - logdet_c) / ln2
    )
    bits = float(np.mean(per_sample))
    stderr = float(np.std(per_sample, ddof=1) / math.sqrt(n_samples))
    return MiResult(bits=bits, conditioning=f"node={node}", power=p, std_error=stderr)


def check_output_symmetry(topology: Topology, n_trials: int = 1000, seed: int = 0,
                          input_power: float = 1.0, zero_input: bool = False,
                          twin_equals_actual: bool = False) -> SymmetryReport:
    """Single-letter check that an independent, identically drawn twin channel
    produces the same conditional output entropy as the actual one.

    White Gaussian input of total power `input_power` (or the zero input);
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

    per_antenna = 0.0 if zero_input else input_power / n_tx
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
