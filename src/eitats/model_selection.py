"""Akaike-information-criterion discrimination of the two reduced lineshapes.

A verdict scores the two fits of one spectrum, as
:func:`eitats.fitting.fit_reduced_forms` returns them.  For a fit with residual
sum R over N points and k parameters (the fit's own ``n_points`` and
``n_params``: four for the difference form and three for the doublet, after
Anisimov, Dowling & Sanders, PRL 107, 163604 (2011)) the information loss is
I = N ln(R/N) + 2k, with per-point value Ibar = I/N.  Relative model
likelihoods follow from the standard Akaike weights exp(-I/2), normalized over
the candidate pair; an exact fit (R = 0) carries a -inf sentinel and takes
all the weight.

:func:`akaike_weights` evaluates the weight formula on any common loss
scale.  Reports and the drive-strength sweep apply it to the total
information losses: with realistic noise those weights saturate to 0/1 deep
in either regime, which is what the regime classification thresholds require
(the soft per-point variant, the same formula on Ibar, cannot exceed ~0.7 at a
few percent noise no matter how decisive the fit comparison is).

The sweep synthesizes seeded spectra, fits both reduced models to all of
them in one minimizer loop, averages the weights over seeds, and locates the
drive strength where the mean difference-form weight crosses one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import FitResult, SingularJacobian, fit_reduced_forms
from .synth import synth_spectrum

__all__ = ["AicReport", "WeightSweepResult", "CrossingResult", "NonPositiveResidual",
           "NoCrossing", "aic", "akaike_weights", "discriminate", "weight_sweep",
           "crossing_threshold"]

DEFAULT_N_SEEDS = 25


class NonPositiveResidual(ArithmeticError):
    """Residual sum below zero makes the information loss undefined."""


class NoCrossing(ArithmeticError):
    """The weight curve never crosses one half."""


@dataclass(frozen=True)
class AicReport:
    """Information losses and model weights for one spectrum.

    ``w_eit``/``w_ats`` are the Akaike weights of the total losses (these are
    the saturating classification weights); the per-point losses are carried
    alongside for scale-free comparisons, and each fit's convergence flag,
    iteration count and parameter count k with them.
    """

    i_eit: float
    i_ats: float
    ibar_eit: float
    ibar_ats: float
    w_eit: float
    w_ats: float
    n_points: int
    r_eit: float
    r_ats: float
    converged_eit: bool
    converged_ats: bool
    iterations_eit: int
    iterations_ats: int
    k_eit: int
    k_ats: int


@dataclass(frozen=True)
class WeightSweepResult:
    """Seed-averaged weight curves over a control-strength grid (rad/s)."""

    control_grid: np.ndarray
    w_eit_mean: np.ndarray
    w_ats_mean: np.ndarray
    w_eit_min: np.ndarray
    w_eit_max: np.ndarray
    n_seeds: int
    n_failed: np.ndarray
    # per cell, shaped (grid, seeds); NaN, False and 0 where the cell failed
    w_eit: np.ndarray
    r_eit: np.ndarray
    r_ats: np.ndarray
    converged: np.ndarray   # both fits converged
    iterations: np.ndarray  # LM iterations of both fits together


@dataclass(frozen=True)
class CrossingResult:
    """First downward half-weight crossing of the mean curve; several crossings flagged."""

    threshold: float
    multiple_crossings: bool


def aic(n_points: int, residual_sum: float, n_params: int) -> float:
    """Information loss N ln(R/N) + 2k; R = 0 returns the -inf sentinel."""
    if n_points <= 0:
        raise ValueError("n_points must be > 0")
    if residual_sum < 0:
        raise NonPositiveResidual("residual sum must be >= 0")
    if residual_sum == 0:
        return float("-inf")
    return n_points * math.log(residual_sum / n_points) + 2 * n_params


def akaike_weights(ibar_eit: float, ibar_ats: float) -> tuple[float, float]:
    """Normalized pair weights exp(-Ibar/2) / sum, numerically stable.

    Works on any common scale (per-point or total losses).  The lower loss
    wins: a -inf sentinel takes weight one and a +inf loss weight zero, and two
    equal infinities split it evenly.  The pair sums to one exactly.
    """
    gap = ibar_eit - ibar_ats  # positive favors the second model
    if math.isnan(gap):  # the same infinity twice
        return 0.5, 0.5
    half = abs(gap) / 2.0
    big = 1.0 / (1.0 + math.exp(-half)) if half < 745.0 else 1.0
    small = 1.0 - big
    return (small, big) if gap > 0 else (big, small)


def discriminate(eit_fit: FitResult, ats_fit: FitResult) -> AicReport:
    """Losses and weights of one spectrum's difference-form and doublet-form
    fits, as :func:`eitats.fitting.fit_reduced_forms` returns them."""
    n = eit_fit.n_points
    if ats_fit.n_points != n:
        raise ValueError(f"fits of different spectra: {n} and {ats_fit.n_points} points")
    i_eit, i_ats = (aic(n, fit.residual_sum, fit.n_params) for fit in (eit_fit, ats_fit))
    return AicReport(i_eit, i_ats, i_eit / n, i_ats / n, *akaike_weights(i_eit, i_ats), n,
                     eit_fit.residual_sum, ats_fit.residual_sum, eit_fit.converged,
                     ats_fit.converged, eit_fit.iterations, ats_fit.iterations,
                     eit_fit.n_params, ats_fit.n_params)


def weight_sweep(gamma_10: float, gamma_20: float, control_grid,
                 noise_sigma: float = 0.03, n_seeds: int = DEFAULT_N_SEEDS,
                 detunings: np.ndarray | None = None,
                 base_seed: int = 0) -> WeightSweepResult:
    """Seed-averaged model weights across a control-strength grid.

    Each (grid point, seed) cell is a synthetic spectrum over ``detunings``
    (rad/s; the synth default grid when None), seeded by its indices; one
    :func:`synth_spectrum` call makes them all, one minimizer loop fits both
    reduced models to all, and each cell's two fits go through
    :func:`discriminate`.  A cell's fits equal those of its spectrum alone, and
    a cell whose fit fails is counted in ``n_failed`` and left out of the
    averages instead of aborting the sweep.
    """
    control_grid = np.asarray(control_grid, dtype=float)
    if control_grid.ndim != 1 or control_grid.size == 0 or np.any(np.diff(control_grid) <= 0):
        raise ValueError("control_grid must be a non-empty, strictly increasing 1-D array")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1 (got {n_seeds})")

    spectra = synth_spectrum(gamma_10, gamma_20, np.repeat(control_grid, n_seeds), detunings,
                             noise_sigma=noise_sigma, seed_parts=[
                                 (base_seed, i, seed) for i in range(control_grid.size)
                                 for seed in range(n_seeds)])
    shape = (control_grid.size, n_seeds)
    w_eit, r_eit, r_ats = np.full((3,) + shape, np.nan)
    converged, iterations = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=int)
    for cell, eit, ats in zip(np.ndindex(shape), *fit_reduced_forms(spectra)):
        for fit in (eit, ats):
            if isinstance(fit, Exception) and not isinstance(fit, SingularJacobian):
                raise fit
        if isinstance(eit, Exception) or isinstance(ats, Exception):
            continue
        report = discriminate(eit, ats)
        w_eit[cell], r_eit[cell], r_ats[cell] = report.w_eit, report.r_eit, report.r_ats
        converged[cell] = eit.converged and ats.converged
        iterations[cell] = eit.iterations + ats.iterations

    w_mean, w_min, w_max = np.full((3, control_grid.size), np.nan)
    for i, row in enumerate(w_eit):
        kept = row[~np.isnan(row)]
        if kept.size:
            w_mean[i], w_min[i], w_max[i] = np.mean(kept), np.min(kept), np.max(kept)
    return WeightSweepResult(control_grid, w_mean, 1.0 - w_mean, w_min, w_max, n_seeds,
                             np.sum(np.isnan(w_eit), axis=1), w_eit, r_eit, r_ats, converged,
                             iterations)


def crossing_threshold(control_grid, w_eit_mean) -> CrossingResult:
    """Linear interpolation of the first downward 0.5 crossing of the curve's
    finite points, a point at exactly 0.5 counting as above it.  The curve
    crosses 0.5 at every change of side, in either direction."""
    grid = np.asarray(control_grid, dtype=float)
    curve = np.asarray(w_eit_mean, dtype=float)
    if grid.shape != curve.shape or grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid and curve must be matching 1-D arrays (length >= 2)")
    grid, curve = grid[~np.isnan(curve)], curve[~np.isnan(curve)]
    above = curve >= 0.5
    falls = np.flatnonzero(above[:-1] & ~above[1:])
    if not falls.size:
        raise NoCrossing("weight curve never falls through 0.5")
    i = falls[0]
    a, b = curve[i] - 0.5, curve[i + 1] - 0.5
    return CrossingResult(threshold=float(grid[i] + a / (a - b) * (grid[i + 1] - grid[i])),
                          multiple_crossings=bool(np.count_nonzero(above[:-1] != above[1:]) > 1))
