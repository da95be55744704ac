"""Akaike-information-criterion discrimination of the two reduced lineshapes.

For a fit with residual sum R over N points and k parameters the information
loss is I = N ln(R/N) + 2k, with per-point value Ibar = I/N.  Relative model
likelihoods follow from the standard Akaike weights exp(-I/2), normalized over
the candidate pair; an exact fit (R = 0) carries a -inf sentinel and takes
all the weight.

:func:`akaike_weights` evaluates the weight formula on any common loss
scale.  Reports and the drive-strength sweep apply it to the total
information losses: with realistic noise those weights saturate to 0/1 deep
in either regime, which is what the regime classification thresholds require
(the soft per-point variant, the same formula on Ibar, cannot exceed ~0.7 at a
few percent noise no matter how decisive the fit comparison is).

The sweep generates seeded synthetic spectra, fits both reduced models on
each, averages the weights over seeds, and locates the drive strength where
the mean difference-form weight crosses one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import Dataset, FitResult, SingularJacobian, fit_ats_model, fit_eit_model
from .spectra import Spectrum
from .synth import synth_spectrum

__all__ = [
    "AicReport",
    "WeightSweepResult",
    "CrossingResult",
    "NonPositiveResidual",
    "NoCrossing",
    "aic",
    "akaike_weights",
    "discriminate",
    "weight_sweep",
    "crossing_threshold",
    "K_EIT",
    "K_ATS",
]

K_EIT = 4
K_ATS = 3


class NonPositiveResidual(Exception):
    """Residual sum below zero makes the information loss undefined."""


class NoCrossing(Exception):
    """The weight curve never crosses one half."""


@dataclass(frozen=True)
class AicReport:
    """Information losses and model weights for one spectrum.

    ``w_eit``/``w_ats`` are the Akaike weights of the total losses (these are
    the saturating classification weights); the per-point losses are carried
    alongside for scale-free comparisons.
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
    k_eit: int = K_EIT
    k_ats: int = K_ATS


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


@dataclass(frozen=True)
class CrossingResult:
    """Half-weight crossing of the mean curve; lowest crossing if several."""

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

    Works on any common scale (per-point or total losses); -inf sentinels take
    weight one.  The pair sums to one exactly.
    """
    if math.isinf(ibar_eit) and math.isinf(ibar_ats):
        return 0.5, 0.5
    if math.isinf(ibar_eit):
        return 1.0, 0.0
    if math.isinf(ibar_ats):
        return 0.0, 1.0
    gap = ibar_eit - ibar_ats  # positive favors the second model
    half = abs(gap) / 2.0
    big = 1.0 / (1.0 + math.exp(-half)) if half < 745.0 else 1.0
    small = 1.0 - big
    return (small, big) if gap > 0 else (big, small)


def discriminate(spectrum: Spectrum | Dataset,
                 eit_fit: FitResult | None = None,
                 ats_fit: FitResult | None = None) -> AicReport:
    """Fit both reduced models to one spectrum and report losses and weights."""
    if isinstance(spectrum, Spectrum):
        data = Dataset(x=spectrum.detunings, y=spectrum.values)
    else:
        data = spectrum
    if eit_fit is None:
        eit_fit = fit_eit_model(data)
    if ats_fit is None:
        ats_fit = fit_ats_model(data)
    n = len(data)
    i_eit = aic(n, eit_fit.residual_sum, K_EIT)
    i_ats = aic(n, ats_fit.residual_sum, K_ATS)
    w_eit, w_ats = akaike_weights(i_eit, i_ats)
    inf = float("inf")
    return AicReport(
        i_eit=i_eit,
        i_ats=i_ats,
        ibar_eit=i_eit / n if not math.isinf(i_eit) else -inf,
        ibar_ats=i_ats / n if not math.isinf(i_ats) else -inf,
        w_eit=w_eit,
        w_ats=w_ats,
        n_points=n,
        r_eit=eit_fit.residual_sum,
        r_ats=ats_fit.residual_sum,
    )


def weight_sweep(gamma_10: float, gamma_20: float, control_grid,
                 noise_sigma: float = 0.03, n_seeds: int = 25,
                 detunings: np.ndarray | None = None,
                 base_seed: int = 0) -> WeightSweepResult:
    """Seed-averaged model weights across a control-strength grid.

    Each (grid point, seed) cell generates a synthetic spectrum over
    ``detunings`` (rad/s; the synth default grid when None), fits both
    reduced models, and computes the weights; fit failures are counted per
    cell and excluded from the averages instead of aborting the sweep.  Cells
    are independent and seeded by index, so results do not depend on
    evaluation order.
    """
    control_grid = np.asarray(control_grid, dtype=float)
    if control_grid.ndim != 1 or control_grid.size == 0:
        raise ValueError("control_grid must be a non-empty 1-D array")
    if np.any(np.diff(control_grid) <= 0):
        raise ValueError("control_grid must be strictly increasing")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")

    shape = control_grid.shape
    w_mean = np.empty(shape)
    w_min = np.empty(shape)
    w_max = np.empty(shape)
    failed = np.zeros(shape, dtype=int)
    for i, control in enumerate(control_grid):
        weights = []
        for seed in range(n_seeds):
            spectrum = synth_spectrum(
                gamma_10, gamma_20, control, detunings,
                noise_sigma=noise_sigma, seed_parts=(base_seed, i, seed),
            )
            try:
                report = discriminate(spectrum)
            except SingularJacobian:
                failed[i] += 1
                continue
            weights.append(report.w_eit)
        if not weights:
            w_mean[i] = w_min[i] = w_max[i] = np.nan
            continue
        w_mean[i] = float(np.mean(weights))
        w_min[i] = float(np.min(weights))
        w_max[i] = float(np.max(weights))
    return WeightSweepResult(
        control_grid=control_grid,
        w_eit_mean=w_mean,
        w_ats_mean=1.0 - w_mean,
        w_eit_min=w_min,
        w_eit_max=w_max,
        n_seeds=n_seeds,
        n_failed=failed,
    )


def crossing_threshold(control_grid, w_eit_mean) -> CrossingResult:
    """Linear interpolation of the first downward 0.5 crossing of the curve."""
    grid = np.asarray(control_grid, dtype=float)
    curve = np.asarray(w_eit_mean, dtype=float)
    if grid.shape != curve.shape or grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid and curve must be matching 1-D arrays (length >= 2)")
    crossings = []
    for j in range(grid.size - 1):
        a, b = curve[j] - 0.5, curve[j + 1] - 0.5
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            crossings.append(grid[j])
        elif a * b < 0.0:
            frac = a / (a - b)
            crossings.append(grid[j] + frac * (grid[j + 1] - grid[j]))
    if curve[-1] == 0.5:
        crossings.append(grid[-1])
    if not crossings:
        raise NoCrossing("weight curve never reaches 0.5")
    return CrossingResult(
        threshold=float(crossings[0]),
        multiple_crossings=len(crossings) > 1,
    )
