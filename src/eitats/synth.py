"""Seeded synthetic spectra: exact curve plus calibrated Gaussian noise.

Noise convention (:func:`add_noise`, also used by the CLI for simulated
spectra and Rabi traces): additive, independent per point, with standard
deviation ``sigma`` times the noiseless peak value of that same curve.  The
generator is numpy's PCG64 seeded through SeedSequence from integer tuples,
so any (base seed, cell indices) pair reproduces bit-identically across
platforms and execution orders.  Spectra are returned as a
:class:`eitats.fitting.Dataset` with detunings in rad/s.
"""

from __future__ import annotations

import numpy as np

from .fitting import Dataset
from .io_utils import TWO_PI_MHZ
from .spectra import ExactModelParams, _tprime

__all__ = ["cell_rng", "add_noise", "synth_spectrum", "default_detuning_grid"]

DEFAULT_N_POINTS = 61
DEFAULT_SPAN = 25 * TWO_PI_MHZ  # rad/s


def cell_rng(*seed_parts: int) -> np.random.Generator:
    """Deterministic per-cell generator (PCG64 via SeedSequence)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_parts)))


def add_noise(values: np.ndarray, sigma: float, *seed_parts: int) -> np.ndarray:
    """``values`` plus Gaussian noise of standard deviation ``sigma`` times
    their peak, drawn from ``cell_rng(*seed_parts)``; ``values`` at sigma 0."""
    if sigma == 0:
        return values
    return values + cell_rng(*seed_parts).normal(0.0, sigma * np.max(values),
                                                 size=values.shape)


def default_detuning_grid(n_points: int = DEFAULT_N_POINTS,
                          span: float = DEFAULT_SPAN) -> np.ndarray:
    """Uniform symmetric grid of ``n_points`` detunings over +/- span (rad/s)."""
    return np.linspace(-span, span, n_points)


def synth_spectrum(gamma_10: float, gamma_20: float, control,
                   detunings: np.ndarray | None = None,
                   noise_sigma: float = 0.0,
                   seed_parts=(0,)) -> Dataset:
    """Exact transmission curve, peak-normalized to 1, with seeded noise.

    With ``noise_sigma = 0`` the values are bit-identical to
    :func:`eitats.spectra.tprime_exact` at amplitude one over the peak of the
    amplitude-1 curve.  A 1-D array of controls, with one ``seed_parts`` tuple
    each, gives the stack of their curves, each row as its own call gives it.
    """
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0 (got {noise_sigma})")
    detunings = default_detuning_grid() if detunings is None else np.asarray(detunings, float)
    column = np.asarray(control, dtype=float).reshape(-1, 1)
    ExactModelParams(1.0, 1.0, float(np.min(column)), gamma_10, gamma_20)  # checks rates, drives
    peak = np.max(_tprime(detunings, 1.0, column, gamma_10, gamma_20), axis=-1, keepdims=True)
    values = _tprime(detunings, 1.0 / peak, column, gamma_10, gamma_20)
    seeds = seed_parts if np.ndim(control) else [seed_parts]
    noisy = np.array([add_noise(v, noise_sigma, *s) for v, s in zip(values, seeds, strict=True)])
    return Dataset(x=detunings, y=noisy if np.ndim(control) else noisy[0])
