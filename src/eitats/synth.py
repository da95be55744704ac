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

from dataclasses import replace

import numpy as np

from .fitting import Dataset
from .io_utils import TWO_PI_MHZ
from .spectra import ExactModelParams, tprime_exact

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


def synth_spectrum(gamma_10: float, gamma_20: float, control: float,
                   detunings: np.ndarray | None = None,
                   noise_sigma: float = 0.0,
                   seed_parts: tuple = (0,)) -> Dataset:
    """Exact transmission curve, peak-normalized to 1, with seeded noise.

    With ``noise_sigma = 0`` the values are bit-identical to
    :func:`eitats.spectra.tprime_exact` at amplitude one over the peak of the
    amplitude-1 curve.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if detunings is None:
        detunings = default_detuning_grid()
    base = ExactModelParams(amplitude=1.0, probe=1.0, control=control,
                            gamma_10=gamma_10, gamma_20=gamma_20)
    amplitude = 1.0 / float(np.max(tprime_exact(detunings, base)))
    values = tprime_exact(detunings, replace(base, amplitude=amplitude))
    return Dataset(x=detunings, y=add_noise(values, noise_sigma, *seed_parts))
