"""Dispersive cavity readout: state-dependent pulls and composite transmission.

In the dispersive regime (|g/Delta| << 1) the second-order block
diagonalization leaves the cavity with a frequency that depends on the atom
level.  Expanding the transformed photon-number coefficient gives per-photon
pulls

    pull_0 = -g1*chi_1           = +g1^2/Delta_10
    pull_1 = +(g1*chi_1 - g2*chi_2) = -g1^2/Delta_10 + g2^2/Delta_21
    pull_2 = +g2*chi_2           = -g2^2/Delta_21

with chi_1 = -g1/Delta_10, chi_2 = -g2/Delta_21, Delta_10 = omega_cav - nu_10,
Delta_21 = omega_cav - nu_21 (each level is repelled by the transitions it
participates in; the signs are pinned by a perturbation-theory test).

The measured transmission is the population-weighted mix of the per-level
cavity responses, T = rho_00 T0 + rho_11 T1 + rho_22 T2, normalized to
T' = (T - T0)/(T2 - T0).  The per-level responses are realized with a
single-mode Lorentzian amplitude at the pulled frequencies.

Frequencies here are plain Hz (not angular).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CavitySpec",
    "DispersiveShifts",
    "ZeroDetuning",
    "DegenerateNormalization",
    "dispersive_shifts",
    "cavity_lorentzian",
    "composite_transmission",
    "normalized_transmission",
]

DISPERSIVE_VALIDITY_THRESHOLD = 0.1


class ZeroDetuning(Exception):
    """Atom-cavity detuning vanished; the dispersive expansion is undefined."""


class DegenerateNormalization(Exception):
    """T2 and T0 coincide; T' is undefined."""


@dataclass(frozen=True)
class CavitySpec:
    """Cavity parameters (Hz).  g2 defaults to sqrt(2) * g1 (harmonic ladder)."""

    frequency: float
    q_loaded: float
    g1: float
    g2: float | None = None

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be > 0")
        if self.q_loaded <= 0:
            raise ValueError("q_loaded must be > 0")
        if self.g1 < 0 or (self.g2 is not None and self.g2 < 0):
            raise ValueError("couplings must be >= 0")
        if self.g2 is None:
            object.__setattr__(self, "g2", np.sqrt(2.0) * self.g1)

    @property
    def kappa(self) -> float:
        """Loaded linewidth omega_cavity / Q_L in Hz (derived, never stored)."""
        return self.frequency / self.q_loaded


@dataclass(frozen=True)
class DispersiveShifts:
    """chi coefficients and per-level cavity pulls (Hz)."""

    chi_1: float
    chi_2: float
    pull_0: float
    pull_1: float
    pull_2: float
    dispersive_valid: bool


def dispersive_shifts(cavity: CavitySpec, nu_10: float, nu_21: float,
                      validity_threshold: float = DISPERSIVE_VALIDITY_THRESHOLD,
                      ) -> DispersiveShifts:
    """State-dependent cavity pulls for given bare transition frequencies (Hz).

    The validity flag trips (without raising) when either |g/Delta| reaches
    the threshold, signalling that the second-order expansion is strained.
    """
    delta_10 = cavity.frequency - nu_10
    delta_21 = cavity.frequency - nu_21
    if delta_10 == 0 or delta_21 == 0:
        raise ZeroDetuning("atom-cavity detuning is zero")
    chi_1 = -cavity.g1 / delta_10
    chi_2 = -cavity.g2 / delta_21
    valid = abs(chi_1) < validity_threshold and abs(chi_2) < validity_threshold
    return DispersiveShifts(
        chi_1=chi_1,
        chi_2=chi_2,
        pull_0=-cavity.g1 * chi_1,
        pull_1=cavity.g1 * chi_1 - cavity.g2 * chi_2,
        pull_2=cavity.g2 * chi_2,
        dispersive_valid=valid,
    )


def cavity_lorentzian(probe_freq: float, state_freq: float, kappa: float) -> complex:
    """Single-mode transmission amplitude, peak magnitude 1 on resonance (Hz in)."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    half = 0.5 * kappa
    return half / (half + 1j * (probe_freq - state_freq))


def composite_transmission(rho: np.ndarray, t0: complex, t1: complex,
                           t2: complex) -> complex:
    """Population-weighted transmission rho_00 T0 + rho_11 T1 + rho_22 T2.

    A stack of density matrices ``(..., 3, 3)`` gives one value per state.
    """
    rho = np.asarray(rho)
    p0, p1, p2 = (rho[..., k, k].real for k in range(3))
    return p0 * t0 + p1 * t1 + p2 * t2


def normalized_transmission(t: complex, t0: complex, t2: complex) -> complex:
    """T' = (T - T0) / (T2 - T0); invariant under common rescaling of the T_i."""
    span = t2 - t0
    if abs(span) < 1e-30:
        raise DegenerateNormalization("|T2 - T0| vanished")
    return (t - t0) / span
