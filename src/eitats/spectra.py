"""Normalized cavity-transmission lineshapes for the driven three-level atom.

The exact weak-probe transmission is

    T'(delta) = A * Omega_p * G(delta) / [ D(delta)^2 + G(delta)^2 ],
    G = gamma_20 + Omega_c^2 gamma_10 / (delta^2 + gamma_10^2),
    D = delta - Omega_c^2 delta / (delta^2 + gamma_10^2),

which equals A * Im(rho_20) of the analytic steady-state coherence for every
detuning.  Its pole structure splits the parameter space in two:

* transparency-by-interference regime (Omega_c below (gamma_20-gamma_10)/2):
  two imaginary poles i*gamma_plus, i*gamma_minus; the curve is exactly a
  broad positive Lorentzian minus a narrow negative one (difference form).
* doublet regime (strong control): poles at +/-delta_0 + i*(gamma_10+gamma_20)/2;
  asymptotically a sum of two positive, equal-width, shifted Lorentzians.

The two reduced forms are the models the fit/classification pipeline
discriminates between.  All rates and detunings are angular (rad/s); the
reduced models carry their own overall amplitudes, absorbing A * Omega_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExactModelParams",
    "EitModelParams",
    "AtsModelParams",
    "EitWindow",
    "ComplexRoots",
    "ImaginarySplitting",
    "tprime_exact",
    "gamma_pm",
    "delta0",
    "eit_decomposition",
    "eit_model",
    "ats_model",
    "eit_window",
]


class ComplexRoots(ArithmeticError):
    """Pole widths are complex: the control drive exceeds the EIT regime."""


class ImaginarySplitting(ArithmeticError):
    """Doublet splitting is imaginary: the control drive is below the ATS regime."""


@dataclass(frozen=True)
class ExactModelParams:
    """Parameters of the exact transmission curve (all angular, rad/s)."""

    amplitude: float
    probe: float
    control: float
    gamma_10: float
    gamma_20: float

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be > 0")
        if self.gamma_10 <= 0 or self.gamma_20 <= 0:
            raise ValueError("coherence rates must be > 0")
        if self.probe < 0 or self.control < 0:
            raise ValueError("drive strengths must be >= 0")


@dataclass(frozen=True)
class EitModelParams:
    """Difference of two centered Lorentzians (broad positive, narrow negative)."""

    cplus_sq: float
    cminus_sq: float
    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        if not self.gamma_plus > self.gamma_minus > 0:
            raise ValueError("widths must satisfy gamma_plus > gamma_minus > 0")
        if self.cplus_sq < 0 or self.cminus_sq < 0:
            raise ValueError("squared amplitudes must be >= 0")


@dataclass(frozen=True)
class AtsModelParams:
    """Sum of two positive equal-width Lorentzians shifted by +/- delta_0."""

    c_sq: float
    gamma: float
    delta_0: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.delta_0 < 0:
            raise ValueError("delta_0 must be >= 0")
        if self.c_sq < 0:
            raise ValueError("c_sq must be >= 0")


@dataclass(frozen=True)
class EitWindow:
    """Control-drive window (rad/s) in which a dark state can form."""

    lower: float
    upper: float
    feasible: bool


def _tprime(d, scale, control, gamma_10, gamma_20):
    """``scale * G / (D^2 + G^2)``, broadcast over the arguments."""
    lor = control**2 / (d**2 + gamma_10**2)
    width = gamma_20 + gamma_10 * lor
    shift = d - d * lor
    return scale * width / (shift**2 + width**2)


def tprime_exact(delta, p: ExactModelParams):
    """Exact normalized transmission at detuning(s) ``delta`` (rad/s)."""
    out = _tprime(np.asarray(delta, dtype=float), p.amplitude * p.probe, p.control,
                  p.gamma_10, p.gamma_20)
    return out if out.ndim else float(out)


def gamma_pm(gamma_10: float, gamma_20: float, control: float) -> tuple[float, float]:
    """Pole widths (gamma_plus, gamma_minus) of the difference form.

    Real only while control <= (gamma_20 - gamma_10)/2; beyond that the pole
    structure is the shifted-doublet one and :class:`ComplexRoots` is raised.
    The pair satisfies sum = gamma_10 + gamma_20 and
    product = gamma_10 gamma_20 + control^2.
    """
    disc = (gamma_20 - gamma_10) ** 2 - 4.0 * control**2
    if disc < 0:
        raise ComplexRoots(
            f"control {control:g} exceeds (gamma_20 - gamma_10)/2 = "
            f"{(gamma_20 - gamma_10) / 2:g}"
        )
    root = np.sqrt(disc)
    return 0.5 * (gamma_20 + gamma_10 + root), 0.5 * (gamma_20 + gamma_10 - root)


def delta0(gamma_10: float, gamma_20: float, control: float) -> float:
    """Doublet half-splitting; requires control >= (gamma_20 - gamma_10)/2."""
    disc = 4.0 * control**2 - (gamma_20 - gamma_10) ** 2
    if disc < 0:
        raise ImaginarySplitting(
            f"control {control:g} is below (gamma_20 - gamma_10)/2 = "
            f"{(gamma_20 - gamma_10) / 2:g}"
        )
    return 0.5 * np.sqrt(disc)


def eit_decomposition(p: ExactModelParams) -> EitModelParams:
    """Exact partial-fraction split of the transmission curve.

    Inside the window (control strictly below (gamma_20 - gamma_10)/2) the
    exact curve factorizes over poles i*gamma_plus and i*gamma_minus, giving

        C_plus^2  = A Omega_p gamma_plus  (gamma_plus  - gamma_10) / (gamma_plus - gamma_minus)
        C_minus^2 = A Omega_p gamma_minus (gamma_minus - gamma_10) / (gamma_plus - gamma_minus)

    by taking residues.  The returned parameters reproduce the exact curve to
    machine precision; any larger deviation is a bug, not an approximation.
    """
    gp, gm = gamma_pm(p.gamma_10, p.gamma_20, p.control)
    if gp == gm:
        raise ComplexRoots("degenerate pole widths: control is at the regime boundary")
    scale = p.amplitude * p.probe
    cplus = scale * gp * (gp - p.gamma_10) / (gp - gm)
    cminus = scale * gm * (gm - p.gamma_10) / (gp - gm)
    return EitModelParams(
        cplus_sq=cplus, cminus_sq=max(cminus, 0.0), gamma_plus=gp, gamma_minus=gm
    )


def eit_model(delta, p: EitModelParams):
    """Difference-of-Lorentzians lineshape."""
    d = np.asarray(delta, dtype=float)
    out = p.cplus_sq / (d**2 + p.gamma_plus**2) - p.cminus_sq / (d**2 + p.gamma_minus**2)
    return out if out.ndim else float(out)


def ats_model(delta, p: AtsModelParams):
    """Shifted-doublet lineshape."""
    d = np.asarray(delta, dtype=float)
    out = p.c_sq / ((d - p.delta_0) ** 2 + p.gamma**2) + p.c_sq / (
        (d + p.delta_0) ** 2 + p.gamma**2
    )
    return out if out.ndim else float(out)


def eit_window(gamma_10: float, gamma_20: float) -> EitWindow:
    """Control-strength window for dark-state transparency.

    Feasible only for gamma_20 > 2 gamma_10 (strict); the bounds are

        lower = gamma_10 sqrt(gamma_10 / (2 gamma_10 + gamma_20))
        upper = (gamma_20 - gamma_10) / 2

    and are returned even when infeasible, with the flag set accordingly.
    """
    if gamma_10 <= 0 or gamma_20 <= 0:
        raise ValueError("coherence rates must be > 0")
    lower = gamma_10 * np.sqrt(gamma_10 / (2.0 * gamma_10 + gamma_20))
    upper = 0.5 * (gamma_20 - gamma_10)
    return EitWindow(lower=lower, upper=upper, feasible=gamma_20 > 2.0 * gamma_10)
