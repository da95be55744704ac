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
discriminates between.  Each form's columns are written once, in
``_difference_columns`` and ``_doublet_column``: the fits in
:mod:`eitats.fitting` project onto them.  Every curve function takes a fit's
``parameters`` dict, so a redrawn curve's residual is the fit's
``residual_sum``: :func:`eit_model` and :func:`ats_model` for the reduced
forms, and :func:`tprime_exact` for the exact curve, whose ``amplitude`` is
the combined A * Omega_p and whose rates are the ones the fit held fixed.
All rates and detunings are angular (rad/s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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
class EitWindow:
    """Control-drive window (rad/s) in which a dark state can form."""

    lower: float
    upper: float
    feasible: bool


def _check_exact(gamma_10, gamma_20, control=0.0, amplitude=0.0):
    """Reject the exact curve's inputs that no spectrum has, naming each."""
    if not (gamma_10 > 0 and gamma_20 > 0):
        raise ValueError("coherence rates must be > 0")
    if not control >= 0:
        raise ValueError("drive strengths must be >= 0")
    if not amplitude >= 0:
        raise ValueError("amplitude must be >= 0")


def _tprime(d, scale, control, gamma_10, gamma_20):
    """``scale * G / (D^2 + G^2)``, broadcast over the arguments."""
    lor = control**2 / (d**2 + gamma_10**2)
    width = gamma_20 + gamma_10 * lor
    shift = d - d * lor
    return scale * width / (shift**2 + width**2)


def tprime_exact(delta, p: dict, gamma_10: float, gamma_20: float):
    """Exact normalized transmission at detuning(s) ``delta`` (rad/s) of an
    exact fit's ``parameters``: the combined ``amplitude`` (A * Omega_p) and
    the ``control``, under the rates the fit held fixed."""
    _check_exact(gamma_10, gamma_20, p["control"], p["amplitude"])
    out = _tprime(np.asarray(delta, dtype=float), p["amplitude"], p["control"], gamma_10,
                  gamma_20)
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


def eit_decomposition(p: dict, gamma_10: float, gamma_20: float) -> dict:
    """Exact partial-fraction split of the transmission curve that
    :func:`tprime_exact` draws from the same arguments.

    Inside the window (control strictly below (gamma_20 - gamma_10)/2) the
    curve factorizes over poles i*gamma_plus and i*gamma_minus, giving

        C_plus^2  = A Omega_p gamma_plus  (gamma_plus  - gamma_10) / (gamma_plus - gamma_minus)
        C_minus^2 = A Omega_p gamma_minus (gamma_minus - gamma_10) / (gamma_plus - gamma_minus)

    by taking residues, returned as a difference-form fit's ``parameters``.
    They reproduce the exact curve to machine precision; any larger deviation
    is a bug, not an approximation.
    """
    _check_exact(gamma_10, gamma_20, p["control"], p["amplitude"])
    gp, gm = gamma_pm(gamma_10, gamma_20, p["control"])
    if gp == gm:
        raise ComplexRoots("degenerate pole widths: control is at the regime boundary")
    cplus = p["amplitude"] * gp * (gp - gamma_10) / (gp - gm)
    cminus = p["amplitude"] * gm * (gm - gamma_10) / (gp - gm)
    return {"cplus_sq": cplus, "cminus_sq": max(cminus, 0.0), "gamma_plus": gp,
            "gamma_minus": gm}


def _difference_columns(x2, gamma_plus, gamma_minus):
    """The difference form's columns b = 1/(x2 + gamma_plus^2), b n and
    n = 1/(x2 + gamma_minus^2) at squared detunings ``x2``, broadcast.  Its
    curve C_plus^2 b - C_minus^2 n is fitted and drawn in the basis {b, b n},
    as (C_plus^2 - C_minus^2) b + C_minus^2 (gamma_minus^2 - gamma_plus^2) b n,
    which stays well conditioned as the widths coincide."""
    broad, narrow = 1.0 / (x2 + gamma_plus**2), 1.0 / (x2 + gamma_minus**2)
    return broad, broad * narrow, narrow


def _doublet_column(x, gamma, delta_0):
    """The doublet form's one column at detunings ``x``, broadcast."""
    return 1.0 / ((x - delta_0) ** 2 + gamma**2) + 1.0 / ((x + delta_0) ** 2 + gamma**2)


def eit_model(delta, p: dict):
    """Difference-of-Lorentzians lineshape of a difference-form fit's
    ``parameters`` (or :func:`eit_decomposition`'s), in the fit's basis."""
    d = np.asarray(delta, dtype=float)
    gp, gm, cm = p["gamma_plus"], p["gamma_minus"], p["cminus_sq"]
    broad, product, _ = _difference_columns(d**2, gp, gm)
    out = (p["cplus_sq"] - cm) * broad + cm * (gm**2 - gp**2) * product
    return out if out.ndim else float(out)


def ats_model(delta, p: dict):
    """Shifted-doublet lineshape of a doublet-form fit's ``parameters``."""
    out = p["c_sq"] * _doublet_column(np.asarray(delta, dtype=float), p["gamma"], p["delta_0"])
    return out if out.ndim else float(out)


def eit_window(gamma_10: float, gamma_20: float) -> EitWindow:
    """Control-strength window for dark-state transparency.

    Feasible only for gamma_20 > 2 gamma_10 (strict); the bounds are

        lower = gamma_10 sqrt(gamma_10 / (2 gamma_10 + gamma_20))
        upper = (gamma_20 - gamma_10) / 2

    and are returned even when infeasible, with the flag set accordingly.
    """
    _check_exact(gamma_10, gamma_20)
    lower = gamma_10 * np.sqrt(gamma_10 / (2.0 * gamma_10 + gamma_20))
    upper = 0.5 * (gamma_20 - gamma_10)
    return EitWindow(lower=lower, upper=upper, feasible=gamma_20 > 2.0 * gamma_10)
