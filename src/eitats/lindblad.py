"""Driven three-level dynamics under the Born-Markov master equation.

The qutrit (cavity already decoupled dispersively) evolves as

    drho/dt = -i[H, rho] + sum_k c_k D[O_k] rho,
    D[O] rho = 2 O rho O+ - O+ O rho - rho O+ O,

with downward jump operators |0><1|, |0><2|, |1><2| at half the relaxation
rates and pure-dephasing projectors |l><l| at the dephasing rates.  With this
convention the off-diagonal decay rates come out as

    gamma_10 = Gamma_10/2 + dephase_00 + dephase_11
    gamma_20 = (Gamma_20 + Gamma_21)/2 + dephase_00 + dephase_22
    gamma_21 = (Gamma_10 + Gamma_20 + Gamma_21)/2 + dephase_11 + dephase_22

(the last one is needed by the steady-state populations but is fixed by the
same Lindblad algebra).  The rotating frame puts the shared probe/control
detuning delta on levels 1 and 2 and the two drives on the 2-1 and 2-0 bonds.

Everything is angular frequency (rad/s).  Density matrices are plain complex
3x3 numpy arrays; the 9x9 Liouvillian, a weighted sum of fixed unit
superoperators, acts on their row-major vec.  Steady states solve L bordered by
the trace condition (one stacked inverse for a whole detuning grid, or one
matrix at the drive's own detuning), and time evolution
applies the exact propagator exp(L gap), one Pade-13 matrix exponential per
distinct sample gap, to the vectorized state in both evolve and rabi_trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ThreeLevelRates", "DriveConfig", "Trajectory", "NoUniqueSteadyState",
    "PoleAtOrigin", "DegenerateDenominator", "TraceDriftError",
    "WeakProbeWarning", "rotating_frame_hamiltonian", "liouvillian_matrix",
    "evolve", "steady_state", "coherence_rho20_analytic",
    "populations_analytic", "rabi_trace", "validate_density_matrix",
]

WEAK_PROBE_WARN_RATIO = 0.1
TRACE_DRIFT_TOL = 1e-6


class NoUniqueSteadyState(ArithmeticError):
    """No dissipation, or the trace-bordered Liouvillian is (near) singular."""


class PoleAtOrigin(ArithmeticError):
    """Analytic coherence denominator vanished."""


class DegenerateDenominator(ArithmeticError):
    """Steady-state population denominator vanished."""


class TraceDriftError(ArithmeticError):
    """Trace of a propagated state drifted beyond tolerance."""


class WeakProbeWarning(UserWarning):
    """Probe strength outside the weak-probe validity of the analytics."""


@dataclass(frozen=True)
class ThreeLevelRates:
    """Relaxation and pure-dephasing rates (rad/s), all non-negative.

    relax_ij is the population decay rate Gamma_ij of |i> -> |j>; dephase_ll
    the pure dephasing of level l.  Coherence decay rates are derived
    properties, never stored independently.
    """

    relax_10: float
    relax_20: float
    relax_21: float
    dephase_00: float = 0.0
    dephase_11: float = 0.0
    dephase_22: float = 0.0

    def __post_init__(self):
        for name in ("relax_10", "relax_20", "relax_21",
                     "dephase_00", "dephase_11", "dephase_22"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def coherence_10(self) -> float:
        return 0.5 * self.relax_10 + self.dephase_00 + self.dephase_11

    @property
    def coherence_20(self) -> float:
        return 0.5 * (self.relax_20 + self.relax_21) + self.dephase_00 + self.dephase_22

    @property
    def coherence_21(self) -> float:
        return (0.5 * (self.relax_10 + self.relax_20 + self.relax_21)
                + self.dephase_11 + self.dephase_22)

    @property
    def max_rate(self) -> float:
        return max(self.relax_10, self.relax_20, self.relax_21,
                   self.dephase_00, self.dephase_11, self.dephase_22)


@dataclass(frozen=True)
class DriveConfig:
    """Control/probe drive strengths and their shared detuning (rad/s).

    The control is resonant with the 2-1 transition, so the probe and control
    detunings coincide in the rotating frame (a single delta).
    """

    control: float
    probe: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.control < 0 or self.probe < 0:
            raise ValueError("drive strengths must be >= 0")

    @property
    def max_rate(self) -> float:
        return max(self.control, self.probe, abs(self.detuning))


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix trajectory."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 3, 3)


def rotating_frame_hamiltonian(drive: DriveConfig) -> np.ndarray:
    """Qutrit Hamiltonian in the doubly rotating frame (rad/s).

    delta (|1><1| + |2><2|) - (Omega_c |2><1| + Omega_p |2><0| + h.c.);
    the cavity mode is dispersively decoupled and carries no term here.
    """
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = drive.detuning
    h[2, 2] = drive.detuning
    h[2, 1] = h[1, 2] = -drive.control
    h[2, 0] = h[0, 2] = -drive.probe
    return h


def _unit_superoperators() -> np.ndarray:
    """-i[H, .] for unit detuning, control and probe, then D[O] for the jump
    operators |0><1|, |0><2|, |1><2|, |0><0|, |1><1|, |2><2|, via
    vec(A rho B) = (A kron B^T) vec(rho); shape (9, 9, 9)."""
    eye = np.eye(3)
    units = []
    for unit_drive in (DriveConfig(0.0, 0.0, 1.0), DriveConfig(1.0, 0.0), DriveConfig(0.0, 1.0)):
        h = rotating_frame_hamiltonian(unit_drive)
        units.append(-1j * (np.kron(h, eye) - np.kron(eye, h.T)))
    for i, j in ((0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2)):
        op, opd_op = np.zeros((2, 3, 3), dtype=complex)  # O = |i><j|, O+ O = |j><j|
        op[i, j] = opd_op[j, j] = 1.0
        units.append(2.0 * np.kron(op, op.conj()) - np.kron(opd_op, eye) - np.kron(eye, opd_op.T))
    return np.stack(units)


_UNITS = _unit_superoperators()
_TRACE_ROW = np.eye(3).reshape(9)
_MAX_CONDITION = 1e10  # bordered-Liouvillian 1-norm condition that means no unique steady state


def liouvillian_matrix(rates: ThreeLevelRates, drive: DriveConfig) -> np.ndarray:
    """9x9 superoperator L with L @ vec(rho) = vec(drho/dt) (row-major vec):
    the fixed unit superoperators weighted by the drive, plus each nonzero
    jump coefficient times its unit, in the order of the rates' fields."""
    liou = drive.detuning * _UNITS[0] + drive.control * _UNITS[1] + drive.probe * _UNITS[2]
    coefs = (0.5 * rates.relax_10, 0.5 * rates.relax_20, 0.5 * rates.relax_21,
             rates.dephase_00, rates.dephase_11, rates.dephase_22)
    for coef, unit in zip(coefs, _UNITS[3:]):
        if coef != 0.0:
            liou += coef * unit
    return liou


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the degree-13 Pade
# coefficients and the 1-norm up to which that approximant needs no scaling.
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (..., n, n) by scaling and squaring of the
    degree-13 Pade approximant, which stays accurate where a matrix is
    defective, as the Liouvillian is at the EIT-ATS boundary; a non-finite
    matrix gives a non-finite result."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    scaled = (_THETA_13 < norm) & (norm < np.inf)
    squarings = np.ceil(np.log2(np.where(scaled, norm, _THETA_13) / _THETA_13)).astype(int)
    a = a / (2.0**squarings)[..., None, None]
    b, eye = _PADE_13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for squaring in range(squarings.max(initial=0)):
        out = np.where((squaring < squarings)[..., None, None], out @ out, out)
    return out


def _propagate(liou: np.ndarray, vec: np.ndarray, times: np.ndarray,
               gaps: np.ndarray) -> np.ndarray:
    """Vectorized states at ``times``, each exp(L gap) past the last, with one
    propagator per distinct gap.  Raises :class:`TraceDriftError` at the
    first sample whose trace drifts beyond ``TRACE_DRIFT_TOL``; a non-finite
    trace counts as drift."""
    distinct, which = np.unique(gaps, return_inverse=True)
    steps = _expm(liou * distinct[:, None, None])
    out = np.empty((times.size, 9), dtype=complex)
    for idx, k in enumerate(which):
        vec = out[idx] = steps[k] @ vec
    trace = out[:, 0] + out[:, 4] + out[:, 8]
    drift = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    bad = np.flatnonzero(~(drift <= TRACE_DRIFT_TOL))
    if bad.size:
        raise TraceDriftError(
            f"trace drifted by {drift[bad[0]]:.2e} at t = {times[bad[0]]:.3e} s")
    return out


def evolve(rho0: np.ndarray, rates: ThreeLevelRates, drive: DriveConfig,
           duration: float, step: float | None = None,
           sample_stride: int = 1) -> Trajectory:
    """Exact evolution of rho0 over ``duration`` seconds, sampled on a grid.

    ``step`` sets only the sample grid, not the accuracy: the default is
    1/(200 * max(rates, drives)), the duration is split into whole steps, and
    samples fall every ``sample_stride`` steps (always including start and
    end).  Each sample is exp(L gap) applied to the last, so the samples are
    exact to rounding at any step.  Trace drift beyond ``TRACE_DRIFT_TOL`` at
    any sample raises :class:`TraceDriftError`.
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    scale = max(rates.max_rate, drive.max_rate)
    if step is None:
        step = (1.0 / (200.0 * scale)) if scale > 0 else duration / 1000.0
    if step <= 0 or duration < step:
        raise ValueError("need 0 < step <= duration")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")

    n_steps = int(round(duration / step))
    dt = duration / n_steps
    marks = np.append(np.arange(sample_stride, n_steps, sample_stride), n_steps)
    vec = np.asarray(rho0, dtype=complex).reshape(9)
    states = _propagate(liouvillian_matrix(rates, drive), vec, marks * dt,
                        np.diff(marks, prepend=0) * dt)
    return Trajectory(times=np.append(0.0, marks * dt),
                      states=np.concatenate([vec[None], states]).reshape(-1, 3, 3))


def steady_state(rates: ThreeLevelRates, drive: DriveConfig, detunings=None) -> np.ndarray:
    """Unique trace-one solution (3, 3) of L[rho] = 0 at the drive's own
    detuning or, given ``detunings`` (rad/s), the solutions (n, 3, 3) at each
    of them in place of it.  L conserves the trace, so its row 0, minus the
    sum of rows 4 and 8, is replaced by vec(I) times L's largest row 1-norm s;
    rho is column 0 of one stacked inverse, times s (the direct method of
    Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)).  A
    singular or non-finite bordered L, or a 1-norm condition number at or
    above ``_MAX_CONDITION``, raises :class:`NoUniqueSteadyState`.
    """
    if rates.max_rate == 0.0:
        raise NoUniqueSteadyState("all dissipation rates are zero")
    grid = np.asarray(drive.detuning if detunings is None else detunings, dtype=float)
    bordered = (liouvillian_matrix(rates, replace(drive, detuning=0.0))
                + grid.reshape(-1, 1, 1) * _UNITS[0])
    scale = np.abs(bordered).sum(axis=2).max(axis=1)
    bordered[:, 0] = scale[:, None] * _TRACE_ROW
    try:
        inverse = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        raise NoUniqueSteadyState("bordered Liouvillian is singular") from None
    cond = np.abs(bordered).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    if not np.all(cond < _MAX_CONDITION):
        raise NoUniqueSteadyState(
            f"bordered Liouvillian has 1-norm condition number {np.max(cond):.2e}")
    rho = (inverse[:, :, 0] * scale[:, None]).reshape(grid.shape + (3, 3))
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


def _warn_if_strong_probe(drive: DriveConfig):
    if drive.probe > WEAK_PROBE_WARN_RATIO * drive.control > 0:
        warnings.warn(
            f"probe/control = {drive.probe / drive.control:.3g} exceeds the "
            f"weak-probe ratio {WEAK_PROBE_WARN_RATIO}; analytic steady-state "
            "expressions are first order in the probe",
            WeakProbeWarning,
            stacklevel=3,
        )


def coherence_rho20_analytic(rates: ThreeLevelRates, drive: DriveConfig) -> complex:
    """Closed-form steady-state rho_20 to first order in the probe.

    rho_20 = Omega_p / (delta - i gamma_20 - Omega_c^2 / (delta - i gamma_10)).
    """
    _warn_if_strong_probe(drive)
    g10, g20 = rates.coherence_10, rates.coherence_20
    inner = drive.detuning - 1j * g10
    if drive.control > 0 and abs(inner) < 1e-30:
        raise PoleAtOrigin("detuning and gamma_10 both vanish under a control drive")
    den = drive.detuning - 1j * g20
    if drive.control > 0:
        den = den - drive.control**2 / inner
    if abs(den) < 1e-30:
        raise PoleAtOrigin("coherence denominator vanished")
    return drive.probe / den


def populations_analytic(rates: ThreeLevelRates, drive: DriveConfig,
                         im_rho20: float) -> tuple[float, float]:
    """Steady-state (rho_11, rho_22) to leading order in the probe.

    Eliminating the 2-1 coherence from the stationary population equations
    gives a 2x2 linear system driven by the probe pump P = 2 Omega_p Im(rho_20)
    and by the control-probe cross term S routed through gamma_21:

        rho_11 = [P (W + Gamma_21) - S Gamma_20] / D
        rho_22 = [P (W + Gamma_10) + S Gamma_10] / D
        W = 2 Omega_c^2 / gamma_21
        D = W (Gamma_10 + Gamma_20) + Gamma_10 (Gamma_20 + Gamma_21)
        S = P * (Omega_c^2 / gamma_21) * (delta^2 - gamma_10 gamma_20 - Omega_c^2)
              / (gamma_20 (delta^2 + gamma_10^2) + Omega_c^2 gamma_10)

    where the S ratio follows from the closed-form coherence.  The lambda
    (Gamma_10 = 0) configuration is supported whenever the control drive keeps
    D nonzero.  Validated against the Liouvillian null-space solution.
    """
    _warn_if_strong_probe(drive)
    g10, g20, g21 = rates.coherence_10, rates.coherence_20, rates.coherence_21
    r10, r20, r21 = rates.relax_10, rates.relax_20, rates.relax_21
    oc, op, det = drive.control, drive.probe, drive.detuning

    pump = 2.0 * op * im_rho20
    if oc > 0 and g21 == 0:
        raise DegenerateDenominator("gamma_21 vanished under a control drive")
    w = 2.0 * oc**2 / g21 if oc > 0 else 0.0
    denom = w * (r10 + r20) + r10 * (r20 + r21)
    if denom <= 0:
        raise DegenerateDenominator(
            "population denominator vanished (no decay path to the ground state)"
        )
    if oc > 0:
        kden = g20 * (det**2 + g10**2) + oc**2 * g10
        cross = pump * (oc**2 / g21) * (det**2 - g10 * g20 - oc**2) / kden
    else:
        cross = 0.0
    rho11 = (pump * (w + r21) - cross * r20) / denom
    rho22 = (pump * (w + r10) + cross * r10) / denom
    return rho11, rho22


def rabi_trace(rates: ThreeLevelRates, probe: float, times) -> np.ndarray:
    """Excited-state population rho_22(t) under a resonant 0-2 probe drive.

    The control channel is off; the trace starts from the ground state at
    t = 0 and is returned at exactly the requested times (strictly increasing,
    non-negative), each gap propagated by exp(L gap) built once per distinct
    gap.  Trace drift beyond ``TRACE_DRIFT_TOL`` at any sample, or a
    non-finite trace, raises :class:`TraceDriftError`.  Intended for
    damped-sinusoid fitting.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D array with at least two points")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    liou = liouvillian_matrix(rates, DriveConfig(control=0.0, probe=probe, detuning=0.0))
    vec = np.eye(9, dtype=complex)[0]  # vec of |0><0|
    states = _propagate(liou, vec, times, np.diff(times, prepend=0.0))
    return states[:, 8].real  # rho_22 in the row-major vec


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian (to 1e-12 relative), of unit
    trace (to 1e-9) and positive semidefinite (to -1e-9)."""
    rho = np.asarray(rho)
    if rho.shape != (3, 3):
        raise ValueError("density matrix must be 3x3")
    scale = max(1.0, float(np.max(np.abs(rho))))
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * scale:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("density matrix trace deviates from 1 beyond tolerance")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -1e-9:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
