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
3x3 numpy arrays; the 9x9 Liouvillian acts on their row-major vec, steady
states are its null vectors (one stacked SVD per detuning grid), and time
evolution applies one matrix per distinct sample gap to the vectorized state:
the exact expm(L gap) in rabi_trace, a power of the fixed RK4 step in evolve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

__all__ = [
    "ThreeLevelRates", "DriveConfig", "Trajectory", "NoUniqueSteadyState",
    "PoleAtOrigin", "DegenerateDenominator", "TraceDriftError",
    "WeakProbeWarning", "rotating_frame_hamiltonian", "liouvillian_matrix",
    "evolve", "steady_state", "steady_states", "coherence_rho20_analytic",
    "populations_analytic", "rabi_trace", "validate_density_matrix",
]

WEAK_PROBE_WARN_RATIO = 0.1
TRACE_DRIFT_TOL = 1e-6


class NoUniqueSteadyState(Exception):
    """The Liouvillian null space is empty or has dimension > 1."""


class PoleAtOrigin(Exception):
    """Analytic coherence denominator vanished."""


class DegenerateDenominator(Exception):
    """Steady-state population denominator vanished."""


class TraceDriftError(Exception):
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
    def weak_probe(self) -> bool:
        return self.control == 0.0 or self.probe <= WEAK_PROBE_WARN_RATIO * self.control

    @property
    def max_rate(self) -> float:
        return max(self.control, self.probe, abs(self.detuning))


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix trajectory."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 3, 3)


def _proj(i: int, j: int) -> np.ndarray:
    out = np.zeros((3, 3), dtype=complex)
    out[i, j] = 1.0
    return out


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


def _jump_terms(rates: ThreeLevelRates):
    coefs = (0.5 * rates.relax_10, 0.5 * rates.relax_20, 0.5 * rates.relax_21,
             rates.dephase_00, rates.dephase_11, rates.dephase_22)
    return zip(coefs, (_proj(0, 1), _proj(0, 2), _proj(1, 2),
                       _proj(0, 0), _proj(1, 1), _proj(2, 2)))


def master_equation_rhs(rho: np.ndarray, rates: ThreeLevelRates,
                        drive: DriveConfig) -> np.ndarray:
    """Right-hand side of the master equation for one state."""
    h = rotating_frame_hamiltonian(drive)
    out = -1j * (h @ rho - rho @ h)
    for coef, op in _jump_terms(rates):
        if coef == 0.0:
            continue
        opd = op.conj().T
        out += coef * (2.0 * op @ rho @ opd - opd @ op @ rho - rho @ opd @ op)
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 3x3 matrices (the same products), without its overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(9, 9)


def liouvillian_matrix(rates: ThreeLevelRates, drive: DriveConfig) -> np.ndarray:
    """9x9 superoperator L with L @ vec(rho) = vec(drho/dt) (row-major vec),
    built as vec(A rho B) = (A kron B^T) vec(rho) term by term in the order
    :func:`master_equation_rhs` adds them."""
    h = rotating_frame_hamiltonian(drive)
    eye = np.eye(3)
    liou = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for coef, op in _jump_terms(rates):
        if coef == 0.0:
            continue
        opd_op = op.conj().T @ op
        liou += coef * (2.0 * _kron(op, op.conj()) - _kron(opd_op, eye) - _kron(eye, opd_op.T))
    return liou


def _rk4_stepper(liou: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of d(vec rho)/dt = L vec rho as a 9x9 matrix.

    For the linear autonomous master equation the RK4 update is exactly the
    degree-4 Taylor polynomial of exp(dt L).
    """
    ldt = liou * dt
    stepper = np.eye(9, dtype=complex)
    term = np.eye(9, dtype=complex)
    for order in range(1, 5):
        term = term @ ldt / order
        stepper = stepper + term
    return stepper


def _propagate(vec: np.ndarray, times: np.ndarray, gaps: np.ndarray, propagator,
               hint: str = "") -> np.ndarray:
    """Vectorized states at ``times``, each ``propagator(gap)`` past the last,
    building one propagator per distinct gap; raises :class:`TraceDriftError`
    (message ending in ``hint``) on trace drift beyond ``TRACE_DRIFT_TOL``."""
    distinct, which = np.unique(gaps, return_inverse=True)
    steps = [propagator(gap) for gap in distinct]
    out = np.empty((times.size, 9), dtype=complex)
    for idx, k in enumerate(which):
        vec = steps[k] @ vec
        trace = vec[0] + vec[4] + vec[8]
        drift = abs(trace.real - 1.0) + abs(trace.imag)
        if drift > TRACE_DRIFT_TOL:
            raise TraceDriftError(
                f"trace drifted by {drift:.2e} at t = {times[idx]:.3e} s{hint}")
        out[idx] = vec
    return out


def evolve(rho0: np.ndarray, rates: ThreeLevelRates, drive: DriveConfig,
           duration: float, step: float | None = None,
           sample_stride: int = 1) -> Trajectory:
    """Fixed-step 4th-order (RK4) evolution of rho0 over ``duration`` seconds.

    The default step is 1/(200 * max(rates, drives)).  Samples fall every
    ``sample_stride`` steps (always including start and end), each reached by
    a power of the RK4 step matrix; trace drift beyond ``TRACE_DRIFT_TOL`` at
    any sample raises :class:`TraceDriftError` with a step-size diagnostic.
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
    stepper = _rk4_stepper(liouvillian_matrix(rates, drive), dt)
    marks = np.append(np.arange(sample_stride, n_steps, sample_stride), n_steps)
    vec = np.asarray(rho0, dtype=complex).reshape(9)
    states = _propagate(vec, marks * dt, np.diff(marks, prepend=0),
                        lambda k: np.linalg.matrix_power(stepper, int(k)),
                        f" with step {dt:.3e} s; reduce the step size")
    return Trajectory(times=np.append(0.0, marks * dt),
                      states=np.concatenate([vec[None], states]).reshape(-1, 3, 3))


def steady_states(rates: ThreeLevelRates, drive: DriveConfig, detunings) -> np.ndarray:
    """Unique trace-one solutions (n, 3, 3) of L[rho] = 0 for ``drive`` at each
    of ``detunings`` (rad/s) in place of its own, with L(delta) = L(0) +
    delta L_1 and one stacked SVD; the rank rule is ``scipy.linalg.null_space``
    at rcond 1e-10, retried at 1e-7 when that leaves no null vector.
    """
    if rates.max_rate == 0.0:
        raise NoUniqueSteadyState("all dissipation rates are zero")
    liou_0 = liouvillian_matrix(rates, replace(drive, detuning=0.0))
    liou_1 = liouvillian_matrix(ThreeLevelRates(0.0, 0.0, 0.0), DriveConfig(0.0, 0.0, 1.0))
    detunings = np.asarray(detunings, dtype=float)[:, None, None]
    _, sing, vh = np.linalg.svd(liou_0 + detunings * liou_1)
    null_dim = np.sum(sing <= 1e-10 * sing[:, :1], axis=1)
    # borderline numerical rank; retry with a looser cutoff before failing
    null_dim = np.where(null_dim == 0, np.sum(sing <= 1e-7 * sing[:, :1], axis=1), null_dim)
    if np.any(null_dim == 0):
        raise NoUniqueSteadyState("Liouvillian has numerically empty null space")
    if np.any(null_dim > 1):
        raise NoUniqueSteadyState(f"Liouvillian null space has dimension {null_dim.max()}")
    rho = vh[:, -1].conj().reshape(-1, 3, 3)
    tr = np.trace(rho, axis1=1, axis2=2)
    if np.any(np.abs(tr) < 1e-12):
        raise NoUniqueSteadyState("null vector is traceless")
    rho = rho / tr[:, None, None]
    return 0.5 * (rho + rho.conj().transpose(0, 2, 1))


def steady_state(rates: ThreeLevelRates, drive: DriveConfig) -> np.ndarray:
    """Unique trace-one solution of L[rho] = 0 via null-space extraction."""
    return steady_states(rates, drive, [drive.detuning])[0]


def _warn_if_strong_probe(drive: DriveConfig):
    if drive.control > 0 and not drive.weak_probe:
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
    non-negative), each gap propagated by expm(L gap) built once per distinct
    gap (scaling and squaring, Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31, 970 (2009)).  Trace drift beyond ``TRACE_DRIFT_TOL`` at any sample
    raises :class:`TraceDriftError`.  Intended for damped-sinusoid fitting.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D array with at least two points")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    liou = liouvillian_matrix(rates, DriveConfig(control=0.0, probe=probe, detuning=0.0))
    vec = np.eye(9, dtype=complex)[0]  # vec of |0><0|
    states = _propagate(vec, times, np.diff(times, prepend=0.0),
                        lambda gap: expm(liou * gap))
    return states[:, 8].real  # rho_22 in the row-major vec


def validate_density_matrix(rho: np.ndarray, hermit_tol: float = 1e-12,
                            trace_tol: float = 1e-9,
                            positivity_tol: float = 1e-9) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace, and PSD within tolerance."""
    rho = np.asarray(rho)
    if rho.shape != (3, 3):
        raise ValueError("density matrix must be 3x3")
    scale = max(1.0, float(np.max(np.abs(rho))))
    if np.max(np.abs(rho - rho.conj().T)) > hermit_tol * scale:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError("density matrix trace deviates from 1 beyond tolerance")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -positivity_tol:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
