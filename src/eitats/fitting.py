"""Separable least-squares fitting of spectra and time traces.

Every model family is linear in its amplitudes and offsets once its one or
two nonlinear parameters (control strength, widths, center, splitting, decay
time, period) are fixed.  Each fit is therefore a variable projection (Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): the linear coefficients come
from a closed-form least-squares solve, non-negative where the model needs
it; the best point of a fixed coarse grid over the nonlinear parameters is
the start; and :func:`nlls_minimize` (Levenberg-Marquardt damped Gauss-Newton
with a central-difference Jacobian) polishes only the nonlinear parameters,
positive ones in log coordinates.  Identical inputs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .spectra import ExactModelParams, tprime_exact

__all__ = [
    "Dataset", "FitResult", "SingularJacobian", "nlls_minimize",
    "fit_exact_tprime_auto", "fit_eit_model", "fit_ats_model", "fit_lorentzian",
    "fit_damped_sinusoid", "lorentzian_curve", "damped_sinusoid_curve",
]

MAX_ITERATIONS = 500
FTOL = 1e-12
GTOL = 1e-10
FD_REL_STEP = 1e-6
LOW_SIGNAL_FRACTION = 1e-4
# Smallest relative width split gamma_plus/gamma_minus - 1 of the difference
# form.  Above the window the best fit tends to coincident widths, which the
# amplitudes can only follow by diverging; the residual is quadratic in the
# split there, so at this floor it is within ~1e-12 (relative) of that limit.
MIN_SPLIT = 1e-6


def _exp(u):
    """exp for log-space fit parameters, clipped against over/underflow."""
    return np.exp(np.clip(u, -700.0, 700.0))


class SingularJacobian(Exception):
    """Normal equations are singular; the fit cannot proceed."""


@dataclass(frozen=True)
class Dataset:
    """Fit data: finite values on a strictly increasing abscissa."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must be finite (no NaN or inf)")
        if x.size >= 2 and np.any(np.diff(x) <= 0):
            raise ValueError("x must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.x.size


@dataclass(frozen=True)
class FitResult:
    """Converged (or best-so-far) parameters and bookkeeping for AIC use."""

    parameters: dict
    residual_sum: float
    n_points: int
    n_params: int
    converged: bool
    iterations: int
    warnings: tuple = field(default_factory=tuple)


def _check_size(data: Dataset, n_params: int):
    if len(data) < n_params + 1:
        raise ValueError(f"need at least {n_params + 1} points to fit {n_params} parameters")


def nlls_minimize(model, data: Dataset, init, *,
                  max_iterations: int = MAX_ITERATIONS) -> FitResult:
    """Minimize sum of squared residuals of ``model(x, p)`` against the data.

    Levenberg-Marquardt damping on the Gauss-Newton normal equations with a
    numerically differenced (central) Jacobian.  Convergence is declared on a
    relative residual improvement below ``FTOL``, on a scale-free gradient
    norm (the largest cosine between the residual and a Jacobian column)
    below ``GTOL``, or on reaching a point no damped step can improve;
    hitting ``max_iterations`` instead returns the best point found with
    ``converged=False``.  A model insensitive to every parameter at the start
    raises :class:`SingularJacobian`; one that becomes so after accepted steps
    has reached a stationary point.  Parameters are reported as ``p0, p1, ...``.
    """
    p = np.array(init, dtype=float)
    n_par = p.size
    _check_size(data, n_par)

    def residual(params):
        # exploratory steps may overflow; non-finite trials are rejected
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = data.y - model(data.x, params)
            rss_val = float(r @ r)
        return (r, rss_val) if np.isfinite(rss_val) else None

    start = residual(p)
    if start is None:
        raise ValueError("model is not finite at the initial parameters")
    r, rss = start
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = np.empty((len(data), n_par))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(n_par):
                h = FD_REL_STEP * max(abs(p[k]), 1.0)
                shift = np.zeros(n_par)
                shift[k] = h
                jac[:, k] = (model(data.x, p + shift) - model(data.x, p - shift)) / (2.0 * h)
        if not np.all(np.isfinite(jac)):
            raise SingularJacobian("Jacobian is not finite")

        grad = jac.T @ r
        col_norms = np.sqrt(np.einsum("ij,ij->j", jac, jac))
        active = col_norms > 0.0
        if iterations == 1 and not np.any(active):
            raise SingularJacobian("model is insensitive to every parameter")
        # an exact fit, a model that progress has flattened, or a scale-free
        # gradient (cosine between residual and columns) below GTOL
        r_norm = np.sqrt(rss)
        if (r_norm == 0.0 or not np.any(active)
                or np.max(np.abs(grad[active]) / (col_norms[active] * r_norm)) < GTOL):
            converged = True
            break

        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        # a parameter the model is momentarily blind to (zero column, e.g. a
        # splitting sitting exactly at zero) is frozen by full damping rather
        # than treated as a failure
        diag[diag <= 0.0] = np.max(diag)

        accepted = False
        saw_finite_trial = False
        while lam < 1e15:
            try:
                p_try = p + np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(str(exc)) from exc
            trial = residual(p_try)
            if trial is not None:
                saw_finite_trial = True
                r_try, rss_try = trial
                if rss_try < rss:
                    converged = rss - rss_try <= FTOL * max(rss_try, 1e-300)
                    p, r, rss = p_try, r_try, rss_try
                    lam = max(lam * 0.1, 1e-14)
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
            # no damping level improves the residual: a numerical stationary
            # point when the landscape stayed finite, a failure otherwise
            converged = saw_finite_trial
            break
        if converged:
            break

    return FitResult(
        parameters={f"p{k}": float(val) for k, val in enumerate(p)},
        residual_sum=rss,
        n_points=len(data),
        n_params=n_par,
        converged=converged,
        iterations=iterations,
    )


# --- the separable core: closed-form linear solves, grid start, polish ---

def _require_variance(data: Dataset):
    if np.max(data.y) - np.min(data.y) <= 0.0:
        raise SingularJacobian("data has zero variance; nothing to fit")


def _lstsq(columns, data: Dataset):
    """Unconstrained best coefficients of ``columns`` and the curve they give.

    Columns that overflowed on an exploratory step give a NaN curve, which
    the minimizer rejects like any other non-finite trial.
    """
    basis = np.array(columns, dtype=float, ndmin=2)
    if not np.all(np.isfinite(basis)):
        return np.full(basis.shape[0], np.nan), np.full(basis.shape[1], np.nan)
    # unit-norm columns: the rank cutoff is relative, and the columns of one
    # basis can differ in scale by many orders of magnitude
    norms = np.sqrt(np.einsum("ij,ij->i", basis, basis))
    norms[norms == 0.0] = 1.0
    try:
        coef = np.linalg.lstsq(basis.T / norms, data.y, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"linear solve failed: {exc}") from exc
    coef = coef / norms
    return coef, coef @ basis


def _nonneg(column, data: Dataset):
    """Best non-negative multiple of one column (one-column NNLS)."""
    (c,), curve = _lstsq([column], data)
    return (float(c), curve) if not c < 0.0 else (0.0, np.zeros_like(curve))


def _rss(curve, data: Dataset) -> float:
    r = data.y - curve
    value = float(r @ r)
    return value if np.isfinite(value) else np.inf


def _separable_fit(data: Dataset, project, starts, signal: str | None = None) -> FitResult:
    """Variable-projection fit over the nonlinear parameters ``u``.

    ``project(u)`` returns the named parameters - ``u`` mapped to the model's
    own and the closed-form linear ones at ``u`` - and the curve they give.
    The polish starts from the grid point in ``starts`` with the lowest
    residual.  A parameter named ``signal`` below the low-signal floor flags
    the fit ``low_signal``; a start already below it is returned unpolished,
    because its curve does not depend on ``u``.
    """
    u = min((np.asarray(s, dtype=float) for s in starts), key=lambda s: _rss(project(s)[1], data))
    params, curve = project(u)
    _check_size(data, len(params))
    floor = LOW_SIGNAL_FRACTION * max(float(np.max(np.abs(data.y))), 1e-300)
    if signal is not None and params[signal] < floor:
        converged, iterations = True, 0
    else:
        res = nlls_minimize(lambda x, v: project(v)[1], data, u)
        params, curve = project(np.array(list(res.parameters.values())))
        converged, iterations = res.converged, res.iterations
    low = signal is not None and params[signal] < floor
    return FitResult(parameters=params, residual_sum=_rss(curve, data), n_points=len(data),
                     n_params=len(params), converged=converged, iterations=iterations,
                     warnings=("low_signal",) if low else ())


def fit_exact_tprime_auto(data: Dataset, gamma_10: float, gamma_20: float,
                          control_hint: float | None = None) -> FitResult:
    """Fit the exact curve with fixed coherence rates; k = 2 parameters.

    The control strength is nonlinear and the combined overall amplitude
    (A * Omega_p) linear.  The residual in the control strength is
    multimodal once the doublet splits, so the start is the best of a fixed
    geometric grid of controls, plus ``control_hint`` when given.
    """
    _require_variance(data)

    def project(u):
        control = _exp(u[0])
        amplitude, curve = _nonneg(tprime_exact(data.x, ExactModelParams(
            amplitude=1.0, probe=1.0, control=control,
            gamma_10=gamma_10, gamma_20=gamma_20)), data)
        return {"control": float(control), "amplitude": amplitude}, curve

    controls = list(np.geomspace(0.02, 3.2, 25) * max(gamma_20, -data.x[0], data.x[-1]))
    if control_hint is not None and control_hint > 0:
        controls.append(control_hint)
    return _separable_fit(data, project, np.log(controls)[:, None], signal="amplitude")


def fit_eit_model(data: Dataset) -> FitResult:
    """Fit the difference-of-Lorentzians form; k = 4 parameters.

    The widths are searched as the logs of their geometric mean and of their
    relative split gamma_plus/gamma_minus - 1, floored at ``MIN_SPLIT``.  At
    fixed widths the amplitudes solve a two-column non-negative least-squares
    problem, written in the divided-difference basis {1/(x^2+gp^2),
    1/((x^2+gp^2)(x^2+gm^2))} that stays well conditioned as the widths
    coincide.  The fitted curve may go negative when forced onto
    doublet-regime data, which is reported as-is rather than clamped.
    """
    _require_variance(data)
    x2 = data.x**2

    def project(u):
        mean, split = _exp(u[0]), max(_exp(u[1]), MIN_SPLIT)
        gp, gm = mean * np.sqrt(1.0 + split), mean / np.sqrt(1.0 + split)
        broad, narrow = 1.0 / (x2 + gp**2), 1.0 / (x2 + gm**2)
        (a, b), curve = _lstsq([broad, broad * narrow], data)
        cp, cm = a - b / (gm * split * (gp + gm)), -b / (gm * split * (gp + gm))
        if not (cp >= 0.0 and cm >= 0.0):
            # the constrained optimum lies on an edge of the non-negative quadrant
            (cp, broad_curve), (cm, narrow_curve) = _nonneg(broad, data), _nonneg(-narrow, data)
            if _rss(broad_curve, data) <= _rss(narrow_curve, data):
                cm, curve = 0.0, broad_curve
            else:
                cp, curve = 0.0, narrow_curve
        return {"cplus_sq": float(cp), "cminus_sq": float(cm),
                "gamma_plus": float(gp), "gamma_minus": float(gm)}, curve

    span = max(-data.x[0], data.x[-1])
    starts = [[0.5 * np.log(gp * gm), np.log(gp / gm - 1.0)]
              for gp in np.geomspace(span / 25.0, 1.2 * span, 10)
              for gm in np.geomspace(span / 120.0, 0.6 * span, 10) if gm < gp]
    return _separable_fit(data, project, starts)


def fit_ats_model(data: Dataset) -> FitResult:
    """Fit the shifted-doublet form; k = 3 parameters.

    The width is searched in log coordinates and the half-splitting linearly
    (as |.|) so it can reach 0; the common amplitude is a one-column
    non-negative least-squares solve.
    """
    _require_variance(data)

    def project(u):
        gamma, d0 = _exp(u[0]), abs(u[1])
        c_sq, curve = _nonneg(1.0 / ((data.x - d0) ** 2 + gamma**2)
                              + 1.0 / ((data.x + d0) ** 2 + gamma**2), data)
        return {"c_sq": c_sq, "gamma": float(gamma), "delta_0": float(d0)}, curve

    span = max(-data.x[0], data.x[-1])
    starts = [[np.log(gamma), d0] for d0 in np.linspace(0.0, 0.9 * span, 10)
              for gamma in np.geomspace(span / 60.0, span, 8)]
    return _separable_fit(data, project, starts)


def lorentzian_curve(x, center, half_width, amplitude, offset=0.0):
    x = np.asarray(x, dtype=float)
    return offset + amplitude * half_width**2 / ((x - center) ** 2 + half_width**2)


def fit_lorentzian(data: Dataset) -> FitResult:
    """Peak fit: center, half-width, amplitude (>= 0), plus a constant offset.

    Near-zero fitted amplitude is flagged ``low_signal`` instead of being
    treated as a successful peak.
    """
    x = data.x
    ones = np.ones_like(x)

    def project(u):
        half_width = _exp(u[1])
        (amplitude, offset), curve = _lstsq(
            [lorentzian_curve(x, u[0], half_width, 1.0), ones], data)
        if amplitude < 0.0:
            amplitude, ((offset,), curve) = 0.0, _lstsq([ones], data)
        return {"center": float(u[0]), "half_width": float(half_width),
                "amplitude": float(amplitude), "offset": float(offset)}, curve

    starts = [[center, np.log(hw)] for center in np.linspace(x[0], x[-1], 41)
              for hw in np.geomspace(float(np.min(np.diff(x))), x[-1] - x[0], 10)]
    return _separable_fit(data, project, starts, signal="amplitude")


def damped_sinusoid_curve(t, offset, amplitude, decay_time, period, phase):
    t = np.asarray(t, dtype=float)
    return offset + amplitude * np.exp(-t / decay_time) * np.cos(2.0 * np.pi * t / period + phase)


def fit_damped_sinusoid(data: Dataset) -> FitResult:
    """Fit offset + amplitude * exp(-t/decay_time) * cos(2 pi t/period + phase).

    Decay time and period are searched in log coordinates, held inside
    physically resolvable ranges (past a limit the model stops changing),
    from a grid of periods half a cycle per trace apart up to the sampling
    limit.  The amplitude is reported non-negative with the phase in
    (-pi, pi].  A decay time or period that ends on one of those limits is
    no measurement of it, and flags the fit ``at_limit``.
    """
    t = data.x
    span = t[-1] - t[0]
    min_dt = float(np.min(np.diff(t)))
    ones = np.ones_like(t)
    lo = np.log([0.05 * min_dt, 1.9 * min_dt])
    hi = np.log([1e8 * span, 20.0 * span])

    def project(u):
        decay, period = np.exp(np.clip(u, lo, hi))
        envelope, arg = np.exp(-t / decay), 2.0 * np.pi * t / period
        (offset, a_cos, a_sin), curve = _lstsq(
            [ones, envelope * np.cos(arg), -envelope * np.sin(arg)], data)
        return {"offset": float(offset), "amplitude": float(np.hypot(a_cos, a_sin)),
                "decay_time": float(decay), "period": float(period),
                "phase": float(np.arctan2(a_sin, a_cos))}, curve

    cycles = np.arange(0.5, 0.5 * span / min_dt + 0.25, 0.5)
    starts = [[np.log(decay), np.log(span / n)] for n in cycles
              for decay in span * np.array([0.05, 0.3, 1.0])]
    fit = _separable_fit(data, project, starts, signal="amplitude")
    # project() returns exactly exp(lo) or exp(hi) for a clipped polish
    decay_period = np.array([fit.parameters["decay_time"], fit.parameters["period"]])
    if np.any(decay_period <= np.exp(lo)) or np.any(decay_period >= np.exp(hi)):
        fit = replace(fit, warnings=fit.warnings + ("at_limit",))
    return fit
