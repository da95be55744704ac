"""Separable least-squares fitting of spectra and time traces, in stacks.

Every model family is linear in its amplitudes and offsets once its one or
two nonlinear parameters (control strength, widths, splitting, decay time,
period) are fixed.  Each fit is therefore a variable projection (Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): the linear coefficients come
from a closed-form least-squares solve of one or two columns (two unit
columns have a closed-form SVD; the damped sinusoid's constant column is
eliminated by centering), non-negative where the model needs it; the best of
a fixed coarse grid over the nonlinear parameters (plus, for a trace, the
poles of a matrix pencil) is the start; and :func:`nlls_minimize`
(Levenberg-Marquardt with a central-difference Jacobian and the damping update
of Nielsen, 1999) polishes only the nonlinear parameters, positive ones in log
coordinates, until the relative offset of Bates & Watts (Technometrics 23, 179
(1981)) puts the fit within a thousandth of its own confidence radius.

A :class:`Dataset` holds one curve or a ``(cells, points)`` stack, fitted in
one pass: projections broadcast, so grid starts are scored against all cells
at once, and one flat minimizer loop (over both reduced forms' cells in
:func:`fit_reduced_forms`) gives each iterating cell one trial point per model
call.  Rows meet only in per-row ``einsum`` reductions, elementwise operations
and stacked solves, so each cell's fit is bit-identical to its curve's alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .spectra import _tprime

__all__ = ["Dataset", "FitResult", "FitBatch", "SingularJacobian", "nlls_minimize",
           "fit_exact_tprime_auto", "fit_eit_model", "fit_ats_model", "fit_reduced_forms",
           "fit_damped_sinusoid", "damped_sinusoid_curve"]

MAX_ITERATIONS = 500
FTOL = 1e-12
RO_TOL = 1e-3
FD_REL_STEP = 1e-6
LOW_SIGNAL_FRACTION = 1e-4
# grid starts are scored this many curve values per ``project`` call at most
START_BLOCK = 1 << 14
# Smallest relative width split gamma_plus/gamma_minus - 1 of the difference
# form.  Above the window the best fit tends to coincident widths, which the
# amplitudes can only follow by diverging; the residual is quadratic in the
# split there, so at this floor it is within ~1e-12 (relative) of that limit.
MIN_SPLIT = 1e-6
_SIGNS = np.array([1.0, -1.0])


def _exp(u):
    """exp for log-space fit parameters, clipped against over/underflow."""
    return np.exp(np.minimum(np.maximum(u, -700.0), 700.0))


class SingularJacobian(ArithmeticError):
    """Normal equations are singular; the fit cannot proceed."""


@dataclass(frozen=True)
class Dataset:
    """A sampled curve, or a ``(cells, points)`` stack of them, on one strictly
    increasing abscissa, with finite values: detunings in rad/s for spectra,
    times in ns for traces.  The CSV readers, the synthesizer and every fit
    share this type."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1:] != x.shape:
            raise ValueError("x must be 1-D and y of shape (points,) or (cells, points)")
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


class FitBatch(tuple):
    """A stack's fits: per cell a :class:`FitResult`, or the exception its fit
    raised.  ``iterations`` is the most any cell took; ``converged``, all did."""

    iterations = property(lambda self: max(
        (c.iterations for c in self if isinstance(c, FitResult)), default=0))
    converged = property(lambda self: all(isinstance(c, FitResult) and c.converged for c in self))


def _check_size(data: Dataset, n_params: int):
    if len(data) < n_params + 1:
        raise ValueError(f"need at least {n_params + 1} points to fit {n_params} parameters")


def _unstack(data: Dataset, cells: list):
    """A :class:`FitBatch` for a stack; for one curve its result, or its raise."""
    if data.y.ndim == 1 and isinstance(cells[0], Exception):
        raise cells[0]
    return FitBatch(cells) if data.y.ndim == 2 else cells[0]


def _solve(m, b):
    """Stacked solve of ``m x = b``, and which systems are singular (NaN rows)."""
    try:
        return np.linalg.solve(m, b[..., None])[..., 0], np.zeros(len(b), dtype=bool)
    except np.linalg.LinAlgError:  # an exact zero pivot, which det finds too
        singular = np.linalg.det(m) == 0.0
        m = np.where(singular[:, None, None], np.eye(b.shape[1]), m)
        step = np.linalg.solve(m, b[..., None])[..., 0]
        return np.where(singular[:, None], np.nan, step), singular


def nlls_minimize(model, data: Dataset, init) -> FitResult | FitBatch:
    """Minimize sum of squared residuals of ``model(x, p)`` against the data.

    Levenberg-Marquardt damping on the Gauss-Newton normal equations with a
    numerically differenced (central) Jacobian.  A rejected trial raises the
    damping tenfold; an accepted one scales it by max(0.1, 1 - (2 rho - 1)^3),
    rho its gain ratio of actual to predicted reduction, a non-finite rho
    counting as full (Nielsen 1999; Madsen, Nielsen & Tingleff 2004).  The
    start and every trial point are evaluated with their own 2n
    central-difference shifts in one model call, so an accepted trial brings
    the next iteration's Jacobian, bit for bit.  Convergence is declared once
    the relative offset of Bates & Watts (Technometrics 23, 179 (1981)),
    sqrt(t/n) / sqrt((f - t)/(N - n)) with t = g^T (J^T J)^-1 g over the n
    active parameters, is below ``RO_TOL``: no further step can move a
    parameter by more than that fraction of its confidence radius.  Noiseless
    fits, where the offset is rounding noise, stop on an exact fit, on a
    relative residual improvement below ``FTOL``, or on reaching a point no
    damped step can improve.  Hitting ``MAX_ITERATIONS`` returns the best
    point found with ``converged=False``.  A model insensitive to every
    parameter at the start raises :class:`SingularJacobian`; one that becomes
    so after accepted steps has reached a stationary point.  Parameters are
    reported as ``p0, p1, ...``.

    For a stack, ``init`` is ``(cells, n)`` and ``model(x, p, rows)`` gives the
    curves of the cells ``rows`` (which may repeat) at the parameters ``p``.
    In one flat loop, each cell still iterating makes one trial per model call
    and starts its next iteration as soon as a trial is accepted.
    """
    p = np.array(init, dtype=float, ndmin=2)
    cells, n_par = p.shape
    _check_size(data, n_par)
    if data.y.ndim == 1:
        model = (lambda one: lambda x, q, rows: np.array([one(x, qi) for qi in q]))(model)
    x, y = data.x, data.y.reshape(cells, -1)
    errors, eye, copies = {}, np.eye(n_par), 1 + 2 * n_par
    shifts = np.array([sign * eye[k] for k in range(n_par) for sign in (1, -1)])[:, None]
    converged, iterations = np.zeros(cells, bool), np.zeros(cells, int)

    def evaluate(params, rows):
        """Residuals, their squared norms and the parameter-major ``(n, rows,
        points)`` central-difference Jacobian at ``params``, in one model call."""
        h = FD_REL_STEP * np.maximum(np.abs(params), 1.0)
        points = np.concatenate([params[None], params + shifts * h]).reshape(-1, n_par)
        curves = model(x, points, np.concatenate([rows] * copies)).reshape(copies, rows.size, -1)
        r = y[rows] - curves[0]
        plus, minus = curves[1:].reshape(n_par, 2, rows.size, -1).transpose(1, 0, 2, 3)
        return r, np.einsum("cp,cp->c", r, r), (plus - minus) / (2.0 * h.T[:, :, None])

    def fail(rows, message, kind=SingularJacobian):
        errors.update(dict.fromkeys(rows.tolist(), kind(message)))

    # exploratory steps may overflow; non-finite trials are rejected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, rss, jac = evaluate(p, np.arange(cells))
        finite = np.isfinite(rss)
        fail(np.flatnonzero(~finite), "model is not finite at the initial parameters", ValueError)
        # q, f, lam, ...: the point, residual, damping, ... of each cell in ``rows``
        rows = np.flatnonzero(finite)
        q, f, lam = p[rows], rss[rows], np.full(rows.size, 1e-3)
        finite_seen, leave = np.zeros((2, rows.size), bool)
        grad, jtj, damping = np.empty((rows.size, n_par)), *np.empty((2, rows.size, n_par, n_par))
        at, r, jac = np.arange(rows.size), r[rows], jac[:, rows].transpose(1, 2, 0)
        while True:
            if at.size:  # the rows ``at`` start an iteration
                cell = rows[at]
                iterations[cell] += 1
                ok = np.isfinite(jac).all(axis=(1, 2))
                if not ok.all():
                    fail(cell[~ok], "Jacobian is not finite")
                g = np.einsum("cpk,cp->ck", jac, r)
                jtj[at] = normal = np.einsum("cpk,cpl->ckl", jac, jac)
                diag = np.diagonal(normal, axis1=1, axis2=2)
                active = diag > 0.0
                blind = ~active.any(axis=1)
                insensitive = ok & blind & (iterations[cell] == 1)  # at the start point only
                if insensitive.any():
                    fail(cell[insensitive], "model is insensitive to every parameter")
                    ok &= ~insensitive
                # an exact fit, a model that progress has flattened, or a relative offset
                # below RO_TOL over the active columns (a singular block gives NaN: no verdict)
                t = np.einsum("ck,ck->c", g, _solve(normal + eye * ~active[:, None], g)[0])
                dof = active.sum(axis=1)
                offset = np.sqrt(t / dof / ((f[at] - t) / (len(x) - dof)))
                done = ok & ((f[at] == 0.0) | blind | (offset < RO_TOL))
                converged[cell], leave[at], grad[at], finite_seen[at] = done, done | ~ok, g, False
                # a parameter the model is momentarily blind to (zero column, e.g. a
                # splitting at exactly zero) is frozen by full damping, not failed
                damping[at] = eye * np.where(diag > 0.0, diag, diag.max(1, keepdims=True))[:, None]
            if leave.any():  # report the rows that stop, and drop them
                p[rows[leave]], rss[rows[leave]], stay = q[leave], f[leave], ~leave
                rows, q, f, lam, finite_seen, grad, jtj, damping = (a[stay] for a in (
                    rows, q, f, lam, finite_seen, grad, jtj, damping))
            if not rows.size:
                break
            step, singular = _solve(jtj + lam[:, None, None] * damping, grad)
            if singular.any():
                fail(rows[singular], "normal equations are singular")
            q_try = q + step
            r, f_try, jac = evaluate(q_try, rows)
            finite_seen |= np.isfinite(f_try)
            better = f_try < f
            # no damping level improves the residual: a numerical stationary
            # point when the landscape stayed finite, a failure otherwise
            stop = np.where(better, f - f_try <= FTOL * np.maximum(f_try, 1e-300), finite_seen)
            # the gain ratio rho of an accepted step: lam falls tenfold from rho = 0.98 up
            gain = (f - f_try) / np.einsum("ck,ck->c", step, grad + lam[:, None] * np.diagonal(
                damping, axis1=1, axis2=2) * step)
            cut = np.fmax(0.1, 1.0 - (2.0 * gain - 1.0) ** 3)
            converged[rows], q[better], f[better] = stop, q_try[better], f_try[better]
            lam = np.where(better, np.maximum(lam * cut, 1e-14), lam * 10.0)
            go_on = better & ~stop & ~singular & (iterations[rows] < MAX_ITERATIONS)
            leave = (better | (lam >= 1e15) | singular) & ~go_on
            at, r, jac = np.flatnonzero(go_on), r[go_on], jac[:, go_on].transpose(1, 2, 0)
    return _unstack(data, [errors.get(c) or FitResult(
        {f"p{k}": float(v) for k, v in enumerate(p[c])}, float(rss[c]), len(data), n_par,
        bool(converged[c]), int(iterations[c])) for c in range(cells)])


# --- the separable core: closed-form linear solves, grid start, polish ---

def _lstsq(basis, y, nonneg=False):
    """Best coefficients of a ``(..., columns, points)`` basis of one or two
    columns for ``y`` (broadcast with it), and their curves, in closed form.

    As ``np.linalg.lstsq(rcond=None)`` on unit-norm columns: the columns can
    differ in scale by many orders of magnitude, a term is dropped where its
    singular value is at most eps * max(columns, points) times the largest,
    and a zero column is dropped, leaving the other one's solve.  An
    overflowed basis gives a NaN curve, rejected like any non-finite trial.
    ``nonneg`` makes a one-column solve the one-column NNLS.
    """
    sq = np.einsum("...np,...np->...n", basis, basis)
    if basis.shape[-2] == 1:  # the cutoff only drops a zero column; inf gives NaN
        coef = np.einsum("...np,...p->...n", basis, y) / np.where(sq > 0.0, sq, np.inf)
        coef = np.where(coef < 0.0, 0.0, coef) if nonneg else coef
    else:
        coef = _two_column_solve(basis, y, sq)
    return coef, np.einsum("...n,...np->...p", coef, basis)


def _two_column_solve(basis, y, sq):
    """Coefficients of two columns with squared norms ``sq``, by the closed-form
    SVD of their unit-norm versions a, b.

    Its right singular vectors are (1, +-1)/sqrt(2) and its singular values
    |a +- b|/sqrt(2), so the solve is alpha (1, 1) + beta (1, -1), with alpha
    and beta the coefficients of a + b and a - b.  These difference vectors keep
    near-parallel columns accurate.  b is negated where a.b < 0, so that a + b
    is the larger.  As |a| and |b| are one only to rounding, a - b is taken
    orthogonal to a + b before projecting (else its error would grow with the
    squared condition number), and its term is dropped where its singular
    value is at most eps * max(2, points) times that of a + b.
    """
    scale = np.sqrt(np.where(sq > 0.0, sq, 1.0))
    a, b = basis[..., 0, :], basis[..., 1, :]
    scale[..., 1] = np.copysign(scale[..., 1], np.einsum("...p,...p->...", a, b))
    # a zero or a non-finite column makes NaN here, replaced or kept below
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = a / scale[..., :1], b / scale[..., 1:]
        plus, minus = a + b, a - b
        pp, mm, cross, py, my = (np.einsum("...p,...p->...", u, v) for u, v in (
            (plus, plus), (minus, minus), (plus, minus), (plus, y), (minus, y)))
        g = cross / pp
        mm = mm - g * cross
        kept = mm > (np.finfo(float).eps * max(basis.shape[-2:])) ** 2 * pp
        beta = np.where(kept, (my - g * py) / mm, 0.0)
        pair = ((py / pp - g * beta)[..., None] + beta[..., None] * _SIGNS) / scale
    return np.where(sq == 0.0, 0.0, pair)


def _rss(curve, y):
    value = np.einsum("...p,...p->...", y - curve, y - curve)
    return np.where(np.isfinite(value), value, np.inf)


def _separable_fit(data: Dataset, families) -> list:
    """Variable-projection fits over the nonlinear parameters ``u``, per cell:
    one result per ``(project, starts)`` family, all with one count of ``u``.

    ``project(u, y)`` maps ``(..., n_u)`` parameters and ``(..., points)`` data,
    broadcast together, to the named parameters (``u`` mapped to the model's
    own, and the closed-form linear ones) and the curves; grid starts are scored
    in blocks against all cells, ``project(block[:, None], y)``.  One
    :func:`nlls_minimize` polishes all families' cells, family-major, each from
    its first grid start of lowest residual.  An ``amplitude`` parameter below
    the low-signal floor flags the fit ``low_signal``, and a start below it is
    not polished: its curve does not depend on ``u``.  Flat data fails unless
    the family has an ``offset`` parameter.
    """
    y = data.y.reshape(-1, len(data))
    cells, per_call, u, errors, converged = len(y), max(1, START_BLOCK // y.size), [], [], []
    floor = LOW_SIGNAL_FRACTION * np.maximum(np.max(np.abs(y), axis=1), 1e-300)
    for project, starts in families:
        starts = np.array(starts, dtype=float)
        pick, best = np.zeros(cells, int), np.full(cells, np.inf)
        for first in range(0, len(starts), per_call):
            rss = _rss(project(starts[first:first + per_call, None], y)[1], y)
            low = rss.min(axis=0)
            better = low < best
            pick[better], best[better] = first + rss.argmin(axis=0)[better], low[better]
        u.append(starts[pick])
        params = project(u[-1], y)[0]
        _check_size(data, len(params))
        flat = ("offset" not in params) & (np.ptp(y, axis=1) <= 0.0)
        errors.append(dict.fromkeys(np.flatnonzero(flat).tolist(),
                                    SingularJacobian("data has zero variance; nothing to fit")))
        converged.append(flat | (params.get("amplitude", np.inf) < floor))
    u, converged = np.array(u), np.array(converged)
    iterations, (owner, rows) = np.zeros(converged.shape, int), np.nonzero(~converged)
    if rows.size:
        stack = y[rows]

        def model(x, v, sub):  # each row's curve from its own family's projection
            curves, who = np.empty((sub.size, len(x))), owner[sub]
            for f, (project, _) in enumerate(families):
                if (mine := who == f).any():
                    curves[mine] = project(v[mine], stack[sub[mine]])[1]
            return curves

        batch = nlls_minimize(model, Dataset(data.x, stack), u[owner, rows])
        for f, c, fit in zip(owner.tolist(), rows.tolist(), batch):
            if isinstance(fit, Exception):
                errors[f][c] = fit
            else:
                u[f, c] = list(fit.parameters.values())
                converged[f, c], iterations[f, c] = fit.converged, fit.iterations
    results = []
    for f, (project, _) in enumerate(families):
        params, curve = project(u[f], y)
        rss, low = _rss(curve, y), params.get("amplitude", np.inf) < floor
        results.append(_unstack(data, [errors[f].get(c) or FitResult(
            {key: float(v[c]) for key, v in params.items()}, float(rss[c]), len(data),
            len(params), bool(converged[f, c]), int(iterations[f, c]),
            ("low_signal",) if low[c] else ()) for c in range(cells)]))
    return results


def fit_exact_tprime_auto(data: Dataset, gamma_10: float, gamma_20: float,
                          control_hint: float | None = None) -> FitResult | FitBatch:
    """Fit the exact curve with fixed coherence rates; k = 2 parameters.

    The control strength is nonlinear and the combined overall amplitude
    (A * Omega_p) linear.  The residual in the control strength is
    multimodal once the doublet splits, so the start is the best of a fixed
    geometric grid of controls, plus ``control_hint`` when given.
    """
    if not (gamma_10 > 0 and gamma_20 > 0):
        raise ValueError("coherence rates must be > 0")

    def project(u, y):
        control = _exp(u[..., 0])
        column = _tprime(data.x, 1.0, control[..., None], gamma_10, gamma_20)
        amplitude, curve = _lstsq(column[..., None, :], y, nonneg=True)
        return {"control": control, "amplitude": amplitude[..., 0]}, curve

    controls = list(np.geomspace(0.02, 3.2, 25) * max(gamma_20, -data.x[0], data.x[-1]))
    if control_hint is not None and control_hint > 0:
        controls.append(control_hint)
    return _separable_fit(data, [(project, np.log(controls)[:, None])])[0]


def _reduced_forms(data: Dataset) -> list:
    """The difference form's and the doublet form's ``(project, starts)``."""
    x, x2, span = data.x, data.x**2, max(-data.x[0], data.x[-1])

    def difference(u, y):
        mean, split = _exp(u[..., 0]), np.maximum(_exp(u[..., 1]), MIN_SPLIT)
        gp, gm = mean * np.sqrt(1.0 + split), mean / np.sqrt(1.0 + split)
        broad, narrow = 1.0 / (x2 + gp[..., None] ** 2), 1.0 / (x2 + gm[..., None] ** 2)
        ab, curve = _lstsq(np.stack([broad, broad * narrow], axis=-2), y)
        cm = -ab[..., 1] / (gm * split * (gp + gm))
        cp = ab[..., 0] + cm
        edge = ~((cp >= 0.0) & (cm >= 0.0))
        if edge.any():
            # the constrained optimum lies on an edge of the non-negative quadrant
            y_e, *columns = (np.broadcast_to(a, curve.shape)[edge] for a in (y, broad, -narrow))
            (cp_e, on), (cm_e, off) = (_lstsq(c[:, None], y_e, nonneg=True) for c in columns)
            wins = _rss(on, y_e) <= _rss(off, y_e)
            cp[edge], cm[edge] = np.where(wins, cp_e[:, 0], 0.0), np.where(wins, 0.0, cm_e[:, 0])
            curve[edge] = np.where(wins[:, None], on, off)
        return {"cplus_sq": cp, "cminus_sq": cm, "gamma_plus": gp, "gamma_minus": gm}, curve

    def doublet(u, y):
        gamma, d0 = _exp(u[..., :1]), np.abs(u[..., 1:])
        column = 1.0 / ((x - d0) ** 2 + gamma**2) + 1.0 / ((x + d0) ** 2 + gamma**2)
        c_sq, curve = _lstsq(column[..., None, :], y, nonneg=True)
        return {"c_sq": c_sq[..., 0], "gamma": gamma[..., 0], "delta_0": d0[..., 0]}, curve

    gp, gm = np.meshgrid(np.geomspace(span / 25.0, 1.2 * span, 10),
                         np.geomspace(span / 120.0, 0.6 * span, 10), indexing="ij")
    gp, gm = gp[gm < gp], gm[gm < gp]
    d0, gamma = np.meshgrid(np.linspace(0.0, 0.9 * span, 10),
                            np.geomspace(span / 60.0, span, 8), indexing="ij")
    return [(difference, np.stack([0.5 * np.log(gp * gm), np.log(gp / gm - 1.0)], axis=1)),
            (doublet, np.stack([np.log(gamma.ravel()), d0.ravel()], axis=1))]


def fit_eit_model(data: Dataset) -> FitResult | FitBatch:
    """Fit the difference-of-Lorentzians form; k = 4 parameters.

    The widths are searched as the logs of their geometric mean and of their
    relative split gamma_plus/gamma_minus - 1, floored at ``MIN_SPLIT``.  At
    fixed widths the amplitudes solve a two-column non-negative least-squares
    problem, written in the divided-difference basis {1/(x^2+gp^2),
    1/((x^2+gp^2)(x^2+gm^2))} that stays well conditioned as the widths
    coincide.  The fitted curve may go negative when forced onto
    doublet-regime data, which is reported as-is rather than clamped.
    """
    return _separable_fit(data, _reduced_forms(data)[:1])[0]


def fit_ats_model(data: Dataset) -> FitResult | FitBatch:
    """Fit the shifted-doublet form; k = 3 parameters.

    The width is searched in log coordinates and the half-splitting linearly
    (as |.|) so it can reach 0; the common amplitude is a one-column
    non-negative least-squares solve.
    """
    return _separable_fit(data, _reduced_forms(data)[1:])[0]


def fit_reduced_forms(data: Dataset) -> tuple:
    """``(fit_eit_model(data), fit_ats_model(data))``, bit for bit, in one loop."""
    return tuple(_separable_fit(data, _reduced_forms(data)))


def damped_sinusoid_curve(t, offset, amplitude, decay_time, period, phase):
    t = np.asarray(t, dtype=float)
    return offset + amplitude * np.exp(-t / decay_time) * np.cos(2.0 * np.pi * t / period + phase)


def fit_damped_sinusoid(data: Dataset) -> FitResult:
    """Fit offset + amplitude * exp(-t/decay_time) * cos(2 pi t/period + phase).

    Decay time and period are searched in log coordinates, held inside
    physically resolvable ranges (past a limit the model stops changing).
    On uniformly spaced times the model is a sum of three exponentials, so the
    poles of a matrix pencil (Hua & Sarkar, IEEE Trans. ASSP 38, 814 (1990))
    of one small Hankel SVD are the starts, next to nine coarse ones.  The
    offset is eliminated by centering the trace and the two oscillating
    columns, leaving a two-column solve.  The amplitude is reported
    non-negative, the phase in (-pi, pi].  A decay time or period on a limit,
    to within the polish's step, is no measurement of it and flags the fit
    ``at_limit``.  One trace at a time.
    """
    if data.y.ndim != 1:
        raise ValueError("damped-sinusoid fit takes one trace at a time, not a stack")
    _check_size(data, 5)
    t, span, steps = data.x, data.x[-1] - data.x[0], np.diff(data.x)
    min_dt = float(np.min(steps))
    if np.max(steps) - min_dt > 1e-9 * min_dt:
        raise ValueError("damped-sinusoid fit needs uniformly spaced times")
    lo = np.log([0.05 * min_dt, 1.9 * min_dt])
    hi = np.log([1e8 * span, 20.0 * span])

    def project(u, y):
        decay, period = (np.exp(np.clip(u[..., k], lo[k], hi[k])) for k in (0, 1))
        envelope, arg = np.exp(-t / decay[..., None]), 2.0 * np.pi * t / period[..., None]
        oscillation = np.stack([envelope * np.cos(arg), -envelope * np.sin(arg)], axis=-2)
        means, y_mean = oscillation.mean(axis=-1), y.mean(axis=-1)
        coef, curve = _lstsq(oscillation - means[..., None], y - y_mean[..., None])
        a_cos, a_sin = coef[..., 0], coef[..., 1]
        return {"offset": y_mean - np.einsum("...n,...n->...", coef, means),
                "amplitude": np.hypot(a_cos, a_sin), "decay_time": decay, "period": period,
                "phase": np.arctan2(a_sin, a_cos)}, y_mean[..., None] + curve

    # a pencil of 12 keeps the SVD small enough to stay single-threaded in BLAS
    pencil = int(np.clip(12, 3, len(t) - 3))
    hankel = np.lib.stride_tricks.sliding_window_view(data.y, pencil + 1)
    v = np.linalg.svd(hankel, full_matrices=False)[2][:3].T
    z = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    z = z[z.imag >= 0.0]
    with np.errstate(divide="ignore"):  # |z| >= 1 or a real pole: the upper limit
        decay = np.where(np.abs(z) < 1.0, -min_dt / np.log(np.abs(z)), np.inf)
        starts = np.log(np.c_[decay, 2.0 * np.pi * min_dt / np.abs(np.angle(z))])
    coarse = [[np.log(span * d), np.log(span / n)] for d in (0.05, 0.3, 1.0) for n in (0.5, 2, 8)]
    fit = _separable_fit(data, [(project, np.r_[np.clip(starts, lo, hi), coarse])])[0]
    u = np.log([fit.parameters["decay_time"], fit.parameters["period"]])
    tol = FD_REL_STEP * np.maximum(np.abs([lo, hi]), 1.0)
    if np.any(u <= lo + tol[0]) or np.any(u >= hi - tol[1]):
        fit = replace(fit, warnings=fit.warnings + ("at_limit",))
    return fit
