import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitats import fitting
from eitats.fitting import (
    MAX_ITERATIONS,
    Dataset,
    FitBatch,
    FitResult,
    SingularJacobian,
    damped_sinusoid_curve,
    fit_damped_sinusoid,
    fit_exact_tprime_auto,
    fit_reduced_forms,
    nlls_minimize,
)
from eitats.fitting import _lstsq, _separable_fit, _solve
from eitats.io_utils import TWO_PI_MHZ
from eitats.lindblad import ThreeLevelRates, rabi_trace
from eitats.spectra import ats_model, eit_model, tprime_exact
from eitats.synth import default_detuning_grid, synth_spectrum

G10, G20 = 1.76, 6.90  # scale-free units throughout


def exact_curve(control, delta=None, amplitude=1.0):
    if delta is None:
        delta = np.linspace(-25.0, 25.0, 61)
    return delta, tprime_exact(delta, {"amplitude": amplitude, "control": control}, G10, G20)


def noisy_spectrum(control, seed, sigma=0.03):
    return synth_spectrum(G10, G20, control, np.linspace(-25.0, 25.0, 61),
                          noise_sigma=sigma, seed_parts=(seed,))


def rate_fits():
    """Abscissa, three curves, log-rate starts and a separable one-rate family
    whose polish fails on the middle, rising curve: it fits that curve by a
    constant, which no rate changes."""
    x = np.linspace(0.0, 3.0, 20)
    y = np.array([2.0 * np.exp(-0.7 * x), 1.0 + 0.1 * x, 0.5 * np.exp(-1.9 * x)])

    def project(u, data):
        rate = np.exp(u[..., 0])
        rising = (data[..., -1] > data[..., 0])[..., None]
        column = np.where(rising, 1.0, np.exp(-rate[..., None] * x))
        scale, curve = _lstsq(column[..., None, :], data)
        return {"rate": rate, "scale": scale[..., 0]}, curve

    return x, y, np.log([[0.3], [1.0], [3.0]]), project


class TestMinimizer:
    def test_linear_model_recovery(self):
        x = np.linspace(1.0, 5.0, 20)
        data = Dataset(x=x, y=3.7 * x)
        res = nlls_minimize(lambda xv, p, rows: p[:, :1] * xv, data, [0.5])
        assert res.converged
        assert res.parameters["p0"] == pytest.approx(3.7, rel=1e-10)
        # a linear model's gain ratio is one, so each step cuts the damping tenfold
        assert res.iterations == 5

    def test_stack_is_fitted_row_by_row(self):
        x = np.linspace(1.0, 5.0, 20)
        slopes = np.array([[3.7], [-1.2], [0.4]])
        batch = nlls_minimize(lambda xv, p, rows: p[:, :1] * xv, Dataset(x=x, y=slopes * x),
                              [[0.5], [0.5], [2.0]])
        assert isinstance(batch, FitBatch) and batch.converged
        for fit, slope, start in zip(batch, slopes[:, 0], (0.5, 0.5, 2.0)):
            assert fit == nlls_minimize(lambda xv, p, rows: p[:, :1] * xv,
                                        Dataset(x=x, y=slope * x), [start])
            assert fit.parameters["p0"] == pytest.approx(slope, rel=1e-10)
        assert batch.iterations == max(fit.iterations for fit in batch)

    def test_one_model_call_per_trial_solve(self, monkeypatch):
        # the start and every trial point carry their own 2n central-difference
        # shifts, so no iteration spends a model call on its Jacobian alone.
        # Each iteration start also solves once, for its relative offset, so
        # trial solves are counted by their right-hand sides: one per trial
        # point, plus one per iteration start
        x = np.linspace(0.0, 4.0, 30)
        truth = np.array([[2.0, 0.7], [0.5, 1.5], [1.2, 0.3]])
        events = []
        solve = fitting._solve

        def counted_solve(m, b):
            events.append(len(b))
            return solve(m, b)

        def model(xv, p, rows):
            events.append(rows)
            return p[:, :1] * np.exp(-p[:, 1:] * xv)

        monkeypatch.setattr(fitting, "_solve", counted_solve)
        batch = nlls_minimize(model, Dataset(x=x, y=truth[:, :1] * np.exp(-truth[:, 1:] * x)),
                              np.ones((3, 2)))
        calls = [k for k, e in enumerate(events) if isinstance(e, np.ndarray)]
        assert calls[0] == 0 and np.array_equal(events[0], np.tile(np.arange(3), 5))
        trials = []
        for k in calls[1:]:  # each trial call follows the solve of its trial points
            rows, solved = events[k], events[k - 1]
            assert isinstance(solved, int) and rows.size == 5 * solved
            assert np.array_equal(rows, np.tile(rows[:solved], 5))
            trials.append(solved)
        right_hand_sides = sum(e for e in events if isinstance(e, int))
        assert batch.converged and len(trials) > batch.iterations
        assert right_hand_sides == sum(trials) + sum(fit.iterations for fit in batch)

    def test_model_calls_follow_the_busiest_cell(self):
        # cell 0 starts at its optimum and stops there; cells 1 and 2 reject
        # trials in different iterations.  Every pass gives each iterating cell
        # one trial and no cell waits for another's damping search, so the
        # model is called once plus once per trial of the busiest cell
        x = np.linspace(0.0, 4.0, 30)
        truth = np.array([[2.0, 0.7], [0.5, 1.5], [1.2, 0.3]])
        start = np.array([[2.0, 0.7], [3.0, 6.0], [0.2, 3.0]])
        calls = []

        def model(xv, p, rows):
            calls.append(rows)
            return p[:, :1] * np.exp(-p[:, 1:] * xv)

        y = truth[:, :1] * np.exp(-truth[:, 1:] * x)
        batch = nlls_minimize(model, Dataset(x=x, y=y), start)
        trials = [sum(cell in rows for rows in calls[1:]) for cell in range(3)]
        assert batch.converged and trials[0] == 0 and trials[1] != trials[2]
        assert all(n > fit.iterations for n, fit in zip(trials[1:], batch[1:]))
        assert len(calls) == 1 + max(trials)
        for fit, row, p0 in zip(batch, y, start):
            assert fit == nlls_minimize(lambda xv, p, rows: p[:, :1] * np.exp(-p[:, 1:] * xv),
                                        Dataset(x=x, y=row), p0)

    def test_zero_predicted_reduction_counts_as_full_gain(self):
        # the start's curve is off at x = 0, where the model is blind: the gradient
        # is zero, and with two identical columns the offset gives no verdict.  The
        # zero step lowers the residual all the same, an infinite gain ratio, which
        # cuts the damping as a full gain does; the next iteration is an exact fit
        x = np.arange(4.0)
        calls = []

        def model(xv, p, rows):
            calls.append(p)
            return (p[:, :1] + p[:, 1:]) * xv - 5.0 * (len(calls) == 1) * (xv == 0.0)

        res = nlls_minimize(model, Dataset(x=x, y=2.0 * x), [1.0, 1.0])
        assert res.converged and res.iterations == 2 and res.residual_sum == 0.0
        assert res.parameters == {"p0": 1.0, "p1": 1.0}

    def test_singular_normal_equations_fail_alone(self):
        m = np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
        step, singular = _solve(m, np.ones((2, 2)))
        assert singular.tolist() == [False, True]
        assert step[0].tolist() == [0.5, 1.0] and np.isnan(step[1]).all()
        # among random systems: every other row is its lone solve, and the
        # stack without the singular system agrees
        rng = np.random.default_rng(5)
        m, b = rng.normal(size=(5, 2, 2)), rng.normal(size=(5, 2))
        m[2] = [[1.0, 2.0], [2.0, 4.0]]
        step, singular = _solve(m, b)
        assert singular.tolist() == [False, False, True, False, False]
        assert np.isnan(step[2]).all()
        others = [0, 1, 3, 4]
        for k in others:
            assert np.array_equal(step[k], np.linalg.solve(m[k], b[k]))
        alone, none = _solve(m[others], b[others])
        assert not none.any() and np.array_equal(alone, step[others])

    def test_singular_trial_fails_only_its_cell(self, monkeypatch):
        # an exactly singular damped system in the first trial solve fails that
        # cell alone; the other cells fit as if alone
        x = np.linspace(0.0, 4.0, 30)
        truth = np.array([[2.0, 0.7], [0.5, 1.5], [1.2, 0.3]])
        data = Dataset(x=x, y=truth[:, :1] * np.exp(-truth[:, 1:] * x))
        calls, solve = [], fitting._solve

        def model(xv, p, rows):
            return p[:, :1] * np.exp(-p[:, 1:] * xv)

        def singular_first_trial(m, b):
            calls.append(len(b))
            if len(calls) == 2:  # after the start's relative-offset solve
                m = m.copy()
                m[1] = 0.0
            return solve(m, b)

        monkeypatch.setattr(fitting, "_solve", singular_first_trial)
        batch = nlls_minimize(model, data, np.ones((3, 2)))
        monkeypatch.setattr(fitting, "_solve", solve)
        assert isinstance(batch[1], SingularJacobian)
        assert str(batch[1]) == "normal equations are singular"
        for k in (0, 2):
            alone = nlls_minimize(model, Dataset(x=x, y=data.y[k:k + 1]), np.ones((1, 2)))
            assert batch[k] == alone[0]

    def test_insensitive_model_raises(self):
        x = np.linspace(1.0, 5.0, 20)
        with pytest.raises(SingularJacobian, match="^model is insensitive to every parameter$"):
            nlls_minimize(lambda xv, p, rows: np.exp(-xv) * np.ones_like(p), Dataset(x=x, y=x),
                          [1.0])

    def test_non_finite_jacobian_raises(self):
        # finite at p0 = 1, the edge of its domain, but NaN one difference step past it
        x = np.linspace(1.0, 5.0, 20)
        with pytest.raises(SingularJacobian, match="^Jacobian is not finite$"):
            nlls_minimize(lambda xv, p, rows: np.sqrt(1.0 - p[:, :1]) * xv, Dataset(x=x, y=x),
                          [1.0])

    def test_insensitive_cell_fails_alone_in_a_stack(self):
        x = np.linspace(1.0, 5.0, 20)
        slopes = np.array([[2.0], [1.0], [0.5]])

        def model(xv, p, rows):  # the middle cell ignores its parameter
            return np.where((rows == 1)[:, None], np.exp(-xv), p[:, :1] * xv)

        batch = nlls_minimize(model, Dataset(x=x, y=slopes * x), [[1.0], [1.0], [1.0]])
        assert isinstance(batch[1], SingularJacobian)
        assert str(batch[1]) == "model is insensitive to every parameter"
        for k in (0, 2):
            assert batch[k] == nlls_minimize(lambda xv, p, rows: p[:, :1] * xv,
                                             Dataset(x=x, y=slopes[k] * x), [1.0])
            assert batch[k].parameters["p0"] == pytest.approx(slopes[k, 0], rel=1e-10)

    def test_failed_polish_fails_alone_in_a_separable_stack(self):
        x, y, starts, project = rate_fits()
        batch, = _separable_fit(Dataset(x=x, y=y), [(project, starts)])
        assert isinstance(batch[1], SingularJacobian)
        assert str(batch[1]) == "model is insensitive to every parameter"
        for k, rate in ((0, 0.7), (2, 1.9)):
            assert batch[k] == _separable_fit(Dataset(x=x, y=y[k]), [(project, starts)])[0]
            assert batch[k].parameters["rate"] == pytest.approx(rate, rel=1e-8)

    def test_max_iterations_returns_best_so_far(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)

        def peak(xv, center, half_width, amplitude, offset):
            return offset + amplitude * half_width**2 / ((xv - center) ** 2 + half_width**2)

        x = np.linspace(-3.0, 3.0, 30)
        data = Dataset(x=x, y=peak(x, 0.3, 0.8, 2.0, 0.1))

        def model(xv, p, rows):
            center, log_width, log_amplitude, offset = p.T[:, :, None]
            return peak(xv, center, np.exp(log_width), np.exp(log_amplitude), offset)

        res = nlls_minimize(model, data, [2.0, np.log(3.0), np.log(0.5), 0.0])
        assert not res.converged
        assert res.iterations == 2
        assert np.isfinite(res.residual_sum)

    def test_determinism_bit_identical(self):
        data = noisy_spectrum(2.88, seed=4)
        a = fit_reduced_forms(data)[0]
        b = fit_reduced_forms(data)[0]
        assert a.parameters == b.parameters
        assert a.residual_sum == b.residual_sum
        assert a.iterations == b.iterations

    def test_too_few_points(self):
        data = Dataset(x=np.array([0.0, 1.0]), y=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            nlls_minimize(lambda xv, p, rows: p[:, :1] + p[:, 1:2] * xv + p[:, 2:] * xv**2, data,
                          [0.0, 0.0, 0.0])

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.0, 0.0, 1.0]), y=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            Dataset(x=np.array([0.0, 1.0]), y=np.array([1.0]))


class TestFamilyStack:
    """Several families' polishes run as one stack in one minimizer loop; each
    fit equals the one its family makes of its curve alone."""

    def test_failure_in_one_family_leaves_the_other_alone(self, monkeypatch):
        x, y, starts, decay = rate_fits()

        def growth(u, data):  # the exponent is searched linearly, either sign
            column = np.exp(u[..., :1] * x)
            scale, curve = _lstsq(column[..., None, :], data)
            return {"exponent": u[..., 0], "scale": scale[..., 0]}, curve

        calls, minimize = [], fitting.nlls_minimize
        monkeypatch.setattr(fitting, "nlls_minimize", lambda *args, **kw: calls.append(
            args[1].y.shape) or minimize(*args, **kw))
        a, b = _separable_fit(Dataset(x=x, y=y), [(decay, starts), (growth, starts)])
        assert calls == [(6, 20)]  # one loop over both families' three cells
        assert isinstance(a[1], SingularJacobian)
        for k in range(3):
            assert isinstance(b[k], FitResult) and b[k].converged
            assert b[k] == _separable_fit(Dataset(x=x, y=y[k]), [(growth, starts)])[0]
            if k != 1:
                assert a[k] == _separable_fit(Dataset(x=x, y=y[k]), [(decay, starts)])[0]

    @pytest.mark.parametrize("block", [1, 61, 1 << 14, 1 << 20])
    def test_start_block_does_not_move_a_bit(self, monkeypatch, block):
        # 13 cells on the README control grid: from one start per scoring call
        # to every start in one call, for the stack and for one of its curves alone
        controls = np.linspace(2.0, 8.0, 13)
        stack = Dataset(x=noisy_spectrum(0.5, 0).x,
                        y=[noisy_spectrum(c, seed=k).y for k, c in enumerate(controls)])
        reference = fit_reduced_forms(stack)
        monkeypatch.setattr(fitting, "START_BLOCK", block)
        assert fit_reduced_forms(stack) == reference
        alone = fit_reduced_forms(Dataset(x=stack.x, y=stack.y[6]))
        assert alone == (reference[0][6], reference[1][6])


def two_columns(seed, points, cond, obtuse=False):
    """Unit columns a, b whose matrix has condition number ``cond``, and a unit
    vector orthogonal to both."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(points, 3)))[0].T
    angle = 2.0 * np.arctan(1.0 / cond)  # |a + b| / |a - b| = cot(angle / 2)
    b = np.cos(angle) * q[0] + np.sin(angle) * q[1]
    return q[0], -b if obtuse else b, q[2]


def lapack_reference(basis, y):
    """``np.linalg.lstsq(rcond=None)`` on unit-norm columns, as coefficients of
    the unit columns, with the solve's curve and residual norm."""
    unit = basis / np.linalg.norm(basis, axis=1, keepdims=True)
    coef = np.linalg.lstsq(unit.T, y, rcond=None)[0]
    return coef, coef @ unit, np.linalg.norm(y - coef @ unit)


class TestLinearSolve:
    EPS = np.finfo(float).eps

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(3, 80),
           log_cond=st.floats(0.0, 8.0), log_scales=st.tuples(*[st.floats(-8.0, 8.0)] * 2),
           obtuse=st.booleans(), noise=st.floats(0.0, 1.0), log_y=st.floats(-5.0, 5.0))
    def test_matches_lapack_on_unit_columns(self, seed, points, log_cond, log_scales, obtuse,
                                            noise, log_y):
        cond = 10.0**log_cond
        a, b, off = two_columns(seed, points, cond, obtuse)
        mix = np.random.default_rng(seed + 1).normal(size=2)
        # a residual below |y| / cond keeps the coefficients within cond * eps
        y = 10.0**log_y * (mix[0] * a + mix[1] * b + noise / cond * off)
        basis = np.stack([a, b]) * 10.0 ** np.array(log_scales)[:, None]
        coef, curve = _lstsq(basis[None], y[None])
        ref, ref_curve, res = lapack_reference(basis, y)
        # one refinement step: lstsq's own error reaches 1.6e-15 at cond 1 (seed 0,
        # 3 points, unit scales), above the bound below, where the closed form is
        # within 1.7e-16 of a 50-digit solve
        fix, fix_curve, res = lapack_reference(basis, y - ref_curve)
        ref, ref_curve = ref + fix, ref_curve + fix_curve
        unit_coef = coef[0] * np.linalg.norm(basis, axis=1)
        tol = 8.0 * cond * self.EPS
        assert np.max(np.abs(unit_coef - ref)) <= tol * (np.linalg.norm(ref) + cond * res)
        assert np.max(np.abs(curve[0] - ref_curve)) <= tol * np.linalg.norm(y)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(2, 6), row=st.integers(0, 5))
    def test_a_stacked_row_is_solved_as_if_alone(self, seed, cells, row):
        rng = np.random.default_rng(seed)
        basis = np.stack([np.stack(two_columns(seed + c, 61, 10.0 ** rng.uniform(0, 8),
                                               rng.random() < 0.5)[:2])
                          for c in range(cells)]) * 10.0 ** rng.uniform(-8, 8, (cells, 2, 1))
        y, row = rng.normal(size=(cells, 61)), row % cells
        coef, curve = _lstsq(basis, y)
        alone = _lstsq(basis[row:row + 1], y[row:row + 1])
        assert np.array_equal(coef[row], alone[0][0]) and np.array_equal(curve[row], alone[1][0])

    def test_zero_column_leaves_the_other_columns_solve(self):
        a, b, _ = two_columns(3, 40, 10.0)
        y = np.random.default_rng(3).normal(size=40)
        for k, column in ((0, 2.5 * a), (1, 0.4 * b)):
            basis = np.zeros((1, 2, 40))
            basis[0, k] = column
            coef, curve = _lstsq(basis, y[None])
            one, one_curve = _lstsq(basis[:, k:k + 1], y[None])
            assert coef[0, k] == pytest.approx(one[0, 0], rel=1e-14) and coef[0, 1 - k] == 0.0
            assert curve[0] == pytest.approx(one_curve[0], rel=1e-14)
        coef, curve = _lstsq(np.zeros((1, 2, 40)), y[None])
        assert not coef.any() and not curve.any()

    def test_overflowed_column_gives_nan(self):
        a, b, _ = two_columns(5, 30, 3.0)
        basis = np.stack([a, b])[None].copy()
        basis[0, 1, 7] = np.inf
        coef, curve = _lstsq(basis, np.ones((1, 30)))
        assert np.isnan(coef).all() and np.isnan(curve).all()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_parallel_columns_split_equally(self, sign):
        a = two_columns(7, 25, 1.0)[0]
        y = np.random.default_rng(7).normal(size=25)
        coef, curve = _lstsq(np.stack([a, sign * a])[None], y[None])
        assert coef[0, 0] == sign * coef[0, 1]
        # the minimum-norm solution, as the SVD cutoff gives it
        reference = lapack_reference(np.stack([a, sign * a]), y)[0]
        assert coef[0] == pytest.approx(reference, rel=1e-14)
        assert curve[0] == pytest.approx((a @ y) * a, rel=1e-14, abs=1e-15)


class TestNoFactorizationInTheProjection:
    """The linear solves of every fit are closed forms: no LAPACK factorization
    runs in the projection, the grid scoring or the polish."""

    @staticmethod
    def refuse_factorizations(patch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK factorization inside a fit's projection")

        for name in ("svd", "lstsq", "pinv", "qr"):
            patch.setattr(np.linalg, name, refuse)

    def test_spectrum_fits_of_a_stack(self, monkeypatch):
        stack = Dataset(x=noisy_spectrum(0.5, 0).x,
                        y=[noisy_spectrum(control, seed).y
                           for control in (0.5, 2.88, 9.0) for seed in range(2)])
        self.refuse_factorizations(monkeypatch)
        for batch in (*fit_reduced_forms(stack), fit_exact_tprime_auto(stack, G10, G20)):
            assert len(batch) == 6 and all(isinstance(c, FitResult) for c in batch)

    def test_damped_sinusoid_past_its_pencil_start(self, monkeypatch):
        # the pencil start's one Hankel SVD is outside the projection
        t = np.linspace(0.0, 400.0, 201)
        y = damped_sinusoid_curve(t, 0.5, 0.4, 150.0, 56.8, 0.3)
        separable_fit = fitting._separable_fit

        def polish(*args, **kwargs):
            with monkeypatch.context() as patch:
                self.refuse_factorizations(patch)
                return separable_fit(*args, **kwargs)

        monkeypatch.setattr(fitting, "_separable_fit", polish)
        fit = fit_damped_sinusoid(Dataset(x=t, y=y))
        assert fit.converged and fit.parameters["period"] == pytest.approx(56.8, rel=1e-8)


class _Captured(Exception):
    pass


def family_projection(family, data):
    """The ``project`` and grid starts of ``family`` as its fit hands them to
    the separable core (the reduced forms' one fit hands over both)."""
    seen = []

    def capture(data, families):
        seen.extend((project, np.asarray(starts, dtype=float))
                    for project, starts, *_ in families)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_separable_fit", capture)
        with pytest.raises(_Captured):
            FAMILIES[family](data)
    return seen[REDUCED.index(family) if family in REDUCED else 0]


def same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


REDUCED = ("eit", "ats")  # the order of fit_reduced_forms's pair
FAMILIES = {
    "exact": lambda data: fit_exact_tprime_auto(data, G10, G20),
    "eit": lambda data: fit_reduced_forms(data)[0],
    "ats": lambda data: fit_reduced_forms(data)[1],
    "damped_sinusoid": fit_damped_sinusoid,
}


class TestBroadcastProjection:
    """Each family's ``project`` broadcasts over leading axes: a block of
    starts against a stack, ``project(block[:, None], y)``, gives bit for bit
    what the tiled (start, cell) rows give, parameters and curves."""

    @staticmethod
    def stack(family, rng, cells):
        if family == "damped_sinusoid":
            t = np.linspace(0.0, 400.0, 201)
            rows = [damped_sinusoid_curve(t, *rng.uniform((0.0, 0.1, 20.0, 10.0, -3.0),
                                                          (1.0, 1.0, 2000.0, 300.0, 3.0)))
                    for _ in range(cells)]
            return t, np.array(rows) + 0.03 * rng.normal(size=(cells, t.size))
        # the first cell is a doublet, where difference-form starts meet the
        # edge of the non-negative quadrant
        controls = np.r_[20.0, np.exp(rng.uniform(np.log(0.3), np.log(30.0), cells - 1))]
        return np.linspace(-25.0, 25.0, 61), np.array([
            noisy_spectrum(c, seed=int(rng.integers(1 << 30))).y for c in controls])

    @staticmethod
    def check(project, block, x, y):
        params, curve = project(block[:, None], y)
        starts, cells = len(block), len(y)
        tiled, tiled_curve = project(np.repeat(block, cells, axis=0), np.tile(y, (starts, 1)))
        assert same_bits(curve.reshape(-1, len(x)), tiled_curve)
        assert params.keys() == tiled.keys()
        for key, value in params.items():
            assert same_bits(np.broadcast_to(value, (starts, cells)).ravel(), tiled[key]), key
        return params

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1),
           cells=st.integers(1, 4), starts=st.integers(1, 7))
    def test_block_of_starts_equals_tiled_rows(self, family, seed, cells, starts):
        rng = np.random.default_rng(seed)
        x, y = self.stack(family, rng, cells)
        project, grid = family_projection(family, Dataset(x=x, y=y[0]))
        block = grid[rng.integers(len(grid), size=starts)]
        self.check(project, block + rng.normal(0.0, 0.3, block.shape), x, y)

    def test_difference_form_on_the_quadrant_edge(self):
        rng = np.random.default_rng(11)
        x, y = self.stack("eit", rng, 3)
        project, grid = family_projection("eit", Dataset(x=x, y=y[0]))
        params = self.check(project, grid, x, y)
        on_edge = (params["cplus_sq"] == 0.0) | (params["cminus_sq"] == 0.0)
        assert on_edge.any() and not on_edge.all()


class TestExactModelFit:
    def test_lorentzian_roundtrip_no_control(self):
        delta, y = exact_curve(0.0, amplitude=2.0)
        res = fit_exact_tprime_auto(Dataset(x=delta, y=y), G10, G20, control_hint=1.0)
        # control -> 0 limit: amplitude recovered, curve matched
        assert res.residual_sum < 1e-16
        assert res.parameters["amplitude"] == pytest.approx(2.0, rel=1e-6)

    def test_negated_spectrum_flagged_low_signal(self):
        # no positive amplitude improves on the zero curve, so no start is polished
        data = noisy_spectrum(2.06, seed=0)
        res = fit_exact_tprime_auto(Dataset(x=data.x, y=-data.y), G10, G20)
        assert res.warnings == ("low_signal",)
        assert res.parameters["amplitude"] == 0.0
        assert (res.iterations, res.converged) == (0, True)
        assert res.residual_sum == pytest.approx(float(data.y @ data.y), rel=1e-12)

    def test_recovery_from_doubled_init(self):
        delta, y = exact_curve(5.29)
        res = fit_exact_tprime_auto(Dataset(x=delta, y=y), G10, G20,
                                    control_hint=2 * 5.29)
        assert res.converged
        assert res.parameters["control"] == pytest.approx(5.29, rel=1e-3)

    @pytest.mark.parametrize("control", [2.06, 2.88, 5.29, 19.7])
    def test_noiseless_roundtrips(self, control):
        delta, y = exact_curve(control)
        res = fit_exact_tprime_auto(Dataset(x=delta, y=y), G10, G20)
        assert res.parameters["control"] == pytest.approx(control, rel=0.005)

    @pytest.mark.parametrize("control", [2.06, 2.88, 5.29, 19.7])
    def test_noisy_recovery_within_five_percent(self, control):
        # per-seed scatter at 3% noise reaches ~5% for the weakest drive, so
        # the five-percent recovery claim is checked on the median
        errors = []
        for seed in range(10):
            data = noisy_spectrum(control, seed=seed)
            res = fit_exact_tprime_auto(data, G10, G20)
            errors.append(abs(res.parameters["control"] / control - 1.0))
        assert np.median(errors) < 0.05
        assert max(errors) < 0.12

    def test_recovered_control_monotone(self):
        recovered = []
        for control in (2.06, 2.88, 5.29, 19.7):
            delta, y = exact_curve(control)
            res = fit_exact_tprime_auto(Dataset(x=delta, y=y), G10, G20)
            recovered.append(res.parameters["control"])
        assert all(a < b for a, b in zip(recovered, recovered[1:]))

    def test_weak_drive_fit_survives_far_trial_steps(self):
        # the residual is nearly flat in a weak control strength, so trial
        # steps reach controls whose square overflows a float
        res = fit_exact_tprime_auto(noisy_spectrum(0.1, seed=5), G10, G20)
        assert res.converged
        assert np.isfinite(res.parameters["control"])

    @pytest.mark.parametrize("gamma_10, gamma_20", [(0.0, G20), (G10, -1.0)])
    def test_rates_must_be_positive(self, gamma_10, gamma_20):
        data = Dataset(*exact_curve(2.0))
        with pytest.raises(ValueError, match="^coherence rates must be > 0$"):
            fit_exact_tprime_auto(data, gamma_10, gamma_20)

    def test_flat_spectrum_never_silent_success(self):
        delta = np.linspace(-25.0, 25.0, 61)
        data = Dataset(x=delta, y=np.full(61, 0.7))
        with pytest.raises(SingularJacobian):
            fit_exact_tprime_auto(data, G10, G20, control_hint=2.0)


class TestReducedModelFits:
    def test_window_regime_prefers_difference_form(self):
        data = noisy_spectrum(2.06, seed=10)
        r_eit, r_ats = (fit.residual_sum for fit in fit_reduced_forms(data))
        assert r_eit < 0.75 * r_ats

    def test_doublet_regime_prefers_doublet_form(self):
        data = noisy_spectrum(19.7, seed=10)
        r_eit, r_ats = (fit.residual_sum for fit in fit_reduced_forms(data))
        assert r_ats < 0.2 * r_eit

    def test_transition_regime_leaves_systematic_residual(self):
        sigma = 0.03
        data = noisy_spectrum(5.29, seed=10, sigma=sigma)
        n = len(data)
        for fit in fit_reduced_forms(data):
            assert fit.residual_sum / n > 3.0 * sigma**2

    def test_parameter_counts_for_information_criterion(self):
        data = noisy_spectrum(2.88, seed=3)
        eit, ats = fit_reduced_forms(data)
        assert eit.n_params == 4
        assert ats.n_params == 3

    def test_eit_noiseless_reaches_numerical_floor(self):
        delta, y = exact_curve(2.06)
        res = fit_reduced_forms(Dataset(x=delta, y=y))[0]
        assert res.residual_sum < 1e-18 * float(y @ y)

    def test_ats_roundtrip(self):
        delta = np.linspace(-30.0, 30.0, 121)
        truth = {"c_sq": 2.5, "gamma": 4.3, "delta_0": 11.0}
        y = truth["c_sq"] / ((delta - truth["delta_0"]) ** 2 + truth["gamma"] ** 2)
        y = y + truth["c_sq"] / ((delta + truth["delta_0"]) ** 2 + truth["gamma"] ** 2)
        res = fit_reduced_forms(Dataset(x=delta, y=y))[1]
        for key, val in truth.items():
            assert res.parameters[key] == pytest.approx(val, rel=1e-3)

    def test_eit_roundtrip(self):
        delta = np.linspace(-30.0, 30.0, 121)
        truth = {"cplus_sq": 9.0, "cminus_sq": 1.2, "gamma_plus": 6.0,
                 "gamma_minus": 1.5}
        y = (truth["cplus_sq"] / (delta**2 + truth["gamma_plus"] ** 2)
             - truth["cminus_sq"] / (delta**2 + truth["gamma_minus"] ** 2))
        res = fit_reduced_forms(Dataset(x=delta, y=y))[0]
        for key, val in truth.items():
            assert res.parameters[key] == pytest.approx(val, rel=1e-3)

    def test_doublet_splitting_leaves_zero(self):
        # README rates at 2.0 MHz, seed (50, 0): the best grid start has delta_0 = 0,
        # where the doublet is even in delta_0, so its column there vanishes; the
        # polish still reaches the split minimum, at about half its residual
        data = synth_spectrum(G10, G20, 2.0, np.linspace(-25.0, 25.0, 61), noise_sigma=0.03,
                              seed_parts=(50, 0))
        fit = fit_reduced_forms(data)[1]
        assert fit.converged and fit.residual_sum < 0.1
        assert fit.parameters["delta_0"] == pytest.approx(3.394, rel=1e-3)

    def test_flat_data_raises(self):
        data = Dataset(x=np.linspace(0, 1, 20), y=np.zeros(20))
        with pytest.raises(SingularJacobian):
            fit_reduced_forms(data)
        # as a stack of one, each form's cell holds its own raise
        for batch in fit_reduced_forms(Dataset(x=data.x, y=data.y[None])):
            assert isinstance(batch[0], SingularJacobian)


class TestDampedSinusoidFit:
    def test_paper_values_with_noise(self):
        # per-seed decay scatter at 3% noise is a few percent; the two-percent
        # recovery claim is checked on the seed mean with a per-seed sanity cap
        times = np.linspace(0.0, 400.0, 161)  # ns
        truth = damped_sinusoid_curve(times, 0.5, -0.5, 130.6, 56.8, 0.0)
        periods, decays = [], []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noisy = truth + rng.normal(0.0, 0.03 * np.max(truth), size=truth.shape)
            res = fit_damped_sinusoid(Dataset(x=times, y=noisy))
            periods.append(res.parameters["period"])
            decays.append(res.parameters["decay_time"])
            assert res.parameters["period"] == pytest.approx(56.8, rel=0.02)
            assert res.parameters["decay_time"] == pytest.approx(130.6, rel=0.07)
        assert np.mean(periods) == pytest.approx(56.8, rel=0.02)
        assert np.mean(decays) == pytest.approx(130.6, rel=0.02)

    def test_zero_decay_period_recovery(self):
        t = np.linspace(0.0, 400.0, 161)
        y = damped_sinusoid_curve(t, 0.5, -0.5, 1e6, 56.8, 0.0)
        res = fit_damped_sinusoid(Dataset(x=t, y=y))
        assert res.parameters["period"] == pytest.approx(56.8, rel=1e-3)

    def test_phase_invariance_of_period_and_decay(self):
        t = np.linspace(0.0, 400.0, 161)
        fits = []
        for phase in (0.0, 1.1):
            y = damped_sinusoid_curve(t, 0.2, 0.4, 150.0, 60.0, phase)
            fits.append(fit_damped_sinusoid(Dataset(x=t, y=y)))
        for key in ("period", "decay_time"):
            assert fits[0].parameters[key] == pytest.approx(
                fits[1].parameters[key], rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(offset=st.floats(-1.0, 1.0), amplitude=st.floats(0.1, 1.0),
           phase=st.floats(-np.pi, np.pi), decay=st.floats(5.0, 8000.0),
           period=st.floats(10.0, 200.0))
    def test_noiseless_trace_is_recovered_exactly(self, offset, amplitude, phase, decay, period):
        # 2.5 ns spacing: decay in [2 dt, 20 span], period in [4 dt, span / 2]
        t = np.linspace(0.0, 400.0, 161)
        y = damped_sinusoid_curve(t, offset, amplitude, decay, period, phase)
        res = fit_damped_sinusoid(Dataset(x=t, y=y))
        assert res.parameters["period"] == pytest.approx(period, rel=1e-6)
        assert res.parameters["decay_time"] == pytest.approx(decay, rel=1e-5)
        assert "at_limit" not in res.warnings

    def test_size_is_checked_before_the_start(self):
        t = np.linspace(0.0, 50.0, 6)
        y = damped_sinusoid_curve(t, 0.2, 0.4, 150.0, 60.0, 0.3)
        with pytest.raises(ValueError, match="need at least 6 points to fit 5 parameters"):
            fit_damped_sinusoid(Dataset(x=t[:5], y=y[:5]))
        res = fit_damped_sinusoid(Dataset(x=t, y=y))
        assert res.parameters["period"] == pytest.approx(60.0, rel=1e-6)

    def test_stack_is_rejected(self):
        t = np.linspace(0.0, 400.0, 161)
        y = damped_sinusoid_curve(t, 0.5, -0.5, 130.6, 56.8, 0.0)
        with pytest.raises(ValueError, match="one trace at a time"):
            fit_damped_sinusoid(Dataset(x=t, y=np.stack([y, y])))


class TestFitInvariants:
    def test_roundtrip_all_families(self):
        rng = np.random.default_rng(20)
        x = np.linspace(-20.0, 20.0, 101)
        for _ in range(5):
            # difference form
            gm = rng.uniform(0.5, 2.0)
            gp = gm + rng.uniform(2.0, 8.0)
            cp = rng.uniform(2.0, 10.0)
            cm = rng.uniform(0.1, 0.9) * cp * gm**2 / gp**2
            y = cp / (x**2 + gp**2) - cm / (x**2 + gm**2)
            res = fit_reduced_forms(Dataset(x=x, y=y))[0]
            for key, val in (("cplus_sq", cp), ("cminus_sq", cm),
                             ("gamma_plus", gp), ("gamma_minus", gm)):
                assert res.parameters[key] == pytest.approx(val, rel=1e-3)
            # doublet form
            d0 = rng.uniform(3.0, 12.0)
            g = rng.uniform(1.0, 4.0)
            c = rng.uniform(0.5, 5.0)
            y = c / ((x - d0) ** 2 + g**2) + c / ((x + d0) ** 2 + g**2)
            res = fit_reduced_forms(Dataset(x=x, y=y))[1]
            for key, val in (("c_sq", c), ("gamma", g), ("delta_0", d0)):
                assert res.parameters[key] == pytest.approx(val, rel=1e-3)

    def test_converged_point_is_local_minimum(self):
        data = noisy_spectrum(2.88, seed=6)
        res = fit_reduced_forms(data)[0]
        assert res.converged
        base = res.parameters

        def rss(params):
            r = data.y - eit_model(data.x, params)
            return float(r @ r)

        for key in base:
            for factor in (0.99, 1.01):
                perturbed = dict(base)
                perturbed[key] = base[key] * factor
                assert rss(perturbed) >= res.residual_sum * (1.0 - 1e-9)

    def test_reduced_fits_converge_across_regimes(self):
        # the 13-point control grid of the threshold benchmark, two seeds per
        # point: above the window the difference form tends to coincident
        # widths, which must still end in a converged, valid fit
        mhz = 2.0 * np.pi * 1e6
        detunings = default_detuning_grid(61)
        for i, control in enumerate(np.arange(2.0, 8.01, 0.5) * mhz):
            for seed in range(2):
                data = synth_spectrum(1.76 * mhz, 6.90 * mhz, control, detunings,
                                      noise_sigma=0.03, seed_parts=(0, i, seed))
                eit, ats = fit_reduced_forms(data)
                for fit in (eit, ats):
                    assert fit.converged
                    assert fit.iterations < MAX_ITERATIONS
                    assert all(np.isfinite(v) for v in fit.parameters.values())
                p, q = eit.parameters, ats.parameters
                assert p["gamma_plus"] > p["gamma_minus"] > 0
                assert p["cplus_sq"] >= 0 and p["cminus_sq"] >= 0
                assert q["gamma"] > 0 and q["delta_0"] >= 0 and q["c_sq"] >= 0


class TestRedraw:
    """Every fit, redrawn from its ``parameters`` with its family's public curve
    function, leaves its own ``residual_sum`` to 1e-12 (relative), also the
    difference-form fits on the ``MIN_SPLIT`` floor: README rates, controls
    0.5-20 MHz in 0.5 MHz steps with 5 noise seeds each, 25 noisy Rabi traces
    at probes 3-40 MHz, and a low-signal exact fit of amplitude 0."""

    RATES = ThreeLevelRates(relax_10=3.52 * TWO_PI_MHZ, relax_20=6.90 * TWO_PI_MHZ,
                            relax_21=6.90 * TWO_PI_MHZ)

    @staticmethod
    def assert_redraws(fit, y, curve):
        r = y - curve
        assert abs(float(r @ r) - fit.residual_sum) <= 1e-12 * fit.residual_sum

    def test_spectrum_fits(self):
        g10, g20 = self.RATES.coherence_10, self.RATES.coherence_20
        controls = np.arange(0.5, 20.01, 0.5) * TWO_PI_MHZ
        stack = synth_spectrum(g10, g20, np.repeat(controls, 5), noise_sigma=0.03,
                               seed_parts=[(i, seed) for i in range(controls.size)
                                           for seed in range(5)])
        eit, ats = fit_reduced_forms(stack)
        exact = fit_exact_tprime_auto(stack, g10, g20)
        floor = sum(f.parameters["gamma_plus"] / f.parameters["gamma_minus"] - 1.0
                    < 2 * fitting.MIN_SPLIT for f in eit)
        assert floor > 100  # most difference-form fits sit on the floor
        for y, e, a, t in zip(stack.y, eit, ats, exact):
            self.assert_redraws(e, y, eit_model(stack.x, e.parameters))
            self.assert_redraws(a, y, ats_model(stack.x, a.parameters))
            self.assert_redraws(t, y, tprime_exact(stack.x, t.parameters, g10, g20))

    def test_low_signal_exact_fit(self):
        # no positive amplitude improves on the zero curve of a negated spectrum,
        # and the fit's amplitude-0 parameters redraw that curve
        g10, g20 = self.RATES.coherence_10, self.RATES.coherence_20
        data = synth_spectrum(g10, g20, 2.06 * TWO_PI_MHZ, noise_sigma=0.03, seed_parts=(1,))
        fit = fit_exact_tprime_auto(Dataset(x=data.x, y=-data.y), g10, g20)
        assert fit.warnings == ("low_signal",) and fit.parameters["amplitude"] == 0.0
        self.assert_redraws(fit, -data.y, tprime_exact(data.x, fit.parameters, g10, g20))

    def test_damped_sinusoid_fits(self):
        for k, probe in enumerate(np.linspace(3.0, 40.0, 25) * TWO_PI_MHZ):
            times = np.linspace(0.0, 8.0 * np.pi / probe, 161)
            trace = rabi_trace(self.RATES, probe, times)
            trace = trace + np.random.default_rng(k).normal(0.0, 0.03 * trace.max(), trace.size)
            fit = fit_damped_sinusoid(Dataset(x=times * 1e9, y=trace))
            self.assert_redraws(fit, trace, damped_sinusoid_curve(times * 1e9, **fit.parameters))


SPECTRUM_FAMILIES = ("exact", "eit", "ats")
LINEAR_KEYS = {"amplitude", "cplus_sq", "cminus_sq", "c_sq"}


def polished(fit, data, ro_tol=fitting.RO_TOL):
    """``fit(data)`` with the polish stopping at relative offset ``ro_tol``, and
    the model, stack and result of each polish it ran."""
    seen, minimize = [], fitting.nlls_minimize

    def record(model, stack, init, **kwargs):
        seen.append((model, stack, minimize(model, stack, init, **kwargs)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "RO_TOL", ro_tol)
        patch.setattr(fitting, "nlls_minimize", record)
        return fit(data), seen


def standard_errors(model, stack, row, u, sigma_sq):
    """sigma * sqrt(diag (J^T J)^-1) of the polished parameters ``u`` of one
    row, from the central-difference Jacobian the polish uses; a parameter
    the curve does not depend on has an infinite error."""
    h = fitting.FD_REL_STEP * np.maximum(np.abs(u), 1.0)
    shifted = np.concatenate([u + np.diag(h), u - np.diag(h)])
    curves = model(stack.x, shifted, np.full(2 * u.size, row)).reshape(2, u.size, -1)
    jac = (curves[0] - curves[1]) / (2.0 * h[:, None])
    active = np.einsum("kp,kp->k", jac, jac) > 0.0
    errors = np.full(u.size, np.inf)
    block = jac[active] @ jac[active].T
    errors[active] = np.sqrt(sigma_sq * np.diag(np.linalg.inv(block)))
    return errors


class TestRelativeOffsetStop:
    """The polish stops once its relative offset (Bates & Watts) is below
    ``RO_TOL``.  Run on until no damped step improves (``RO_TOL`` = 0), no fit
    moves a polished parameter by a hundredth of its standard error or lowers
    its residual by more than 1e-7 of itself."""

    @staticmethod
    def cases(family):
        if family == "damped_sinusoid":  # the traces of acceptance test 08
            t = np.linspace(0.0, 400.0, 801)
            truth = damped_sinusoid_curve(t, 0.5, -0.5, 130.6, 56.8, 0.0)
            return [Dataset(x=t, y=truth + np.random.default_rng(seed).normal(
                0.0, 0.03 * np.max(truth), t.size)) for seed in range(10)]
        spectra = [noisy_spectrum(control, seed)
                   for control in (1.0, 2.06, 2.88, 4.0, 5.29, 8.0, 12.0, 19.7)
                   for seed in range(4)]
        return [Dataset(x=spectra[0].x, y=[s.y for s in spectra])]

    @pytest.mark.parametrize("family", SPECTRUM_FAMILIES + ("damped_sinusoid",))
    def test_polish_ends_inside_its_own_error(self, family):
        polishes = 0
        for data in self.cases(family):
            fits, runs = polished(FAMILIES[family], data)
            reference, reference_runs = polished(FAMILIES[family], data, ro_tol=0.0)
            fits, reference = (r if isinstance(r, FitBatch) else [r] for r in (fits, reference))
            for fit, ref in zip(fits, reference):
                assert fit.residual_sum <= ref.residual_sum * (1.0 + 1e-7)
            for (_, _, batch), (model, stack, ref_batch) in zip(runs, reference_runs):
                rows = range(len(batch))
                if family in REDUCED:  # the pair's one polish: difference rows, then doublet
                    mine = sum(f.iterations > 0 for f in reference)
                    rows = range(len(batch) - mine, len(batch)) if family == "ats" else range(mine)
                for row in rows:
                    fit, ref = batch[row], ref_batch[row]
                    u, u_ref = (np.array(list(f.parameters.values())) for f in (fit, ref))
                    sigma_sq = ref.residual_sum / (len(stack) - reference[0].n_params)
                    errors = standard_errors(model, stack, row, u_ref, sigma_sq)
                    assert np.all(np.abs(u - u_ref) <= 0.01 * errors)
                    assert fit.iterations <= ref.iterations
                    polishes += 1
        assert polishes >= 10


class TestScaleInvariance:
    """The stopping rule has no absolute threshold: scaling a spectrum by a
    power of two leaves every fit's path bit for bit, and scales its linear
    parameters and residual exactly."""

    @settings(max_examples=160, deadline=None)
    @given(family=st.sampled_from(SPECTRUM_FAMILIES), k=st.integers(-20, 20),
           log_control=st.floats(np.log(0.3), np.log(30.0)), seed=st.integers(0, 2**16))
    def test_power_of_two_scaling(self, family, k, log_control, seed):
        data = noisy_spectrum(float(np.exp(log_control)), seed)
        fit = FAMILIES[family](data)
        scaled = FAMILIES[family](Dataset(x=data.x, y=np.ldexp(data.y, k)))
        assert (scaled.iterations, scaled.converged) == (fit.iterations, fit.converged)
        assert scaled.residual_sum == np.ldexp(fit.residual_sum, 2 * k)
        for key, value in fit.parameters.items():
            expected = np.ldexp(value, k) if key in LINEAR_KEYS else value
            assert scaled.parameters[key] == expected, key
