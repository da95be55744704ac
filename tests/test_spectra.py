import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import M
from eitats.fitting import Dataset, fit_ats_model
from eitats.lindblad import (
    DegenerateDenominator,
    DriveConfig,
    PoleAtOrigin,
    ThreeLevelRates,
    coherence_rho20_analytic,
    populations_analytic,
)
from eitats.spectra import (
    AtsModelParams,
    ComplexRoots,
    EitModelParams,
    ExactModelParams,
    ImaginarySplitting,
    ats_model,
    delta0,
    eit_decomposition,
    eit_model,
    eit_window,
    gamma_pm,
    tprime_exact,
)
from eitats.spectra import _tprime

# working in plain 2pi*MHz-free numbers; every formula here is scale-free
G10, G20 = 1.76, 6.90


def params(control, amplitude=1.0, probe=1.0, g10=G10, g20=G20):
    return ExactModelParams(amplitude=amplitude, probe=probe, control=control,
                            gamma_10=g10, gamma_20=g20)


class TestBroadcastTprime:
    @settings(max_examples=200, deadline=None)
    @given(controls=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6),
           g10=st.floats(0.1, 10.0), g20=st.floats(0.1, 20.0))
    def test_matches_the_curve_of_each_control(self, controls, g10, g20):
        # A scalar control**2 is libm pow and an array's is a multiply; they
        # can differ in the last bit.  Through D = delta (1 - lor) that bit
        # grows, relative to D^2 + G^2, by at most |delta lor| / G, which is
        # below control^2 / (g10 g20); a few roundings of each operation add
        # the rest.  The tolerance is that bound, with room.
        delta = np.linspace(-60.0, 60.0, 121)
        control = np.array(controls)
        stacked = _tprime(delta, 1.0, control[:, None], g10, g20)
        for row, c in zip(stacked, control):
            single = tprime_exact(delta, params(float(c), g10=g10, g20=g20))
            rtol = 16 * np.finfo(float).eps * (1.0 + c**2 / (g10 * g20))
            np.testing.assert_allclose(row, single, rtol=rtol, atol=0.0)


class TestTprimeExact:
    def test_no_control_is_lorentzian(self):
        delta = np.linspace(-30, 30, 101)
        got = tprime_exact(delta, params(0.0))
        expected = G20 / (delta**2 + G20**2)
        assert np.allclose(got, expected, rtol=1e-14)

    def test_resonance_value(self):
        # 1/(gamma_20 + control^2/gamma_10) at the transparency center
        value = tprime_exact(0.0, params(2.06))
        assert value == pytest.approx(1.0 / 9.311136363636363, rel=1e-12)
        assert value == pytest.approx(0.1074, abs=2e-4)

    def test_identity_with_analytic_coherence(self, paper_rates):
        # T' equals A * Im(rho_20) identically, not just approximately
        delta = np.linspace(-25.0, 25.0, 61) * M
        amp = 3.7
        p = ExactModelParams(amplitude=amp, probe=0.01 * paper_rates.coherence_10,
                             control=2.88 * M,
                             gamma_10=paper_rates.coherence_10,
                             gamma_20=paper_rates.coherence_20)
        curve = tprime_exact(delta, p)
        for d, t in zip(delta, curve):
            drive = DriveConfig(control=p.control, probe=p.probe, detuning=d)
            rho20 = coherence_rho20_analytic(paper_rates, drive)
            assert t == pytest.approx(amp * rho20.imag, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::eitats.lindblad.WeakProbeWarning")
    def test_identity_on_random_parameters(self):
        rng = np.random.default_rng(42)
        delta = np.linspace(-40.0, 40.0, 31)
        for _ in range(50):
            g10 = rng.uniform(0.1, 5.0)
            g20 = rng.uniform(0.1, 20.0)
            control = rng.uniform(0.0, 30.0)
            rates = ThreeLevelRates(relax_10=2.0 * g10, relax_20=g20, relax_21=g20)
            p = ExactModelParams(amplitude=1.0, probe=1.0, control=control,
                                 gamma_10=g10, gamma_20=g20)
            curve = tprime_exact(delta, p)
            direct = np.array([
                coherence_rho20_analytic(
                    rates, DriveConfig(control=control, probe=1.0, detuning=d)
                ).imag
                for d in delta
            ])
            assert np.allclose(curve, direct, rtol=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        delta = np.linspace(-100, 100, 401)
        for _ in range(25):
            p = params(rng.uniform(0, 40), amplitude=rng.uniform(0.1, 5),
                       g10=rng.uniform(0.05, 5), g20=rng.uniform(0.05, 20))
            assert np.all(tprime_exact(delta, p) >= 0)

    def test_peaks_approach_doublet_positions(self):
        control = 20.0 * 0.5 * (G20 - G10)  # far above the window
        split = delta0(G10, G20, control)
        delta = np.linspace(0, 2 * split, 200001)
        curve = tprime_exact(delta, params(control))
        peak = delta[np.argmax(curve)]
        assert peak == pytest.approx(split, rel=0.01)


class TestPoleParameters:
    def test_gamma_pm_uncoupled(self):
        assert gamma_pm(G10, G20, 0.0) == pytest.approx((G20, G10), rel=1e-15)

    def test_gamma_pm_degenerate_boundary(self):
        gp, gm = gamma_pm(G10, G20, 0.5 * (G20 - G10))
        assert gp == pytest.approx(gm, rel=1e-15)
        assert gp == pytest.approx(0.5 * (G10 + G20), rel=1e-15)

    def test_gamma_pm_paper_point(self):
        gp, gm = gamma_pm(G10, G20, 2.06)
        assert gp == pytest.approx(5.867, abs=5e-4)
        assert gm == pytest.approx(2.793, abs=5e-4)

    def test_gamma_pm_sum_product_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g10 = rng.uniform(0.01, 5)
            g20 = g10 + rng.uniform(0.1, 20)
            control = rng.uniform(0, 0.5 * (g20 - g10))
            gp, gm = gamma_pm(g10, g20, control)
            assert gp + gm == pytest.approx(g10 + g20, rel=1e-12)
            assert gp * gm == pytest.approx(g10 * g20 + control**2, rel=1e-12)

    def test_gamma_pm_complex_roots(self):
        with pytest.raises(ComplexRoots):
            gamma_pm(G10, G20, G20)

    def test_delta0_boundary_and_paper_point(self):
        assert delta0(G10, G20, 0.5 * (G20 - G10)) == 0.0
        assert delta0(G10, G20, 19.7) == pytest.approx(19.53, abs=5e-3)

    def test_delta0_asymptotic(self):
        control = 25.0 * (G20 - G10)
        assert delta0(G10, G20, control) == pytest.approx(control, rel=0.01)

    def test_delta0_imaginary(self):
        with pytest.raises(ImaginarySplitting):
            delta0(G10, G20, 0.1)


class TestEitDecomposition:
    def test_exact_reconstruction(self):
        delta = np.linspace(-25, 25, 2001)
        p = params(2.06, amplitude=2.5, probe=0.7)
        exact = tprime_exact(delta, p)
        reduced = eit_model(delta, eit_decomposition(p))
        assert np.max(np.abs(reduced - exact)) < 1e-12 * np.max(exact)

    def test_reconstruction_over_random_window_parameters(self):
        rng = np.random.default_rng(11)
        delta = np.linspace(-60, 60, 501)
        for _ in range(50):
            g10 = rng.uniform(0.05, 4)
            g20 = g10 + rng.uniform(0.5, 25)
            control = rng.uniform(0.0, 0.499) * (g20 - g10)
            p = params(control, amplitude=rng.uniform(0.1, 10), g10=g10, g20=g20)
            dec = eit_decomposition(p)
            assert dec.cplus_sq > 0
            assert dec.cminus_sq >= 0
            exact = tprime_exact(delta, p)
            assert np.max(np.abs(eit_model(delta, dec) - exact)) < 1e-12 * np.max(exact)

    def test_narrow_dip_vanishes_without_control(self):
        dec = eit_decomposition(params(1e-5))
        assert dec.cminus_sq < 1e-9 * dec.cplus_sq

    def test_paper_point_amplitudes(self):
        dec = eit_decomposition(params(2.06))
        assert dec.cplus_sq == pytest.approx(7.839217011379248, rel=1e-9)
        assert dec.cminus_sq == pytest.approx(0.9392170113792477, rel=1e-9)

    def test_outside_window_raises(self):
        with pytest.raises(ComplexRoots):
            eit_decomposition(params(5.29))
        # at the boundary the poles coincide and the residues diverge
        with pytest.raises(ComplexRoots, match="^degenerate pole widths"):
            eit_decomposition(params(0.5 * (G20 - G10)))


class TestReducedModels:
    def test_eit_perfect_transparency_point(self):
        # amplitudes chosen with cplus_sq/gamma_plus^2 == cminus_sq/gamma_minus^2
        p = EitModelParams(cplus_sq=4.0, cminus_sq=0.25,
                           gamma_plus=2.0, gamma_minus=0.5)
        assert eit_model(0.0, p) == 0.0

    def test_ats_symmetry(self):
        p = AtsModelParams(c_sq=1.3, gamma=2.2, delta_0=7.7)
        assert ats_model(p.delta_0, p) == ats_model(-p.delta_0, p)

    def test_ats_approximation_improves_with_control(self):
        rel_errors = []
        for control in (5.29, 10.0, 19.7, 40.0):
            span = max(25.0, 1.5 * control)
            delta = np.linspace(-span, span, 61)
            curve = tprime_exact(delta, params(control))
            curve = curve / curve.max()
            fit = fit_ats_model(Dataset(x=delta, y=curve))
            rel_errors.append(np.sqrt(fit.residual_sum / float(curve @ curve)))
        assert all(a > b for a, b in zip(rel_errors, rel_errors[1:]))

    def test_model_param_validation(self):
        with pytest.raises(ValueError):
            EitModelParams(cplus_sq=1, cminus_sq=1, gamma_plus=1.0, gamma_minus=2.0)
        with pytest.raises(ValueError):
            AtsModelParams(c_sq=1, gamma=-1.0, delta_0=0.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: populations_analytic(ThreeLevelRates(0.0, 0.0, 0.0, dephase_00=1.0),
                                  DriveConfig(control=1.0, probe=0.0), 0.0),
     DegenerateDenominator, "gamma_21 vanished under a control drive"),
    (lambda: coherence_rho20_analytic(ThreeLevelRates(1.0, 0.0, 0.0),
                                      DriveConfig(control=0.0, probe=1.0)),
     PoleAtOrigin, "coherence denominator vanished"),
    (lambda: params(1.0, amplitude=0.0), ValueError, "amplitude must be > 0"),
    (lambda: params(1.0, g20=0.0), ValueError, "coherence rates must be > 0"),
    (lambda: params(-1.0), ValueError, "drive strengths must be >= 0"),
    (lambda: EitModelParams(cplus_sq=1.0, cminus_sq=-1.0, gamma_plus=2.0, gamma_minus=1.0),
     ValueError, "squared amplitudes must be >= 0"),
    (lambda: AtsModelParams(c_sq=1.0, gamma=1.0, delta_0=-1.0),
     ValueError, "delta_0 must be >= 0"),
    (lambda: AtsModelParams(c_sq=-1.0, gamma=1.0, delta_0=0.0), ValueError, "c_sq must be >= 0"),
], ids=["populations-gamma_21", "coherence-pole", "exact-amplitude", "exact-rates",
        "exact-drive", "eit-amplitudes", "ats-delta_0", "ats-c_sq"])
def test_guard_raises(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


class TestEitWindow:
    def test_paper_upper_bound(self):
        window = eit_window(G10, G20)
        assert window.feasible
        assert window.upper == pytest.approx(2.57, rel=1e-6)

    def test_lower_bound_formula(self):
        window = eit_window(G10, G20)
        assert window.lower == pytest.approx(
            G10 * np.sqrt(G10 / (2 * G10 + G20)), rel=1e-12)
        assert window.lower == pytest.approx(0.723, abs=5e-4)

    def test_boundary_is_infeasible(self):
        assert not eit_window(1.0, 2.0).feasible
        assert eit_window(1.0, 2.0 + 1e-9).feasible

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            eit_window(0.0, 1.0)
