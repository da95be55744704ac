import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, null_space

from eitats import lindblad
from eitats.fitting import Dataset, fit_damped_sinusoid
from eitats.lindblad import (
    DegenerateDenominator,
    DriveConfig,
    NoUniqueSteadyState,
    PoleAtOrigin,
    ThreeLevelRates,
    TraceDriftError,
    WeakProbeWarning,
    coherence_rho20_analytic,
    evolve,
    liouvillian_matrix,
    master_equation_rhs,
    populations_analytic,
    rabi_trace,
    rotating_frame_hamiltonian,
    steady_state,
    steady_states,
    validate_density_matrix,
)

M = 2.0 * np.pi * 1e6


def ket_rho(level):
    rho = np.zeros((3, 3), dtype=complex)
    rho[level, level] = 1.0
    return rho


def random_density_matrix(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestRatesAndHamiltonian:
    def test_derived_coherence_rates(self, paper_rates):
        assert paper_rates.coherence_10 == pytest.approx(1.76 * M, rel=1e-12)
        assert paper_rates.coherence_20 == pytest.approx(6.90 * M, rel=1e-12)
        assert paper_rates.coherence_21 == pytest.approx(8.66 * M, rel=1e-12)

    def test_dephasing_enters_both_coherences(self):
        rates = ThreeLevelRates(relax_10=2.0, relax_20=0.0, relax_21=0.0,
                                dephase_00=0.5, dephase_11=0.25, dephase_22=0.125)
        assert rates.coherence_10 == pytest.approx(1.0 + 0.5 + 0.25)
        assert rates.coherence_20 == pytest.approx(0.5 + 0.125)
        assert rates.coherence_21 == pytest.approx(1.0 + 0.25 + 0.125)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ThreeLevelRates(relax_10=-1.0, relax_20=0.0, relax_21=0.0)

    def test_hamiltonian_zero(self):
        h = rotating_frame_hamiltonian(DriveConfig(control=0.0, probe=0.0))
        assert np.array_equal(h, np.zeros((3, 3)))

    def test_hamiltonian_block_structure_without_probe(self):
        h = rotating_frame_hamiltonian(
            DriveConfig(control=2.0 * M, probe=0.0, detuning=0.5 * M))
        assert h[0, 1] == 0 and h[0, 2] == 0 and h[0, 0] == 0
        assert h[2, 1] == -2.0 * M

    def test_hamiltonian_entries_equal_inputs(self):
        drive = DriveConfig(control=2.06 * M, probe=0.35 * M, detuning=1.5 * M)
        h = rotating_frame_hamiltonian(drive)
        assert h[1, 1] == drive.detuning and h[2, 2] == drive.detuning
        assert h[2, 1] == -drive.control and h[2, 0] == -drive.probe
        assert np.array_equal(h, h.conj().T)


class TestCoherenceEquationConsistency:
    def test_off_diagonal_rows_match_closed_form(self, paper_rates):
        # the 1-0 and 2-0 rows of the generator must equal the printed
        # coherence equations with the derived gamma_10, gamma_20
        rng = np.random.default_rng(5)
        drive = DriveConfig(control=2.88 * M, probe=0.35 * M, detuning=0.7 * M)
        g10, g20 = paper_rates.coherence_10, paper_rates.coherence_20
        oc, op, det = drive.control, drive.probe, drive.detuning
        for _ in range(20):
            rho = random_density_matrix(rng)
            ddt = master_equation_rhs(rho, paper_rates, drive)
            expected_10 = (-(g10 + 1j * det) * rho[1, 0] + 1j * oc * rho[2, 0]
                           - 1j * op * rho[1, 2])
            expected_20 = (-(g20 + 1j * det) * rho[2, 0] + 1j * oc * rho[1, 0]
                           - 1j * op * (rho[2, 2] - rho[0, 0]))
            assert ddt[1, 0] == pytest.approx(expected_10, rel=1e-12)
            assert ddt[2, 0] == pytest.approx(expected_20, rel=1e-12)

    def test_liouvillian_matches_rhs(self, paper_rates):
        drive = DriveConfig(control=2.0 * M, probe=0.2 * M, detuning=-1.0 * M)
        liou = liouvillian_matrix(paper_rates, drive)
        rng = np.random.default_rng(8)
        rho = random_density_matrix(rng)
        direct = master_equation_rhs(rho, paper_rates, drive)
        assert np.allclose(liou @ rho.reshape(9), direct.reshape(9), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rates=st.lists(st.floats(0.0, 1e9), min_size=6, max_size=6),
           control=st.floats(0.0, 1e9), probe=st.floats(0.0, 1e9),
           detuning=st.floats(-1e9, 1e9))
    def test_closed_form_equals_rhs_columns(self, rates, control, probe, detuning):
        # every entry is the same few exact products summed in the same order
        rates = ThreeLevelRates(*rates)
        drive = DriveConfig(control=control, probe=probe, detuning=detuning)
        columns = np.empty((9, 9), dtype=complex)
        for col in range(9):
            basis = np.zeros(9, dtype=complex)
            basis[col] = 1.0
            columns[:, col] = master_equation_rhs(basis.reshape(3, 3), rates, drive).reshape(9)
        np.testing.assert_array_equal(liouvillian_matrix(rates, drive), columns)


class TestEvolve:
    def test_rabi_oscillation_closed_form(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=0.0, relax_21=0.0)
        control = 2.0 * M
        drive = DriveConfig(control=control, probe=0.0, detuning=0.0)
        duration = 3.0 / (control / (2 * np.pi))
        traj = evolve(ket_rho(1), rates, drive, duration, sample_stride=10)
        for t, rho in zip(traj.times, traj.states):
            assert rho[2, 2].real == pytest.approx(np.sin(control * t) ** 2, abs=1e-6)

    def test_exponential_decay(self):
        g = 1.5 * M
        rates = ThreeLevelRates(relax_10=g, relax_20=0.0, relax_21=0.0)
        drive = DriveConfig(control=0.0, probe=0.0)
        traj = evolve(ket_rho(1), rates, drive, 3.0 / g, sample_stride=25)
        for t, rho in zip(traj.times, traj.states):
            assert rho[1, 1].real == pytest.approx(np.exp(-g * t), abs=1e-6)

    def test_long_time_matches_steady_state(self, paper_rates):
        drive = DriveConfig(control=2.06 * M, probe=0.35 * M, detuning=0.0)
        target = steady_state(paper_rates, drive)
        duration = 20.0 / paper_rates.relax_10
        traj = evolve(ket_rho(0), paper_rates, drive, duration, sample_stride=10**9)
        assert np.max(np.abs(traj.states[-1] - target)) < 1e-6

    def test_invariants_along_trajectory(self, paper_rates):
        drive = DriveConfig(control=3.0 * M, probe=1.0 * M, detuning=2.0 * M)
        traj = evolve(ket_rho(0), paper_rates, drive, 1.0 / (1.76 * M),
                      sample_stride=20)
        for rho in traj.states:
            validate_density_matrix(rho)

    def test_stride_not_dividing_steps_matches_step_loop(self, paper_rates):
        drive = DriveConfig(control=3.0 * M, probe=1.0 * M, detuning=2.0 * M)
        step, stride = 1e-9, 7
        traj = evolve(ket_rho(0), paper_rates, drive, 103 * step, step=step,
                      sample_stride=stride)
        stepper = lindblad._rk4_stepper(liouvillian_matrix(paper_rates, drive), step)
        vec = ket_rho(0).reshape(9)
        expected = [vec]
        for k in range(1, 104):
            vec = stepper @ vec
            if k % stride == 0 or k == 103:
                expected.append(vec)
        assert traj.times == pytest.approx(step * np.r_[0:103:stride, 103], rel=1e-12)
        assert np.max(np.abs(traj.states.reshape(-1, 9) - np.array(expected))) < 1e-12

    def test_trace_drift_aborts(self, paper_rates):
        drive = DriveConfig(control=50.0 * M, probe=0.0)
        with pytest.raises(TraceDriftError):
            evolve(ket_rho(1), paper_rates, drive, 2e-6, step=2e-8)

    def test_argument_validation(self, paper_rates):
        drive = DriveConfig(control=0.0, probe=0.0)
        with pytest.raises(ValueError):
            evolve(ket_rho(0), paper_rates, drive, -1.0)
        with pytest.raises(ValueError):
            evolve(ket_rho(0), paper_rates, drive, 1e-6, step=2e-6)


class TestSteadyState:
    def test_undriven_decays_to_ground(self, paper_rates):
        rho = steady_state(paper_rates, DriveConfig(control=0.0, probe=0.0))
        assert np.allclose(rho, ket_rho(0), atol=1e-10)

    def test_two_level_weak_probe_limit(self, paper_rates):
        g20 = paper_rates.coherence_20
        probe = 1e-3 * g20
        for det in (0.0, 0.5 * g20, 3.0 * g20):
            drive = DriveConfig(control=0.0, probe=probe, detuning=det)
            rho = steady_state(paper_rates, drive)
            expected = probe / (det - 1j * g20)
            assert abs(rho[2, 0] - expected) < 1e-5 * abs(expected) + 1e-12

    def test_weak_probe_convergence_rates(self, paper_rates):
        control = 2.88 * M
        detunings = np.linspace(-25.0 * M, 25.0 * M, 61)
        for ratio, bound in ((0.05, 1e-2), (0.01, 1e-3)):
            worst = 0.0
            for det in detunings:
                drive = DriveConfig(control=control, probe=ratio * control,
                                    detuning=det)
                rho = steady_state(paper_rates, drive)
                ana = coherence_rho20_analytic(paper_rates, drive)
                worst = max(worst, abs(rho[2, 0] - ana) / abs(ana))
            assert worst < bound

    def test_scaling_invariance(self, paper_rates):
        drive = DriveConfig(control=2.88 * M, probe=0.1 * M, detuning=1.0 * M)
        rho_a = steady_state(paper_rates, drive)
        factor = 7.3
        scaled_rates = ThreeLevelRates(
            relax_10=paper_rates.relax_10 * factor,
            relax_20=paper_rates.relax_20 * factor,
            relax_21=paper_rates.relax_21 * factor,
        )
        scaled_drive = DriveConfig(control=drive.control * factor,
                                   probe=drive.probe * factor,
                                   detuning=drive.detuning * factor)
        rho_b = steady_state(scaled_rates, scaled_drive)
        assert np.max(np.abs(rho_a - rho_b)) < 1e-9

    def test_batch_matches_null_space_per_detuning(self, paper_rates):
        # the README grid: 61 detunings over +-25 MHz, control 2.06, probe 0.02
        detunings = np.linspace(-25.0, 25.0, 61) * M
        drive = DriveConfig(control=2.06 * M, probe=0.02 * M)
        batch = steady_states(paper_rates, drive, detunings)
        for det, rho in zip(detunings, batch):
            liou = liouvillian_matrix(paper_rates, DriveConfig(2.06 * M, 0.02 * M, det))
            kernel = null_space(liou, rcond=1e-10)
            assert kernel.shape[1] == 1
            ref = kernel[:, 0].reshape(3, 3) / np.trace(kernel[:, 0].reshape(3, 3))
            assert np.max(np.abs(rho - 0.5 * (ref + ref.conj().T))) < 1e-12
        assert np.array_equal(batch[30], steady_state(paper_rates, drive))

    def test_no_dissipation_raises(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=0.0, relax_21=0.0)
        with pytest.raises(NoUniqueSteadyState):
            steady_state(rates, DriveConfig(control=1.0 * M, probe=0.1 * M))

    def test_degenerate_null_space_raises(self):
        # pure dephasing with no relaxation leaves every diagonal state fixed
        rates = ThreeLevelRates(relax_10=0.0, relax_20=0.0, relax_21=0.0,
                                dephase_00=1.0 * M, dephase_11=1.0 * M,
                                dephase_22=1.0 * M)
        with pytest.raises(NoUniqueSteadyState):
            steady_state(rates, DriveConfig(control=0.0, probe=0.0))


class TestAnalyticCoherence:
    def test_paper_resonance_value(self, paper_rates):
        drive = DriveConfig(control=2.06 * M, probe=0.35 * M, detuning=0.0)
        with pytest.warns(WeakProbeWarning):
            rho20 = coherence_rho20_analytic(paper_rates, drive)
        assert rho20.real == pytest.approx(0.0, abs=1e-15)
        assert rho20.imag == pytest.approx(0.35 / (6.90 + 2.06**2 / 1.76), rel=1e-12)
        assert rho20.imag == pytest.approx(0.0376, abs=1e-4)

    def test_lorentzian_without_control(self, paper_rates):
        g20 = paper_rates.coherence_20
        drive = DriveConfig(control=0.0, probe=0.01 * g20, detuning=2.0 * g20)
        rho20 = coherence_rho20_analytic(paper_rates, drive)
        assert rho20 == pytest.approx(drive.probe / (drive.detuning - 1j * g20), rel=1e-12)

    def test_vanishes_at_large_detuning(self, paper_rates):
        g20 = paper_rates.coherence_20
        near = coherence_rho20_analytic(
            paper_rates, DriveConfig(control=0.0, probe=0.01 * g20, detuning=0.0))
        far = coherence_rho20_analytic(
            paper_rates, DriveConfig(control=0.0, probe=0.01 * g20, detuning=1e6 * g20))
        assert abs(far) < 1e-5 * abs(near)

    def test_pole_guard(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=0.0, relax_21=0.0)
        drive = DriveConfig(control=1.0 * M, probe=0.01 * M, detuning=0.0)
        with pytest.raises(PoleAtOrigin):
            coherence_rho20_analytic(rates, drive)


class TestAnalyticPopulations:
    def test_no_probe_gives_ground_state(self, paper_rates):
        drive = DriveConfig(control=2.0 * M, probe=0.0, detuning=0.0)
        assert populations_analytic(paper_rates, drive, 0.0) == (0.0, 0.0)

    def test_matches_null_space_oracle(self, paper_rates):
        control = 2.88 * M
        drive = DriveConfig(control=control, probe=0.01 * control, detuning=0.0)
        rho = steady_state(paper_rates, drive)
        rho20 = coherence_rho20_analytic(paper_rates, drive)
        p11, p22 = populations_analytic(paper_rates, drive, rho20.imag)
        assert p11 == pytest.approx(rho[1, 1].real, rel=1e-2)
        assert p22 == pytest.approx(rho[2, 2].real, rel=1e-2)

    def test_matches_oracle_across_detunings(self, paper_rates):
        control = 2.88 * M
        for det in np.linspace(-25.0 * M, 25.0 * M, 21):
            drive = DriveConfig(control=control, probe=0.01 * control, detuning=det)
            rho = steady_state(paper_rates, drive)
            rho20 = coherence_rho20_analytic(paper_rates, drive)
            p11, p22 = populations_analytic(paper_rates, drive, rho20.imag)
            assert p11 == pytest.approx(rho[1, 1].real, rel=1e-2)
            assert p22 == pytest.approx(rho[2, 2].real, rel=1e-2)

    def test_lambda_configuration(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=5.0 * M, relax_21=4.0 * M,
                                dephase_11=0.3 * M)
        control = 2.0 * M
        drive = DriveConfig(control=control, probe=0.01 * control, detuning=0.5 * M)
        rho = steady_state(rates, drive)
        rho20 = coherence_rho20_analytic(rates, drive)
        p11, p22 = populations_analytic(rates, drive, rho20.imag)
        assert p11 == pytest.approx(rho[1, 1].real, rel=1e-2)
        assert p22 == pytest.approx(rho[2, 2].real, rel=1e-2)

    def test_degenerate_denominator(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=1.0 * M, relax_21=1.0 * M)
        drive = DriveConfig(control=0.0, probe=0.001 * M)
        with pytest.raises(DegenerateDenominator):
            populations_analytic(rates, drive, 0.01)


class TestRabiTrace:
    def test_undamped_probe_oscillation(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=0.0, relax_21=0.0)
        probe = np.pi / 56.8e-9
        times = np.linspace(0.0, 200e-9, 101)
        trace = rabi_trace(rates, probe, times)
        assert np.allclose(trace, np.sin(probe * times) ** 2, atol=1e-6)

    def test_paper_fixture_fit(self):
        # decay channel tuned so the fitted envelope time lands on 130.6 ns
        relax = 4.0 / (3.0 * 130.6e-9)
        rates = ThreeLevelRates(relax_10=0.0, relax_20=relax, relax_21=0.0)
        probe = np.pi / 56.8e-9
        times = np.linspace(0.0, 400e-9, 401)
        trace = rabi_trace(rates, probe, times)
        fit = fit_damped_sinusoid(Dataset(x=times * 1e9, y=trace))
        assert fit.parameters["period"] == pytest.approx(56.8, rel=0.01)
        assert fit.parameters["decay_time"] == pytest.approx(130.6, rel=0.02)
        assert "at_limit" not in fit.warnings

    def test_readme_trace_fit_is_flagged_at_limit(self, paper_rates):
        # a 0.02 MHz probe against 1.76/6.90 MHz coherence decay: no oscillation
        probe = 0.02 * M
        times = np.linspace(0.0, 8.0 * np.pi / probe, 321)
        trace = rabi_trace(paper_rates, probe, times)
        fit = fit_damped_sinusoid(Dataset(x=times * 1e9, y=trace))
        assert "at_limit" in fit.warnings

    def test_non_uniform_times_match_expm_reference(self, paper_rates):
        probe = 3.0 * M
        times = np.r_[0.0, np.geomspace(1e-9, 400e-9, 60)]
        trace = rabi_trace(paper_rates, probe, times)
        liou = liouvillian_matrix(paper_rates, DriveConfig(control=0.0, probe=probe))
        ground = ket_rho(0).reshape(9)
        reference = np.array([(expm(liou * t) @ ground)[8].real for t in times])
        assert np.unique(np.diff(times)).size > 50
        assert np.max(np.abs(trace - reference)) < 1e-12 * np.max(reference)

    def test_trace_drift_aborts(self, paper_rates, monkeypatch):
        monkeypatch.setattr(lindblad, "expm", lambda m: 1.001 * expm(m))
        with pytest.raises(TraceDriftError):
            rabi_trace(paper_rates, 1.0 * M, np.linspace(0.0, 1e-7, 11))

    def test_doubling_probe_halves_period(self):
        rates = ThreeLevelRates(relax_10=0.0, relax_20=2.0 * M, relax_21=0.0)
        times = np.linspace(0.0, 300e-9, 301)
        periods = []
        for probe in (np.pi / 60e-9, 2 * np.pi / 60e-9):
            trace = rabi_trace(rates, probe, times)
            fit = fit_damped_sinusoid(Dataset(x=times * 1e9, y=trace))
            periods.append(fit.parameters["period"])
        assert periods[0] / periods[1] == pytest.approx(2.0, rel=0.01)

    def test_time_validation(self, paper_rates):
        with pytest.raises(ValueError):
            rabi_trace(paper_rates, 1.0 * M, np.array([0.0]))
        with pytest.raises(ValueError):
            rabi_trace(paper_rates, 1.0 * M, np.array([1e-9, 0.5e-9]))


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        validate_density_matrix(np.eye(3, dtype=complex) / 3.0)

    def test_rejects_non_hermitian(self):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 1] = 0.5
        with pytest.raises(ValueError):
            validate_density_matrix(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(3, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            validate_density_matrix(rho)
