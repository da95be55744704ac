from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    populations_analytic,
    rabi_trace,
    rotating_frame_hamiltonian,
    steady_state,
    steady_states,
    validate_density_matrix,
)
from eitats.synth import add_noise

M = 2.0 * np.pi * 1e6


def ket_rho(level):
    rho = np.zeros((3, 3), dtype=complex)
    rho[level, level] = 1.0
    return rho


def master_equation_rhs(rho, rates, drive):
    """drho/dt written out as matrix products, the oracle ``liouvillian_matrix``
    is checked against: the commutator, then each jump term D[O] rho =
    2 O rho O+ - O+ O rho - rho O+ O, downward jumps at half the relaxation
    rates and level projectors at the dephasing rates."""
    h = rotating_frame_hamiltonian(drive)
    out = -1j * (h @ rho - rho @ h)
    jumps = ((0.5 * rates.relax_10, 0, 1), (0.5 * rates.relax_20, 0, 2),
             (0.5 * rates.relax_21, 1, 2), (rates.dephase_00, 0, 0),
             (rates.dephase_11, 1, 1), (rates.dephase_22, 2, 2))
    for coef, i, j in jumps:
        if coef == 0.0:
            continue
        op = np.zeros((3, 3), dtype=complex)
        op[i, j] = 1.0
        opd = op.conj().T
        out += coef * (2.0 * op @ rho @ opd - opd @ op @ rho - rho @ opd @ op)
    return out


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
        with pytest.raises(ValueError, match="^drive strengths must be >= 0$"):
            DriveConfig(control=-1.0, probe=0.0)

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
        stepper = expm(liouvillian_matrix(paper_rates, drive) * step)
        vec = ket_rho(0).reshape(9)
        expected = [vec]
        for k in range(1, 104):
            vec = stepper @ vec
            if k % stride == 0 or k == 103:
                expected.append(vec)
        assert traj.times == pytest.approx(step * np.r_[0:103:stride, 103], rel=1e-12)
        assert np.max(np.abs(traj.states.reshape(-1, 9) - np.array(expected))) < 1e-12

    def test_coarse_step_stays_exact(self, paper_rates):
        # a step far too long for a fixed-step scheme only spaces the samples
        drive = DriveConfig(control=50.0 * M, probe=0.0)
        traj = evolve(ket_rho(1), paper_rates, drive, 2e-6, step=2e-8)
        liou = liouvillian_matrix(paper_rates, drive)
        expected = [expm(liou * t) @ ket_rho(1).reshape(9) for t in traj.times]
        assert traj.times.size == 101
        assert np.max(np.abs(traj.states.reshape(-1, 9) - np.array(expected))) < 1e-12
        for rho in traj.states:
            validate_density_matrix(rho)

    def test_argument_validation(self, paper_rates):
        drive = DriveConfig(control=0.0, probe=0.0)
        with pytest.raises(ValueError):
            evolve(ket_rho(0), paper_rates, drive, -1.0)
        with pytest.raises(ValueError):
            evolve(ket_rho(0), paper_rates, drive, 1e-6, step=2e-6)
        with pytest.raises(ValueError, match="^sample_stride must be >= 1$"):
            evolve(ket_rho(0), paper_rates, drive, 1e-6, sample_stride=0)


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

    @settings(max_examples=60, deadline=None)
    @given(relax=st.lists(st.floats(0.2, 20.0), min_size=3, max_size=3),
           dephase=st.one_of(st.just([0.0, 0.0, 0.0]),
                             st.lists(st.floats(0.2, 20.0), min_size=3, max_size=3)),
           control=st.floats(0.0, 20.0), probe=st.floats(0.0, 20.0),
           detunings=st.lists(st.floats(-25.0, 25.0), min_size=1, max_size=6))
    def test_stack_matches_null_space_over_random_rates(self, relax, dephase, control, probe,
                                                        detunings):
        rates = ThreeLevelRates(*(M * rate for rate in relax + dephase))
        drive = DriveConfig(control=control * M, probe=probe * M)
        detunings = np.array(detunings) * M
        batch = steady_states(rates, drive, detunings)
        for det, rho in zip(detunings, batch):
            alone = replace(drive, detuning=det)
            assert np.array_equal(rho, steady_state(rates, alone))
            kernel = null_space(liouvillian_matrix(rates, alone), rcond=1e-10)
            assert kernel.shape[1] == 1
            ref = kernel[:, 0].reshape(3, 3) / np.trace(kernel[:, 0].reshape(3, 3))
            assert np.max(np.abs(rho - 0.5 * (ref + ref.conj().T))) < 1e-12

    @pytest.mark.parametrize("control", [2.06, 5.29, 19.7])
    def test_excited_block_matches_extended_precision(self, paper_rates, control):
        # the small excited-state block the cavity readout subtracts, against a
        # 40-digit solve of the same float64 Liouvillian with its row 8 (not the
        # row steady_states replaces) swapped for the trace condition
        mpmath = pytest.importorskip("mpmath")
        detunings = np.linspace(-25.0, 25.0, 61) * M
        drive = DriveConfig(control=control * M, probe=0.02 * M)
        batch = steady_states(paper_rates, drive, detunings)
        with mpmath.workdps(40):
            for det, rho in zip(detunings, batch):
                liou = liouvillian_matrix(paper_rates, replace(drive, detuning=det))
                # trace conservation holds exactly in float64, so the 40-digit
                # solution is the float64 Liouvillian's own null vector
                assert not np.any(liou[0] + liou[4] + liou[8])
                system = mpmath.matrix(liou.tolist())
                for col in range(9):
                    system[8, col] = 1 if col in (0, 4, 8) else 0
                ref = mpmath.lu_solve(system, mpmath.matrix([0] * 8 + [1]))
                block = np.array([complex(ref[k]) for k in (4, 5, 7, 8)])
                err = np.max(np.abs(rho[1:, 1:].reshape(4) - block))
                assert err < 1e-14 * np.max(np.abs(block))

    def test_no_svd(self, paper_rates, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("matrix decomposition inside steady_states")

        for name in ("svd", "lstsq", "pinv", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        batch = steady_states(paper_rates, DriveConfig(control=2.06 * M, probe=0.02 * M),
                              np.linspace(-25.0, 25.0, 61) * M)
        assert batch.shape == (61, 3, 3)

    def test_near_degenerate_relaxation_threshold(self, paper_rates):
        # undriven, relax_10 -> 0 leaves |0> and |1> both stationary; the bordered
        # system's condition number, about 4.3e8 rad/s / relax_10 here, reaches
        # 1e10 at relax_10 = 0.0434 rad/s (1e-9 of the largest rate)
        undriven = DriveConfig(control=0.0, probe=0.0)
        for relax_10 in (0.0, 1e-3, 0.04):
            with pytest.raises(NoUniqueSteadyState):
                steady_state(replace(paper_rates, relax_10=relax_10), undriven)
        for relax_10 in (0.05, 1.0, paper_rates.relax_10):
            rho = steady_state(replace(paper_rates, relax_10=relax_10), undriven)
            assert np.allclose(rho, ket_rho(0), rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("detuning", [0.0, 2.0, -7.0])
    def test_matches_oracle_without_control(self, paper_rates, detuning):
        drive = DriveConfig(control=0.0, probe=0.02 * M, detuning=detuning * M)
        rho = steady_state(paper_rates, drive)
        rho20 = coherence_rho20_analytic(paper_rates, drive)
        p11, p22 = populations_analytic(paper_rates, drive, rho20.imag)
        assert p11 == pytest.approx(rho[1, 1].real, rel=1e-4)
        assert p22 == pytest.approx(rho[2, 2].real, rel=1e-4)

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

    @settings(max_examples=100, deadline=None)
    @given(relax=st.tuples(st.floats(0.2, 20.0), st.floats(0.2, 20.0), st.floats(0.0, 20.0)),
           dephase=st.tuples(*[st.floats(0.0, 5.0)] * 3),
           control=st.floats(0.5, 20.0), detuning=st.floats(-25.0, 25.0))
    def test_weak_probe_matches_liouvillian_over_random_rates(self, relax, dephase, control,
                                                              detuning):
        # rates and drives in MHz; the probe is weak against every rate involved
        rates = ThreeLevelRates(*(M * v for v in relax + dephase))
        probe = 1e-3 * min(control * M, rates.coherence_10, rates.coherence_20)
        drive = DriveConfig(control=control * M, probe=probe, detuning=detuning * M)
        rho = steady_state(rates, drive)
        rho20 = coherence_rho20_analytic(rates, drive)
        p11, p22 = populations_analytic(rates, drive, rho20.imag)
        assert abs(rho[2, 0] - rho20) < 1e-3 * abs(rho20)
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

    def test_readme_noise_fit_takes_few_iterations(self, paper_rates):
        # `rabi --fit --seed 20` on the README config: noise about a flat trace, where
        # a tenfold damping cut after each poor-gain step zig-zags for tens of passes
        probe = 0.02 * M
        times = np.linspace(0.0, 8.0 * np.pi / probe, 321)
        trace = add_noise(rabi_trace(paper_rates, probe, times), 0.03, 20, 1, 0)
        fit = fit_damped_sinusoid(Dataset(x=times * 1e9, y=trace))
        assert fit.converged and fit.iterations <= 20
        assert fit.residual_sum <= 2.1176034641298546e-11
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
        monkeypatch.setattr(lindblad, "_expm", lambda m: 1.001 * expm(m))
        with pytest.raises(TraceDriftError, match="at t = 0.000e\\+00 s"):
            rabi_trace(paper_rates, 1.0 * M, np.linspace(0.0, 1e-7, 11))

    def test_nan_probe_counts_as_drift(self, paper_rates):
        with pytest.raises(TraceDriftError, match="nan"):
            rabi_trace(paper_rates, float("nan"), np.linspace(0.0, 1e-7, 11))

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


def assert_expm_matches_scipy(a):
    reference = expm(a)
    assert np.max(np.abs(lindblad._expm(a) - reference)) <= 1e-12 * np.max(np.abs(reference))


def mhz(high):
    # off or at least 1 kHz: scipy's expm returns NaN where an entry is subnormal
    return st.one_of(st.just(0.0), st.floats(1e-3, high))


class TestExpm:
    @settings(max_examples=200, deadline=None)
    @given(relax=st.tuples(*[mhz(20.0)] * 3), dephase=st.tuples(*[mhz(5.0)] * 3),
           control=mhz(50.0), probe=mhz(10.0), detuning=mhz(50.0),
           detuning_sign=st.sampled_from([-1.0, 1.0]), log_gap=st.floats(-11.0, -4.0))
    def test_matches_scipy(self, relax, dephase, control, probe, detuning, detuning_sign,
                           log_gap):
        # rates and drives in MHz, gaps from 10 ps to 100 us.  Two scaling-and-
        # squaring codes agree only to about 2^s eps after s squarings, so the
        # 1-norm is held to 1e3 (8 squarings): near 7e4 they differ by up to
        # 7e-12, and either may be the one nearer the exact exponential.
        rates = ThreeLevelRates(*(M * v for v in relax + dephase))
        drive = DriveConfig(control=control * M, probe=probe * M,
                            detuning=detuning_sign * detuning * M)
        a = liouvillian_matrix(rates, drive) * 10.0**log_gap
        assume(np.abs(a).sum(axis=0).max() <= 1e3)
        assert_expm_matches_scipy(a)

    @pytest.mark.parametrize("gap", [1e-11, 1e-9, 1e-7, 1e-5])
    def test_exceptional_point(self, paper_rates, gap):
        # Omega_c = (gamma_20 - gamma_10)/2 merges the two poles: L is defective
        control = 0.5 * (paper_rates.coherence_20 - paper_rates.coherence_10)
        liou = liouvillian_matrix(paper_rates, DriveConfig(control=control, probe=0.0))
        assert_expm_matches_scipy(liou * gap)

    def test_zero_matrix(self):
        assert_expm_matches_scipy(np.zeros((9, 9), dtype=complex))

    def test_stack_equals_each_alone(self, paper_rates):
        # gaps from no squaring to 9 squarings, a zero matrix and a NaN one
        liou = liouvillian_matrix(paper_rates, DriveConfig(control=2.06 * M, probe=0.02 * M))
        gaps = np.array([0.0, 1e-11, 1e-9, 3e-8, 1e-7, 1e-5, np.nan])
        stack = lindblad._expm(liou * gaps[:, None, None])
        for gap, step in zip(gaps, stack):
            assert np.array_equal(step, lindblad._expm(liou * gap), equal_nan=True)
        assert np.all(np.isnan(stack[-1]))
        assert_expm_matches_scipy(liou * gaps[1:-1, None, None])


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        validate_density_matrix(np.eye(3, dtype=complex) / 3.0)

    def test_rejects_non_hermitian(self):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 1] = 0.5
        with pytest.raises(ValueError):
            validate_density_matrix(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="^density matrix must be 3x3$"):
            validate_density_matrix(np.eye(2, dtype=complex) / 2.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(3, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            validate_density_matrix(rho)
