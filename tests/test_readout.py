import numpy as np
import pytest

from eitats.lindblad import DriveConfig, coherence_rho20_analytic, populations_analytic, steady_state
from eitats.readout import (
    CavitySpec,
    DegenerateNormalization,
    ZeroDetuning,
    cavity_lorentzian,
    composite_transmission,
    dispersive_shifts,
    normalized_transmission,
)

M = 2.0 * np.pi * 1e6


def ket_rho(level):
    rho = np.zeros((3, 3), dtype=complex)
    rho[level, level] = 1.0
    return rho


class TestCavitySpec:
    def test_kappa_derived(self):
        cav = CavitySpec(frequency=8.21690e9, q_loaded=1000.0, g1=173e6)
        assert cav.kappa == pytest.approx(8.2169e6, rel=1e-12)
        assert cav.kappa == pytest.approx(8.22e6, rel=1e-3)

    def test_g2_harmonic_default(self):
        cav = CavitySpec(frequency=8e9, q_loaded=1000.0, g1=100e6)
        assert cav.g2 == pytest.approx(np.sqrt(2.0) * 100e6, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CavitySpec(frequency=-1.0, q_loaded=1000.0, g1=1e6)
        with pytest.raises(ValueError):
            CavitySpec(frequency=8e9, q_loaded=0.0, g1=1e6)


class TestDispersiveShifts:
    def test_no_second_coupling(self):
        cav = CavitySpec(frequency=8e9, q_loaded=1000.0, g1=100e6, g2=0.0)
        shifts = dispersive_shifts(cav, nu_10=5e9, nu_21=4.5e9)
        assert shifts.chi_2 == 0.0
        assert shifts.pull_2 == 0.0

    def test_paper_numbers(self):
        cav = CavitySpec(frequency=8.21950e9, q_loaded=1000.0, g1=173e6, g2=0.0)
        shifts = dispersive_shifts(cav, nu_10=8.21950e9 - 3.828e9, nu_21=4.0e9)
        assert shifts.chi_1 == pytest.approx(-0.0452, abs=2e-4)
        assert shifts.pull_0 == pytest.approx(7.82e6, rel=2e-3)

    def test_validity_flag(self):
        cav = CavitySpec(frequency=8e9, q_loaded=1000.0, g1=200e6, g2=0.0)
        shifts = dispersive_shifts(cav, nu_10=8e9 - 1e9, nu_21=4e9)
        assert not shifts.dispersive_valid  # |g/Delta| = 0.2

    def test_zero_detuning(self):
        cav = CavitySpec(frequency=8e9, q_loaded=1000.0, g1=100e6)
        with pytest.raises(ZeroDetuning):
            dispersive_shifts(cav, nu_10=8e9, nu_21=4e9)

    def test_pull_quadratic_in_coupling(self):
        cav1 = CavitySpec(frequency=8e9, q_loaded=1000.0, g1=50e6, g2=0.0)
        cav2 = CavitySpec(frequency=8e9, q_loaded=1000.0, g1=100e6, g2=0.0)
        s1 = dispersive_shifts(cav1, nu_10=5e9, nu_21=4e9)
        s2 = dispersive_shifts(cav2, nu_10=5e9, nu_21=4e9)
        assert s2.pull_0 == pytest.approx(4.0 * s1.pull_0, rel=1e-12)

    def test_signs_locked_by_perturbation_theory(self):
        # exact diagonalization of the atom-cavity ladder at small coupling:
        # the per-photon pull of each atomic state must match the formulas
        # to second order in g
        omega_cav, nu10, nu21 = 1.0, 0.7, 0.55
        g1, g2 = 0.01, 0.013
        n_photons = 8
        dim = 3 * n_photons
        ham = np.zeros((dim, dim))

        def idx(state, n):
            return state * n_photons + n

        for state, energy in ((0, 0.0), (1, nu10), (2, nu10 + nu21)):
            for n in range(n_photons):
                ham[idx(state, n), idx(state, n)] = energy + omega_cav * n
        for n in range(n_photons - 1):
            # g1 (a+ |0><1| + a |1><0|), g2 (a+ |1><2| + a |2><1|)
            amp = np.sqrt(n + 1)
            ham[idx(0, n + 1), idx(1, n)] = g1 * amp
            ham[idx(1, n), idx(0, n + 1)] = g1 * amp
            ham[idx(1, n + 1), idx(2, n)] = g2 * amp
            ham[idx(2, n), idx(1, n + 1)] = g2 * amp
        vals, vecs = np.linalg.eigh(ham)

        def dressed_energy(state, n):
            overlaps = np.abs(vecs[idx(state, n), :])
            return vals[np.argmax(overlaps)]

        cav = CavitySpec(frequency=omega_cav, q_loaded=1000.0, g1=g1, g2=g2)
        shifts = dispersive_shifts(cav, nu_10=nu10, nu_21=nu21)
        for state, pull in ((0, shifts.pull_0), (1, shifts.pull_1),
                            (2, shifts.pull_2)):
            per_photon = dressed_energy(state, 1) - dressed_energy(state, 0) - omega_cav
            # residual is the fourth-order term, ~ (g/Delta)^2 * pull
            assert per_photon == pytest.approx(pull, abs=2e-6)
            assert np.sign(per_photon) == np.sign(pull)


class TestCavityLorentzian:
    def test_resonance_peak(self):
        assert abs(cavity_lorentzian(8e9, 8e9, 8e6)) == 1.0

    def test_half_width_point(self):
        amp = cavity_lorentzian(8e9 + 4e6, 8e9, 8e6)
        assert abs(amp) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            cavity_lorentzian(8e9, 8e9, 0.0)


class TestCompositeTransmission:
    def test_pure_states(self):
        t0, t1, t2 = 0.9 + 0.1j, 0.5, 0.2 - 0.3j
        assert composite_transmission(ket_rho(0), t0, t1, t2) == t0
        t = composite_transmission(ket_rho(2), t0, t1, t2)
        assert normalized_transmission(t, t0, t2) == pytest.approx(1.0, rel=1e-15)
        t = composite_transmission(ket_rho(0), t0, t1, t2)
        assert normalized_transmission(t, t0, t2) == pytest.approx(0.0, abs=1e-15)
        # a stack of states gives one transmission per state
        stack = np.stack([ket_rho(k) for k in range(3)])
        assert np.array_equal(composite_transmission(stack, t0, t1, t2), [t0, t1, t2])

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        t0, t1, t2 = 0.8, 0.5 + 0.2j, 0.1
        base = normalized_transmission(composite_transmission(rho, t0, t1, t2), t0, t2)
        for _ in range(20):
            c = rng.normal() + 1j * rng.normal()
            scaled = normalized_transmission(
                composite_transmission(rho, c * t0, c * t1, c * t2), c * t0, c * t2)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_reduces_to_population_mix(self):
        rho = np.diag([0.7, 0.2, 0.1]).astype(complex)
        t0, t1, t2 = 1.0, 0.6, 0.2
        t = composite_transmission(rho, t0, t1, t2)
        alpha = (t1 - t0) / (t2 - t0)
        expected = alpha * rho[1, 1].real + rho[2, 2].real
        assert normalized_transmission(t, t0, t2) == pytest.approx(expected, rel=1e-14)

    def test_degenerate_normalization(self):
        with pytest.raises(DegenerateNormalization):
            normalized_transmission(0.5, 1.0, 1.0)


class TestEndToEndProportionality:
    def test_transmission_proportional_to_coherence(self, paper_rates):
        # steady state at resonance -> composite T' vs A * Im(rho_20), with A
        # assembled from the analytic population coefficients
        control = 2.88 * M
        drive = DriveConfig(control=control, probe=0.01 * control, detuning=0.0)
        rho = steady_state(paper_rates, drive)

        cav = CavitySpec(frequency=8.21690e9, q_loaded=1000.0, g1=173e6)
        shifts = dispersive_shifts(cav, nu_10=4.39125e9, nu_21=3.97950e9)
        readout = cav.frequency + shifts.pull_0
        t_levels = [
            abs(cavity_lorentzian(readout, cav.frequency + pull, cav.kappa))
            for pull in (shifts.pull_0, shifts.pull_1, shifts.pull_2)
        ]

        t_mix = composite_transmission(rho, *t_levels)
        tprime = normalized_transmission(t_mix, t_levels[0], t_levels[2]).real

        rho20 = coherence_rho20_analytic(paper_rates, drive)
        p11, p22 = populations_analytic(paper_rates, drive, rho20.imag)
        alpha = (t_levels[1] - t_levels[0]) / (t_levels[2] - t_levels[0])
        amplitude = (alpha * p11 + p22) / rho20.imag
        assert tprime == pytest.approx(amplitude * rho20.imag, rel=1e-3)
