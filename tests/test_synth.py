
import numpy as np
import pytest

from eitats.spectra import tprime_exact
from eitats.synth import add_noise, cell_rng, default_detuning_grid, synth_spectrum

M = 2.0 * np.pi * 1e6
G10, G20 = 1.76 * M, 6.90 * M


class TestSynthSpectrum:
    def test_noiseless_is_exact_curve(self):
        s = synth_spectrum(G10, G20, 2.88 * M)
        p = {"amplitude": 1.0, "control": 2.88 * M}
        p["amplitude"] = 1.0 / np.max(tprime_exact(s.x, p, G10, G20))
        assert np.array_equal(s.y, tprime_exact(s.x, p, G10, G20))
        assert s.y.max() == pytest.approx(1.0, rel=1e-12)

    def test_same_seed_reproduces(self):
        a = synth_spectrum(G10, G20, 5.29 * M, noise_sigma=0.03, seed_parts=(3, 1, 4))
        b = synth_spectrum(G10, G20, 5.29 * M, noise_sigma=0.03, seed_parts=(3, 1, 4))
        assert np.array_equal(a.y, b.y)
        c = synth_spectrum(G10, G20, 5.29 * M, noise_sigma=0.03, seed_parts=(3, 1, 5))
        assert not np.array_equal(a.y, c.y)

    def test_noise_amplitude_calibration(self):
        # sample standard deviation of (noisy - exact) across 100 seeds lands
        # within 20% of sigma * peak
        exact = synth_spectrum(G10, G20, 2.06 * M).y
        peak = exact.max()
        draws = []
        for seed in range(100):
            s = synth_spectrum(G10, G20, 2.06 * M, noise_sigma=0.03,
                               seed_parts=(seed,))
            draws.append(s.y - exact)
        sample_std = float(np.std(np.concatenate(draws)))
        assert sample_std == pytest.approx(0.03 * peak, rel=0.2)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0"):
            synth_spectrum(G10, G20, 2.0 * M, noise_sigma=-0.01)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0"):
            synth_spectrum(G10, G20, 2.0 * M, noise_sigma=sigma)

    @pytest.mark.parametrize("sigma", [0.0, 0.03])
    def test_each_row_of_a_stack_is_its_own_call(self, sigma):
        controls = np.array([0.5, 2.06, 5.29, 19.7, 40.0]) * M
        seeds = [(2, k, 7 - k) for k in range(controls.size)]
        stack = synth_spectrum(G10, G20, controls, noise_sigma=sigma, seed_parts=seeds)
        assert stack.y.shape == (controls.size, 61)
        for row, control, seed in zip(stack.y, controls, seeds):
            alone = synth_spectrum(G10, G20, control, noise_sigma=sigma, seed_parts=seed)
            assert np.array_equal(stack.x, alone.x) and row.tobytes() == alone.y.tobytes()

    def test_stack_needs_one_seed_per_control(self):
        with pytest.raises(ValueError):
            synth_spectrum(G10, G20, np.array([2.0, 3.0]) * M, noise_sigma=0.03,
                           seed_parts=[(0, 0)])
        with pytest.raises(ValueError, match="^drive strengths must be >= 0$"):
            synth_spectrum(G10, G20, np.array([2.0, -3.0]) * M)

    def test_default_grid(self):
        grid = default_detuning_grid()
        assert grid.size == 61
        assert grid[0] == pytest.approx(-2 * np.pi * 25e6, rel=1e-12)


class TestCellRng:
    def test_portable_and_deterministic(self):
        a = cell_rng(1, 2, 3).normal(size=4)
        b = cell_rng(1, 2, 3).normal(size=4)
        assert np.array_equal(a, b)
        c = cell_rng(1, 2, 4).normal(size=4)
        assert not np.array_equal(a, c)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        values = np.linspace(0.0, 1.0, 5)
        assert add_noise(values, 0.0, 1, 2) is values

    def test_peak_referenced_and_seeded(self):
        values = np.linspace(0.0, 2.0, 5)
        expected = values + cell_rng(7, 1, 0).normal(0.0, 0.03 * 2.0, size=5)
        assert np.array_equal(add_noise(values, 0.03, 7, 1, 0), expected)
