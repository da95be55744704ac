import functools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitats import fitting, model_selection
from eitats.fitting import Dataset, FitBatch, SingularJacobian, fit_reduced_forms
from eitats.model_selection import (
    NoCrossing,
    NonPositiveResidual,
    aic,
    crossing_threshold,
    discriminate,
    akaike_weights,
    weight_sweep,
)
from eitats.synth import default_detuning_grid, synth_spectrum

# angular units: rad/s with the grid span in the same scale
M = 2.0 * np.pi * 1e6
G10, G20 = 1.76 * M, 6.90 * M
README_GRID = np.linspace(2.0, 8.0, 13) * M  # the README control grid


def readme_text():
    """The README with each run of whitespace as one space."""
    return " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


class TestAic:
    def test_unit_ratio_reduces_to_penalty(self):
        assert aic(61, 61.0, 4) == 8.0

    def test_halving_residual(self):
        n, k = 61, 3
        assert aic(n, 10.0, k) - aic(n, 5.0, k) == pytest.approx(n * math.log(2.0),
                                                                  rel=1e-14)

    def test_exact_fit_sentinel(self):
        assert aic(61, 0.0, 4) == float("-inf")

    def test_invalid_inputs(self):
        with pytest.raises(NonPositiveResidual):
            aic(61, -1.0, 4)
        with pytest.raises(ValueError):
            aic(0, 1.0, 4)


class TestPerPointWeights:
    def test_equal_losses(self):
        assert akaike_weights(1.3, 1.3) == (0.5, 0.5)

    def test_saturation(self):
        w_eit, w_ats = akaike_weights(0.0, 100.0)
        assert w_eit == pytest.approx(1.0, abs=1e-15)
        assert w_ats == pytest.approx(0.0, abs=1e-15)

    def test_small_gap_value(self):
        w_eit, _ = akaike_weights(2.0 / 61.0 + 0.7, 0.7)
        assert w_eit == pytest.approx(1.0 / (1.0 + math.exp(1.0 / 61.0)), rel=1e-12)
        assert w_eit == pytest.approx(0.4959, abs=1e-4)

    def test_sentinel_handling(self):
        assert akaike_weights(float("-inf"), 1.0) == (1.0, 0.0)
        assert akaike_weights(1.0, float("-inf")) == (0.0, 1.0)
        assert akaike_weights(float("-inf"), float("-inf")) == (0.5, 0.5)

    def test_infinite_loss_takes_no_weight(self):
        inf = float("inf")
        assert akaike_weights(inf, 5.0) == (0.0, 1.0)
        assert akaike_weights(5.0, inf) == (1.0, 0.0)
        assert akaike_weights(-inf, inf) == (1.0, 0.0)
        assert akaike_weights(inf, -inf) == (0.0, 1.0)
        assert akaike_weights(inf, inf) == (0.5, 0.5)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_any_pair_of_losses_gives_weights(self, a, b):
        w, v = akaike_weights(a, b)
        assert 0.0 <= w <= 1.0 and 0.0 <= v <= 1.0
        assert w + v == 1.0

    def test_sum_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.normal(scale=30.0, size=2)
            w, v = akaike_weights(a, b)
            assert w + v == 1.0
            assert 0.0 <= w <= 1.0

    def test_monotone_in_gap(self):
        gaps = np.linspace(-10.0, 10.0, 41)
        weights = [akaike_weights(g, 0.0)[0] for g in gaps]
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_relabeling_symmetry(self):
        w, v = akaike_weights(1.1, 2.9)
        v2, w2 = akaike_weights(2.9, 1.1)
        assert (w, v) == (w2, v2)


class TestDiscriminate:
    def test_noiseless_window_regime_takes_all_weight(self):
        s = synth_spectrum(G10, G20, 2.06 * M)
        report = discriminate(*fit_reduced_forms(s))
        assert report.r_eit < 1e-15 * report.r_ats
        assert report.w_eit > 0.999999
        assert report.w_eit + report.w_ats == 1.0

    def test_noisy_doublet_regime(self):
        s = synth_spectrum(G10, G20, 19.7 * M, noise_sigma=0.03, seed_parts=(0,))
        report = discriminate(*fit_reduced_forms(s))
        assert report.w_ats > 0.95

    def test_bookkeeping(self):
        s = synth_spectrum(G10, G20, 5.29 * M, noise_sigma=0.03, seed_parts=(1,))
        report = discriminate(*fit_reduced_forms(s))
        assert report.n_points == 61
        assert report.k_eit == 4 and report.k_ats == 3
        assert report.ibar_eit == pytest.approx(report.i_eit / 61.0, rel=1e-12)

    def test_non_finite_residual_loses(self):
        # a fit whose curve went non-finite reports a residual sum of +inf
        s = synth_spectrum(G10, G20, 2.06 * M, noise_sigma=0.03, seed_parts=(0,))
        eit_fit, ats_fit = fit_reduced_forms(s)
        report = discriminate(replace(eit_fit, residual_sum=math.inf), ats_fit)
        assert (report.w_eit, report.w_ats) == (0.0, 1.0)

    def test_fits_of_different_spectra_are_refused(self):
        s = synth_spectrum(G10, G20, 2.06 * M, noise_sigma=0.03, seed_parts=(0,))
        short = synth_spectrum(G10, G20, 2.06 * M, default_detuning_grid(41), noise_sigma=0.03,
                               seed_parts=(0,))
        eit_fit, ats_fit = fit_reduced_forms(s)
        with pytest.raises(ValueError, match="^fits of different spectra: 61 and 41 points$"):
            discriminate(eit_fit, fit_reduced_forms(short)[1])
        with pytest.raises(ValueError, match="^fits of different spectra: 41 and 61 points$"):
            discriminate(fit_reduced_forms(short)[0], ats_fit)


class TestWeightSweep:
    def test_noiseless_window_regime(self):
        res = weight_sweep(G10, G20, np.array([2.0]) * M, noise_sigma=0.0, n_seeds=1)
        assert res.w_eit_mean[0] > 0.99

    def test_noisy_doublet_regime_over_seeds(self):
        res = weight_sweep(G10, G20, np.array([19.7]) * M, noise_sigma=0.03, n_seeds=20)
        assert res.w_ats_mean[0] > 0.95
        assert res.n_failed[0] == 0

    def test_weights_sum_to_one(self):
        grid = np.array([2.0, 4.0, 6.0]) * M
        res = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=4)
        assert np.allclose(res.w_eit_mean + res.w_ats_mean, 1.0, atol=1e-15)
        assert np.all(res.w_eit_min <= res.w_eit_mean + 1e-15)
        assert np.all(res.w_eit_mean <= res.w_eit_max + 1e-15)

    def test_mean_curve_monotone_through_transition(self):
        grid = np.arange(2.0, 8.01, 0.5) * M
        res = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=8,
                           base_seed=3)
        curve = res.w_eit_mean
        # finite-seed fluctuation on the saturated plateaus stays tiny; the
        # transition section itself must fall strictly
        assert np.all(np.diff(curve) <= 5e-3)
        inside = (curve > 0.05) & (curve < 0.95)
        assert np.all(np.diff(curve[inside]) < 0)

    def test_determinism_and_seed_independence_of_cells(self):
        grid = np.array([3.0, 5.0]) * M
        a = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=3, base_seed=9)
        b = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=3, base_seed=9)
        assert np.array_equal(a.w_eit_mean, b.w_eit_mean)
        # a cell's result does not depend on which other cells are present
        c = weight_sweep(G10, G20, np.array([5.0]) * M, noise_sigma=0.03, n_seeds=3,
                         base_seed=9)
        assert c.w_eit_mean[0] != a.w_eit_mean[1]  # cell keyed by grid index

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_sweep(G10, G20, np.array([2.0, 1.0]) * M)
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0"):
                weight_sweep(G10, G20, np.array([2.0]) * M, noise_sigma=sigma)
        with pytest.raises(ValueError, match="^n_seeds must be >= 1"):
            weight_sweep(G10, G20, np.array([2.0]) * M, n_seeds=0)


class TestBatchedSweep:
    def sweep(self, monkeypatch):
        """weight_sweep on the README grid x 3 seeds, and the (EIT fit, ATS fit)
        of each cell as the batch hands them to discriminate."""
        seen, original = [], model_selection.discriminate

        def tap(eit_fit, ats_fit):
            seen.append((eit_fit, ats_fit))
            return original(eit_fit, ats_fit)

        monkeypatch.setattr(model_selection, "discriminate", tap)
        return weight_sweep(G10, G20, README_GRID, noise_sigma=0.03, n_seeds=3), seen

    def test_each_cell_fits_as_if_alone(self, monkeypatch):
        res, seen = self.sweep(monkeypatch)
        assert len(seen) == res.w_eit.size == 39
        for c, (eit, ats) in enumerate(seen):
            cell = i, seed = divmod(c, 3)
            alone = synth_spectrum(G10, G20, README_GRID[i], noise_sigma=0.03,
                                   seed_parts=(0, i, seed))
            # parameters, residual_sum, iterations and converged, bit for bit
            assert (eit, ats) == fit_reduced_forms(alone)
            assert (res.r_eit[cell], res.r_ats[cell]) == (eit.residual_sum, ats.residual_sum)
            assert res.iterations[cell] == eit.iterations + ats.iterations
        assert res.converged.all() and not res.n_failed.any()

    def test_no_dataset_per_cell(self, monkeypatch):
        # each cell's verdict is made from its two fits: the datasets a sweep
        # builds do not grow in number with its cells
        built, post_init = [], Dataset.__post_init__

        def counted(data):
            built.append(data)
            post_init(data)

        monkeypatch.setattr(Dataset, "__post_init__", counted)
        counts = []
        for n_seeds in (1, 3):
            built.clear()
            res = weight_sweep(G10, G20, README_GRID, noise_sigma=0.03, n_seeds=n_seeds)
            assert not res.n_failed.any()
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_one_synthesis_and_one_minimizer_loop(self, monkeypatch):
        calls = {"synth_spectrum": 0, "nlls_minimize": 0}
        for module, name in ((model_selection, "synth_spectrum"), (fitting, "nlls_minimize")):
            def counted(*args, original=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        res = weight_sweep(G10, G20, README_GRID, noise_sigma=0.03, n_seeds=1)
        assert calls == {"synth_spectrum": 1, "nlls_minimize": 1}
        assert not res.n_failed.any()
        calls.update(nlls_minimize=0)
        discriminate(*fit_reduced_forms(synth_spectrum(G10, G20, 5.29 * M, noise_sigma=0.03,
                                                       seed_parts=(1,))))
        assert calls["nlls_minimize"] == 1

    def test_readme_quotes_the_benchmark_iteration_maxima(self):
        # the acceptance-test sweep (README grid, 25 seeds, base seed 0): the README
        # sentence on its fits must follow any change to the minimizer
        quoted = re.search(r"Every fit of the benchmark sweep converges, the difference form in "
                           r"at most (\d+) iterations and the doublet form in at most (\d+);",
                           readme_text())
        assert quoted, "README sentence on the benchmark sweep's iterations not found"
        spectra = [synth_spectrum(G10, G20, control, noise_sigma=0.03, seed_parts=(0, i, seed))
                   for i, control in enumerate(README_GRID) for seed in range(25)]
        stack = Dataset(x=spectra[0].x, y=[s.y for s in spectra])
        fits = fit_reduced_forms(stack)
        assert all(batch.converged for batch in fits)
        assert [batch.iterations for batch in fits] == [int(n) for n in quoted.groups()]

    def test_other_cell_failure_aborts_the_sweep(self, monkeypatch):
        original = model_selection.fit_reduced_forms

        def fit(stack):
            eit, ats = original(stack)
            cells = list(eit)
            cells[4] = ValueError("model is not finite at the initial parameters")
            return FitBatch(cells), ats

        monkeypatch.setattr(model_selection, "fit_reduced_forms", fit)
        with pytest.raises(ValueError, match="^model is not finite at the initial parameters$"):
            weight_sweep(G10, G20, README_GRID, noise_sigma=0.03, n_seeds=3)

    def test_zero_variance_cell_fails_alone(self, monkeypatch):
        reference = weight_sweep(G10, G20, README_GRID, noise_sigma=0.03, n_seeds=3)
        original = model_selection.synth_spectrum

        def synth(*args, seed_parts, **kwargs):
            spectra = original(*args, seed_parts=seed_parts, **kwargs)
            flat = np.array([seed[1:] == (4, 1) for seed in seed_parts])
            return replace(spectra, y=np.where(flat[:, None], 0.5, spectra.y))

        monkeypatch.setattr(model_selection, "synth_spectrum", synth)
        with pytest.raises(SingularJacobian):
            fit_reduced_forms(Dataset(x=np.arange(61.0), y=np.full(61, 0.5)))
        res = weight_sweep(G10, G20, README_GRID, noise_sigma=0.03, n_seeds=3)
        assert res.n_failed.tolist() == [0, 0, 0, 0, 1] + [0] * 8
        kept = ~np.isnan(res.w_eit)
        assert kept.sum() == 38 and not res.converged[4, 1]
        for name in ("w_eit", "r_eit", "r_ats", "converged", "iterations"):
            assert np.array_equal(getattr(res, name)[kept], getattr(reference, name)[kept])
        assert res.w_eit_mean[4] == np.mean(reference.w_eit[4, [0, 2]])


@functools.cache
def benchmark_sweep(span_mhz, c=1.0):
    """The README benchmark sweep (its rates and control grid, 25 seeds, base
    seed 0, 61 detunings over +/-``span_mhz``) with every rate, control and
    detuning scaled by ``c``, and its crossing."""
    res = weight_sweep(c * G10, c * G20, c * README_GRID, noise_sigma=0.03, n_seeds=25,
                       detunings=c * default_detuning_grid(61, span_mhz * M), base_seed=0)
    return res, crossing_threshold(res.control_grid, res.w_eit_mean)


class TestKnownBenchmarkDeviation:
    """The figures the README's "Known benchmark deviation" section quotes
    follow from the pipeline: each must follow any change to it."""

    def test_span_table(self):
        spans = re.search(r"\| detuning span \|((?: [^|]+ \|)+)", readme_text())
        quoted = re.search(r"\| crossing \|((?: [\d.]+ MHz \|)+)", readme_text())
        assert spans and quoted, "README span table not found"
        spans = [int(v) for v in re.findall(r"\+/-(\d+) MHz", spans.group(1))]
        quoted = re.findall(r"(\d+\.(\d+)) MHz", quoted.group(1))
        assert spans == [10, 25, 50] and len(quoted) == 3
        for span, (value, decimals) in zip(spans, quoted):
            res, crossing = benchmark_sweep(span)
            assert not res.n_failed.any() and not crossing.multiple_crossings
            assert f"{crossing.threshold / M:.{len(decimals)}f}" == value, span

    def test_scale_law_sentence(self):
        quoted = re.search(r"by one factor c = ([\d.]+(?:, [\d.]+)* or [\d.]+) moves the "
                           r"benchmark crossing by at most (\S+) of itself, and no cell's weight "
                           r"by more than (\S+)\.", readme_text())
        assert quoted, "README scale-law sentence not found"
        factors = [float(v) for v in re.split(r", | or ", quoted.group(1))]
        assert factors == [0.1, 0.37, 2.0, 10.0]
        shift, weight_shift = float(quoted.group(2)), float(quoted.group(3))
        res, crossing = benchmark_sweep(25)
        for c in factors:
            scaled, moved = benchmark_sweep(25, c)
            assert abs(moved.threshold / c - crossing.threshold) <= shift * crossing.threshold
            assert np.max(np.abs(scaled.w_eit - res.w_eit)) <= weight_shift


class TestCrossingThreshold:
    def test_step_curve_midpoint(self):
        res = crossing_threshold(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        assert res.threshold == pytest.approx(1.5, rel=1e-12)
        assert not res.multiple_crossings

    def test_multiple_crossings_flag(self):
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        curve = np.array([0.8, 0.4, 0.6, 0.3])
        res = crossing_threshold(grid, curve)
        assert res.multiple_crossings
        assert res.threshold < 2.0

    @pytest.mark.parametrize("grid, curve", [([1.0, 2.0, 3.0], [0.9, 0.1]), ([1.0], [0.9])])
    def test_rejects_mismatched_or_short_arrays(self, grid, curve):
        with pytest.raises(ValueError, match="^grid and curve must be matching 1-D arrays"):
            crossing_threshold(np.array(grid), np.array(curve))

    def test_crossing_across_a_failed_grid_point(self):
        # a grid point whose cells all failed has a NaN mean; the crossing is
        # interpolated between its finite neighbours
        grid, curve = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.9, 0.7, np.nan, 0.1])
        res = crossing_threshold(grid, curve)
        assert res.threshold == pytest.approx(2.0 + 2.0 * 0.2 / 0.6, rel=1e-12)
        assert not res.multiple_crossings
        with pytest.raises(NoCrossing):
            crossing_threshold(np.array([1.0, 2.0]), np.array([np.nan, np.nan]))

    def test_threshold_is_the_first_fall_through_one_half(self):
        # a rise through 0.5 is no threshold; only the fall from EIT to ATS is
        with pytest.raises(NoCrossing, match="^weight curve never falls through 0.5$"):
            crossing_threshold(np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.4, 0.6]))
        res = crossing_threshold(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.4, 0.6, 0.7, 0.2]))
        assert res.threshold == pytest.approx(3.4, rel=1e-12)
        assert res.multiple_crossings

    def test_no_crossing(self):
        with pytest.raises(NoCrossing):
            crossing_threshold(np.array([1.0, 2.0]), np.array([0.9, 0.8]))

    def test_pipeline_crossing_regression(self):
        # end-to-end threshold of this pipeline at the measured coherence
        # rates; the location is stable against seeds within ~0.1 MHz
        grid = np.arange(3.5, 7.01, 0.5) * M
        res = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=10,
                           base_seed=1)
        crossing = crossing_threshold(grid, res.w_eit_mean)
        assert 4.6 * M < crossing.threshold < 5.7 * M

    def test_noiseless_crossing_above_window_bound(self):
        grid = np.arange(2.5, 8.01, 0.5) * M
        res = weight_sweep(G10, G20, grid, noise_sigma=0.0, n_seeds=1)
        crossing = crossing_threshold(grid, res.w_eit_mean)
        assert crossing.threshold > 0.5 * (G20 - G10)


class TestScaleLaw:
    """The exact lineshape and both reduced forms depend on detunings, control
    and rates only through their ratios, every fit's start grid and floor is
    relative, and the polish stops only on rules without an absolute scale.
    So scaling the rates, the control grid and the detunings by one factor c
    scales the weight crossing by c, on the benchmark's own cells and over
    random rates alike."""

    @staticmethod
    def check_sweeps(g10, g20, grid, detunings, c, base_seed=0):
        # each cell's weight within 1e-6 and the crossing within 1e-9 (relative)
        a, b = (weight_sweep(s * g10, s * g20, s * grid, noise_sigma=0.03, n_seeds=3,
                             detunings=s * detunings, base_seed=base_seed) for s in (1.0, c))
        np.testing.assert_allclose(b.w_eit, a.w_eit, rtol=0.0, atol=1e-6)
        assert (b.n_failed == a.n_failed).all()
        crossings = [crossing_threshold(s.control_grid, s.w_eit_mean) for s in (a, b)]
        assert crossings[1].threshold / c == pytest.approx(crossings[0].threshold, rel=1e-9)
        assert crossings[1].multiple_crossings is crossings[0].multiple_crossings
        return a, b

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(log_c=st.floats(math.log(0.1), math.log(10.0)))
    def test_benchmark_cells_in_any_units(self, log_c):
        # the README sweep's rates, span and grid, and its first 3 seeds at base
        # seed 0, with no crossing on the window's side of the grid either way
        grid, detunings = np.linspace(2.0, 8.0, 13) * M, default_detuning_grid(61, 25 * M)
        for s in self.check_sweeps(G10, G20, grid, detunings, math.exp(log_c)):
            with pytest.raises(NoCrossing):
                crossing_threshold(s.control_grid[:4], s.w_eit_mean[:4])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(g10=st.floats(0.5, 5.0), ratio=st.floats(2.05, 8.0), window=st.booleans(),
           base_seed=st.integers(0, 2**16), log_c=st.floats(math.log(0.1), math.log(10.0)))
    def test_random_rates_in_any_units(self, g10, ratio, window, base_seed, log_c):
        # feasible rates in MHz, the README span in units of gamma_20, and either
        # the README grid in units of gamma_20 or 0.2-1.5 (gamma_20 - gamma_10)
        g10 = g10 * M
        g20 = ratio * g10
        grid = (np.linspace(0.2, 1.5, 13) * (g20 - g10) if window
                else np.linspace(2.0, 8.0, 13) / 6.90 * g20)
        detunings = default_detuning_grid(61, 25.0 / 6.90 * g20)
        self.check_sweeps(g10, g20, grid, detunings, math.exp(log_c), base_seed)

    def test_difference_form_stops_at_its_minimum_in_any_units(self):
        # a README-grid cell (5.5 MHz, base seed 63279, seed 2) whose difference-form
        # minimum lies along the split floor, reached in steps that each improve the
        # residual by under 1e-12 of itself
        fits = [fit_reduced_forms(synth_spectrum(
            c * G10, c * G20, c * 5.5 * M, c * default_detuning_grid(61, 25 * M),
            noise_sigma=0.03, seed_parts=(63279, 7, 2)))[0] for c in (0.1, 0.483, 1.0, 2.0, 10.0)]
        assert all(fit.converged for fit in fits)
        residuals = [fit.residual_sum for fit in fits]
        assert residuals == pytest.approx([residuals[2]] * 5, rel=1e-9, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g10=st.floats(0.5, 5.0), ratio=st.floats(2.01, 8.0), span=st.floats(2.0, 8.0),
           log_c=st.floats(math.log(0.1), math.log(10.0)), seed=st.integers(0, 2**16))
    def test_spectra_in_any_units(self, g10, ratio, span, log_c, seed):
        # feasible rates (gamma_20 > 2 gamma_10) in MHz, a 13-point control grid
        # across the window and a span in units of gamma_20: the peak-normalized
        # noisy spectra a sweep fits do not depend on c
        c, g10 = math.exp(log_c), g10 * M
        g20 = ratio * g10
        grid = np.linspace(0.4, 3.0, 13) * 0.5 * (g20 - g10)
        detunings = default_detuning_grid(61, span * g20)
        seeds = [(seed, i) for i in range(grid.size)]
        a, b = (synth_spectrum(s * g10, s * g20, s * grid, s * detunings, noise_sigma=0.03,
                               seed_parts=seeds) for s in (1.0, c))
        np.testing.assert_allclose(b.y, a.y, rtol=0.0, atol=1e-13)
