"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one summary line (run with ``pytest -s`` to see them all);
the measured value is printed before the assertion so a failing criterion
still reports what the pipeline produced.
"""

import math
import warnings

import numpy as np
import pytest

from eitats.cli import main as cli_main
from eitats.fitting import Dataset, damped_sinusoid_curve, fit_damped_sinusoid, fit_exact_tprime_auto
from eitats.lindblad import (
    DriveConfig,
    ThreeLevelRates,
    coherence_rho20_analytic,
    evolve,
    populations_analytic,
    steady_state,
    validate_density_matrix,
)
from eitats.model_selection import crossing_threshold, discriminate, weight_sweep
from eitats.spectra import ExactModelParams, eit_decomposition, eit_model, eit_window, tprime_exact
from eitats.synth import synth_spectrum
from eitats.transmon import TransmonSpec, diagonalize

M = 2.0 * math.pi * 1e6
G10, G20 = 1.76 * M, 6.90 * M


def report(num, label, outcome):
    print(f"ACCEPTANCE {num:2d} [{label}]: {outcome}")


def test_01_eit_window():
    window = eit_window(G10, G20)
    upper_mhz = window.upper / M
    report(1, "transparency window", f"upper bound {upper_mhz:.6f} MHz, "
           f"feasible={window.feasible}")
    assert window.feasible
    assert upper_mhz == pytest.approx(2.570, rel=1e-6)


def test_02_aic_threshold_value():
    # Benchmark: the crossing of the seed-averaged weight curves at 3% noise,
    # 61-point spectra, quoted as 4.28 MHz for these coherence rates.  This
    # pipeline lands near 5.1 MHz under every defensible reading of the noise
    # model, grid span, and weight convention (every fit converged); the
    # check is kept at the quoted tolerance and currently fails.  See README,
    # "Known benchmark deviation".
    grid = np.arange(2.0, 8.01, 0.5) * M
    sweep = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=25,
                         n_points=61, base_seed=0)
    crossing = crossing_threshold(grid, sweep.w_eit_mean)
    measured_mhz = crossing.threshold / M
    report(2, "information-criterion threshold",
           f"measured {measured_mhz:.3f} MHz vs target 4.28 +/- 0.5 MHz")
    assert measured_mhz == pytest.approx(4.28, abs=0.5)


def test_03_threshold_ordering():
    upper = eit_window(G10, G20).upper
    grid = np.arange(2.0, 8.01, 0.5) * M
    crossings = []
    for base_seed in (0, 1, 2):
        sweep = weight_sweep(G10, G20, grid, noise_sigma=0.03, n_seeds=10,
                             base_seed=base_seed)
        crossings.append(crossing_threshold(grid, sweep.w_eit_mean).threshold)
    report(3, "threshold ordering",
           f"crossings {[f'{c / M:.2f}' for c in crossings]} MHz all above "
           f"{upper / M:.2f} MHz")
    assert all(c > upper for c in crossings)


def test_04_regime_classification():
    sweep_eit = weight_sweep(G10, G20, np.array([2.06 * M]), noise_sigma=0.03,
                             n_seeds=20, base_seed=4)
    sweep_ats = weight_sweep(G10, G20, np.array([19.7 * M]), noise_sigma=0.03,
                             n_seeds=20, base_seed=4)
    sigma = 0.03
    ratios = []
    for seed in range(20):
        spectrum = synth_spectrum(G10, G20, 5.29 * M, noise_sigma=sigma,
                                  seed_parts=(4, 0, seed))
        rep = discriminate(spectrum)
        ratios.append(min(rep.r_eit, rep.r_ats) / rep.n_points / (3.0 * sigma**2))
    report(4, "regime fits",
           f"w_eit(2.06)={sweep_eit.w_eit_mean[0]:.4f}, "
           f"w_ats(19.7)={sweep_ats.w_ats_mean[0]:.4f}, "
           f"min residual ratio at 5.29 = {min(ratios):.2f}x")
    assert sweep_eit.w_eit_mean[0] > 0.9
    assert sweep_ats.w_ats_mean[0] > 0.9
    assert all(r > 1.0 for r in ratios)


def test_05_exactness_oracle():
    delta = np.linspace(-25.0, 25.0, 2001) * M
    worst_recon = 0.0
    rng = np.random.default_rng(55)
    cases = [(G10, G20, 2.06 * M, 1.0)]
    for _ in range(30):
        g10 = rng.uniform(0.1, 4.0) * M
        g20 = g10 + rng.uniform(0.5, 20.0) * M
        cases.append((g10, g20, rng.uniform(0.0, 0.499) * (g20 - g10),
                      rng.uniform(0.2, 5.0)))
    for g10, g20, control, amp in cases:
        p = ExactModelParams(amplitude=amp, probe=1.0, control=control,
                             gamma_10=g10, gamma_20=g20)
        exact = tprime_exact(delta, p)
        recon = eit_model(delta, eit_decomposition(p))
        worst_recon = max(worst_recon,
                          float(np.max(np.abs(recon - exact)) / np.max(exact)))
    worst_ident = 0.0
    for _ in range(30):
        g10 = rng.uniform(0.1, 4.0) * M
        g20 = rng.uniform(0.1, 20.0) * M
        control = rng.uniform(0.0, 30.0) * M
        rates = ThreeLevelRates(relax_10=2 * g10, relax_20=g20, relax_21=g20)
        p = ExactModelParams(amplitude=1.0, probe=1.0, control=control,
                             gamma_10=g10, gamma_20=g20)
        for d in np.linspace(-30.0, 30.0, 21) * M:
            drive = DriveConfig(control=control, probe=1.0, detuning=d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                im = coherence_rho20_analytic(rates, drive).imag
            t = tprime_exact(d, p)
            if abs(im) > 1e-300:
                worst_ident = max(worst_ident, abs(t - im) / abs(im))
    report(5, "exactness oracle",
           f"max reconstruction error {worst_recon:.2e} (tol 1e-12), "
           f"max identity error {worst_ident:.2e} (tol 1e-12)")
    assert worst_recon < 1e-12
    assert worst_ident < 1e-12


def test_06_steady_state_oracle(paper_rates):
    control = 2.88 * M
    worst_coh = 0.0
    worst_pop = 0.0
    for det in np.linspace(-25.0, 25.0, 61) * M:
        drive = DriveConfig(control=control, probe=0.01 * control, detuning=det)
        rho = steady_state(paper_rates, drive)
        ana = coherence_rho20_analytic(paper_rates, drive)
        worst_coh = max(worst_coh, abs(rho[2, 0] - ana) / abs(ana))
        p11, p22 = populations_analytic(paper_rates, drive, ana.imag)
        worst_pop = max(worst_pop,
                        abs(p11 - rho[1, 1].real) / rho[1, 1].real,
                        abs(p22 - rho[2, 2].real) / rho[2, 2].real)
    report(6, "steady-state oracle",
           f"coherence max rel err {worst_coh:.2e} (tol 1e-3), "
           f"population max rel err {worst_pop:.2e} (tol 1e-2)")
    assert worst_coh < 1e-3
    assert worst_pop < 1e-2


def test_07_transmon_spectrum():
    spec = TransmonSpec(charging_energy=412e6, junction_energy=3.5e9,
                        flux_ratio=0.0, offset_charge=0.5)
    sol = diagonalize(spec)
    w10 = sol.transition_frequency(1, 0)
    w21 = sol.transition_frequency(2, 1)
    n02 = sol.n_elements[0, 2]
    c01 = sol.cosphi_elements[0, 1]
    c12 = sol.cosphi_elements[1, 2]
    c02 = sol.cosphi_elements[0, 2]
    report(7, "transmon spectrum",
           f"w10 {w10 / 1e9:.5f} GHz ({(w10 / 4.39125e9 - 1) * 100:+.2f}%), "
           f"w21 {w21 / 1e9:.5f} GHz ({(w21 / 3.9795e9 - 1) * 100:+.2f}%), "
           f"selection rules max {max(n02, c01, c12):.1e}")
    assert w10 == pytest.approx(4.39125e9, rel=0.03)
    assert w21 == pytest.approx(3.97950e9, rel=0.03)
    assert n02 < 1e-10 and c01 < 1e-10 and c12 < 1e-10
    assert c02 > 0.1


def test_08_rabi_fit_recovery():
    times = np.linspace(0.0, 400.0, 801)  # ns
    truth = damped_sinusoid_curve(times, 0.5, -0.5, 130.6, 56.8, 0.0)
    periods, decays = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        trace = truth + rng.normal(0.0, 0.03 * np.max(truth), size=truth.shape)
        fit = fit_damped_sinusoid(Dataset(x=times, y=trace))
        periods.append(fit.parameters["period"])
        decays.append(fit.parameters["decay_time"])
        assert fit.parameters["period"] == pytest.approx(56.8, rel=0.02)
        assert fit.parameters["decay_time"] == pytest.approx(130.6, rel=0.06)
    mean_period, mean_decay = float(np.mean(periods)), float(np.mean(decays))
    report(8, "oscillation-trace fit",
           f"mean period {mean_period:.2f} ns (target 56.8 +/- 2%), "
           f"mean decay {mean_decay:.1f} ns (target 130.6 +/- 2%)")
    assert mean_period == pytest.approx(56.8, rel=0.02)
    assert mean_decay == pytest.approx(130.6, rel=0.02)


def test_09_exact_fit_roundtrips():
    delta = np.linspace(-25.0, 25.0, 61) * M
    recovered = {}
    for control_mhz in (2.06, 2.88, 5.29, 19.7):
        p = ExactModelParams(amplitude=1.0, probe=1.0, control=control_mhz * M,
                             gamma_10=G10, gamma_20=G20)
        data = Dataset(x=delta, y=tprime_exact(delta, p))
        fit = fit_exact_tprime_auto(data, G10, G20)
        recovered[control_mhz] = fit.parameters["control"] / M
        assert recovered[control_mhz] == pytest.approx(control_mhz, rel=0.005)
    report(9, "exact-model roundtrips",
           ", ".join(f"{k} -> {v:.4f}" for k, v in recovered.items()) + " MHz")


def test_10_engine_invariants_and_cli_determinism(tmp_path):
    rng = np.random.default_rng(99)
    for _ in range(1000):
        rates = ThreeLevelRates(
            relax_10=rng.uniform(0.0, 8.0) * M,
            relax_20=rng.uniform(0.0, 8.0) * M,
            relax_21=rng.uniform(0.0, 8.0) * M,
            dephase_00=rng.uniform(0.0, 2.0) * M,
            dephase_11=rng.uniform(0.0, 2.0) * M,
            dephase_22=rng.uniform(0.0, 2.0) * M,
        )
        drive = DriveConfig(control=rng.uniform(0.0, 10.0) * M,
                            probe=rng.uniform(0.0, 10.0) * M,
                            detuning=rng.uniform(-10.0, 10.0) * M)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho0 = a @ a.conj().T
        rho0 = rho0 / np.trace(rho0)
        duration = rng.uniform(0.05, 0.3) * 1e-6
        traj = evolve(rho0, rates, drive, duration, sample_stride=50)
        for rho in traj.states:
            validate_density_matrix(rho)

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "units = MHz\nrates.gamma10 = 3.52\nrates.gamma20 = 6.90\n"
        "rates.gamma21 = 6.90\ndrive.omega_c = 2.06\ndrive.omega_p = 0.02\n"
        "drive.delta_span = 25\ndrive.delta_points = 61\n"
        "noise.sigma = 0.03\nnoise.seed = 123\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    identical = ((out_a / "spectrum.csv").read_bytes()
                 == (out_b / "spectrum.csv").read_bytes())
    report(10, "engine invariants",
           f"1000 random evolutions preserved trace/hermiticity/positivity; "
           f"seeded CLI outputs byte-identical={identical}")
    assert identical
