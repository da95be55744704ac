"""Batch command-line pipelines: ``eitats <subcommand> --config <path> ...``.

Subcommands
-----------
transmon     charge-basis levels report and dipole-element sweep vs E_J/E_C
simulate     steady-state transmission spectrum over the detuning grid
fit          fit one spectrum CSV with a chosen model family
discriminate fit both reduced models and report information-criterion weights
sweep        seeded noise sweep of model weights vs control strength
rabi         time-domain excited-population trace (optionally fitted)

All file-facing frequencies are MHz; outputs are written atomically with a
provenance header and are byte-identical when rerun with the same config and
seeds.  Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, ParseError, ValidationError, load_config
from .fitting import (
    Dataset,
    SingularJacobian,
    fit_ats_model,
    fit_damped_sinusoid,
    fit_eit_model,
    fit_exact_tprime_auto,
    fit_lorentzian,
)
from .io_utils import (
    TWO_PI_MHZ,
    read_spectrum_csv,
    read_trace_csv,
    write_json_report,
    write_spectrum_csv,
    write_table_csv,
)
from .lindblad import (
    DriveConfig,
    NoUniqueSteadyState,
    PoleAtOrigin,
    TraceDriftError,
    rabi_trace,
    steady_state,
    steady_states,
)
from .model_selection import NoCrossing, crossing_threshold, discriminate, weight_sweep
from .readout import (ZeroDetuning, cavity_lorentzian, composite_transmission,
                      dispersive_shifts, normalized_transmission)
from .spectra import ComplexRoots, ImaginarySplitting, Spectrum
from .synth import cell_rng
from .transmon import (CutoffConvergenceError, circulating_current_coupling, diagonalize,
                       effective_josephson, selection_rule_sweep)

MHZ = 1e6

NUMERICAL_ERRORS = (
    SingularJacobian,
    NoUniqueSteadyState,
    PoleAtOrigin,
    TraceDriftError,
    CutoffConvergenceError,
    ComplexRoots,
    ImaginarySplitting,
    ZeroDetuning,
    NoCrossing,
    np.linalg.LinAlgError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitats",
        description="Simulate, fit, and classify EIT/ATS transmission spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, model=False, omega=False, input_csv=False):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override noise.seed")
        if omega:
            p.add_argument("--omega-c", type=float, default=None,
                           help="control strength in MHz (overrides config)")
        if model:
            p.add_argument("--model", required=True,
                           choices=("exact", "eit", "ats", "lorentzian", "damped_sinusoid"))
        if input_csv:
            p.add_argument("--input", required=True, help="spectrum/trace CSV to fit")

    common(sub.add_parser("transmon", help="levels report and selection-rule sweep"))
    common(sub.add_parser("simulate", help="steady-state spectrum over the detuning grid"),
           seed=True, omega=True)
    common(sub.add_parser("fit", help="fit a spectrum CSV"), model=True, omega=True,
           input_csv=True)
    common(sub.add_parser("discriminate", help="information-criterion report for a CSV"),
           input_csv=True)
    common(sub.add_parser("sweep", help="weight curves vs control strength"), seed=True)
    rabi_parser = sub.add_parser("rabi", help="time-domain oscillation trace")
    common(rabi_parser, seed=True)
    rabi_parser.add_argument("--fit", action="store_true",
                             help="also fit a damped sinusoid to the trace")
    return parser


def _provenance(config: ExperimentConfig, command: str, seed) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config.config_hash,
        "seed": "" if seed is None else str(seed),
        "command": command,
    }


def _outdir(args, config: ExperimentConfig) -> Path:
    out = Path(args.out) if args.out is not None else Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _control_rad(args, config: ExperimentConfig) -> float | None:
    if getattr(args, "omega_c", None) is not None:
        if args.omega_c < 0:
            raise ValidationError("--omega-c must be >= 0", "omega_c")
        return args.omega_c * TWO_PI_MHZ
    return None


def _seed(args, config: ExperimentConfig) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return config.noise.seed


def cmd_transmon(args, config: ExperimentConfig) -> int:
    config.require("transmon")
    spec = config.transmon_spec()
    sol = diagonalize(spec)
    out = _outdir(args, config)
    prov = _provenance(config, "transmon", None)

    ratios = np.array(config.transmon.ratio_grid or tuple(np.linspace(1.0, 60.0, 60)))
    table = selection_rule_sweep(spec, ratios)
    write_table_csv(
        out / "transmon_sweep.csv",
        ["ratio", "e01", "e02", "e12", "m01", "m02", "m12"],
        [table.ratios, table.e01, table.e02, table.e12,
         table.m01, table.m02, table.m12],
        prov,
    )

    freqs_mhz = sol.eigen_frequencies / MHZ
    payload = {
        "charging_energy_mhz": spec.charging_energy / MHZ,
        "effective_josephson_mhz": effective_josephson(spec) / MHZ,
        "offset_charge": spec.offset_charge,
        "flux_ratio": spec.flux_ratio,
        "charge_cutoff": spec.charge_cutoff,
        "eigen_frequencies_mhz": freqs_mhz,
        "omega_10_mhz": sol.transition_frequency(1, 0) / MHZ,
        "omega_20_mhz": sol.transition_frequency(2, 0) / MHZ,
        "omega_21_mhz": sol.transition_frequency(2, 1) / MHZ,
        "n_elements": sol.n_elements,
        "cosphi_elements": sol.cosphi_elements,
        "flux_coupling_02_mhz_per_phi0": circulating_current_coupling(spec, sol, 0, 2) / MHZ,
    }
    write_json_report(out / "transmon_levels.json", payload, prov)
    return 0


def _simulated_tprime(config: ExperimentConfig, control_rad: float | None,
                      detunings: np.ndarray) -> np.ndarray:
    """Simulated T' over ``detunings`` (rad/s) from the steady states of the grid."""
    rates = config.three_level_rates()
    use_cavity = config.cavity is not None and config.transmon is not None
    if use_cavity:
        sol = diagonalize(config.transmon_spec())
        shifts = dispersive_shifts(config.cavity_spec(), sol.transition_frequency(1, 0),
                                   sol.transition_frequency(2, 1))
        cav = config.cavity_spec()
        readout_freq = cav.frequency + shifts.pull_0
        levels = (shifts.pull_0, shifts.pull_1, shifts.pull_2)
        t_levels = [abs(cavity_lorentzian(readout_freq, cav.frequency + pull, cav.kappa))
                    for pull in levels]

    rho = steady_states(rates, config.drive_config(0.0, control_rad), detunings)
    if use_cavity:
        t_mix = composite_transmission(rho, *t_levels)
        values = normalized_transmission(t_mix, t_levels[0], t_levels[2]).real
    else:
        values = rho[:, 2, 0].imag
        peak = np.max(np.abs(values))
        if peak > 0:
            values = values / peak
    return values


def cmd_simulate(args, config: ExperimentConfig) -> int:
    config.require("rates", "drive")
    control_rad = _control_rad(args, config)
    detunings = config.detuning_grid_rad()
    values = _simulated_tprime(config, control_rad, detunings)
    seed = _seed(args, config)

    if config.noise.sigma > 0:
        rng = cell_rng(seed, 0, 0)
        values = values + rng.normal(0.0, config.noise.sigma * np.max(values),
                                     size=values.shape)
    spectrum = Spectrum(detunings=detunings, values=values)

    out = _outdir(args, config)
    prov = _provenance(config, "simulate", seed if config.noise.sigma > 0 else None)
    write_spectrum_csv(out / "spectrum.csv", spectrum, prov)

    rates = config.three_level_rates()
    drive = config.drive_config(config.rad(config.drive.delta), control_rad)
    rho = steady_state(rates, drive)
    payload = {
        "populations": [rho[k, k].real for k in range(3)],
        "rho_re": rho.real,
        "rho_im": rho.imag,
        "coherence_rates_mhz": {
            "gamma_10": rates.coherence_10 / TWO_PI_MHZ,
            "gamma_20": rates.coherence_20 / TWO_PI_MHZ,
            "gamma_21": rates.coherence_21 / TWO_PI_MHZ,
        },
        "drive_mhz": {
            "omega_c": drive.control / TWO_PI_MHZ,
            "omega_p": drive.probe / TWO_PI_MHZ,
            "delta": drive.detuning / TWO_PI_MHZ,
        },
    }
    write_json_report(out / "steady_state.json", payload, prov)
    return 0


def _fit_result_payload(result, x_unit_scale: float) -> dict:
    freq_keys = {"control", "gamma_plus", "gamma_minus", "gamma", "delta_0",
                 "center", "half_width"}
    sq_keys = {"cplus_sq", "cminus_sq", "c_sq"}
    params = {}
    for key, value in result.parameters.items():
        if key in freq_keys:
            params[f"{key}_mhz"] = value / x_unit_scale
        elif key in sq_keys:
            params[f"{key}_mhz2"] = value / x_unit_scale**2
        else:
            params[key] = value
    return {
        "parameters": params,
        "residual_sum": result.residual_sum,
        "n_points": result.n_points,
        "n_params": result.n_params,
        "converged": result.converged,
        "iterations": result.iterations,
        "warnings": list(result.warnings),
    }


def cmd_fit(args, config: ExperimentConfig) -> int:
    if args.model == "damped_sinusoid":
        data = Dataset(*read_trace_csv(args.input))
    else:
        spectrum = read_spectrum_csv(args.input)
        data = Dataset(x=spectrum.detunings, y=spectrum.values)
    out = _outdir(args, config)
    prov = _provenance(config, f"fit --model {args.model}", None)

    if args.model == "exact":
        config.require("rates")
        rates = config.three_level_rates()
        result = fit_exact_tprime_auto(data, rates.coherence_10, rates.coherence_20,
                                       control_hint=_control_rad(args, config))
        payload = _fit_result_payload(result, TWO_PI_MHZ)
    elif args.model in ("eit", "ats"):
        requested = fit_eit_model(data) if args.model == "eit" else fit_ats_model(data)
        other = fit_ats_model(data) if args.model == "eit" else fit_eit_model(data)
        eit_fit, ats_fit = (requested, other) if args.model == "eit" else (other, requested)
        report = discriminate(data, eit_fit=eit_fit, ats_fit=ats_fit)
        own_weight = report.w_eit if args.model == "eit" else report.w_ats
        payload = _fit_result_payload(requested, TWO_PI_MHZ)
        payload["model_weight"] = own_weight
        payload["regime_warning"] = own_weight < 0.5
    elif args.model == "lorentzian":
        result = fit_lorentzian(data)
        payload = _fit_result_payload(result, TWO_PI_MHZ)
    else:  # damped_sinusoid on a time trace in ns
        result = fit_damped_sinusoid(data)
        payload = _fit_result_payload(result, 1.0)
    payload["model"] = args.model
    write_json_report(out / f"fit_{args.model}.json", payload, prov)
    return 0


def cmd_discriminate(args, config: ExperimentConfig) -> int:
    spectrum = read_spectrum_csv(args.input)
    report = discriminate(spectrum)
    out = _outdir(args, config)
    payload = {
        "i_eit": report.i_eit,
        "i_ats": report.i_ats,
        "ibar_eit": report.ibar_eit,
        "ibar_ats": report.ibar_ats,
        "w_eit": report.w_eit,
        "w_ats": report.w_ats,
        "n_points": report.n_points,
        "k_eit": report.k_eit,
        "k_ats": report.k_ats,
        "r_eit": report.r_eit,
        "r_ats": report.r_ats,
    }
    write_json_report(out / "aic_report.json", payload,
                      _provenance(config, "discriminate", None))
    return 0


def cmd_sweep(args, config: ExperimentConfig) -> int:
    config.require("rates", "drive")
    rates = config.three_level_rates()
    grid = config.control_grid_rad()
    seed = _seed(args, config)
    sweep = weight_sweep(
        rates.coherence_10, rates.coherence_20, grid,
        noise_sigma=config.noise.sigma, n_seeds=config.noise.seeds,
        detunings=config.detuning_grid_rad(), base_seed=seed,
    )
    out = _outdir(args, config)
    prov = _provenance(config, "sweep", seed)
    write_table_csv(
        out / "sweep.csv",
        ["omega_c_mhz", "w_eit", "w_ats", "w_eit_min", "w_eit_max"],
        [grid / TWO_PI_MHZ, sweep.w_eit_mean, sweep.w_ats_mean,
         sweep.w_eit_min, sweep.w_eit_max],
        prov,
    )
    payload = {
        "noise_sigma": config.noise.sigma,
        "n_seeds": sweep.n_seeds,
        "n_points": config.drive.delta_points,
        "n_failed_fits": int(np.sum(sweep.n_failed)),
    }
    try:
        crossing = crossing_threshold(grid, sweep.w_eit_mean)
        payload["omega_aic_mhz"] = crossing.threshold / TWO_PI_MHZ
        payload["multiple_crossings"] = crossing.multiple_crossings
    except NoCrossing:
        payload["omega_aic_mhz"] = None
        payload["multiple_crossings"] = False
    write_json_report(out / "sweep.json", payload, prov)
    return 0


def cmd_rabi(args, config: ExperimentConfig) -> int:
    config.require("rates", "drive")
    rates = config.three_level_rates()
    if config.drive.omega_p is None:
        raise ValidationError("drive.omega_p is not set", "drive.omega_p")
    probe = config.rad(config.drive.omega_p)
    if probe <= 0:
        raise ValidationError("drive.omega_p must be > 0 for rabi", "drive.omega_p")

    if config.rabi.duration_ns is not None:
        duration = config.rabi.duration_ns * 1e-9
    else:
        duration = 8.0 * math.pi / probe  # eight oscillation periods
    times = np.linspace(0.0, duration, config.rabi.points)
    trace = rabi_trace(rates, probe, times)
    seed = _seed(args, config)
    if config.noise.sigma > 0:
        rng = cell_rng(seed, 1, 0)
        trace = trace + rng.normal(0.0, config.noise.sigma * np.max(trace),
                                   size=trace.shape)

    out = _outdir(args, config)
    prov = _provenance(config, "rabi", seed if config.noise.sigma > 0 else None)
    write_table_csv(out / "rabi_trace.csv", ["time_ns", "p22"], [times * 1e9, trace], prov)

    if args.fit:
        result = fit_damped_sinusoid(Dataset(x=times * 1e9, y=trace))
        payload = _fit_result_payload(result, 1.0)
        payload["model"] = "damped_sinusoid"
        payload["period_ns"] = result.parameters["period"]
        payload["decay_time_ns"] = result.parameters["decay_time"]
        write_json_report(out / "rabi_fit.json", payload, prov)
    return 0


_COMMANDS = {
    "transmon": cmd_transmon,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "discriminate": cmd_discriminate,
    "sweep": cmd_sweep,
    "rabi": cmd_rabi,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](args, config)
    # before ValueError: np.linalg.LinAlgError subclasses it
    except NUMERICAL_ERRORS as exc:
        print(f"eitats: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, FileNotFoundError, ValueError) as exc:
        print(f"eitats: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
