"""Batch command-line pipelines: ``eitats <subcommand> --config <path> ...``.

Subcommands
-----------
transmon     charge-basis levels report and dipole-element sweep vs E_J/E_C
simulate     steady-state transmission spectrum over the detuning grid
fit          fit one spectrum CSV with a chosen model family
discriminate fit both reduced models and report information-criterion weights
sweep        seeded noise sweep of model weights vs control strength
rabi         time-domain excited-population trace (optionally fitted)

File-facing frequencies are MHz (via ``io_utils.TWO_PI_MHZ`` and ``HZ_PER_MHZ``)
and times ns.  Outputs are written atomically with a provenance header and are
byte-identical when rerun with the same config and seeds.  Exit codes follow
the exception type: 0 success; 2 numerical failure, an ``ArithmeticError``
(every failure class the library defines subclasses it) or
``np.linalg.LinAlgError``; 1 any other ``ValueError`` (config, flag and input
errors) or ``OSError`` (an unreadable or unwritable path).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, ValidationError, load_config
from .fitting import Dataset, fit_damped_sinusoid, fit_exact_tprime_auto, fit_reduced_forms
from .io_utils import (HZ_PER_MHZ, TWO_PI_MHZ, read_spectrum_csv, read_trace_csv,
                       write_json_report, write_spectrum_csv, write_table_csv)
from .lindblad import rabi_trace, steady_state
from .model_selection import NoCrossing, crossing_threshold, discriminate, weight_sweep
from .readout import (cavity_lorentzian, composite_transmission, dispersive_shifts,
                      normalized_transmission)
from .synth import add_noise
from .transmon import (circulating_current_coupling, diagonalize, effective_josephson,
                       selection_rule_sweep)

NS_PER_S = 1e9


@functools.cache
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
                           choices=("exact", "eit", "ats", "damped_sinusoid"))
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


def _control_rad(args) -> float | None:
    if args.omega_c is not None:
        if not math.isfinite(args.omega_c):
            raise ValidationError(f"--omega-c must be finite (got {args.omega_c})", "omega_c")
        if args.omega_c < 0:
            raise ValidationError(f"--omega-c must be >= 0 (got {args.omega_c})", "omega_c")
        return args.omega_c * TWO_PI_MHZ
    return None


def _seed(args, config: ExperimentConfig) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0 (got {args.seed})", "seed")
        return args.seed
    return config.noise.seed


def cmd_transmon(args, config: ExperimentConfig) -> int:
    spec = config.transmon_spec()
    sol = diagonalize(spec)
    out = _outdir(args, config)
    prov = _provenance(config, "transmon", None)

    ratios = np.array(config.transmon.ratio_grid or tuple(np.linspace(1.0, 60.0, 60)))
    table = asdict(selection_rule_sweep(spec, ratios))  # its fields are the CSV columns
    write_table_csv(out / "transmon_sweep.csv", list(table), list(table.values()), prov)

    payload = {
        "charging_energy_mhz": spec.charging_energy / HZ_PER_MHZ,
        "effective_josephson_mhz": effective_josephson(spec) / HZ_PER_MHZ,
        "offset_charge": spec.offset_charge,
        "flux_ratio": spec.flux_ratio,
        "charge_cutoff": spec.charge_cutoff,
        "eigen_frequencies_mhz": sol.eigen_frequencies / HZ_PER_MHZ,
        "omega_10_mhz": sol.transition_frequency(1, 0) / HZ_PER_MHZ,
        "omega_20_mhz": sol.transition_frequency(2, 0) / HZ_PER_MHZ,
        "omega_21_mhz": sol.transition_frequency(2, 1) / HZ_PER_MHZ,
        "n_elements": sol.n_elements,
        "cosphi_elements": sol.cosphi_elements,
        "flux_coupling_02_mhz_per_phi0":
            circulating_current_coupling(spec, sol, 0, 2) / HZ_PER_MHZ,
    }
    write_json_report(out / "transmon_levels.json", payload, prov)
    return 0


def _simulated_tprime(config: ExperimentConfig, rho: np.ndarray) -> np.ndarray:
    """Simulated T' from the steady states ``rho`` (n, 3, 3) of a detuning grid: the cavity
    readout with ``transmon`` and ``cavity`` blocks, else the peak-normalized coherence."""
    if config.cavity is None or config.transmon is None:
        values = rho[:, 2, 0].imag
        peak = np.max(np.abs(values))
        return values / peak if peak > 0 else values
    cav = config.cavity_spec()
    sol = diagonalize(config.transmon_spec())
    shifts = dispersive_shifts(cav, sol.transition_frequency(1, 0), sol.transition_frequency(2, 1))
    readout_freq = cav.frequency + shifts.pull_0
    t_levels = [abs(cavity_lorentzian(readout_freq, cav.frequency + pull, cav.kappa))
                for pull in (shifts.pull_0, shifts.pull_1, shifts.pull_2)]
    t_mix = composite_transmission(rho, *t_levels)
    return normalized_transmission(t_mix, t_levels[0], t_levels[2]).real


def cmd_simulate(args, config: ExperimentConfig) -> int:
    rates = config.three_level_rates()
    detunings = config.detuning_grid_rad()
    control_rad = _control_rad(args)
    seed = _seed(args, config)
    drive = config.drive_config(control_rad)
    # the drive's own detuning rides along as the last row of the grid solve
    states = steady_state(rates, drive, np.append(detunings, drive.detuning))
    values = add_noise(_simulated_tprime(config, states[:-1]), config.noise.sigma, seed, 0, 0)

    out = _outdir(args, config)
    prov = _provenance(config, "simulate", seed if config.noise.sigma > 0 else None)
    write_spectrum_csv(out / "spectrum.csv", Dataset(x=detunings, y=values), prov)

    rho = states[-1]
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
            "omega_c": config.mhz(config.drive.omega_c) if args.omega_c is None
            else args.omega_c,
            "omega_p": config.mhz(config.drive.omega_p),
            "delta": config.mhz(config.drive.delta),
        },
    }
    write_json_report(out / "steady_state.json", payload, prov)
    return 0


def _fit_result_payload(result, model: str) -> dict:
    freq_keys = {"control", "gamma_plus", "gamma_minus", "gamma", "delta_0"}
    sq_keys = {"cplus_sq", "cminus_sq", "c_sq"}
    params = {}
    for key, value in result.parameters.items():
        if key in freq_keys:
            params[f"{key}_mhz"] = value / TWO_PI_MHZ
        elif key in sq_keys:
            params[f"{key}_mhz2"] = value / TWO_PI_MHZ**2
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
        "model": model,
    }


def cmd_fit(args, config: ExperimentConfig) -> int:
    reader = read_trace_csv if args.model == "damped_sinusoid" else read_spectrum_csv
    data = reader(args.input)
    out = _outdir(args, config)
    prov = _provenance(config, f"fit --model {args.model}", None)

    extra = {}
    if args.model == "exact":
        rates = config.three_level_rates()
        result = fit_exact_tprime_auto(data, rates.coherence_10, rates.coherence_20,
                                       control_hint=_control_rad(args))
    elif args.model in ("eit", "ats"):
        eit_fit, ats_fit = fit_reduced_forms(data)
        report = discriminate(data, eit_fit=eit_fit, ats_fit=ats_fit)
        result, own_weight = ((eit_fit, report.w_eit) if args.model == "eit"
                              else (ats_fit, report.w_ats))
        extra = {"model_weight": own_weight, "regime_warning": own_weight < 0.5}
    else:  # damped_sinusoid on a time trace in ns
        result = fit_damped_sinusoid(data)
    payload = _fit_result_payload(result, args.model) | extra
    write_json_report(out / f"fit_{args.model}.json", payload, prov)
    return 0


def cmd_discriminate(args, config: ExperimentConfig) -> int:
    report = discriminate(read_spectrum_csv(args.input))
    write_json_report(_outdir(args, config) / "aic_report.json", asdict(report),
                      _provenance(config, "discriminate", None))
    return 0


def cmd_sweep(args, config: ExperimentConfig) -> int:
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
        [[config.mhz(v) for v in config.drive.omega_c_grid], sweep.w_eit_mean, sweep.w_ats_mean,
         sweep.w_eit_min, sweep.w_eit_max],
        prov,
    )
    payload = {
        "noise_sigma": config.noise.sigma,
        "n_seeds": sweep.n_seeds,
        "n_points": config.drive.delta_points,
        "n_failed_fits": int(np.sum(sweep.n_failed)),
        # cells fitted without both fits converging
        "n_nonconverged_fits": int(np.sum(~sweep.converged & ~np.isnan(sweep.w_eit))),
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
    rates = config.three_level_rates()
    probe = config.drive_config(0.0).probe
    if probe <= 0:
        raise ValidationError("drive.omega_p must be > 0 for rabi", "drive.omega_p")

    if config.rabi.duration_ns is not None:
        duration = config.rabi.duration_ns / NS_PER_S
    else:
        duration = 8.0 * math.pi / probe  # eight oscillation periods
    times = np.linspace(0.0, duration, config.rabi.points)
    seed = _seed(args, config)
    trace = Dataset(x=times * NS_PER_S, y=add_noise(rabi_trace(rates, probe, times),
                                                     config.noise.sigma, seed, 1, 0))

    out = _outdir(args, config)
    prov = _provenance(config, "rabi", seed if config.noise.sigma > 0 else None)
    write_table_csv(out / "rabi_trace.csv", ["time_ns", "p22"], [trace.x, trace.y], prov)

    if args.fit:
        result = fit_damped_sinusoid(trace)
        payload = _fit_result_payload(result, "damped_sinusoid")
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


def _attach_omega_c(argv) -> list:
    """``--omega-c VALUE`` as ``--omega-c=VALUE``: argparse takes a value such
    as ``-inf`` for an option, so it would never reach the finite check."""
    out = []
    for token in argv:
        if out and out[-1] == "--omega-c" and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_omega_c(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](args, config)
    # before ValueError: np.linalg.LinAlgError subclasses it
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"eitats: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"eitats: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
