import argparse
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eitats
from eitats import cli
from eitats.cli import main
from eitats.config import parse_config_text
from eitats.fitting import Dataset, damped_sinusoid_curve, fit_reduced_forms
from eitats.io_utils import (TWO_PI_MHZ, read_spectrum_csv, read_trace_csv,
                             write_spectrum_csv)
from eitats.lindblad import DriveConfig, ThreeLevelRates, steady_state
from eitats.model_selection import aic, akaike_weights, crossing_threshold, weight_sweep
from eitats.spectra import ats_model, eit_model, tprime_exact
from eitats.synth import synth_spectrum

M = 2.0 * math.pi * 1e6

BASE_CFG = """\
units = MHz
rates.gamma10 = 3.52
rates.gamma20 = 6.90
rates.gamma21 = 6.90
drive.omega_c = 2.06
drive.omega_p = 0.02
drive.delta_span = 25
drive.delta_points = 61
"""

# the README example exp.cfg
README_CFG = BASE_CFG + """\
drive.omega_c_grid = 2.0:8.0:13
noise.sigma = 0.03
noise.seeds = 25
noise.seed = 0
transmon.e_c = 412
transmon.e_j0 = 3500
transmon.n_g = 0.5
cavity.frequency = 8216.90
cavity.q_loaded = 1000
cavity.g1 = 173
"""

TRANSMON_CFG = """\
units = MHz
transmon.e_c = 412
transmon.e_j0 = 3500
transmon.n_g = 0.5
transmon.ratio_grid = 10,16.99,30
"""


@pytest.fixture
def cfg_file(tmp_path):
    def make(text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return make


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_spectrum_and_steady_state(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 0
        spectrum = read_spectrum_csv(out / "spectrum.csv")
        assert spectrum.y.size == 61
        assert spectrum.y.max() == pytest.approx(1.0, rel=1e-9)
        doc = json.loads((out / "steady_state.json").read_text())
        assert doc["schema_version"] == 3
        assert doc["coherence_rates_mhz"]["gamma_10"] == pytest.approx(1.76, rel=1e-9)
        assert sum(doc["populations"]) == pytest.approx(1.0, abs=1e-9)

    def test_default_detuning_span(self, cfg_file, tmp_path):
        # without drive.delta_span, drive.delta_points detunings over +/-25 MHz
        cfg = cfg_file(BASE_CFG.replace("drive.delta_span = 25\n", "")
                       .replace("drive.delta_points = 61", "drive.delta_points = 11"))
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        spectrum = read_spectrum_csv(tmp_path / "o" / "spectrum.csv")
        assert np.allclose(spectrum.x / M, np.linspace(-25.0, 25.0, 11), rtol=1e-14)

    def test_deterministic_bytes_with_noise(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG + "noise.sigma = 0.03\nnoise.seed = 11\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", str(out_a)) == 0
        assert run("simulate", "--config", cfg, "--out", str(out_b)) == 0
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()
        assert (out_a / "steady_state.json").read_bytes() == (out_b / "steady_state.json").read_bytes()

    def test_seed_override_changes_noise(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG + "noise.sigma = 0.03\nnoise.seed = 11\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("simulate", "--config", cfg, "--out", str(out_a))
        run("simulate", "--config", cfg, "--out", str(out_b), "--seed", "99")
        assert (out_a / "spectrum.csv").read_bytes() != (out_b / "spectrum.csv").read_bytes()

    def test_omega_c_override(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("simulate", "--config", cfg, "--out", str(out_a))
        run("simulate", "--config", cfg, "--out", str(out_b), "--omega-c", "19.7")
        a = read_spectrum_csv(out_a / "spectrum.csv")
        b = read_spectrum_csv(out_b / "spectrum.csv")
        assert not np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("omega_c", ["5.29", "6.9", "19.7"])
    def test_omega_c_flag_equals_config_value(self, cfg_file, tmp_path, omega_c):
        # a control strength converts to rad/s the same way from a flag and a config
        cfg = cfg_file(README_CFG.replace("drive.omega_c = 2.06", f"drive.omega_c = {omega_c}"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", str(out_a)) == 0
        assert run("simulate", "--config", cfg, "--out", str(out_b), "--omega-c", omega_c) == 0
        for name in ("spectrum.csv", "steady_state.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("flag", [True, False])
    def test_drive_mhz_echoes_the_given_value(self, cfg_file, tmp_path, flag):
        # 14.5 MHz does not survive a round trip through rad/s
        cfg = cfg_file(BASE_CFG if flag else
                       BASE_CFG.replace("drive.omega_c = 2.06", "drive.omega_c = 14.5"))
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--out", str(out),
                   *(["--omega-c", "14.5"] if flag else [])) == 0
        drive = json.loads((out / "steady_state.json").read_text())["drive_mhz"]
        assert drive == {"omega_c": 14.5, "omega_p": 0.02, "delta": 0.0}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_non_finite_omega_c_exit_one(self, cfg_file, tmp_path, capsys, value, command):
        assert self.run_omega_c(cfg_file, tmp_path, command, value) == 1
        assert capsys.readouterr().err == (
            f"eitats: error: --omega-c must be finite (got {float(value)})\n")

    @pytest.mark.parametrize("value", ["-3", "-1e-3"])
    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_negative_omega_c_exit_one(self, cfg_file, tmp_path, capsys, value, command):
        # a value with a leading minus is the flag's value, not an option
        assert self.run_omega_c(cfg_file, tmp_path, command, value) == 1
        assert capsys.readouterr().err == (
            f"eitats: error: --omega-c must be >= 0 (got {float(value)})\n")

    @staticmethod
    def run_omega_c(cfg_file, tmp_path, command, value):
        cfg = cfg_file(BASE_CFG)
        csv = tmp_path / "s.csv"
        write_spectrum_csv(csv, synth_spectrum(1.76 * M, 6.90 * M, 2.06 * M), {})
        extra = ["--model", "exact", "--input", str(csv)] if command == "fit" else []
        return run(command, "--config", cfg, "--out", str(tmp_path / "o"), *extra,
                   "--omega-c", value)

    @pytest.mark.parametrize("command", ["simulate", "sweep", "rabi"])
    def test_negative_seed_exit_one(self, cfg_file, tmp_path, capsys, command):
        cfg = cfg_file(BASE_CFG + "drive.omega_c_grid = 3.0,5.0\nnoise.seeds = 2\n")
        assert run(command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-3") == 1
        assert capsys.readouterr().err == "eitats: error: --seed must be >= 0 (got -3)\n"

    def test_one_liouvillian_inversion_per_run(self, cfg_file, tmp_path, monkeypatch):
        # the drive's own detuning is the last row of the one grid solve, and
        # steady_state.json holds that row, equal to its lone solve
        inverted, inv = [], np.linalg.inv

        def counted_inv(a):
            inverted.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        cfg = cfg_file(README_CFG + "drive.delta = 3.7\n")
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        assert inverted == [(62, 9, 9)]
        doc = json.loads((tmp_path / "o" / "steady_state.json").read_text())
        rho = steady_state(ThreeLevelRates(3.52 * M, 6.90 * M, 6.90 * M),
                           DriveConfig(2.06 * M, 0.02 * M, 3.7 * M))
        assert np.array_equal(np.array(doc["rho_re"]) + 1j * np.array(doc["rho_im"]), rho)

    def test_no_dissipation_exit_two(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG.replace("rates.gamma10 = 3.52", "rates.gamma10 = 0")
                       .replace("rates.gamma20 = 6.90", "rates.gamma20 = 0")
                       .replace("rates.gamma21 = 6.90", "rates.gamma21 = 0"))
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2


class TestTransmonCommand:
    def test_selection_rule_columns(self, cfg_file, tmp_path):
        cfg = cfg_file(TRANSMON_CFG)
        out = tmp_path / "out"
        assert run("transmon", "--config", cfg, "--out", str(out)) == 0
        rows = [line.split(",") for line in
                (out / "transmon_sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        header, data = rows[0], rows[1:]
        e02 = [float(r[header.index("e02")]) for r in data]
        assert max(e02) < 1e-10
        doc = json.loads((out / "transmon_levels.json").read_text())
        assert doc["omega_10_mhz"] == pytest.approx(4391.25, rel=0.03)
        assert doc["omega_21_mhz"] == pytest.approx(3979.50, rel=0.03)
        assert doc["omega_20_mhz"] == pytest.approx(
            doc["omega_10_mhz"] + doc["omega_21_mhz"], rel=1e-12)


class TestFitCommand:
    def write_synth(self, tmp_path, control_mhz, noise=0.0, seed=5):
        s = synth_spectrum(1.76 * M, 6.90 * M, control_mhz * M,
                           noise_sigma=noise, seed_parts=(seed,))
        path = tmp_path / f"synth_{control_mhz}.csv"
        write_spectrum_csv(path, s, {"seed": str(seed)})
        return str(path)

    def test_fit_exact_recovers_control(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        csv = self.write_synth(tmp_path, 5.29)
        out = tmp_path / "out"
        assert run("fit", "--config", cfg, "--input", csv, "--model", "exact",
                   "--out", str(out)) == 0
        doc = json.loads((out / "fit_exact.json").read_text())
        assert doc["parameters"]["control_mhz"] == pytest.approx(5.29, rel=0.005)
        assert doc["converged"]

    def test_fit_eit_on_doublet_regime_warns(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        csv = self.write_synth(tmp_path, 19.7, noise=0.03)
        out = tmp_path / "out"
        assert run("fit", "--config", cfg, "--input", csv, "--model", "eit",
                   "--out", str(out)) == 0
        doc = json.loads((out / "fit_eit.json").read_text())
        assert doc["regime_warning"] is True
        assert doc["model_weight"] < 0.5
        # forced difference-form fit leaves a large residual on doublet data
        assert doc["residual_sum"] > 20 * 61 * 0.03**2

    def test_fit_ats_in_window_regime_warns(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        csv = self.write_synth(tmp_path, 2.06, noise=0.03)
        out = tmp_path / "out"
        assert run("fit", "--config", cfg, "--input", csv, "--model", "ats",
                   "--out", str(out)) == 0
        doc = json.loads((out / "fit_ats.json").read_text())
        assert doc["regime_warning"] is True

    def test_bad_model_flag_exit_one(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        csv = self.write_synth(tmp_path, 2.06)
        assert run("fit", "--config", cfg, "--input", csv, "--model", "bogus") == 1

    def test_readme_synopsis_lists_the_model_choices(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.findall(r"\[--model ([\w|]+)\]", readme)
        subcommands = next(action for action in cli._build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        model = next(action for action in subcommands.choices["fit"]._actions
                     if action.dest == "model")
        assert [choices.split("|") for choices in listed] == [list(model.choices)]

    def test_non_uniform_trace_exit_one(self, cfg_file, tmp_path, capsys):
        times = np.geomspace(1.0, 400.0, 81).tolist()
        csv = tmp_path / "trace.csv"
        csv.write_text("time_ns,p22\n" + "".join(
            f"{t!r},{0.5 - 0.5 * math.cos(2 * math.pi * t / 56.8)!r}\n" for t in times))
        assert run("fit", "--config", cfg_file(BASE_CFG), "--model", "damped_sinusoid",
                   "--input", str(csv), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            "eitats: error: damped-sinusoid fit needs uniformly spaced times\n")


class TestDiscriminateCommand:
    def test_report_fields(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG)
        s = synth_spectrum(1.76 * M, 6.90 * M, 2.06 * M)
        csv = tmp_path / "s.csv"
        write_spectrum_csv(csv, s, {})
        out = tmp_path / "out"
        assert run("discriminate", "--config", cfg, "--input", str(csv),
                   "--out", str(out)) == 0
        doc = json.loads((out / "aic_report.json").read_text())
        assert doc["w_eit"] > 0.999
        assert doc["w_eit"] + doc["w_ats"] == pytest.approx(1.0, abs=1e-15)
        assert doc["k_eit"] == 4 and doc["k_ats"] == 3
        # each fit's convergence, as the library fits report it
        data = read_spectrum_csv(csv)
        for model, fit in zip(("eit", "ats"), fit_reduced_forms(data)):
            assert doc[f"converged_{model}"] is fit.converged is True
            assert doc[f"iterations_{model}"] == fit.iterations > 0


class TestSweepCommand:
    def test_small_sweep(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG + "drive.omega_c_grid = 3.0,5.0,7.0\n"
                       "noise.sigma = 0.03\nnoise.seeds = 3\nnoise.seed = 2\n")
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 0
        lines = [l for l in (out / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "omega_c_mhz,w_eit,w_ats,w_eit_min,w_eit_max"
        values = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert values.shape == (3, 5)
        assert np.allclose(values[:, 1] + values[:, 2], 1.0, atol=1e-12)
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["omega_aic_mhz"] is None or 2.57 < doc["omega_aic_mhz"] < 8.0
        assert doc["n_failed_fits"] == 0 and doc["n_nonconverged_fits"] == 0

    def test_sweep_counts_nonconverged_cells(self, cfg_file, tmp_path, monkeypatch):
        # one cell reported as not converged, one failed: each counted once
        def sweep(*args, **kwargs):
            result = weight_sweep(*args, **kwargs)
            result.converged[0, 1] = False
            result.converged[1, 0], result.w_eit[1, 0] = False, np.nan
            return replace(result, n_failed=np.array([0, 1]))

        monkeypatch.setattr(cli, "weight_sweep", sweep)
        cfg = cfg_file(BASE_CFG + "drive.omega_c_grid = 3.0,5.0\n"
                       "noise.sigma = 0.03\nnoise.seeds = 2\nnoise.seed = 2\n")
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert (doc["n_failed_fits"], doc["n_nonconverged_fits"]) == (1, 1)

    def test_one_value_grid_fails_before_fitting(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(README_CFG.replace("2.0:8.0:13", "3.0"))
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "eitats: error: drive.omega_c_grid needs at least 2 values\n")
        assert not (out / "sweep.csv").exists()

    def test_readme_sweep_matches_library(self, cfg_file, tmp_path):
        cfg = cfg_file(README_CFG.replace("noise.seeds = 25", "noise.seeds = 2"))
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 0
        table = np.loadtxt(out / "sweep.csv", delimiter=",", comments="#", skiprows=5)
        assert table[:, 0].tolist() == np.linspace(2.0, 8.0, 13).tolist()
        library = weight_sweep(1.76 * M, 6.90 * M, np.linspace(2.0, 8.0, 13) * M,
                               noise_sigma=0.03, n_seeds=2, base_seed=0)
        assert table[:, 1].tolist() == library.w_eit_mean.tolist()

    def test_grid_column_is_the_configs_values(self, cfg_file, tmp_path):
        # the config's own MHz values, not a round trip through rad/s, which
        # would write 14.5 as 14.499999999999998
        cfg = cfg_file(BASE_CFG + "drive.omega_c_grid = 1.0:20.0:39\n"
                       "noise.sigma = 0.03\nnoise.seeds = 1\n")
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 0
        column = [line.split(",")[0] for line in (out / "sweep.csv").read_text().splitlines()
                  if not line.startswith("#")][1:]
        assert [float(v) for v in column] == np.linspace(1.0, 20.0, 39).tolist()
        assert "14.5" in column and "15.5" in column

    def test_sweep_determinism(self, cfg_file, tmp_path):
        cfg = cfg_file(BASE_CFG + "drive.omega_c_grid = 4.0,6.0\n"
                       "noise.sigma = 0.03\nnoise.seeds = 2\nnoise.seed = 3\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("sweep", "--config", cfg, "--out", str(out_a)) == 0
        assert run("sweep", "--config", cfg, "--out", str(out_b)) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


class TestRabiCommand:
    CFG = """\
units = MHz
rates.gamma10 = 0
rates.gamma20 = 1.625
rates.gamma21 = 0
drive.omega_c = 0
drive.omega_p = 8.802816901408451
rabi.points = 161
"""

    def test_missing_probe_is_named(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(BASE_CFG.replace("drive.omega_p = 0.02\n", ""))
        assert run("rabi", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "eitats: error: drive.omega_p is not set\n"

    def test_trace_and_fit(self, cfg_file, tmp_path):
        cfg = cfg_file(self.CFG)
        out = tmp_path / "out"
        assert run("rabi", "--config", cfg, "--out", str(out), "--fit") == 0
        lines = [l for l in (out / "rabi_trace.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "time_ns,p22"
        assert len(lines) == 162
        doc = json.loads((out / "rabi_fit.json").read_text())
        assert doc["period_ns"] == pytest.approx(56.8, rel=0.01)

    @pytest.mark.parametrize("duration", ["100", "400", "1000"])
    def test_time_column_ends_at_duration(self, cfg_file, tmp_path, duration):
        cfg = cfg_file(self.CFG + f"rabi.duration_ns = {duration}\n")
        out = tmp_path / "out"
        assert run("rabi", "--config", cfg, "--out", str(out)) == 0
        last_row = (out / "rabi_trace.csv").read_text().splitlines()[-1]
        assert last_row.split(",")[0] == duration

    def test_fit_reads_rabi_trace(self, cfg_file, tmp_path):
        cfg = cfg_file(self.CFG)
        out = tmp_path / "out"
        assert run("rabi", "--config", cfg, "--out", str(out)) == 0
        assert run("fit", "--config", cfg, "--model", "damped_sinusoid",
                   "--input", str(out / "rabi_trace.csv"), "--out", str(out)) == 0
        doc = json.loads((out / "fit_damped_sinusoid.json").read_text())
        assert doc["parameters"]["period"] == pytest.approx(56.8, rel=0.01)

    def test_requires_probe(self, cfg_file, tmp_path):
        cfg = cfg_file("units = MHz\nrates.gamma10 = 1\nrates.gamma20 = 1\n"
                       "rates.gamma21 = 1\ndrive.omega_c = 0\ndrive.omega_p = 0\n")
        assert run("rabi", "--config", cfg, "--out", str(tmp_path / "o")) == 1


class TestReportsReproduceThemselves:
    """Each report's derived numbers follow from its own fields through the
    library's public functions, on the README config."""

    @pytest.fixture
    def readme(self, cfg_file, tmp_path):
        cfg, out = cfg_file(README_CFG), tmp_path / "out"

        def make(*argv):
            assert run(*argv, "--config", cfg, "--out", str(out)) == 0
            return out
        return make

    @staticmethod
    def assert_redraws(readme, model, csv, data):
        """``fit --model model`` of ``csv``: its parameters, converted back from
        MHz, redraw ``data`` to the report's ``residual_sum``."""
        doc = json.loads((readme("fit", "--model", model, "--input", str(csv))
                          / f"fit_{model}.json").read_text())
        p = {}
        for key, value in doc["parameters"].items():
            name, mhz, power = key.partition("_mhz")  # "_mhz" or "_mhz2"
            p[name] = value * TWO_PI_MHZ ** int(power or 1) if mhz else value
        rates = parse_config_text(README_CFG).three_level_rates()
        curve = {
            "exact": lambda x: tprime_exact(x, p, rates.coherence_10, rates.coherence_20),
            "eit": lambda x: eit_model(x, p),
            "ats": lambda x: ats_model(x, p),
            "damped_sinusoid": lambda t: damped_sinusoid_curve(t, **p),
        }[model](data.x)
        r = data.y - curve
        assert float(r @ r) == pytest.approx(doc["residual_sum"], rel=1e-12, abs=0.0)
        return doc

    @pytest.mark.parametrize("model", ["exact", "eit", "ats", "damped_sinusoid"])
    def test_fit_parameters_redraw_the_residual(self, readme, model):
        if model == "damped_sinusoid":
            csv = readme("rabi") / "rabi_trace.csv"
            data = read_trace_csv(csv)
        else:
            csv = readme("simulate", "--omega-c", "5.29", "--seed", "7") / "spectrum.csv"
            data = read_spectrum_csv(csv)
        self.assert_redraws(readme, model, csv, data)

    def test_low_signal_exact_fit_redraws_the_residual(self, readme, tmp_path):
        # a negated spectrum: the exact fit's amplitude is 0 and its curve zero
        spectrum = synth_spectrum(1.76 * M, 6.90 * M, 2.06 * M, noise_sigma=0.03, seed_parts=(1,))
        csv = tmp_path / "negated.csv"
        write_spectrum_csv(csv, Dataset(x=spectrum.x, y=-spectrum.y), {})
        doc = self.assert_redraws(readme, "exact", csv, read_spectrum_csv(csv))
        assert doc["warnings"] == ["low_signal"] and doc["parameters"]["amplitude"] == 0.0

    def test_aic_report_follows_from_its_residuals(self, readme):
        csv = readme("simulate", "--omega-c", "5.29", "--seed", "7") / "spectrum.csv"
        doc = json.loads((readme("discriminate", "--input", str(csv))
                          / "aic_report.json").read_text())
        n = doc["n_points"]
        assert doc["i_eit"] == aic(n, doc["r_eit"], doc["k_eit"])
        assert doc["i_ats"] == aic(n, doc["r_ats"], doc["k_ats"])
        assert (doc["ibar_eit"], doc["ibar_ats"]) == (doc["i_eit"] / n, doc["i_ats"] / n)
        assert (doc["w_eit"], doc["w_ats"]) == akaike_weights(doc["i_eit"], doc["i_ats"])

    def test_sweep_threshold_is_the_crossing_of_its_table(self, cfg_file, tmp_path):
        cfg = cfg_file(README_CFG.replace("noise.seeds = 25", "noise.seeds = 2"))
        out = tmp_path / "out"
        assert run("sweep", "--config", cfg, "--out", str(out)) == 0
        table = np.loadtxt(out / "sweep.csv", delimiter=",", comments="#", skiprows=5)
        doc = json.loads((out / "sweep.json").read_text())
        crossing = crossing_threshold(table[:, 0], table[:, 1])
        assert doc["omega_aic_mhz"] == pytest.approx(crossing.threshold, rel=1e-12, abs=0.0)
        assert doc["multiple_crossings"] is crossing.multiple_crossings

    def test_rabi_fit_times_are_its_parameters(self, readme):
        doc = json.loads((readme("rabi", "--fit") / "rabi_fit.json").read_text())
        assert doc["period_ns"] == doc["parameters"]["period"]
        assert doc["decay_time_ns"] == doc["parameters"]["decay_time"]


class TestUsageErrors:
    def test_linalg_error_is_numerical_failure(self, cfg_file, tmp_path, monkeypatch):
        # np.linalg.LinAlgError subclasses ValueError; it must still exit 2
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("eitats.cli.discriminate", singular)
        csv = tmp_path / "s.csv"
        write_spectrum_csv(csv, synth_spectrum(1.76 * M, 6.90 * M, 2.06 * M), {})
        assert run("discriminate", "--config", cfg_file(BASE_CFG), "--input", str(csv),
                   "--out", str(tmp_path / "out")) == 2

    def test_unknown_flag(self, cfg_file):
        assert run("simulate", "--config", cfg_file(BASE_CFG), "--bogus") == 1

    def test_missing_config_file(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "nope.cfg")) == 1

    def test_one_parser_serves_every_call(self, cfg_file, tmp_path, capsys):
        # the argparse tree is built once per process; reusing it leaves no
        # state behind from one command to the next
        cfg = cfg_file(BASE_CFG)
        csv = tmp_path / "s.csv"
        write_spectrum_csv(csv, synth_spectrum(1.76 * M, 6.90 * M, 5.29 * M,
                                               noise_sigma=0.03, seed_parts=(4,)), {})
        fit = ("fit", "--config", cfg, "--model", "exact", "--input", str(csv))
        assert run(*fit, "--out", str(tmp_path / "a")) == 0
        assert run("discriminate", "--config", cfg, "--input", str(csv),
                   "--out", str(tmp_path / "d")) == 0
        assert run("simulate", "--config", cfg, "--omega-c", "19.7", "--seed", "3",
                   "--out", str(tmp_path / "s")) == 0
        assert run(*fit, "--out", str(tmp_path / "b")) == 0
        assert cli._build_parser() is cli._build_parser()
        assert ((tmp_path / "a" / "fit_exact.json").read_bytes()
                == (tmp_path / "b" / "fit_exact.json").read_bytes())
        capsys.readouterr()
        assert run("fit", "--config", cfg, "--input", str(csv), "--model", "bogus") == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_every_numerical_exception_exits_2(self):
        # main decides the exit code by base type: every exception class the
        # package defines, except the two config errors that exit 1 and the
        # warnings it only issues, is a numerical failure
        defined = {
            obj
            for info in pkgutil.iter_modules(eitats.__path__)
            for _, obj in inspect.getmembers(importlib.import_module(f"eitats.{info.name}"),
                                             inspect.isclass)
            if issubclass(obj, Exception) and not issubclass(obj, Warning)
            and obj.__module__ == f"eitats.{info.name}"
        }
        config_errors = {eitats.config.ParseError, eitats.config.ValidationError}
        assert config_errors <= defined
        assert len(defined - config_errors) >= 12
        for cls in config_errors:
            assert issubclass(cls, ValueError) and not issubclass(cls, ArithmeticError), cls
        for cls in defined - config_errors:
            assert issubclass(cls, ArithmeticError), cls

    def test_builtin_arithmetic_error_exits_2(self, cfg_file, tmp_path, capsys, monkeypatch):
        def divide(args, config):
            return 1 / 0

        monkeypatch.setitem(cli._COMMANDS, "simulate", divide)
        assert run("simulate", "--config", cfg_file(BASE_CFG),
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "eitats: numerical failure: ZeroDivisionError:")

    def test_directory_as_config_exits_1(self, tmp_path, capsys):
        assert run("simulate", "--config", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("eitats: error:")

    def test_out_beneath_a_regular_file_exits_1(self, cfg_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run("simulate", "--config", cfg_file(BASE_CFG),
                   "--out", str(blocker / "o")) == 1
        assert capsys.readouterr().err.startswith("eitats: error:")

    def test_degenerate_readout_is_numerical_failure(self, cfg_file, tmp_path, capsys):
        # cavity.g1 = 0 passes its >= 0 bound, but leaves T2 = T0
        cfg = cfg_file(BASE_CFG + TRANSMON_CFG.replace("units = MHz\n", "")
                       + "cavity.frequency = 8216.90\ncavity.q_loaded = 1000\ncavity.g1 = 0\n")
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "eitats: numerical failure: DegenerateNormalization:")


@pytest.mark.parametrize("command, block", [
    (["transmon"], "transmon"),
    (["simulate"], "rates"),
    (["simulate"], "drive"),
    (["fit", "--model", "exact"], "rates"),
    (["sweep"], "rates"),
    (["sweep"], "drive"),
    (["rabi"], "rates"),
    (["rabi"], "drive"),
], ids=lambda v: "-".join(t for t in v if t != "--model") if isinstance(v, list) else v)
def test_missing_block_exit_one(cfg_file, tmp_path, capsys, command, block):
    # the README config less one block: the accessor that first reads it names it
    cfg = cfg_file("".join(line + "\n" for line in README_CFG.splitlines()
                           if not line.startswith(f"{block}.")))
    csv = tmp_path / "s.csv"
    write_spectrum_csv(csv, synth_spectrum(1.76 * M, 6.90 * M, 2.06 * M), {})
    extra = ["--input", str(csv)] if command[0] == "fit" else []
    assert run(*command, *extra, "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"eitats: error: missing required config block '{block}'\n")


@pytest.mark.parametrize("command, key", [("simulate", "omega_c"), ("sweep", "omega_c_grid")])
def test_unset_drive_key_is_named(cfg_file, tmp_path, capsys, command, key):
    cfg = cfg_file("".join(line + "\n" for line in README_CFG.splitlines()
                           if not line.startswith(f"drive.{key} ")))
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"eitats: error: drive.{key} is not set\n"


def test_readme_example_config_is_the_tested_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"^```ini\n(.*?)^```$", readme, re.S | re.M).group(1)
    assert parse_config_text(example) == parse_config_text(README_CFG)


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    exec(compile(example, "README.md", "exec"), {})
    points, w_eit = capsys.readouterr().out.splitlines()
    assert points.split()[0] == "61" and float(w_eit) > 0.99


@pytest.mark.parametrize("command", ["transmon", "simulate"])
def test_fewer_than_three_transmon_levels_exit_one(cfg_file, tmp_path, capsys, command):
    # both commands read the transmon's levels 0-2
    cfg = cfg_file(README_CFG + "transmon.num_levels = 2\n")
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        "eitats: error: transmon.num_levels must be >= 3 (got 2)\n")


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("header, command", [
    ("detuning_mhz,tprime", ["discriminate"]),
    ("detuning_mhz,tprime", ["fit", "--model", "eit"]),
    ("time_ns,p22", ["fit", "--model", "damped_sinusoid"]),
], ids=["discriminate", "fit-eit", "fit-damped_sinusoid"])
def test_csv_with_fewer_than_two_rows_is_rejected(cfg_file, tmp_path, capsys, rows,
                                                  header, command):
    csv = tmp_path / "short.csv"
    csv.write_text("# seed=1\n" + header + "\n" + "0.5,0.25\n" * rows)
    assert run(*command, "--config", cfg_file(BASE_CFG), "--input", str(csv),
               "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"eitats: error: {csv}: need at least two data rows, got {rows}\n")


SCIPY_PROBE = """\
import sys
from eitats.cli import main

cfg, out = sys.argv[1:]
for argv in (["transmon"], ["simulate"],
             ["fit", "--model", "exact", "--input", out + "/spectrum.csv"],
             ["discriminate", "--input", out + "/spectrum.csv"], ["sweep"],
             ["rabi", "--fit"]):
    assert main([*argv, "--config", cfg, "--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_subcommand_imports_scipy(cfg_file, tmp_path):
    # a fresh interpreter, so modules imported by this test session do not count
    cfg = cfg_file(BASE_CFG + TRANSMON_CFG.replace("units = MHz\n", "")
                   + "cavity.frequency = 8216.90\ncavity.q_loaded = 1000\n"
                   + "cavity.g1 = 173\nrabi.points = 41\n"
                   + "drive.omega_c_grid = 3.0,5.0\nnoise.seeds = 2\n")
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, cfg, str(tmp_path / "o")],
                          env=_env_with_package(), capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _env_with_package():
    src = str(Path(eitats.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_process_exit_status_without_traceback(cfg_file, tmp_path):
    # the status the shell sees, for one numerical failure and one bad path
    degenerate = cfg_file(BASE_CFG + TRANSMON_CFG.replace("units = MHz\n", "")
                          + "cavity.frequency = 8216.90\ncavity.q_loaded = 1000\n"
                          + "cavity.g1 = 0\n")
    for config, status in ((degenerate, 2), (str(tmp_path), 1)):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from eitats.cli import main; sys.exit(main())",
             "simulate", "--config", config, "--out", str(tmp_path / "o")],
            env=_env_with_package(), capture_output=True, text=True)
        assert proc.returncode == status, proc.stderr
        assert proc.stderr.startswith("eitats: "), proc.stderr
        assert "Traceback" not in proc.stderr
