#!/usr/bin/env python3
"""eitats benchmark: closed-loop workloads against the library and its CLI.

    python3 perfbench/run.py --workload sweep|classify|dynamics \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One client in one process drives each workload in a closed loop:
the next operation starts when the previous one has returned.  The CLI is
called in-process as ``eitats.cli.main([...])``.  All inputs (configs and
spectrum CSVs) are made from ``--seed`` before timing starts.

With ``--trace 0`` the run measures for ``--seconds`` seconds with tracing
off and reports the end-to-end metrics.  With ``--trace 1`` it repeats a
fixed amount of work for ``--seconds`` seconds, alternating untraced and
traced passes; it reports the per-layer metrics of the first traced pass and
the tracing overhead, and fails if traced passes disagree on any exact
count.  Either way the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from stats import Ledger, median, tail  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402

TWO_PI_MHZ = 2.0 * math.pi * 1e6
NOISE_SIGMA = 0.03
N_POINTS = 61
REGIME_POINTS_MHZ = (2.06, 5.29, 19.7)
WINDOW_UPPER_MHZ = 2.570
SETUP_PROCESSES = 5
IMPORTTIME_PROCESSES = 3
CLASSIFY_POOL = 64          # spectra per regime point; reused cyclically
EVOLVES_PER_ROUND = 10
EVOLVE_DURATION = 0.3e-6
SWEEP_SEEDS_PER_CALL = 1
TRACE_CLASSIFY_TRIPLETS = 2
TRACE_SWEEP_CALLS = 3

# README `exp.cfg`: paper rates (coherence 1.76 / 6.90 MHz) and the full
# transmon and cavity chain.
EXP_CFG = """\
units = MHz
rates.gamma10 = 3.52
rates.gamma20 = 6.90
rates.gamma21 = 6.90
drive.omega_c = 2.06
drive.omega_p = 0.02
drive.delta_span = 25
drive.delta_points = 61
drive.omega_c_grid = 2.0:8.0:13
noise.sigma = 0.03
noise.seeds = {seeds}
noise.seed = {seed}
transmon.e_c = 412
transmon.e_j0 = 3500
transmon.n_g = 0.5
cavity.frequency = 8216.90
cavity.q_loaded = 1000
cavity.g1 = 173
"""

SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import eitats.cli; "
    "from eitats.config import load_config; load_config(sys.argv[2])"
)

# Per-layer metrics: name -> (unit, end-to-end metric it should move, exact).
# Exact metrics repeat bit for bit for a given seed and are compared across
# traced passes.
SWEEP_TAIL = "item_tail_ms on sweep"
CLASSIFY_TAIL = "item_tail_ms on classify"
DYNAMICS_TAIL = "item_tail_ms on dynamics"
FIT_TARGET = "item_tail_ms on sweep and classify"
LAYER_METRICS = {
    "weight_sweep.self_ms": ("ms", SWEEP_TAIL, False),
    "discriminate.self_ms": ("ms", SWEEP_TAIL, False),
    "discriminate.calls": ("count", SWEEP_TAIL, True),
    "fit_eit_model.calls": ("count", FIT_TARGET, True),
    "fit_eit_model.p50_ms": ("ms", FIT_TARGET, False),
    "fit_eit_model.self_ms": ("ms", FIT_TARGET, False),
    "fit_eit_model.iterations_mean": ("count", FIT_TARGET, True),
    "fit_eit_model.capped": ("count", FIT_TARGET, True),
    "fit_ats_model.calls": ("count", FIT_TARGET, True),
    "fit_ats_model.p50_ms": ("ms", FIT_TARGET, False),
    "fit_ats_model.iterations_mean": ("count", FIT_TARGET, True),
    "fit_ats_model.capped": ("count", FIT_TARGET, True),
    "fit_exact_tprime_auto.calls": ("count", CLASSIFY_TAIL, True),
    "fit_exact_tprime_auto.p50_ms": ("ms", CLASSIFY_TAIL, False),
    "nlls_minimize.calls": ("count", FIT_TARGET, True),
    "nlls_minimize.iterations": ("count", FIT_TARGET, True),
    "fit_damped_sinusoid.p50_ms": ("ms", DYNAMICS_TAIL + " (small share)", False),
    "synth_spectrum.calls": ("count", SWEEP_TAIL, True),
    "synth_spectrum.self_ms": ("ms", SWEEP_TAIL, False),
    "tprime_exact.calls": ("count", SWEEP_TAIL, True),
    "steady_state.calls": ("count", DYNAMICS_TAIL, True),
    "steady_state.p50_us": ("us", DYNAMICS_TAIL, False),
    "rabi_trace.ms": ("ms", DYNAMICS_TAIL, False),
    "rabi_trace.steps_computed": ("count", DYNAMICS_TAIL, True),
    "evolve.p50_ms": ("ms", DYNAMICS_TAIL, False),
    "evolve.steps_computed": ("count", DYNAMICS_TAIL, True),
    "diagonalize.calls": ("count", DYNAMICS_TAIL, True),
    "diagonalize.self_ms": ("ms", DYNAMICS_TAIL, False),
    "normalized_transmission.calls": ("count", DYNAMICS_TAIL, True),
    "read_spectrum_csv.ms": ("ms", CLASSIFY_TAIL, False),
    "write_json_report.ms": ("ms", CLASSIFY_TAIL, False),
    "write_table_csv.ms": ("ms", CLASSIFY_TAIL, False),
    "bytes_written": ("bytes", CLASSIFY_TAIL, True),
    "load_config.ms": ("ms", CLASSIFY_TAIL, False),
    "cli.main.sweep.self_ms": ("ms", SWEEP_TAIL, False),
    "cli.main.fit.self_ms": ("ms", CLASSIFY_TAIL, False),
    "cli.main.discriminate.self_ms": ("ms", CLASSIFY_TAIL, False),
    "cli.main.simulate.self_ms": ("ms", DYNAMICS_TAIL, False),
    "cli.main.rabi.self_ms": ("ms", DYNAMICS_TAIL, False),
    "import_numpy_ms": ("ms", "setup_s on every workload", False),
    "import_scipy_ms": ("ms", "setup_s on every workload", False),
    "import_eitats_self_ms": ("ms", "setup_s on every workload", False),
    "trace.overhead_frac": ("1", "none (traced over untraced wall time, minus 1)", False),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_tail_ms": "ms",
    "fit_chi2_mean": "1",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import eitats from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "eitats" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no eitats sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import eitats.cli
    import eitats.lindblad
    if Path(eitats.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported eitats from {eitats.__file__}")
    return eitats


def tprime_reference(x, control, amplitude, gamma_10, gamma_20):
    """Closed-form exact transmission, written out independently of eitats."""
    lor = control**2 / (x**2 + gamma_10**2)
    width = gamma_20 + gamma_10 * lor
    shift = x - x * lor
    return amplitude * width / (shift**2 + width**2)


def chi2(residual_sum, n_points, sigma):
    return residual_sum / (n_points * sigma**2)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_csv_columns(path):
    """Numeric columns of an eitats CSV (``#`` comments, one header line)."""
    rows = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    header = rows[0].split(",")
    table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return {name: table[:, k] for k, name in enumerate(header)}


def first_downward_crossing(grid, curve):
    """Linear interpolation of the first 0.5 crossing of a falling curve."""
    for j in range(len(grid) - 1):
        a, b = curve[j] - 0.5, curve[j + 1] - 0.5
        if a >= 0.0 > b:
            return grid[j] + a / (a - b) * (grid[j + 1] - grid[j])
    return None


class Workload:
    """One closed-loop workload; subclasses define ``op`` and ``trace_work``."""

    name = ""
    item = ""          # what one work item is
    item_samples = ""  # the latency samples of one item

    def __init__(self, lib, workdir: Path, seed: int, ledger: Ledger):
        self.lib = lib
        self.workdir = workdir
        self.seed = seed
        self.ledger = ledger
        self.tracer: Tracer | None = None
        self.chi2: list[float] = []
        self.out = workdir / "out"
        self.out.mkdir(parents=True)
        self.config = workdir / "exp.cfg"
        self.config.write_text(EXP_CFG.format(seeds=SWEEP_SEEDS_PER_CALL, seed=seed))
        self.taps = ExitStack()

    def cli(self, *argv) -> int:
        """One in-process CLI call; a span ``cli.main.<subcommand>`` when traced."""
        scope = (self.tracer.span(f"cli.main.{argv[0]}") if self.tracer is not None
                 else nullcontext())
        with scope:
            return self.lib.cli.main([str(a) for a in argv])

    def timed(self, fn):
        """``(fn(), wall seconds)``; a call that raises yields ``None``."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            result = None
        return result, time.perf_counter() - start

    def verdict(self, label: str, n_ops: int, check):
        """Record ``n_ops`` operations; ``check()`` returns ``(n_failed,
        problems)``, and outputs it cannot read fail every operation."""
        try:
            n_failed, problems = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            n_failed, problems = n_ops, [f"unreadable output: {exc!r}"]
        if problems:
            message = f"{self.name}: {label}: " + "; ".join(problems)
            print(f"perfbench: {message}", file=sys.stderr)
            self.ledger.record(n_ops, n_failed, message)
        else:
            self.ledger.record(n_ops)

    def clear(self, *names):
        for name in names:
            (self.out / name).unlink(missing_ok=True)

    def warmup(self):
        """Untimed first calls so lazy imports and first-use costs are paid."""

    def op(self, index: int):
        """Run operation ``index``; return ``(items, busy, samples)``: the work
        items it completed, its timed wall seconds, and latency samples in
        seconds by name, where ``item_samples`` names the per-item ones."""
        raise NotImplementedError

    def trace_work(self):
        """The fixed work of one traced pass."""
        self.op(0)

    def finish(self):
        """Checks on the run as a whole, after the last operation."""

    def close(self):
        self.taps.close()


class Sweep(Workload):
    """``eitats sweep`` over the README 13-point control grid, one seed per
    grid point per call, repeated with fresh base seeds."""

    name = "sweep"
    item = "cell: a synthetic spectrum, both reduced fits and the weights"
    item_samples = "cell"

    def __init__(self, *args):
        super().__init__(*args)
        self.grid_mhz = np.linspace(2.0, 8.0, 13)
        self.curves = []
        self._reports = []

        def tap(original):
            def discriminate(*a, **k):
                report = original(*a, **k)
                self._reports.append(report)
                return report
            return discriminate
        # The CLI's sweep outputs carry only weights; the residuals behind
        # fit_chi2_mean are read off the reports weight_sweep receives.
        self.taps.enter_context(patched([("eitats.model_selection", "discriminate", tap)]))

    def warmup(self):
        self.timed(lambda: self.lib.model_selection.weight_sweep(
            1.76 * TWO_PI_MHZ, 6.90 * TWO_PI_MHZ, np.array([2.0, 2.5]) * TWO_PI_MHZ,
            n_seeds=1))

    def op(self, index):
        cells = self.grid_mhz.size * SWEEP_SEEDS_PER_CALL
        self.clear("sweep.csv", "sweep.json")
        self._reports.clear()
        code, wall = self.timed(lambda: self.cli(
            "sweep", "--config", self.config, "--out", self.out,
            "--seed", self.seed * 1_000_003 + index))
        self.chi2.extend(chi2(r, rep.n_points, NOISE_SIGMA)
                         for rep in self._reports for r in (rep.r_eit, rep.r_ats))
        self.verdict(f"sweep call {index}", cells,
                     lambda: self.check(cells) if code == 0
                     else (cells, [f"exited {code}"]))
        return cells, wall, {"cell": [wall / cells], "sweep_call": [wall]}

    def check(self, cells):
        table = read_csv_columns(self.out / "sweep.csv")
        n_failed = int(read_json(self.out / "sweep.json")["n_failed_fits"])
        w_eit, w_ats = table["w_eit"], table["w_ats"]
        problems = []
        if not np.allclose(table["omega_c_mhz"], self.grid_mhz, rtol=1e-12, atol=0):
            problems.append("grid differs from the config")
        if np.any(w_eit < 0) or np.any(w_eit > 1) or np.any(w_ats < 0) or np.any(w_ats > 1):
            problems.append("weight outside [0, 1]")
        if np.max(np.abs(w_eit + w_ats - 1.0)) > 1e-12:
            problems.append("w_eit + w_ats != 1")
        if problems:
            return cells, problems
        self.curves.append(w_eit)
        return n_failed, [f"{n_failed} failed cells"] if n_failed else []

    def mean_curve(self):
        return np.mean(self.curves, axis=0) if self.curves else None

    def finish(self):
        """One more operation per run: the regime checks on the seed-averaged
        weight curve (a single seed is too noisy to hold them)."""
        def check():
            curve = self.mean_curve()
            if curve is None:
                return 1, ["no sweep call produced a curve"]
            problems = []
            if not curve[0] > 0.9:
                problems.append(f"w_eit(2.0 MHz) = {curve[0]:.4g}, expected > 0.9")
            if not curve[-1] < 0.1:
                problems.append(f"w_eit(8.0 MHz) = {curve[-1]:.4g}, expected < 0.1")
            crossing = first_downward_crossing(self.grid_mhz, curve)
            if crossing is None or crossing <= WINDOW_UPPER_MHZ:
                problems.append(f"no crossing above {WINDOW_UPPER_MHZ} MHz (got {crossing})")
            return (1 if problems else 0), problems
        self.verdict(f"curve over {len(self.curves)} seeds per grid point", 1, check)

    def trace_work(self):
        for index in range(TRACE_SWEEP_CALLS):
            self.op(index)


class Classify(Workload):
    """Per spectrum: ``eitats fit --model exact`` then ``eitats discriminate``
    on a synthesized CSV; spectra rotate through the three regime points."""

    name = "classify"
    item = "spectrum: fit --model exact plus discriminate"
    item_samples = "spectrum"

    def __init__(self, *args):
        super().__init__(*args)
        gamma_10, gamma_20 = 1.76 * TWO_PI_MHZ, 6.90 * TWO_PI_MHZ
        self.inputs = []   # (csv path, control MHz, residual at generating params)
        x = np.linspace(-25.0, 25.0, N_POINTS) * TWO_PI_MHZ
        for k in range(CLASSIFY_POOL * len(REGIME_POINTS_MHZ)):
            control_mhz = REGIME_POINTS_MHZ[k % len(REGIME_POINTS_MHZ)]
            control = control_mhz * TWO_PI_MHZ
            shape = tprime_reference(x, control, 1.0, gamma_10, gamma_20)
            amplitude = 1.0 / shape.max()
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, k))))
            y = amplitude * shape + rng.normal(0.0, NOISE_SIGMA, size=x.size)
            path = self.workdir / f"spectrum_{k:04d}.csv"
            lines = ["# source=perfbench", "detuning_mhz,tprime"]
            lines += [f"{xv / TWO_PI_MHZ:.17g},{yv:.17g}" for xv, yv in zip(x, y)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            # residual at the generating parameters, on the grid as the CLI reads it
            cols = read_csv_columns(path)
            resid = cols["tprime"] - tprime_reference(
                cols["detuning_mhz"] * TWO_PI_MHZ, control, amplitude, gamma_10, gamma_20)
            self.inputs.append((path, control_mhz, float(resid @ resid)))

    def warmup(self):
        self.spectrum_calls(0)

    def spectrum_calls(self, k):
        path, control_mhz, _ = self.inputs[k % len(self.inputs)]
        return (self.cli("fit", "--config", self.config, "--model", "exact",
                         "--omega-c", control_mhz, "--input", path, "--out", self.out),
                self.cli("discriminate", "--config", self.config, "--input", path,
                         "--out", self.out))

    def spectrum(self, k):
        self.clear("fit_exact.json", "aic_report.json")
        codes, wall = self.timed(lambda: self.spectrum_calls(k))
        self.verdict(f"spectrum {k}", 2, lambda: self.check(k, codes or (None, None)))
        return wall

    def check(self, k, codes):
        _, control_mhz, r_generating = self.inputs[k % len(self.inputs)]
        fit_code, aic_code = codes
        n_failed, problems = 0, []
        if fit_code != 0:
            n_failed, problems = 1, [f"fit exited {fit_code}"]
        else:
            fit = read_json(self.out / "fit_exact.json")
            self.chi2.append(chi2(fit["residual_sum"], fit["n_points"], NOISE_SIGMA))
            if not fit["residual_sum"] <= r_generating * (1.0 + 1e-9):
                n_failed += 1
                problems.append(f"exact fit residual {fit['residual_sum']:.6g} above "
                                f"{r_generating:.6g} at the generating parameters")
        if aic_code != 0:
            return n_failed + 1, problems + [f"discriminate exited {aic_code}"]
        aic = read_json(self.out / "aic_report.json")
        n = aic["n_points"]
        self.chi2 += [chi2(aic["r_eit"], n, NOISE_SIGMA), chi2(aic["r_ats"], n, NOISE_SIGMA)]
        if control_mhz == REGIME_POINTS_MHZ[0] and not aic["w_eit"] > 0.5:
            return n_failed + 1, problems + [f"w_eit {aic['w_eit']:.4g} at 2.06 MHz"]
        if control_mhz == REGIME_POINTS_MHZ[-1] and not aic["w_ats"] > 0.5:
            return n_failed + 1, problems + [f"w_ats {aic['w_ats']:.4g} at 19.7 MHz"]
        return n_failed, problems

    def op(self, index):
        # one spectrum per regime point, so every run keeps the 1:1:1 mix
        walls = [self.spectrum(3 * index + r) for r in range(len(REGIME_POINTS_MHZ))]
        return len(walls), sum(walls), {"spectrum": walls}

    def trace_work(self):
        for index in range(TRACE_CLASSIFY_TRIPLETS):
            self.op(index)


class Dynamics(Workload):
    """One round: ``simulate`` at the three regime points, ``rabi --fit`` and
    ten library ``evolve`` calls, all on the README configuration."""

    name = "dynamics"
    item = "round: three simulate calls, one rabi --fit and ten evolve calls"
    item_samples = "round"

    def __init__(self, *args):
        super().__init__(*args)
        lindblad = self.lib.lindblad
        self.rates = lindblad.ThreeLevelRates(
            relax_10=3.52 * TWO_PI_MHZ, relax_20=6.90 * TWO_PI_MHZ, relax_21=6.90 * TWO_PI_MHZ)
        self.drive = lindblad.DriveConfig(control=2.06 * TWO_PI_MHZ, probe=0.02 * TWO_PI_MHZ)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, 7))))
        self.initial_states = []
        for _ in range(EVOLVES_PER_ROUND):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho0 = a @ a.conj().T
            self.initial_states.append(rho0 / np.trace(rho0))
        self.rabi_sigma = None

    def rabi_reference_check(self):
        """Noiseless ``rabi_trace`` on the README inputs against an independent
        matrix-exponential propagation; returns ``(n_failed, problems)``."""
        from scipy.linalg import expm
        lindblad = self.lib.lindblad
        probe = 0.02 * TWO_PI_MHZ
        times = np.linspace(0.0, 8.0 * math.pi / probe, 321)
        trace = lindblad.rabi_trace(self.rates, probe, times)
        liou = lindblad.liouvillian_matrix(
            self.rates, lindblad.DriveConfig(control=0.0, probe=probe))
        step = expm(liou * (times[1] - times[0]))
        vec = np.zeros(9, dtype=complex)
        vec[0] = 1.0
        reference = np.empty(times.size)
        for k in range(times.size):
            if k:
                vec = step @ vec
            reference[k] = vec[8].real   # rho_22 in the row-major vec
        peak = float(reference.max())
        self.rabi_sigma = NOISE_SIGMA * peak
        # relative to the peak: the README trace never exceeds 8.4e-6
        error = float(np.max(np.abs(trace - reference))) / peak
        if error > 1e-6:
            return 1, [f"differs from expm propagation by {error:.3g} of its peak"]
        return 0, []

    def warmup(self):
        # outside any timed region; the noise level it finds scales fit_chi2_mean
        self.verdict("noiseless rabi_trace", 1, lambda: self.timed(
            self.rabi_reference_check)[0] or (1, ["raised"]))
        self.timed(lambda: self.cli("simulate", "--config", self.config, "--out", self.out))
        self.evolve(self.initial_states[0], record=False)

    def simulate(self, control_mhz, seed):
        self.clear("spectrum.csv", "steady_state.json")
        code, wall = self.timed(lambda: self.cli(
            "simulate", "--config", self.config, "--omega-c", control_mhz,
            "--seed", seed, "--out", self.out))

        def check():
            if code != 0:
                return 1, [f"exited {code}"]
            total = sum(read_json(self.out / "steady_state.json")["populations"])
            values = read_csv_columns(self.out / "spectrum.csv")["tprime"]
            if abs(total - 1.0) > 1e-9:
                return 1, [f"steady-state populations sum to {total!r}"]
            if values.size != N_POINTS or not np.all(np.isfinite(values)):
                return 1, ["spectrum.csv is not 61 finite values"]
            return 0, []
        self.verdict(f"simulate at {control_mhz} MHz", 1, check)
        return wall

    def rabi(self, seed):
        self.clear("rabi_trace.csv", "rabi_fit.json")
        code, wall = self.timed(lambda: self.cli(
            "rabi", "--config", self.config, "--fit", "--seed", seed, "--out", self.out))

        def check():
            if code != 0:
                return 1, [f"exited {code}"]
            fit = read_json(self.out / "rabi_fit.json")
            trace = read_csv_columns(self.out / "rabi_trace.csv")["p22"]
            if self.rabi_sigma:     # unset only when the reference check raised
                self.chi2.append(chi2(fit["residual_sum"], fit["n_points"], self.rabi_sigma))
            if trace.size != fit["n_points"] or not np.all(np.isfinite(trace)):
                return 1, ["rabi_trace.csv does not match the fit"]
            return 0, []
        self.verdict("rabi --fit", 1, check)
        return wall

    def evolve(self, rho0, record=True):
        traj, wall = self.timed(lambda: self.lib.lindblad.evolve(
            rho0, self.rates, self.drive, EVOLVE_DURATION, sample_stride=50))

        def check():
            if traj is None:
                return 1, ["raised"]
            final = traj.states[-1]
            eigs = np.linalg.eigvalsh(0.5 * (final + final.conj().T))
            if (abs(np.trace(final) - 1.0) > 1e-9 or eigs.min() < -1e-9
                    or np.max(np.abs(final - final.conj().T)) > 1e-12):
                return 1, ["left the set of density matrices"]
            return 0, []
        if record:
            self.verdict("evolve", 1, check)
        return wall

    def op(self, index):
        seed = self.seed * 1_000_003 + index
        sims = [self.simulate(c, seed) for c in REGIME_POINTS_MHZ]
        rabi = self.rabi(seed)
        evolves = [self.evolve(rho0) for rho0 in self.initial_states]
        wall = sum(sims) + rabi + sum(evolves)
        return 1, wall, {"round": [wall], "simulate": sims, "rabi": [rabi],
                         "evolve": evolves}


WORKLOADS = {cls.name: cls for cls in (Sweep, Classify, Dynamics)}


# ---------------------------------------------------------------------------
# tracing: what is wrapped, and how spans become per-layer metrics
# ---------------------------------------------------------------------------

def fit_attrs(attrs, args, kwargs, result):
    attrs["iterations"] = result.iterations
    attrs["converged"] = result.converged


def rabi_attrs(attrs, args, kwargs, result):
    """RK4 steps the fixed-step scheme takes for these inputs."""
    rates, probe, times = args[:3]
    scale = max(rates.max_rate, probe)
    base_dt = 1.0 / (200.0 * scale)
    gaps = np.diff(np.concatenate([[0.0], np.asarray(times, dtype=float)]))
    attrs["steps"] = int(sum(max(1, math.ceil(g / base_dt)) for g in gaps if g > 0))


def evolve_attrs(attrs, args, kwargs, result):
    _, rates, drive, duration = args[:4]
    step = kwargs.get("step")
    if step is None:
        step = 1.0 / (200.0 * max(rates.max_rate, drive.max_rate))
    attrs["steps"] = int(round(duration / step))


def file_attrs(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(args[0])


def text_attrs(attrs, args, kwargs, result):
    attrs["bytes"] = len(args[1].encode("utf-8"))


SPANS = (
    ("eitats.cli", "weight_sweep", None),
    ("eitats.model_selection", "synth_spectrum", None),
    ("eitats.model_selection", "discriminate", None),
    ("eitats.cli", "discriminate", None),
    ("eitats.model_selection", "fit_eit_model", fit_attrs),
    ("eitats.model_selection", "fit_ats_model", fit_attrs),
    ("eitats.cli", "fit_exact_tprime_auto", fit_attrs),
    ("eitats.fitting", "nlls_minimize", fit_attrs),
    ("eitats.cli", "fit_damped_sinusoid", fit_attrs),
    ("eitats.cli", "steady_state", None),
    ("eitats.cli", "rabi_trace", rabi_attrs),
    ("eitats.lindblad", "evolve", evolve_attrs),
    ("eitats.cli", "diagonalize", None),
    ("eitats.cli", "read_spectrum_csv", None),
    ("eitats.cli", "write_json_report", file_attrs),
    ("eitats.cli", "write_table_csv", file_attrs),
    ("eitats.cli", "write_spectrum_csv", file_attrs),
    ("eitats.cli", "atomic_write_text", text_attrs),
    ("eitats.cli", "load_config", None),
)
COUNTERS = (
    ("eitats.synth", "tprime_exact"),
    ("eitats.fitting", "tprime_exact"),
    ("eitats.cli", "normalized_transmission"),
)


def instrument(tracer: Tracer):
    """Replacements for :func:`spans.patched` that feed ``tracer``."""
    replacements = []
    for module, attr, on_result in SPANS:
        replacements.append((module, attr, lambda fn, a=attr, cb=on_result:
                             tracer.wrap_span(fn, a, cb)))
    for module, attr in COUNTERS:
        replacements.append((module, attr, lambda fn, a=attr: tracer.wrap_count(fn, a)))
    return replacements


def layer_metrics(tracer: Tracer, max_iterations) -> dict:
    spans = tracer.spans
    own = self_times(spans)

    def picked(name):
        return [spans[i] for i in tracer.named(name)]

    def durations_ms(name):
        return [1e3 * s.duration for s in picked(name)]

    def p50(name, scale=1.0):
        values = durations_ms(name)
        return scale * median(values) if values else 0.0

    def self_ms(name):
        return 1e3 * sum(own[i] for i in tracer.named(name))

    def attr_total(name, key):
        return sum(s.attrs.get(key, 0) for s in picked(name))

    def iterations_mean(name):
        its = [s.attrs["iterations"] for s in picked(name) if "iterations" in s.attrs]
        return sum(its) / len(its) if its else 0.0

    def capped(name):
        return sum(1 for s in picked(name)
                   if s.attrs.get("converged") is False
                   and (max_iterations is None or s.attrs["iterations"] >= max_iterations))

    m = {
        "weight_sweep.self_ms": self_ms("weight_sweep"),
        "discriminate.self_ms": self_ms("discriminate"),
        "discriminate.calls": len(picked("discriminate")),
        "fit_exact_tprime_auto.calls": len(picked("fit_exact_tprime_auto")),
        "fit_exact_tprime_auto.p50_ms": p50("fit_exact_tprime_auto"),
        "nlls_minimize.calls": len(picked("nlls_minimize")),
        "nlls_minimize.iterations": attr_total("nlls_minimize", "iterations"),
        "fit_damped_sinusoid.p50_ms": p50("fit_damped_sinusoid"),
        "synth_spectrum.calls": len(picked("synth_spectrum")),
        "synth_spectrum.self_ms": self_ms("synth_spectrum"),
        "tprime_exact.calls": tracer.counts["tprime_exact"],
        "steady_state.calls": len(picked("steady_state")),
        "steady_state.p50_us": p50("steady_state", 1e3),
        "rabi_trace.ms": sum(durations_ms("rabi_trace")),
        "rabi_trace.steps_computed": attr_total("rabi_trace", "steps"),
        "evolve.p50_ms": p50("evolve"),
        "evolve.steps_computed": attr_total("evolve", "steps"),
        "diagonalize.calls": len(picked("diagonalize")),
        "diagonalize.self_ms": self_ms("diagonalize"),
        "normalized_transmission.calls": tracer.counts["normalized_transmission"],
        "read_spectrum_csv.ms": sum(durations_ms("read_spectrum_csv")),
        "write_json_report.ms": sum(durations_ms("write_json_report")),
        "write_table_csv.ms": sum(durations_ms("write_table_csv")),
        "bytes_written": sum(attr_total(w, "bytes") for w in (
            "write_json_report", "write_table_csv", "write_spectrum_csv", "atomic_write_text")),
        "load_config.ms": sum(durations_ms("load_config")),
    }
    for fit in ("fit_eit_model", "fit_ats_model"):
        m[f"{fit}.calls"] = len(picked(fit))
        m[f"{fit}.p50_ms"] = p50(fit)
        m[f"{fit}.iterations_mean"] = iterations_mean(fit)
        m[f"{fit}.capped"] = capped(fit)
    m["fit_eit_model.self_ms"] = self_ms("fit_eit_model")
    for sub in ("sweep", "fit", "discriminate", "simulate", "rabi"):
        m[f"cli.main.{sub}.self_ms"] = self_ms(f"cli.main.{sub}")
    return m


def import_times(config_path: Path) -> dict:
    """numpy, scipy and eitats-own import cost from ``python -X importtime``."""
    samples = {"import_numpy_ms": [], "import_scipy_ms": [], "import_eitats_self_ms": []}
    for _ in range(IMPORTTIME_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", SETUP_CHILD, str(SRC), str(config_path)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120, check=True)
        parsed = parse_importtime(proc.stderr)
        for key, value in parsed.items():
            samples[key].append(value)
    return {key: median(values) for key, values in samples.items()}


def parse_importtime(text: str) -> dict:
    """Sum the ``-X importtime`` tree: numpy's cumulative time, the cumulative
    time of each scipy module not imported by another scipy module, and the
    self time of every eitats module, all in milliseconds."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, package = line[len("import time:"):].split("|")
        depth = (len(package) - len(package.lstrip(" "))) // 2
        rows.append((int(self_us), int(cumulative_us), package.strip(), depth))
    # the listing is post-order: a module's parent is the next row one level up
    parent = [None] * len(rows)
    for j, (_, _, _, depth) in enumerate(rows):
        for k in range(j + 1, len(rows)):
            if rows[k][3] < depth:
                parent[j] = rows[k][2]
                break
    numpy_ms = next((cum for _, cum, name, _ in rows if name == "numpy"), 0) / 1e3
    scipy_ms = sum(cum for j, (_, cum, name, _) in enumerate(rows)
                   if name.split(".")[0] == "scipy"
                   and (parent[j] or "").split(".")[0] != "scipy") / 1e3
    eitats_ms = sum(own for own, _, name, _ in rows if name.split(".")[0] == "eitats") / 1e3
    return {"import_numpy_ms": numpy_ms, "import_scipy_ms": scipy_ms,
            "import_eitats_self_ms": eitats_ms}


def setup_seconds(config_path: Path) -> float:
    """Median wall time of fresh interpreters that import eitats.cli and load
    the workload's config."""
    walls = []
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
    return median(walls)


def environment(lib, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eitats": lib.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "library default (one per core)",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def print_samples(label, values):
    pct, value, n = tail(values)
    print(f"  {label}_p50_ms = {1e3 * median(values):.6g} ms, "
          f"{label}_tail_ms = {1e3 * value:.6g} ms (p{pct:g} of n={n})")


def run_timed(work: Workload, seconds: float):
    work.warmup()
    samples: dict = {}
    items = busy = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        done, wall, named = work.op(index)
        items += done
        busy += wall
        for key, values in named.items():
            samples.setdefault(key, []).extend(values)
        index += 1
        if time.perf_counter() >= deadline:
            break
    work.finish()
    return samples, items, busy


def run_traced(work: Workload, lib, seconds: float):
    """Alternate untraced and traced passes of the fixed trace work until
    ``seconds`` have passed (at least one untraced and two traced passes).

    Returns the per-layer metrics of the first traced pass, the exact metrics
    on which a later traced pass disagrees, and that first tracer.
    """
    work.warmup()
    walls = {False: [], True: []}
    tracers = []
    deadline = time.perf_counter() + seconds
    traced = False
    while not walls[False] or len(tracers) < 2 or time.perf_counter() < deadline:
        work.tracer = Tracer() if traced else None
        scope = patched(instrument(work.tracer)) if traced else nullcontext()
        start = time.perf_counter()
        with scope:
            work.trace_work()
        walls[traced].append(time.perf_counter() - start)
        if traced:
            tracers.append(work.tracer)
        work.tracer = None
        traced = not traced
    work.finish()
    max_iterations = getattr(lib.fitting, "MAX_ITERATIONS", None)
    first, *later = (layer_metrics(t, max_iterations) for t in tracers)
    exact = [k for k, (_, _, is_exact) in LAYER_METRICS.items() if is_exact]
    mismatched = sorted({k for other in later for k in exact if other[k] != first[k]})
    first["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1.0
    return first, mismatched, tracers[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    lib = load_library()
    began = time.perf_counter()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ledger = Ledger()
    work = WORKLOADS[args.workload](lib, workdir, args.seed, ledger)
    try:
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        problems = []
        if args.trace:
            metrics, mismatched, tracer = run_traced(work, lib, args.seconds)
            metrics.update(import_times(work.config))
            if mismatched:
                problems.append("traced passes disagree on exact counts: "
                                + ", ".join(mismatched))
            units = {k: unit for k, (unit, _, _) in LAYER_METRICS.items()}
            print("per-layer metrics (first traced pass; [exact] repeats bit for bit):")
            for key, (unit, target, exact) in LAYER_METRICS.items():
                flag = " [exact]" if exact else ""
                print(f"  {key} = {metrics[key]:.6g} {unit}{flag} -> {target}")
            own = self_times(tracer.spans)
            summary = {}
            for span, own_s in zip(tracer.spans, own):
                entry = summary.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
                entry["calls"] += 1
                entry["total_ms"] += 1e3 * span.duration
                entry["self_ms"] += 1e3 * own_s
            record_extra = {"first_traced_pass": summary, "counters": dict(tracer.counts)}
        else:
            setup = setup_seconds(work.config)
            samples, items, busy = run_timed(work, args.seconds)
            metrics = {
                "setup_s": setup,
                "item_tail_ms": 1e3 * tail(samples[work.item_samples])[1],
                "fit_chi2_mean": float(np.mean(work.chi2)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            print("end-to-end metrics:")
            for key, unit in units.items():
                print(f"  {key} = {metrics[key]:.6g} {unit}")
            print(f"  failed_frac = {ledger.failed_frac:.6g} 1 "
                  f"({ledger.failed} of {ledger.attempted} operations)")
            print(f"  (an item is one {work.item})")
            print("information, not gated (see NOTES.md):")
            print(f"  items_per_s = {items / busy:.6g} 1/s ({items} items in {busy:.4g} s)")
            for key, values in samples.items():
                print_samples(key, values)
            record_extra = {"items": items, "busy_s": busy}
            if isinstance(work, Sweep) and work.curves:
                crossing = first_downward_crossing(work.grid_mhz, work.mean_curve())
                print(f"  crossing = {crossing} MHz over {len(work.curves)} seeds "
                      "per grid point")
                record_extra["crossing_mhz"] = crossing
        problems += ledger.problems
        correct = not problems and ledger.failed == 0
        env = environment(lib, args.seed)
        env["elapsed_s"] = time.perf_counter() - began
        print("environment: " + json.dumps(env, sort_keys=True))
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        record = {"workload": args.workload, "trace": args.trace, "environment": env,
                  "metrics": metrics, "problems": problems, **record_extra}
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(json.dumps({
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        work.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
