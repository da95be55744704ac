"""Line-oriented experiment configuration: ``section.key = value``.

A config file declares its frequency unit once (``units = MHz`` by default)
and groups keys into blocks: ``transmon`` (energies in frequency units),
``rates`` (relaxation Gamma's and pure dephasings), ``drive`` (control/probe
strengths and the detuning grid), ``cavity``, ``noise`` (sigma fraction plus
seeds), ``output`` and ``rabi``.  Values may carry an explicit Hz/kHz/MHz/GHz
suffix overriding the file unit.  Unknown keys are errors; syntax problems
raise :class:`ParseError` with the line number and constraint violations
raise :class:`ValidationError` naming the key.

Blocks store file-unit numbers so that serialization round-trips exactly;
canonical rad/s (rates, drives) and Hz (transmon, cavity) values are derived
through accessor methods.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .lindblad import DriveConfig, ThreeLevelRates
from .readout import CavitySpec
from .transmon import TransmonSpec

__all__ = [
    "ParseError",
    "ValidationError",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "serialize_config",
]

TWO_PI = 2.0 * math.pi
UNIT_SCALES = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

_VALUE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(GHz|MHz|kHz|Hz)?$")


class ParseError(Exception):
    """Config syntax error; message carries the line number."""


class ValidationError(Exception):
    """Config value or structure violates a constraint; names the key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class TransmonBlock:
    e_c: float  # file units
    e_j0: float
    flux_ratio: float = 0.0
    n_g: float = 0.0
    charge_cutoff: int = 15
    num_levels: int = 3
    ratio_grid: tuple = ()


@dataclass(frozen=True)
class RatesBlock:
    gamma10: float  # relaxation Gamma_10, file units
    gamma20: float
    gamma21: float
    dephasing00: float = 0.0
    dephasing11: float = 0.0
    dephasing22: float = 0.0


@dataclass(frozen=True)
class DriveBlock:
    omega_c: float | None = None
    omega_p: float | None = None
    delta: float = 0.0
    delta_span: float | None = None
    delta_points: int = 61
    omega_c_grid: tuple = ()


@dataclass(frozen=True)
class CavityBlock:
    frequency: float
    q_loaded: float
    g1: float
    g2: float | None = None


@dataclass(frozen=True)
class NoiseBlock:
    sigma: float = 0.0
    seeds: int = 25
    seed: int = 0


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "."


@dataclass(frozen=True)
class RabiBlock:
    duration_ns: float | None = None
    points: int = 321


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed configuration; frequency-like numbers stored in file units."""

    units: str = "MHz"
    transmon: TransmonBlock | None = None
    rates: RatesBlock | None = None
    drive: DriveBlock | None = None
    cavity: CavityBlock | None = None
    noise: NoiseBlock = field(default_factory=NoiseBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    rabi: RabiBlock = field(default_factory=RabiBlock)
    config_hash: str = field(default="", compare=False)

    @property
    def unit_scale(self) -> float:
        """Hz per file unit."""
        return UNIT_SCALES[self.units]

    def require(self, *blocks: str):
        for name in blocks:
            if getattr(self, name) is None:
                raise ValidationError(f"missing required config block '{name}'", name)

    def rad(self, value: float) -> float:
        """Angular frequency (rad/s) of a value in the file unit."""
        return value * self.unit_scale * TWO_PI

    def _hz(self, value: float) -> float:
        return value * self.unit_scale

    def three_level_rates(self) -> ThreeLevelRates:
        self.require("rates")
        r = self.rates
        return ThreeLevelRates(
            relax_10=self.rad(r.gamma10),
            relax_20=self.rad(r.gamma20),
            relax_21=self.rad(r.gamma21),
            dephase_00=self.rad(r.dephasing00),
            dephase_11=self.rad(r.dephasing11),
            dephase_22=self.rad(r.dephasing22),
        )

    def drive_config(self, detuning_rad: float = 0.0,
                     control_rad: float | None = None) -> DriveConfig:
        self.require("drive")
        if control_rad is None:
            if self.drive.omega_c is None:
                raise ValidationError("drive.omega_c is not set", "drive.omega_c")
            control_rad = self.rad(self.drive.omega_c)
        if self.drive.omega_p is None:
            raise ValidationError("drive.omega_p is not set", "drive.omega_p")
        return DriveConfig(control=control_rad, probe=self.rad(self.drive.omega_p),
                           detuning=detuning_rad)

    def detuning_grid_rad(self) -> np.ndarray:
        self.require("drive")
        span = self.drive.delta_span
        span_rad = self.rad(span) if span is not None else TWO_PI * 25e6
        return np.linspace(-span_rad, span_rad, self.drive.delta_points)

    def control_grid_rad(self) -> np.ndarray:
        self.require("drive")
        if not self.drive.omega_c_grid:
            raise ValidationError("drive.omega_c_grid is not set", "drive.omega_c_grid")
        return np.array([self.rad(v) for v in self.drive.omega_c_grid])

    def transmon_spec(self) -> TransmonSpec:
        self.require("transmon")
        t = self.transmon
        return TransmonSpec(
            charging_energy=self._hz(t.e_c),
            junction_energy=self._hz(t.e_j0),
            flux_ratio=t.flux_ratio,
            offset_charge=t.n_g,
            charge_cutoff=t.charge_cutoff,
            num_levels=t.num_levels,
        )

    def cavity_spec(self) -> CavitySpec:
        self.require("cavity")
        c = self.cavity
        return CavitySpec(
            frequency=self._hz(c.frequency),
            q_loaded=c.q_loaded,
            g1=self._hz(c.g1),
            g2=self._hz(c.g2) if c.g2 is not None else None,
        )


# key registry: (block, field) -> (kind, constraint)
# kinds: freq (unit suffix allowed), plain, int, str, freq_list, plain_list
_KEYS = {
    "transmon.e_c": ("freq", "positive"),
    "transmon.e_j0": ("freq", "nonnegative"),
    "transmon.flux_ratio": ("plain", None),
    "transmon.n_g": ("plain", None),
    "transmon.charge_cutoff": ("int", "cutoff"),
    "transmon.num_levels": ("int", "positive"),
    "transmon.ratio_grid": ("plain_list", "positive"),
    "rates.gamma10": ("freq", "nonnegative"),
    "rates.gamma20": ("freq", "nonnegative"),
    "rates.gamma21": ("freq", "nonnegative"),
    "rates.dephasing00": ("freq", "nonnegative"),
    "rates.dephasing11": ("freq", "nonnegative"),
    "rates.dephasing22": ("freq", "nonnegative"),
    "drive.omega_c": ("freq", "nonnegative"),
    "drive.omega_p": ("freq", "nonnegative"),
    "drive.delta": ("freq", None),
    "drive.delta_span": ("freq", "positive"),
    "drive.delta_points": ("int", "at_least_two"),
    "drive.omega_c_grid": ("freq_list", "ascending"),
    "cavity.frequency": ("freq", "positive"),
    "cavity.q_loaded": ("plain", "positive"),
    "cavity.g1": ("freq", "nonnegative"),
    "cavity.g2": ("freq", "nonnegative"),
    "noise.sigma": ("plain", "nonnegative"),
    "noise.seeds": ("int", "positive"),
    "noise.seed": ("int", "nonnegative"),
    "output.directory": ("str", None),
    "rabi.duration_ns": ("plain", "positive"),
    "rabi.points": ("int", "at_least_four"),
}

_REQUIRED_IN_BLOCK = {
    "transmon": ("e_c", "e_j0"),
    "rates": ("gamma10", "gamma20", "gamma21"),
    "cavity": ("frequency", "q_loaded", "g1"),
}

_BLOCK_TYPES = {
    "transmon": TransmonBlock,
    "rates": RatesBlock,
    "drive": DriveBlock,
    "cavity": CavityBlock,
    "noise": NoiseBlock,
    "output": OutputBlock,
    "rabi": RabiBlock,
}


def _check_constraint(key: str, value, constraint: str | None):
    if constraint is None:
        return
    if constraint == "positive" and not value > 0:
        raise ValidationError(f"{key} must be > 0 (got {value})", key)
    if constraint == "nonnegative" and not value >= 0:
        raise ValidationError(f"{key} must be >= 0 (got {value})", key)
    if constraint == "cutoff" and value < 5:
        raise ValidationError(f"{key} must be >= 5 (got {value})", key)
    if constraint == "at_least_two" and value < 2:
        raise ValidationError(f"{key} must be >= 2 (got {value})", key)
    if constraint == "at_least_four" and value < 4:
        raise ValidationError(f"{key} must be >= 4 (got {value})", key)


def _parse_scalar(token: str, kind: str, key: str, file_scale: float, line_no: int):
    token = token.strip()
    if kind == "str":
        return token
    match = _VALUE_RE.match(token)
    if not match:
        raise ParseError(f"line {line_no}: cannot parse value '{token}' for {key}")
    number = float(match.group(1))
    suffix = match.group(2)
    if suffix is not None:
        if kind != "freq":
            raise ValidationError(
                f"{key} is not a frequency; unit suffix '{suffix}' not allowed", key
            )
        number = number * UNIT_SCALES[suffix] / file_scale
    if kind == "int":
        if number != int(number):
            raise ValidationError(f"{key} must be an integer (got {token})", key)
        return int(number)
    return number


def _parse_list(token: str, kind: str, key: str, file_scale: float, line_no: int):
    token = token.strip()
    scalar_kind = "freq" if kind == "freq_list" else "plain"
    range_match = re.match(r"^([^:]+):([^:]+):(\d+)$", token)
    if range_match:
        start = _parse_scalar(range_match.group(1), scalar_kind, key, file_scale, line_no)
        stop = _parse_scalar(range_match.group(2), scalar_kind, key, file_scale, line_no)
        count = int(range_match.group(3))
        if count < 2:
            raise ValidationError(f"{key} range needs at least 2 points", key)
        return tuple(float(v) for v in np.linspace(start, stop, count))
    return tuple(
        _parse_scalar(part, scalar_kind, key, file_scale, line_no)
        for part in token.split(",")
    )


def parse_config_text(text: str) -> ExperimentConfig:
    units = "MHz"
    raw: dict[str, dict] = {}
    lines = text.splitlines()

    # the units key is global and read first so suffix-free values convert
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key == "units":
            if value not in UNIT_SCALES:
                raise ValidationError(
                    f"units must be one of {sorted(UNIT_SCALES)} (got '{value}')",
                    "units",
                )
            units = value
    file_scale = UNIT_SCALES[units]

    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key == "units":
            continue
        if not value:
            raise ParseError(f"line {line_no}: empty value for '{key}'")
        if key not in _KEYS:
            raise ValidationError(f"unknown config key '{key}'", key)
        kind, constraint = _KEYS[key]
        section, field_name = key.split(".", 1)
        if kind.endswith("_list"):
            parsed = _parse_list(value, kind, key, file_scale, line_no)
            for item in parsed:
                _check_constraint(key, item, constraint if constraint != "ascending" else None)
            if constraint == "ascending" and any(
                b <= a for a, b in zip(parsed, parsed[1:])
            ):
                raise ValidationError(f"{key} must be strictly increasing", key)
        else:
            parsed = _parse_scalar(value, kind, key, file_scale, line_no)
            _check_constraint(key, parsed, constraint)
        raw.setdefault(section, {})[field_name] = parsed

    blocks: dict[str, object] = {}
    for section, values in raw.items():
        for required in _REQUIRED_IN_BLOCK.get(section, ()):
            if required not in values:
                raise ValidationError(
                    f"config block '{section}' is missing key '{section}.{required}'",
                    f"{section}.{required}",
                )
        blocks[section] = _BLOCK_TYPES[section](**values)

    return ExperimentConfig(
        units=units,
        transmon=blocks.get("transmon"),
        rates=blocks.get("rates"),
        drive=blocks.get("drive"),
        cavity=blocks.get("cavity"),
        noise=blocks.get("noise", NoiseBlock()),
        output=blocks.get("output", OutputBlock()),
        rabi=blocks.get("rabi", RabiBlock()),
        config_hash=hashlib.sha256(text.encode()).hexdigest()[:16],
    )


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def _format_value(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean config values")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces an equal config."""
    out = [f"units = {config.units}"]
    for section in ("transmon", "rates", "drive", "cavity", "noise", "output", "rabi"):
        block = getattr(config, section)
        if block is None:
            continue
        for fld in fields(block):
            value = getattr(block, fld.name)
            if value is None or (isinstance(value, tuple) and not value):
                continue
            out.append(f"{section}.{fld.name} = {_format_value(value)}")
    return "\n".join(out) + "\n"
