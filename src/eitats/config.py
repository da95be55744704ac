"""Line-oriented experiment configuration: ``section.key = value``.

A config file declares its frequency unit once (``units = MHz`` by default)
and groups keys into blocks: ``transmon`` (energies in frequency units),
``rates`` (relaxation Gamma's and pure dephasings), ``drive`` (control/probe
strengths and the detuning grid), ``cavity``, ``noise`` (sigma fraction plus
seeds), ``output`` and ``rabi``.  Values may carry an explicit Hz/kHz/MHz/GHz
suffix overriding the file unit.  Unknown keys are errors; syntax problems
and a key set twice raise :class:`ParseError` with the line number and
constraint violations raise :class:`ValidationError` naming the key.

Each key is declared once, as a field of its block dataclass: the field
carries the value kind and bound, and a field without a default is a required
key.  Blocks store file-unit numbers so that ``ExperimentConfig.mhz`` echoes a
config value exactly into ``sweep.csv`` and ``steady_state.json``; canonical
rad/s (rates, drives) and Hz (transmon, cavity) values come from accessors.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .io_utils import HZ_PER_MHZ, TWO_PI_MHZ
from .lindblad import DriveConfig, ThreeLevelRates
from .readout import CavitySpec
from .synth import default_detuning_grid
from .transmon import TransmonSpec

__all__ = [
    "ParseError",
    "ValidationError",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
]

UNIT_SCALES = {"Hz": 1.0, "kHz": 1e3, "MHz": HZ_PER_MHZ, "GHz": 1e9}

_VALUE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(GHz|MHz|kHz|Hz)?$")


class ParseError(ValueError):
    """Config syntax error; message carries the line number."""


class ValidationError(ValueError):
    """Config value or structure violates a constraint; names the key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _key(kind: str, bound, default=MISSING):
    """Block field for one config key.

    ``kind`` is freq (unit suffix allowed), plain, int, str, freq_list or
    plain_list; ``bound`` is ``(op, limit)`` with op ``>`` or ``>=``, checked
    on every element of a list, and a third element ``"ascending"`` for a list
    that must strictly increase.  A field without a default is a required key.
    """
    return field(default=default, metadata={"kind": kind, "bound": bound})


@dataclass(frozen=True)
class TransmonBlock:
    e_c: float = _key("freq", (">", 0))  # file units
    e_j0: float = _key("freq", (">=", 0))
    flux_ratio: float = _key("plain", None, 0.0)
    n_g: float = _key("plain", None, 0.0)
    charge_cutoff: int = _key("int", (">=", 5), 15)
    num_levels: int = _key("int", (">=", 3), 3)  # transmon and simulate read levels 0-2
    ratio_grid: tuple = _key("plain_list", (">", 0), ())


@dataclass(frozen=True)
class RatesBlock:
    gamma10: float = _key("freq", (">=", 0))  # relaxation Gamma_10, file units
    gamma20: float = _key("freq", (">=", 0))
    gamma21: float = _key("freq", (">=", 0))
    dephasing00: float = _key("freq", (">=", 0), 0.0)
    dephasing11: float = _key("freq", (">=", 0), 0.0)
    dephasing22: float = _key("freq", (">=", 0), 0.0)


@dataclass(frozen=True)
class DriveBlock:
    omega_c: float | None = _key("freq", (">=", 0), None)
    omega_p: float | None = _key("freq", (">=", 0), None)
    delta: float = _key("freq", None, 0.0)
    delta_span: float | None = _key("freq", (">", 0), None)
    delta_points: int = _key("int", (">=", 2), 61)
    omega_c_grid: tuple = _key("freq_list", (">=", 0, "ascending"), ())


@dataclass(frozen=True)
class CavityBlock:
    frequency: float = _key("freq", (">", 0))
    q_loaded: float = _key("plain", (">", 0))
    g1: float = _key("freq", (">=", 0))
    g2: float | None = _key("freq", (">=", 0), None)


@dataclass(frozen=True)
class NoiseBlock:
    sigma: float = _key("plain", (">=", 0), 0.0)
    seeds: int = _key("int", (">", 0), 25)
    seed: int = _key("int", (">=", 0), 0)


@dataclass(frozen=True)
class OutputBlock:
    directory: str = _key("str", None, ".")


@dataclass(frozen=True)
class RabiBlock:
    duration_ns: float | None = _key("plain", (">", 0), None)
    points: int = _key("int", (">=", 4), 321)


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

    def mhz(self, value: float) -> float:
        """A file-unit frequency in MHz."""
        return value * (self.unit_scale / HZ_PER_MHZ)

    def rad(self, value: float) -> float:
        """Angular frequency (rad/s) of a file-unit value, via MHz and ``TWO_PI_MHZ``."""
        return self.mhz(value) * TWO_PI_MHZ

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
        if self.drive.delta_span is None:
            return default_detuning_grid(self.drive.delta_points)
        return default_detuning_grid(self.drive.delta_points, self.rad(self.drive.delta_span))

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


_BLOCKS = {
    "transmon": TransmonBlock,
    "rates": RatesBlock,
    "drive": DriveBlock,
    "cavity": CavityBlock,
    "noise": NoiseBlock,
    "output": OutputBlock,
    "rabi": RabiBlock,
}
# "section.name" -> the block field that declares the key
_KEYS = {f"{section}.{fld.name}": fld for section, block in _BLOCKS.items()
         for fld in fields(block)}
_OPS = {">": operator.gt, ">=": operator.ge}


def _check_bound(key: str, value, bound):
    if bound is None:
        return
    items = value if isinstance(value, tuple) else (value,)
    op, limit, *order = bound
    for item in items:
        if not _OPS[op](item, limit):
            raise ValidationError(f"{key} must be {op} {limit} (got {item})", key)
    if order and any(b <= a for a, b in zip(items, items[1:])):
        raise ValidationError(f"{key} must be strictly increasing", key)


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
    if not math.isfinite(number):
        raise ValidationError(f"{key} must be finite (got {token})", key)
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


def _set_once(seen: dict, key: str, line_no: int):
    if seen.setdefault(key, line_no) != line_no:
        raise ParseError(f"line {line_no}: key '{key}' is already set on line {seen[key]}")


def parse_config_text(text: str) -> ExperimentConfig:
    units = "MHz"
    entries = []
    seen: dict[str, int] = {}
    # the units key is global, so values convert only once every line is read
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key != "units":
            entries.append((line_no, key, value))
        elif value in UNIT_SCALES:
            _set_once(seen, key, line_no)
            units = value
        else:
            raise ValidationError(
                f"units must be one of {sorted(UNIT_SCALES)} (got '{value}')", "units"
            )
    file_scale = UNIT_SCALES[units]

    raw: dict[str, dict] = {}
    for line_no, key, value in entries:
        if not value:
            raise ParseError(f"line {line_no}: empty value for '{key}'")
        if key not in _KEYS:
            raise ValidationError(f"unknown config key '{key}'", key)
        kind = _KEYS[key].metadata["kind"]
        parse = _parse_list if kind.endswith("_list") else _parse_scalar
        parsed = parse(value, kind, key, file_scale, line_no)
        _check_bound(key, parsed, _KEYS[key].metadata["bound"])
        _set_once(seen, key, line_no)
        section, name = key.split(".", 1)
        raw.setdefault(section, {})[name] = parsed

    blocks = {}
    for section, values in raw.items():
        for fld in fields(_BLOCKS[section]):
            if fld.default is MISSING and fld.name not in values:
                raise ValidationError(
                    f"config block '{section}' is missing key '{section}.{fld.name}'",
                    f"{section}.{fld.name}",
                )
        blocks[section] = _BLOCKS[section](**values)
    config_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    return ExperimentConfig(units=units, config_hash=config_hash, **blocks)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config_text(handle.read())
