"""Deterministic file I/O: atomic writes, provenance headers, CSV schemas.

Every output file embeds a provenance header (config hash, seed, tool
version).  Floats are written with 17 significant digits so emitted files are
byte-stable across reruns and values survive a read/write cycle losslessly.
CSV spectra use the schema ``detuning_mhz,tprime`` and time traces
``time_ns,p22``, each after ``#`` comment lines; both are read into a
:class:`eitats.fitting.Dataset`.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .fitting import Dataset

__all__ = [
    "SCHEMA_VERSION",
    "HZ_PER_MHZ",
    "TWO_PI_MHZ",
    "atomic_write_text",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "read_trace_csv",
    "write_table_csv",
    "write_json_report",
]

SCHEMA_VERSION = 3
# the one home of the file-facing unit factors: configs, flags, CSVs and reports
HZ_PER_MHZ = 1e6
TWO_PI_MHZ = 2.0 * math.pi * HZ_PER_MHZ  # rad/s per MHz (omega/2pi convention)

_FLOAT_FORMAT = "%.17g"  # 17 significant digits: an exact round trip for doubles


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_spectrum_csv(path, spectrum: Dataset, provenance: dict) -> None:
    write_table_csv(path, ["detuning_mhz", "tprime"],
                    [spectrum.x / TWO_PI_MHZ, spectrum.y], provenance)


def _read_two_columns(path, header: str):
    """Columns of a two-column numeric CSV under ``header``.

    ``#`` comment lines and blank lines are skipped.  Malformed, non-finite
    and non-increasing values are rejected with their line number, and fewer
    than two data rows with the row count.
    """
    xs, ys = [], []
    header_seen = False
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                continue
            if not header_seen:
                if line != header:
                    raise ValueError(f"{path}: expected CSV header '{header}', got '{line}'")
                header_seen = True
                continue
            left, _, right = line.partition(",")
            try:
                x, y = float(left), float(right)
            except ValueError:
                raise ValueError(f"{path}, line {line_no}: not two numbers: '{line}'") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}, line {line_no}: non-finite value: '{line}'")
            if xs and x <= xs[-1]:
                raise ValueError(f"{path}, line {line_no}: first column not increasing: '{line}'")
            xs.append(x)
            ys.append(y)
    if not header_seen:
        raise ValueError(f"{path}: missing CSV header '{header}'")
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two data rows, got {len(xs)}")
    return np.array(xs), np.array(ys)


def read_spectrum_csv(path) -> Dataset:
    """A spectrum CSV (``detuning_mhz,tprime``), detunings converted to rad/s."""
    detunings_mhz, values = _read_two_columns(path, "detuning_mhz,tprime")
    return Dataset(x=detunings_mhz * TWO_PI_MHZ, y=values)


def read_trace_csv(path) -> Dataset:
    """A time-trace CSV (``time_ns,p22``, as ``rabi`` writes it), times in ns."""
    return Dataset(*_read_two_columns(path, "time_ns,p22"))


def write_table_csv(path, header: list[str], columns: list[np.ndarray],
                    provenance: dict) -> None:
    if len(header) != len(columns):
        raise ValueError("header and column count mismatch")
    lines = [f"# {key}={provenance[key]}" for key in sorted(provenance)]
    lines.append(",".join(header))
    row_format = ",".join([_FLOAT_FORMAT] * len(columns))
    lines.extend(row_format % row for row in zip(*(np.asarray(col).tolist() for col in columns)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(val) for val in value]
    if isinstance(value, (np.ndarray, np.generic)):  # as Python lists and scalars
        return _jsonable(value.tolist())
    if isinstance(value, float) and math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


def write_json_report(path, payload: dict, provenance: dict) -> None:
    document = {"schema_version": SCHEMA_VERSION, "provenance": dict(provenance)}
    document.update(payload)
    atomic_write_text(path, json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n")
