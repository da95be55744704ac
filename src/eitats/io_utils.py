"""Deterministic file I/O: atomic writes, provenance headers, CSV schemas.

Every output file embeds a provenance header (config hash, seed, tool
version).  Floats are written with 17 significant digits so emitted files are
byte-stable across reruns and values survive a read/write cycle losslessly.
CSV spectra use the schema ``detuning_mhz,tprime`` with ``#`` comment lines.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .spectra import Spectrum

__all__ = [
    "SCHEMA_VERSION",
    "fmt",
    "atomic_write_text",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "read_trace_csv",
    "write_table_csv",
    "write_json_report",
]

SCHEMA_VERSION = 1
TWO_PI_MHZ = 2.0 * math.pi * 1e6


def fmt(value: float) -> str:
    """17-significant-digit decimal form (exact round trip for doubles)."""
    return f"{float(value):.17g}"


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


def write_spectrum_csv(path, spectrum: Spectrum, provenance: dict) -> None:
    write_table_csv(path, ["detuning_mhz", "tprime"],
                    [spectrum.detunings / TWO_PI_MHZ, spectrum.values], provenance)


def _read_two_columns(path, header: str):
    """Rows of a two-column numeric CSV under ``header``, plus its metadata.

    ``#`` lines before the header carry ``key=value`` metadata; blank lines
    are skipped.  Malformed and non-finite values are rejected with their
    line number.
    """
    xs, ys = [], []
    metadata = {}
    header_seen = False
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
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
            xs.append(x)
            ys.append(y)
    if not header_seen:
        raise ValueError(f"{path}: missing CSV header '{header}'")
    return np.array(xs), np.array(ys), metadata


def read_spectrum_csv(path) -> Spectrum:
    """Spectrum CSV (``detuning_mhz,tprime``) with detunings converted to rad/s."""
    detunings_mhz, values, metadata = _read_two_columns(path, "detuning_mhz,tprime")
    return Spectrum(detunings=detunings_mhz * TWO_PI_MHZ, values=values, metadata=metadata)


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Time-trace CSV (``time_ns,p22``, as ``rabi`` writes it): times in ns and values."""
    times_ns, values, _ = _read_two_columns(path, "time_ns,p22")
    return times_ns, values


def write_table_csv(path, header: list[str], columns: list[np.ndarray],
                    provenance: dict) -> None:
    if len(header) != len(columns):
        raise ValueError("header and column count mismatch")
    lines = [f"# {key}={provenance[key]}" for key in sorted(provenance)]
    lines.append(",".join(header))
    n_rows = len(columns[0])
    for row in range(n_rows):
        lines.append(",".join(fmt(col[row]) for col in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(val) for val in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(val) for val in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


def write_json_report(path, payload: dict, provenance: dict) -> None:
    document = {"schema_version": SCHEMA_VERSION, "provenance": dict(provenance)}
    document.update(payload)
    atomic_write_text(path, json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n")
