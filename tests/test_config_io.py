import ast
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitats
from eitats.config import (
    UNIT_SCALES,
    CavityBlock,
    DriveBlock,
    ExperimentConfig,
    NoiseBlock,
    OutputBlock,
    ParseError,
    RabiBlock,
    RatesBlock,
    TransmonBlock,
    ValidationError,
    load_config,
    parse_config_text,
)
from eitats.fitting import Dataset
from eitats.io_utils import (
    TWO_PI_MHZ,
    read_spectrum_csv,
    write_json_report,
    write_spectrum_csv,
    write_table_csv,
)

MINIMAL = """\
# transparency-regime fixture
units = MHz
rates.gamma10 = 3.52
rates.gamma20 = 6.90
rates.gamma21 = 6.90
drive.omega_c = 2.06
drive.omega_p = 0.035
drive.delta_span = 25
drive.delta_points = 61
"""


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config_text(MINIMAL)
        rates = cfg.three_level_rates()
        assert rates.relax_10 == pytest.approx(2 * math.pi * 3.52e6, rel=1e-12)
        assert rates.coherence_10 == pytest.approx(2 * math.pi * 1.76e6, rel=1e-12)
        drive = cfg.drive_config()
        assert drive.control == pytest.approx(2 * math.pi * 2.06e6, rel=1e-12)
        grid = cfg.detuning_grid_rad()
        assert grid.size == 61
        assert grid[0] == pytest.approx(-2 * math.pi * 25e6, rel=1e-12)

    def test_drive_is_at_the_configs_detuning(self):
        assert parse_config_text(MINIMAL).drive_config().detuning == 0.0
        cfg = parse_config_text(MINIMAL + "drive.delta = -1.25\n")
        drive = cfg.drive_config(2.0 * TWO_PI_MHZ)
        assert (drive.control, drive.detuning) == (2.0 * TWO_PI_MHZ, -1.25 * TWO_PI_MHZ)

    def test_unknown_key_names_it(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text(MINIMAL + "rates.gamma99 = 1\n")
        assert "rates.gamma99" in str(err.value)

    def test_negative_rate_with_suffix(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("units = MHz\nrates.gamma10 = -1MHz\n"
                              "rates.gamma20 = 1\nrates.gamma21 = 1\n")
        assert "rates.gamma10" in str(err.value)

    @pytest.mark.parametrize("line, key, first", [
        ("rates.gamma10 = 3.52", "rates.gamma10", 3), ("units = GHz", "units", 2)])
    def test_repeated_key_names_both_lines(self, line, key, first):
        with pytest.raises(ParseError) as err:
            parse_config_text(MINIMAL + line + "\n")
        assert str(err.value) == f"line 10: key '{key}' is already set on line {first}"

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("units = MHz\nthis is not a key value pair\n")
        assert "line 2" in str(err.value)

    def test_empty_value_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^line 2: empty value for 'noise.seed'$"):
            parse_config_text("units = MHz\nnoise.seed =\n")

    def test_unit_suffix_overrides_file_units(self):
        cfg = parse_config_text(
            "units = MHz\ncavity.frequency = 8.2169GHz\ncavity.q_loaded = 1000\n"
            "cavity.g1 = 173\n")
        assert cfg.cavity_spec().frequency == pytest.approx(8.2169e9, rel=1e-12)
        assert cfg.cavity_spec().g1 == pytest.approx(173e6, rel=1e-12)

    def test_suffix_on_dimensionless_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("units = MHz\nnoise.sigma = 0.03MHz\n")

    def test_missing_block_requirement(self):
        cfg = parse_config_text(MINIMAL)
        with pytest.raises(ValidationError) as err:
            cfg.require("cavity")
        assert "cavity" in str(err.value)

    def test_partial_block_names_missing_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("units = MHz\nrates.gamma10 = 1\n")
        assert "rates.gamma20" in str(err.value)

    def test_grid_syntaxes(self):
        cfg = parse_config_text(MINIMAL + "drive.omega_c_grid = 2.0:8.0:13\n")
        grid = cfg.control_grid_rad()
        assert grid.size == 13
        assert grid[0] == pytest.approx(2 * math.pi * 2.0e6, rel=1e-12)
        cfg = parse_config_text(MINIMAL + "drive.omega_c_grid = 1,2,4\n")
        assert cfg.control_grid_rad().size == 3

    def test_descending_grid_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text(MINIMAL + "drive.omega_c_grid = 4,2,1\n")

    def test_int_keys_validated(self):
        with pytest.raises(ValidationError):
            parse_config_text(MINIMAL + "transmon.e_c = 412\ntransmon.e_j0 = 3500\n"
                              "transmon.charge_cutoff = 2\n")
        with pytest.raises(ValidationError):
            parse_config_text(MINIMAL.replace("drive.delta_points = 61",
                                              "drive.delta_points = 1"))

    def test_units_value_checked(self):
        with pytest.raises(ValidationError):
            parse_config_text("units = THz\n")

    def test_transmon_spec_in_hz(self):
        cfg = parse_config_text("units = MHz\ntransmon.e_c = 412\n"
                                "transmon.e_j0 = 3500\ntransmon.n_g = 0.5\n")
        spec = cfg.transmon_spec()
        assert spec.charging_energy == pytest.approx(412e6, rel=1e-12)
        assert spec.offset_charge == 0.5

    def test_load_config_hash(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert len(cfg.config_hash) == 16
        assert cfg.config_hash == "56458affb999ba37"
        # equality ignores the hash (it tracks raw text, not content)
        cfg2 = parse_config_text(MINIMAL + "# trailing comment\n")
        assert cfg2 == cfg


BLOCKS = {"transmon": TransmonBlock, "rates": RatesBlock, "drive": DriveBlock,
          "cavity": CavityBlock, "noise": NoiseBlock, "output": OutputBlock,
          "rabi": RabiBlock}

# Every config key with the value kind and the bound (op, limit) it is parsed
# and checked with; an independent record of the file format.
KEY_SPECS = {
    "transmon.e_c": ("freq", ">", 0),
    "transmon.e_j0": ("freq", ">=", 0),
    "transmon.flux_ratio": ("plain", None, None),
    "transmon.n_g": ("plain", None, None),
    "transmon.charge_cutoff": ("int", ">=", 5),
    "transmon.num_levels": ("int", ">=", 3),
    "transmon.ratio_grid": ("plain_list", ">", 0),
    "rates.gamma10": ("freq", ">=", 0),
    "rates.gamma20": ("freq", ">=", 0),
    "rates.gamma21": ("freq", ">=", 0),
    "rates.dephasing00": ("freq", ">=", 0),
    "rates.dephasing11": ("freq", ">=", 0),
    "rates.dephasing22": ("freq", ">=", 0),
    "drive.omega_c": ("freq", ">=", 0),
    "drive.omega_p": ("freq", ">=", 0),
    "drive.delta": ("freq", None, None),
    "drive.delta_span": ("freq", ">", 0),
    "drive.delta_points": ("int", ">=", 2),
    "drive.omega_c_grid": ("freq_list", ">=", 0),
    "cavity.frequency": ("freq", ">", 0),
    "cavity.q_loaded": ("plain", ">", 0),
    "cavity.g1": ("freq", ">=", 0),
    "cavity.g2": ("freq", ">=", 0),
    "noise.sigma": ("plain", ">=", 0),
    "noise.seeds": ("int", ">", 0),
    "noise.seed": ("int", ">=", 0),
    "output.directory": ("str", None, None),
    "rabi.duration_ns": ("plain", ">", 0),
    "rabi.points": ("int", ">=", 4),
}
REQUIRED = ["transmon.e_c", "transmon.e_j0", "rates.gamma10", "rates.gamma20",
            "rates.gamma21", "cavity.frequency", "cavity.q_loaded", "cavity.g1"]

FULL = "units = MHz\n" + "".join(f"{key} = {value}\n" for key, value in [
    ("transmon.e_c", 412), ("transmon.e_j0", 3500), ("transmon.n_g", 0.5),
    ("rates.gamma10", 3.52), ("rates.gamma20", 6.9), ("rates.gamma21", 6.9),
    ("drive.omega_c", 2.06), ("drive.omega_p", 0.02),
    ("cavity.frequency", 8216.9), ("cavity.q_loaded", 1000), ("cavity.g1", 173),
])


def test_key_specs_cover_every_block_field():
    declared = {f"{section}.{fld.name}" for section, cls in BLOCKS.items()
                for fld in fields(cls)}
    assert declared == set(KEY_SPECS)


def _value_strategy(kind, op, limit):
    if kind == "str":
        return st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                     blacklist_characters="#"), min_size=1)
    if kind == "int":
        low = limit + (op == ">") if op else -10**6
        return st.integers(low, 10**6)
    bounded = {} if op in (None, "ascending") else {
        "min_value": float(limit), "exclude_min": op == ">"}
    number = st.floats(allow_nan=False, allow_infinity=False, **bounded)
    if kind == "plain_list":
        return st.lists(number, max_size=4).map(tuple)
    if kind == "freq_list":
        return st.lists(number, max_size=4, unique=True).map(lambda v: tuple(sorted(v)))
    return number


def _block_strategy(section, cls):
    parts = {}
    for fld in fields(cls):
        key = f"{section}.{fld.name}"
        value = _value_strategy(*KEY_SPECS[key])
        parts[fld.name] = value if key in REQUIRED else value | st.just(fld.default)
    return st.fixed_dictionaries(parts).map(lambda kw: cls(**kw))


def _section_strategy(section, cls):
    block = _block_strategy(section, cls)
    # these blocks may be absent; the others always hold their defaults
    return block | st.none() if section in ("transmon", "rates", "drive", "cavity") else block


CONFIGS = st.builds(
    ExperimentConfig,
    units=st.sampled_from(sorted(UNIT_SCALES)),
    **{section: _section_strategy(section, cls) for section, cls in BLOCKS.items()},
)


def _config_text(cfg) -> str:
    """Config file text for ``cfg``: each set key, floats at 17 significant digits."""
    def text(value):
        if isinstance(value, tuple):
            return ",".join(text(v) for v in value)
        return f"{value:.17g}" if isinstance(value, float) else str(value)
    lines = [f"units = {cfg.units}"]
    for section in BLOCKS:
        block = getattr(cfg, section)
        for fld in fields(block) if block is not None else ():
            value = getattr(block, fld.name)
            if value is not None and value != ():
                lines.append(f"{section}.{fld.name} = {text(value)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(cfg=CONFIGS)
def test_serialization_roundtrip_over_every_key(cfg):
    assert parse_config_text(_config_text(cfg)) == cfg


def _rejections():
    """(config text, key, exact message) for a value just past each bound and
    for each required key left out of its block."""
    for key, (kind, op, limit) in KEY_SPECS.items():
        if op is not None:
            bad = limit if op == ">" else limit - (1 if kind == "int" else 1e-9)
            message = f"{key} must be {op} {limit} (got {bad if kind == 'int' else float(bad)})"
            yield pytest.param(FULL + f"{key} = {bad}\n", key, message, id=key)
    key = "drive.omega_c_grid"
    yield pytest.param(FULL + f"{key} = 2,1\n", key, f"{key} must be strictly increasing",
                       id=f"{key}-ascending")
    # each element of the grid has the bound of drive.omega_c, checked first
    yield pytest.param(FULL + f"{key} = -3,-1,2\n", key, f"{key} must be >= 0 (got -3.0)",
                       id=f"{key}-negative")
    yield pytest.param(FULL + f"{key} = 1:2:1\n", key, f"{key} range needs at least 2 points",
                       id=f"{key}-range")
    key = "noise.seeds"
    yield pytest.param(FULL + f"{key} = 2.5\n", key, f"{key} must be an integer (got 2.5)",
                       id=f"{key}-integer")
    for key in REQUIRED:
        text = "".join(line + "\n" for line in FULL.splitlines()
                       if not line.startswith(f"{key} "))
        message = f"config block '{key.split('.')[0]}' is missing key '{key}'"
        yield pytest.param(text, key, message, id=f"missing-{key}")


@pytest.mark.parametrize("text, key, message", list(_rejections()))
def test_bounds_and_required_keys_name_the_key(text, key, message):
    with pytest.raises(ValidationError) as err:
        parse_config_text(text)
    assert (str(err.value), err.value.key) == (message, key)


class TestSpectrumCsv:
    def test_write_read_roundtrip(self, tmp_path):
        det = np.linspace(-25.0, 25.0, 61) * TWO_PI_MHZ
        values = np.exp(-np.linspace(-2, 2, 61) ** 2)
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, Dataset(x=det, y=values), {"seed": "7", "config_hash": "abc"})
        back = read_spectrum_csv(path)
        assert np.array_equal(back.y, values)
        assert np.allclose(back.x, det, rtol=1e-15)
        # a rewrite of the ingested spectrum is byte-identical
        path2 = tmp_path / "s2.csv"
        write_spectrum_csv(path2, back, {"seed": "7", "config_hash": "abc"})
        assert path.read_bytes() == path2.read_bytes()

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n# seed=1\n\ndetuning_mhz,tprime\n1,0.5\n\n  \n2,0.4\n\n")
        back = read_spectrum_csv(path)
        assert np.array_equal(back.x, np.array([1.0, 2.0]) * TWO_PI_MHZ)
        assert np.array_equal(back.y, [0.5, 0.4])

    @pytest.mark.parametrize("second", ["1", "0.5"])
    def test_rejects_non_increasing_first_column(self, tmp_path, second):
        path = tmp_path / "s.csv"
        path.write_text(f"detuning_mhz,tprime\n1,0.5\n{second},0.4\n")
        with pytest.raises(ValueError, match=f"{path}, line 3: first column not increasing"):
            read_spectrum_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("detuning_mhz,tprime\n1,0.5\n2,abc\n", ", line 3: not two numbers: '2,abc'"),
        ("# seed=1\n# no header\n", ": missing CSV header 'detuning_mhz,tprime'"),
    ], ids=["not-two-numbers", "comments-only"])
    def test_rejects_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_spectrum_csv(path)
        assert str(err.value) == f"{path}{message}"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["csv", "dataset", "config"])
def test_non_finite_input_rejected_where_it_enters(tmp_path, bad, where):
    rows = [("-1", "0.5"), ("0", bad), ("1", "0.5")]
    if where == "config":
        # no number literal is NaN; an overflow is inf, also after unit scaling
        literal = {"nan": "nan", "inf": "1e400", "-inf": "-1e300 GHz"}[bad]
        with pytest.raises((ParseError, ValidationError), match="rates.gamma10"):
            parse_config_text(f"units = Hz\nrates.gamma10 = {literal}\n"
                              "rates.gamma20 = 1\nrates.gamma21 = 1\n")
    elif where == "csv":
        path = tmp_path / "s.csv"
        path.write_text("# seed=1\ndetuning_mhz,tprime\n"
                        + "".join(f"{x},{y}\n" for x, y in rows))
        with pytest.raises(ValueError, match="line 4"):
            read_spectrum_csv(path)
    else:
        x, y = (np.array([float(v) for v in col]) for col in zip(*rows))
        with pytest.raises(ValueError, match="finite"):
            Dataset(x=x, y=y)
        with pytest.raises(ValueError, match="finite"):
            Dataset(x=y, y=x)


class TestReports:
    def test_json_report_schema(self, tmp_path):
        import json

        path = tmp_path / "r.json"
        write_json_report(path, {"value": 1.5, "loss": float("-inf"),
                                 "arr": np.array([1.0, 2.0]), "np_loss": np.float64("-inf"),
                                 "np_inf32": np.float32("inf"), "np_int": np.int64(3)},
                          {"config_hash": "x", "seed": "1"})
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 3
        assert doc["provenance"]["config_hash"] == "x"
        assert doc["loss"] == "-inf"
        assert doc["arr"] == [1.0, 2.0]
        assert (doc["np_loss"], doc["np_inf32"], doc["np_int"]) == ("-inf", "inf", 3)

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, ["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, 4.0])],
                        {"seed": "0"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "a,b"
        assert lines[2] == "1,3"

    def test_table_csv_matches_per_element_oracle(self, tmp_path):
        # the writer's bytes against a per-value loop over numpy indexing and
        # the f-string form of 17 significant digits
        rng = np.random.default_rng(24)
        wide = rng.normal(size=321) * 10.0 ** rng.integers(-300, 300, size=321)
        wide[:5] = (-0.0, np.inf, -np.inf, np.nan, 5e-324)
        columns = [wide, rng.random(321), np.arange(-160, 161), list(rng.random(321))]
        write_table_csv(tmp_path / "t.csv", ["a", "b", "n", "l"], columns, {"seed": "7"})
        lines = ["# seed=7", "a,b,n,l"]
        for row in range(321):
            lines.append(",".join(f"{float(col[row]):.17g}" for col in columns))
        assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"

    def test_table_csv_header_column_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="^header and column count mismatch$"):
            write_table_csv(path, ["a", "b"], [np.array([1.0])], {})
        assert not path.exists()

    def test_failed_atomic_write_leaves_no_temp(self, tmp_path):
        (tmp_path / "x.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            write_table_csv(tmp_path / "x.csv", ["a"], [np.array([1.0])], {})
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "x.csv"
        write_table_csv(path, ["a"], [np.array([1.0])], {})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
        assert path.exists()


def _product_leaves(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _product_leaves(node.left) + _product_leaves(node.right)
    return [node]


def _number(node):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    return None


def _unit_factor_lines(source: str) -> set:
    """Lines that write a Hz-per-MHz literal (1e6), a 2*pi*10^6 multiple as a
    literal, or a product of pi with a multiple of 10^6."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        value = _number(node)
        if value is not None:
            turns = value / TWO_PI_MHZ
            if value == 1e6 or (round(turns) != 0 and abs(turns - round(turns)) < 1e-9):
                lines.add(node.lineno)
        elif isinstance(node, ast.BinOp):
            leaves = _product_leaves(node)
            has_pi = any(getattr(leaf, "attr", getattr(leaf, "id", None)) in ("pi", "tau")
                         for leaf in leaves)
            numbers = [_number(leaf) for leaf in leaves]
            if has_pi and any(v and v % 1e6 == 0 for v in numbers if v is not None):
                lines.add(node.lineno)
    return lines


def test_unit_factors_are_written_only_in_io_utils():
    src = Path(eitats.__file__).parent
    found = {path.name: sorted(_unit_factor_lines(path.read_text(encoding="utf-8")))
             for path in sorted(src.glob("*.py"))}
    found = {name: lines for name, lines in found.items() if lines}
    # io_utils holds HZ_PER_MHZ = 1e6, which TWO_PI_MHZ is built from
    assert list(found) == ["io_utils.py"], found
    assert _unit_factor_lines("span = 2.0 * np.pi * 25e6\n") == {1}
    assert _unit_factor_lines("k = 6.283185307179586e6\nx = f / 1e6\n") == {1, 2}
