import math

import numpy as np
import pytest

from eitats.config import (
    ExperimentConfig,
    ParseError,
    ValidationError,
    load_config,
    parse_config_text,
    serialize_config,
)
from eitats.fitting import Dataset
from eitats.io_utils import (
    read_spectrum_csv,
    write_json_report,
    write_spectrum_csv,
    write_table_csv,
)
from eitats.spectra import Spectrum

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

    def test_roundtrip_through_serialization(self):
        cfg = parse_config_text(MINIMAL)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    def test_unknown_key_names_it(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text(MINIMAL + "rates.gamma99 = 1\n")
        assert "rates.gamma99" in str(err.value)

    def test_negative_rate_with_suffix(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("units = MHz\nrates.gamma10 = -1MHz\n"
                              "rates.gamma20 = 1\nrates.gamma21 = 1\n")
        assert "rates.gamma10" in str(err.value)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("units = MHz\nthis is not a key value pair\n")
        assert "line 2" in str(err.value)

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
        # equality ignores the hash (it tracks raw text, not content)
        cfg2 = parse_config_text(MINIMAL + "# trailing comment\n")
        assert cfg2 == cfg


class TestSpectrumCsv:
    def test_write_read_roundtrip(self, tmp_path):
        det = np.linspace(-25.0, 25.0, 61) * 2e6 * math.pi
        values = np.exp(-np.linspace(-2, 2, 61) ** 2)
        spectrum = Spectrum(detunings=det, values=values)
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, spectrum, {"seed": "7", "config_hash": "abc"})
        back = read_spectrum_csv(path)
        assert np.array_equal(back.values, values)
        assert np.allclose(back.detunings, det, rtol=1e-15)
        assert back.metadata["seed"] == "7"
        # a rewrite of the ingested spectrum is byte-identical
        path2 = tmp_path / "s2.csv"
        write_spectrum_csv(path2, back, {"seed": "7", "config_hash": "abc"})
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["csv", "dataset"])
def test_non_finite_input_rejected_where_it_enters(tmp_path, bad, where):
    rows = [("-1", "0.5"), ("0", bad), ("1", "0.5")]
    if where == "csv":
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
                                 "arr": np.array([1.0, 2.0])},
                          {"config_hash": "x", "seed": "1"})
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["provenance"]["config_hash"] == "x"
        assert doc["loss"] == "-inf"
        assert doc["arr"] == [1.0, 2.0]

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, ["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, 4.0])],
                        {"seed": "0"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "a,b"
        assert lines[2] == "1,3"

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "x.csv"
        write_table_csv(path, ["a"], [np.array([1.0])], {})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
        assert path.exists()
