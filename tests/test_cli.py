"""Config parsing, sweep orchestration, CSV, and SVG output."""

import math
import subprocess
import sys
from dataclasses import replace

import pytest

from slowlight.cli import (
    CSV_HEADER,
    ConfigError,
    OutputRowError,
    SweepRow,
    emit_chart,
    load_config,
    main,
    parse_config,
    preset_text,
    read_csv,
    run_sweep,
    write_csv,
)
from slowlight.gas import Statistics

TINY_SWEEP = """
gas.statistics        = boltzmann
gas.atom_count        = 1e5
gas.mass              = 3.81754e-26
trap.frequency_hz     = 69
trap.epsilon          = 1/3
probe.wavelength      = 589 nm
probe.linewidth_hz    = 10.03e6
probe.detuning_gamma  = 20
probe.pinhole_radius  = 5 um
sweep.axis            = temperature
sweep.start           = 0.8
sweep.stop            = 1.2
sweep.points          = 3
"""


class TestParseConfig:
    def test_fig1_preset(self):
        cfg = parse_config(preset_text("fig1"))
        assert cfg.gas.n_atoms == 3.8e6
        assert cfg.trap.omega_r == pytest.approx(2.0 * math.pi * 69.0)
        assert cfg.trap.epsilon == pytest.approx(1.0 / 3.0)
        assert cfg.gas.a_sc == pytest.approx(2.75e-9)
        assert cfg.probe.pinhole_R == pytest.approx(7.5e-6)
        assert cfg.probe.delta == pytest.approx(10.0 * cfg.probe.gamma)
        assert cfg.probe.gamma == pytest.approx(2.0 * math.pi * 10.03e6)
        assert cfg.sweep.statistics_list == (
            Statistics.FERMI, Statistics.BOSE, Statistics.BOLTZMANN,
        )
        assert cfg.sweep.grid()[0] == pytest.approx(0.1)
        assert cfg.sweep.grid()[-1] == pytest.approx(2.0)
        assert cfg.scales.R_B == pytest.approx(17.76e-6, rel=5e-3)

    def test_fig2_preset(self):
        cfg = parse_config(preset_text("fig2"))
        assert cfg.sweep.axis == "detuning"
        assert cfg.sweep.temperature == 0.5
        assert cfg.sweep.start == 3.0 and cfg.sweep.stop == 20.0

    def test_empty_document(self):
        with pytest.raises(ConfigError):
            parse_config("")
        with pytest.raises(ConfigError):
            parse_config("# only a comment\n\n")

    def test_negative_epsilon_names_key(self):
        text = TINY_SWEEP.replace("= 1/3", "= -1")
        assert "trap.epsilon" in text and "= -1" in text
        with pytest.raises(ConfigError, match="trap.epsilon"):
            parse_config(text)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*gas.flavour"):
            parse_config("\ngas.flavour = up\n")
        with pytest.raises(ConfigError, match="line 3.*numerics.series_cutoff"):
            parse_config("\n\nnumerics.series_cutoff = 0.2\n")

    def test_duplicate_key_rejected(self):
        text = TINY_SWEEP + "\nsweep.points = 4\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_malformed_line_reports_number(self):
        bad = "gas.statistics = bose\nwhat is this\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(bad)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="trap.frequency_hz"):
            parse_config("gas.statistics = bose\ngas.atom_count = 10\ngas.mass = 1e-26\n")

    def test_wavelength_frequency_exclusive(self):
        text = TINY_SWEEP + "probe.frequency_hz = 5.1e14\n"
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config(text)

    def test_detuning_sweep_requires_temperature(self):
        text = TINY_SWEEP.replace("sweep.axis            = temperature",
                                  "sweep.axis            = detuning")
        with pytest.raises(ConfigError, match="sweep.temperature"):
            parse_config(text)

    def test_log_scale_requires_positive_start(self):
        text = TINY_SWEEP.replace("sweep.start           = 0.8",
                                  "sweep.start           = -0.5")
        text = text.replace("sweep.stop            = 1.2", "sweep.stop            = 1.2\nsweep.scale = log")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_length_suffixes(self):
        for text, value in (("7.5 um", 7.5e-6), ("7.5um", 7.5e-6), ("2.75 nm", 2.75e-9),
                            ("0.01 mm", 1e-5), ("1.2e-5", 1.2e-5)):
            cfg = parse_config(TINY_SWEEP.replace("5 um", text))
            assert cfg.probe.pinhole_R == pytest.approx(value)

    def test_temperature_unit_selection(self):
        cfg = parse_config(TINY_SWEEP)
        assert cfg.temperature_unit_name == "T_c"
        fermi_only = TINY_SWEEP.replace("gas.statistics        = boltzmann",
                                        "gas.statistics        = fermi")
        cfg_f = parse_config(fermi_only)
        assert cfg_f.temperature_unit_name == "T_F"
        assert cfg_f.temperature_unit == pytest.approx(cfg_f.scales.T_F)


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        cfg = parse_config(TINY_SWEEP)
        rows = run_sweep(cfg)
        assert len(rows) == 3
        assert [r.x for r in rows] == sorted(r.x for r in rows)
        for r in rows:
            assert r.statistics == "boltzmann"
            assert r.L_m > 0 and r.t_d_s >= 0 and r.v_g_mps > 0
            assert 0.0 <= r.transmission <= 1.0

    def test_vacuum_limit(self):
        text = TINY_SWEEP.replace("gas.atom_count        = 1e5",
                                  "gas.atom_count        = 10")
        text = text.replace("probe.detuning_gamma  = 20",
                            "probe.detuning_gamma  = 2e4")
        cfg = parse_config(text)
        rows = run_sweep(cfg)
        for r in rows:
            assert r.v_g_mps == pytest.approx(2.99792458e8, rel=1e-3)
            assert r.transmission == pytest.approx(1.0, abs=1e-6)


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_round_trip_bytes(self, tmp_path):
        row = SweepRow("bose", 0.5, 2.9e-5, 4.9e-8, 595.0, 0.8126)
        p1 = tmp_path / "one.csv"
        write_csv([row], p1)
        rows = read_csv(p1)
        p2 = tmp_path / "two.csv"
        write_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_bytes().splitlines()) == 2

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        write_csv([SweepRow("fermi", 1.0 / 3.0, 1.0, 1.0, 1.0, 1.0)], path)
        body = path.read_text()
        assert "3.33333333333e-01" in body
        assert body.endswith("\n") and "\r" not in body

    @pytest.mark.parametrize("field,value", [
        ("L_m", math.nan), ("t_d_s", math.inf), ("x", math.nan),
        ("transmission", 0.0), ("transmission", 1.5),
        ("v_g_mps", 0.0), ("v_g_mps", 3.1e8),
    ])
    def test_bad_row_rejected_without_writing(self, tmp_path, field, value):
        good = SweepRow("bose", 0.5, 2.9e-5, 4.9e-8, 595.0, 0.8126)
        path = tmp_path / "bad.csv"
        with pytest.raises(OutputRowError):
            write_csv([good, replace(good, **{field: value})], path)
        assert not path.exists()

    def test_sweep_csv_round_trip(self, tmp_path):
        cfg = parse_config(TINY_SWEEP)
        rows = run_sweep(cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(rows, p1)
        write_csv(read_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestChart:
    def rows_three_stats(self):
        rows = []
        for stat in ("fermi", "bose", "boltzmann"):
            for i in range(6):
                x = 0.1 + 0.3 * i
                rows.append(SweepRow(stat, x, 1e-5, 1e-8, 10.0 ** (1 + i / 2.0), 0.9))
        return rows

    def test_one_polyline_per_statistics(self, tmp_path):
        path = tmp_path / "chart.svg"
        emit_chart(self.rows_three_stats(), path, x_label="T / T_c")
        text = path.read_text()
        assert text.count("<polyline") == 3
        assert "T / T_c" in text and "v_g (m/s)" in text

    def test_single_statistics_single_polyline(self, tmp_path):
        rows = [r for r in self.rows_three_stats() if r.statistics == "bose"]
        path = tmp_path / "single.svg"
        emit_chart(rows, path)
        assert path.read_text().count("<polyline") == 1

    def test_log_axis_decade_tick_labels(self, tmp_path):
        # y spans 3+ decades: expect decade labels 1e+01 ... 1e+03
        path = tmp_path / "decades.svg"
        emit_chart(self.rows_three_stats(), path)
        text = path.read_text()
        for label in ("1e+01", "1e+02", "1e+03"):
            assert label in text

    def test_transmission_chart_linear(self, tmp_path):
        rows = [SweepRow("bose", x, 1e-5, 1e-8, 100.0, 0.1 + 0.08 * x) for x in range(10)]
        path = tmp_path / "trans.svg"
        emit_chart(rows, path, y_field="transmission")
        text = path.read_text()
        assert "transmission" in text
        assert "1e+0" not in text  # linear ticks, not decade labels

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_chart([], tmp_path / "nope.svg")


class TestCommandLine:
    def write_config(self, tmp_path):
        cfg = tmp_path / "tiny.config"
        cfg.write_text(TINY_SWEEP, encoding="utf-8")
        return cfg

    def test_run_and_scales_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_csv = tmp_path / "out.csv"
        out_svg = tmp_path / "out.svg"
        assert main(["run", str(cfg), "--out", str(out_csv), "--chart", str(out_svg)]) == 0
        assert out_csv.exists() and out_svg.exists()
        assert main(["scales", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "T_F/T_c" in captured.out

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.config")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_nonzero_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.config"
        bad.write_text(TINY_SWEEP.replace("= 1/3", "= -1"), encoding="utf-8")
        out_csv = tmp_path / "never.csv"
        assert main(["run", str(bad), "--out", str(out_csv)]) == 1
        assert not out_csv.exists()
        assert "trap.epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("key,old,new", [
        ("probe.pinhole_radius", "= 5 um", "= nan um"),
        ("gas.atom_count", "= 1e5", "= nan"),
        ("trap.epsilon", "= 1/3", "= inf"),
        ("probe.detuning_gamma", "= 20", "= 1e400"),
    ])
    def test_non_finite_input_exits_nonzero_naming_key(self, tmp_path, capsys, key, old, new):
        bad = tmp_path / "bad.config"
        bad.write_text(TINY_SWEEP.replace(old, new), encoding="utf-8")
        out_csv = tmp_path / "never.csv"
        assert main(["run", str(bad), "--out", str(out_csv)]) == 1
        assert not out_csv.exists()
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    def test_no_local_field_flag_changes_output(self, tmp_path):
        cfg_path = tmp_path / "bose.config"
        text = TINY_SWEEP.replace("gas.statistics        = boltzmann",
                                  "gas.statistics        = bose")
        text += "gas.scattering_length = 2.75 nm\n"
        cfg_path.write_text(text, encoding="utf-8")
        off_path = tmp_path / "bose_off.config"
        off_path.write_text(text + "probe.local_field = off\n", encoding="utf-8")
        a = tmp_path / "lf_on.csv"
        b = tmp_path / "lf_off.csv"
        assert main(["run", str(cfg_path), "--out", str(a)]) == 0
        assert main(["run", str(off_path), "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_local_field_pole_exits_nonzero_naming_x_peak(self, tmp_path, capsys):
        bad = tmp_path / "pole.config"
        text = TINY_SWEEP.replace("gas.statistics        = boltzmann",
                                  "gas.statistics        = bose")
        text = text.replace("= 1e5", "= 3e9").replace("= 20", "= 3")
        bad.write_text(text + "gas.scattering_length = 2.75 nm\n", encoding="utf-8")
        out_csv = tmp_path / "never.csv"
        assert main(["run", str(bad), "--out", str(out_csv)]) == 1
        assert not out_csv.exists()
        err = capsys.readouterr().err
        assert "x_peak" in err and "gas.atom_count" in err

    def test_console_script_subprocess(self, tmp_path):
        cfg = self.write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "slowlight.cli", "scales", str(cfg)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "a_r" in result.stdout
