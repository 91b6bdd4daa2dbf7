"""Config parsing, sweep orchestration, CSV, and SVG output."""

import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import slowlight
from slowlight import cli
from slowlight.cli import (
    CSV_HEADER,
    ConfigError,
    OutputRowError,
    SweepRow,
    SweepSpec,
    emit_chart,
    load_config,
    main,
    parse_config,
    preset_text,
    read_csv,
    run_sweep,
    write_csv,
)
from slowlight.gas import DensityProfile, GasSpec, Statistics, TrapGeometry, make_profile
from slowlight.numerics import NumericTolerances
from slowlight.optics import ProbeParams, ZeroDetuningError

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


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this package."""
    package_parent = Path(slowlight.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(package_parent)}


class TestParseConfig:
    def test_fig1_preset(self):
        cfg = parse_config(preset_text("fig1"))
        assert cfg.gas.n_atoms == 3.8e6
        assert cfg.trap.omega_r == pytest.approx(2.0 * math.pi * 69.0)
        assert cfg.trap.epsilon == pytest.approx(1.0 / 3.0)
        assert cfg.gas.a_sc == pytest.approx(2.75e-9, rel=1e-12, abs=0.0)
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

    @pytest.mark.parametrize("start,stop,points,scale", [
        (0.1, 2.0, 64, "linear"),   # fig1
        (3.0, 20.0, 64, "linear"),  # fig2
        (0.8, 1.2, 3, "linear"),
        (0.1, 2.0, 2, "linear"),
        (0.1, 2.0, 2, "log"),
        (0.02, 0.3, 6, "log"),
        (1e-3, 1e3, 61, "log"),
        (0.37, 5.9, 17, "log"),
    ])
    def test_grid_matches_numpy(self, start, stop, points, scale):
        sweep = SweepSpec("temperature", start, stop, points, scale, (Statistics.FERMI,))
        grid = sweep.grid()
        assert len(grid) == points and grid[0] == start and grid[-1] == stop
        if scale == "linear":
            assert grid == np.linspace(start, stop, points).tolist()
        else:
            # numpy's vectorised log10 and power can differ from libm by a few ulp
            assert np.allclose(grid, np.geomspace(start, stop, points), rtol=1e-14, atol=0.0)

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

    @pytest.mark.parametrize("key,value", [
        ("gas.scattering_length", "-1 nm"),
        ("sweep.points", "1"),
        ("sweep.points", "2.5"),
        ("probe.local_field", "maybe"),
        ("sweep.scale", "cubic"),
        ("sweep.statistics", "fermi, fermi"),
        ("gas.statistics", "quark"),
        ("probe.detuning_gamma", "0"),
    ])
    def test_bad_value_names_key_and_line(self, key, value):
        lines = [line for line in TINY_SWEEP.splitlines() if not line.startswith(key + " ")]
        lines.append(f"{key} = {value}")
        with pytest.raises(ConfigError, match=rf"^line {len(lines)}: {re.escape(key)}: ") as err:
            parse_config("\n".join(lines))
        assert err.value.line == len(lines)

    # a rule that spans keys reports the key whose value it refuses, with its
    # line, and names the other key involved
    @pytest.mark.parametrize("key,value,named", [
        ("sweep.stop", "0.8", "sweep.start"),
        ("sweep.temperature", "0.5", "detuning sweeps"),
        ("sweep.axis", "detuning", "sweep.temperature"),
        ("gas.statistics", "bose", "gas.scattering_length"),
        ("sweep.statistics", "fermi, bose", "gas.scattering_length"),
        ("gas.atom_count", "0.5", ">= 1"),
    ])
    def test_cross_field_refusal_names_key_and_line(self, key, value, named):
        lines = [line for line in TINY_SWEEP.splitlines() if not line.startswith(key + " ")]
        lines.append(f"{key} = {value}")
        with pytest.raises(ConfigError, match=rf"^line {len(lines)}: {re.escape(key)}: "
                                              rf".*{re.escape(named)}") as err:
            parse_config("\n".join(lines))
        assert err.value.line == len(lines)

    # the last three are finite as written, but not once in SI units
    @pytest.mark.parametrize("key,value,message", [
        ("gas.mass", "abc", "cannot parse number"),
        ("probe.pinhole_radius", "7.5 km", "cannot parse length"),
        ("gas.mass", "", "empty value"),
        ("sweep.statistics", ",", "empty statistics list"),
        ("trap.frequency_hz", "1e308", "finite"),
        ("probe.wavelength", "1e-320", "finite"),
        ("probe.detuning_gamma", "1e305", "finite"),
    ])
    def test_refusal_names_key_line_and_reason(self, key, value, message):
        lines = [line for line in TINY_SWEEP.splitlines() if not line.startswith(key + " ")]
        lines.append(f"{key} = {value}")
        with pytest.raises(ConfigError, match=rf"^line {len(lines)}: {re.escape(key)}: "
                                              rf".*{message}"):
            parse_config("\n".join(lines))

    def test_detuning_that_underflows_in_si_units_names_key_and_line(self):
        text = TINY_SWEEP.replace("= 10.03e6", "= 1e-300").replace("= 20", "= 1e-30")
        lineno = text.splitlines().index("probe.detuning_gamma  = 1e-30") + 1
        with pytest.raises(ConfigError, match=rf"^line {lineno}: probe.detuning_gamma: .*nonzero"):
            parse_config(text)

    # fig2's detuning grid: an endpoint times gamma overflows, or underflows
    # once the linewidth is tiny; either is refused before the first point
    @pytest.mark.parametrize("edits,key", [
        ({"sweep.stop": "1e305"}, "sweep.stop"),
        ({"probe.linewidth_hz": "1e-300", "sweep.start": "1e-30"}, "sweep.start"),
    ], ids=["stop-overflows", "start-underflows"])
    def test_detuning_endpoint_out_of_range_in_si_units_names_key_and_line(self, edits, key):
        text = preset_text("fig2")
        for edit_key, value in edits.items():
            text = re.sub(rf"^{re.escape(edit_key)} .*$", f"{edit_key} = {value}", text,
                          flags=re.MULTILINE)
        lineno = text.splitlines().index(f"{key} = {edits[key]}") + 1
        with pytest.raises(ConfigError, match=rf"^line {lineno}: {re.escape(key)}: "
                                              r"must be finite and nonzero in SI units, got delta"):
            parse_config(text)

    @pytest.mark.parametrize("preset,key,value,cube", [
        ("fig1", "sweep.stop", "1e300", "inf"),
        ("fig1", "sweep.start", "1e-200", "0.0"),
        ("fig2", "sweep.temperature", "1e300", "inf"),  # a detuning sweep's one T
    ])
    def test_temperature_out_of_range_exits_before_any_point(
            self, tmp_path, capsys, preset, key, value, cube):
        # the unit is 3.4e-7 K, so T = x * unit is finite for every float x;
        # the cube (T/T_F)^3 of the normalization is not, and without the
        # check the sweep fails with a bare OverflowError at the first point
        # past the float range
        text = re.sub(rf"^{re.escape(key)} .*$", f"{key} = {value}", preset_text(preset),
                      flags=re.MULTILINE)
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        path, out_csv = tmp_path / "range.preset", tmp_path / "out.csv"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(out_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: line {lineno}: {key}: (T/T_F)^3 and its inverse must be "
                                f"finite and nonzero, got (T/T_F)^3 = {cube}\n")
        assert captured.out == ""  # not even the scales
        assert not out_csv.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.preset"
        path.write_text("# saved with a byte-order mark\n" + TINY_SWEEP, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf#")
        assert load_config(path) == parse_config(TINY_SWEEP)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*gas.flavour"):
            parse_config("\ngas.flavour = up\n")
        # the last four were keys once: the probe resonance is set by its
        # wavelength, the two-level dipole moment follows from the linewidth,
        # and the output paths come from --out and --chart
        for key in ("numerics.series_cutoff", "probe.frequency_hz", "probe.dipole_moment_sq",
                    "output.csv", "output.chart"):
            with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{re.escape(key)}'$"):
                parse_config(f"\n\n{key} = 0.2\n")

    def test_readme_table_is_the_language(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` ", section, flags=re.MULTILINE)
        assert documented == list(cli._KEYS)
        assert f"The {len(cli._KEYS)} keys below" in section

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
        no_wavelength = TINY_SWEEP.replace("probe.wavelength      = 589 nm\n", "")
        with pytest.raises(ConfigError, match="^missing required key 'probe.wavelength'$"):
            parse_config(no_wavelength)

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

    def test_detuning_sweep_start_must_be_positive(self):
        text = TINY_SWEEP.replace("sweep.axis            = temperature",
                                  "sweep.axis            = detuning")
        text = text.replace("sweep.start           = 0.8", "sweep.start           = -3")
        lineno = text.splitlines().index("sweep.start           = -3") + 1
        with pytest.raises(ConfigError, match=rf"^line {lineno}: sweep.start: must be positive"):
            parse_config(text + "sweep.temperature = 0.5\n")

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

    def test_sweep_point_rebuilds_probe_through_its_checks(self):
        # each detuning point builds its ProbeParams through the constructor,
        # so the near-resonance warning and the zero-detuning refusal apply
        text = TINY_SWEEP.replace("sweep.axis            = temperature",
                                  "sweep.axis            = detuning")
        cfg = parse_config(text + "sweep.temperature = 1.0\n")
        with pytest.warns(UserWarning, match=r"detuning below 3\*gamma"):
            row = cli._sweep_point(cfg, Statistics.BOLTZMANN, 2.0)
        assert row.x == 2.0
        with pytest.raises(ZeroDetuningError):
            cli._sweep_point(cfg, Statistics.BOLTZMANN, 0.0)

    @staticmethod
    def fig2_physics(points):
        text = re.sub(r"sweep\.points\s*=\s*\d+", f"sweep.points = {points}", preset_text("fig2"))
        return parse_config(text)

    def test_detuning_rows_do_not_depend_on_the_shell_memo(self, tmp_path):
        # every point of a detuning sweep shares one profile and its shell
        # densities; each row equals the row computed alone on a new profile
        cfg = self.fig2_physics(5)
        make_profile.cache_clear()
        swept = run_sweep(cfg)
        alone = []
        for row in swept:
            make_profile.cache_clear()
            alone.append(cli._sweep_point(cfg, Statistics(row.statistics), row.x))
        write_csv(swept, tmp_path / "swept.csv")
        write_csv(alone, tmp_path / "alone.csv")
        lines = (tmp_path / "swept.csv").read_text().splitlines()
        assert len(lines) == 16
        assert lines == (tmp_path / "alone.csv").read_text().splitlines()

    def test_detuning_sweep_evaluates_each_shell_once(self, monkeypatch):
        # past the first detuning, the shell quadratures find their nodes in
        # the profile's memo, so 14 more points add under 10 % of the calls
        calls = 0
        at = DensityProfile.at

        def counted(prof, r, z):
            nonlocal calls
            calls += 1
            return at(prof, r, z)

        monkeypatch.setattr(DensityProfile, "at", counted)
        counts = {}
        for points in (2, 16):
            make_profile.cache_clear()
            calls = 0
            run_sweep(self.fig2_physics(points))
            counts[points] = calls
        make_profile.cache_clear()
        assert counts[2] > 0
        assert counts[16] <= 1.1 * counts[2]


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
        values = dict(statistics="bose", x=0.5, L_m=2.9e-5, t_d_s=4.9e-8, v_g_mps=595.0,
                      transmission=0.8126)
        path = tmp_path / "bad.csv"
        with pytest.raises(OutputRowError):
            write_csv([SweepRow(**values), SweepRow(**{**values, field: value})], path)
        assert not path.exists()

    @pytest.mark.parametrize("line", ["bose,0.5,1,1,1,0.5,7", "bose,0.5,1,1,1"])
    def test_read_csv_refuses_a_wrong_column_count(self, tmp_path, line):
        path = tmp_path / "columns.csv"
        path.write_text(f"{CSV_HEADER}\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="columns"):
            read_csv(path)

    def test_read_csv_refuses_a_wrong_header(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(CSV_HEADER.replace("L_m", "L") + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

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

    @staticmethod
    def x_ticks(text: str) -> list[float]:
        return [float(x) for x in re.findall(r'<line x1="([-0-9.]+)" y1="440" ', text)]

    @pytest.mark.parametrize("x", [1e17, -1e17, sys.float_info.max, -sys.float_info.max])
    def test_one_point_where_a_unit_is_below_an_ulp(self, tmp_path, x):
        # x + 1 rounds to x, so a unit wide axis was empty and x_pix divided by 0
        path = tmp_path / "far.svg"
        emit_chart([SweepRow("bose", x, 1e-5, 1e-8, 100.0, 0.5)], path, y_field="transmission")
        text = path.read_text()
        assert re.search(r'<polyline points="(80|600)\.00,', text)
        ticks = self.x_ticks(text)
        assert ticks and all(80.0 <= t <= 600.0 for t in ticks)

    def test_x_ticks_of_an_axis_one_ulp_wide_stay_on_it(self, tmp_path):
        # the ticks k * step round off the axis here; two were drawn at -180 px
        rows = [SweepRow("boltzmann", 1.0, 1e-5, 1e-8, 100.0, 0.5),
                SweepRow("boltzmann", 1.0000000000000002, 1e-5, 1e-8, 120.0, 0.5)]
        path = tmp_path / "ulp.svg"
        emit_chart(rows, path, x_label="T / T_c")
        ticks = self.x_ticks(path.read_text())
        assert ticks and all(80.0 <= t <= 600.0 for t in ticks)
        # and round onto its two ends, where each is drawn once
        assert len(set(ticks)) == len(ticks)

    def test_y_ticks_of_an_axis_one_ulp_wide_are_drawn_once(self, tmp_path):
        rows = [SweepRow("bose", 1.0, 1e-5, 1e-8, 100.0, 0.5),
                SweepRow("bose", 2.0, 1e-5, 1e-8, 120.0, 0.5000000000000001)]
        path = tmp_path / "ulp.svg"
        emit_chart(rows, path, y_field="transmission")
        ticks = re.findall(r'<line x1="75" y1="([-0-9.]+)" ', path.read_text())
        assert ticks and len(set(ticks)) == len(ticks)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_chart([], tmp_path / "nope.svg")

    def test_log_axis_refuses_a_speed_not_above_zero(self, tmp_path):
        path = tmp_path / "zero.svg"
        with pytest.raises(ValueError, match="positive"):
            emit_chart([SweepRow("bose", 0.5, 1e-5, 1e-8, 0.0, 0.5)], path)
        assert not path.exists()

    # The whole SVG, pinned: a rewrite of emit_chart must keep every byte.
    # The last two hit the flat-range guards; 1.1 * 5e-324 rounds to 5e-324.
    @pytest.mark.parametrize("case,y_field,x_label,digest", [
        ("three_stats", "v_g_mps", "T / T_c",
         "a4768ea27d1345fb99261ff42bfa70c987283415078db9c31332681189611157"),
        ("transmission", "transmission", "detuning / gamma",
         "7d49c3a82cd9f110864c288740fe31c3f422770c066bce170e77220fb1ec5254"),
        ("one_row", "v_g_mps", "T / T_F",
         "eac6adffea126a56bcca4969d6654cd7e04c4a4c050c0a784ea9235359c768f5"),
        ("flat_transmission", "transmission", "detuning / gamma",
         "00388171095b8fac486d6ee98bdce2fe17bda2d43425197859bb89bf29632cf1"),
        ("subnormal_v_g", "v_g_mps", "T / T_c",
         "6cae71b156f96110262a4845475869b23ae7ec5cf895c44ba1ada440aea81bea"),
    ])
    def test_chart_bytes_pinned(self, tmp_path, case, y_field, x_label, digest):
        rows = {
            "three_stats": self.rows_three_stats(),
            "transmission": [SweepRow("bose", x, 1e-5, 1e-8, 100.0, 0.1 + 0.08 * x)
                             for x in range(10)],
            "one_row": [SweepRow("fermi", 0.5, 1e-5, 1e-8, 595.0, 0.8)],
            "flat_transmission": [SweepRow(s, x, 1e-5, 1e-8, 100.0, 0.75)
                                  for s in ("fermi", "bose") for x in (3.0, 8.0, 20.0)],
            "subnormal_v_g": [SweepRow("bose", x, 1e-5, 1e-8, 5e-324, 0.5) for x in (0.5, 1.0)],
        }[case]
        path = tmp_path / "pinned.svg"
        emit_chart(rows, path, y_field=y_field, x_label=x_label)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCommandLine:
    def write_config(self, tmp_path):
        cfg = tmp_path / "tiny.config"
        cfg.write_text(TINY_SWEEP, encoding="utf-8")
        return cfg

    def write_detuning_config(self, tmp_path):
        cfg = tmp_path / "detuning.config"
        text = TINY_SWEEP.replace("sweep.axis            = temperature",
                                  "sweep.axis            = detuning")
        text = text.replace("= 0.8", "= 10").replace("= 1.2", "= 20")
        cfg.write_text(text + "sweep.temperature = 1.0\n", encoding="utf-8")
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

    def test_output_onto_a_directory_exits_nonzero_leaving_no_temporary(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["run", str(cfg), "--out", str(taken)]) == 1
        assert "error:" in capsys.readouterr().err
        assert taken.is_dir() and not list(tmp_path.glob("*.tmp"))

    def test_dipole_moment_key_refused_before_any_sweep_point(self, tmp_path, capsys):
        bad = tmp_path / "dipole.config"
        bad.write_text(TINY_SWEEP + "probe.dipole_moment_sq = -1e-58\n", encoding="utf-8")
        lineno = len(bad.read_text(encoding="utf-8").splitlines())
        out_csv = tmp_path / "never.csv"
        assert main(["run", str(bad), "--out", str(out_csv)]) == 1
        assert not out_csv.exists()
        captured = capsys.readouterr()
        assert f"line {lineno}: unknown key 'probe.dipole_moment_sq'" in captured.err
        assert "sweep point" not in captured.err and captured.out == ""

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

    def test_detuning_sweep_charts_transmission(self, tmp_path):
        cfg = self.write_detuning_config(tmp_path)
        out_svg = tmp_path / "detuning.svg"
        assert main(["run", str(cfg), "--out", str(tmp_path / "detuning.csv"),
                     "--chart", str(out_svg)]) == 0
        svg = out_svg.read_text(encoding="utf-8")
        assert ">detuning / gamma</text>" in svg and ">transmission</text>" in svg

    def test_chart_of_an_axis_one_ulp_wide_ends(self, tmp_path):
        # a tick step under half an ulp of the axis once stopped the tick loop
        # from advancing, so the run wrote its CSV and never returned
        cfg = tmp_path / "ulp.config"
        text = TINY_SWEEP.replace("= 0.8", "= 1").replace("= 1.2", "= 1.0000000000000002")
        cfg.write_text(text.replace("sweep.points          = 3", "sweep.points = 2"),
                       encoding="utf-8")
        svg = tmp_path / "ulp.svg"
        result = subprocess.run(
            [sys.executable, "-m", "slowlight.cli", "run", str(cfg),
             "--out", str(tmp_path / "ulp.csv"), "--chart", str(svg)],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_pinhole_wider_than_cloud_exits_nonzero_naming_key(self, tmp_path, capsys):
        # the Boltzmann cloud's cut-off radius at 0.8 T_c is about 0.1 mm
        bad = tmp_path / "pinhole.config"
        bad.write_text(TINY_SWEEP.replace("= 5 um", "= 1 mm"), encoding="utf-8")
        out_csv = tmp_path / "never.csv"
        assert main(["run", str(bad), "--out", str(out_csv)]) == 1
        assert not out_csv.exists()
        err = capsys.readouterr().err
        assert "probe.pinhole_radius" in err and "r_cut" in err

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

    # main() reading the process's own command line registers gc.freeze with
    # atexit; a hook registered before main runs after that freeze
    CHILD = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,\n"
             "                              file=sys.stderr))\n"
             "from slowlight.cli import main\n"
             "sys.exit(main())\n")

    def test_command_in_a_child_process_freezes_its_heap_at_exit(self, tmp_path):
        def child(*words):
            return subprocess.run([sys.executable, "-c", self.CHILD, *map(str, words)],
                                  capture_output=True, text=True, env=_child_env())

        cfg = self.write_config(tmp_path)
        csv, svg = tmp_path / "child.csv", tmp_path / "child.svg"
        result = child("run", cfg, "--out", csv, "--chart", svg)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == [f"wrote 3 rows to {csv}",
                                                   f"wrote chart to {svg}"]
        assert result.stderr == "frozen True\n"
        in_csv, in_svg = tmp_path / "in_process.csv", tmp_path / "in_process.svg"
        frozen = gc.get_freeze_count()
        assert main(["run", str(cfg), "--out", str(in_csv), "--chart", str(in_svg)]) == 0
        assert gc.get_freeze_count() == frozen
        assert csv.read_bytes() == in_csv.read_bytes()
        assert svg.read_bytes() == in_svg.read_bytes()

        bad = tmp_path / "bad.config"
        bad.write_text(TINY_SWEEP.replace("= 1/3", "= -1"), encoding="utf-8")
        result = child("run", bad, "--out", tmp_path / "never.csv")
        assert result.returncode == 1
        assert result.stderr.startswith("error:") and result.stderr.endswith("frozen True\n")
        result = child("run")
        assert result.returncode == 2
        assert result.stderr.startswith(cli.USAGE) and result.stderr.endswith("frozen True\n")
        assert not (tmp_path / "never.csv").exists()

    def test_run_leaves_no_file_for_a_finalizer_to_close(self, tmp_path):
        # the command skips its shutdown collections, which loses nothing
        # only while a run closes every file it opens
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for cfg in (self.write_config(tmp_path), self.write_detuning_config(tmp_path)):
                assert main(["run", str(cfg), "--out", str(cfg.with_suffix(".csv")),
                             "--chart", str(cfg.with_suffix(".svg"))]) == 0
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("words,reason", [
        ([], "no command given"),
        (["plot", "{cfg}"], "unknown command 'plot'"),
        (["run"], "run takes one CONFIG, got 0"),
        (["run", "{cfg}", "{cfg}"], "run takes one CONFIG, got 2"),
        (["run", "{cfg}", "--ou", "{csv}"], "unknown option '--ou' for run"),
        (["run", "{cfg}", "--out"], "--out needs a PATH"),
        (["run", "{cfg}", "--out", "--chart", "c.svg"], "--out needs a PATH"),
        (["scales", "{cfg}", "--out", "{csv}"], "unknown option '--out' for scales"),
        (["run", "{cfg}", "--out", "./tiny.config"], "--out names the same file as CONFIG"),
        (["run", "{cfg}", "--out", "{csv}", "--chart", "{csv}"],
         "--chart names the same file as --out"),
    ], ids=["no-command", "unknown-command", "no-config", "two-configs", "unknown-option",
            "out-without-path", "out-then-option", "out-given-to-scales", "out-is-config",
            "chart-is-out"])
    def test_bad_command_line_exits_two_with_usage(self, tmp_path, monkeypatch, capsys,
                                                   words, reason):
        cfg = self.write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = [w.format(cfg=cfg, csv=tmp_path / "never.csv") for w in words]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{cli.USAGE}\nslowlight: error: {reason}\n"
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.svg"))
        assert cfg.read_text(encoding="utf-8") == TINY_SWEEP

    @pytest.mark.parametrize("words", [["-h"], ["--help"], ["run", "--help"]])
    def test_help_exits_zero_with_usage_on_stdout(self, capsys, words):
        assert main(words) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(cli.USAGE + "\n") and captured.err == ""

    def test_option_forms_and_order(self, tmp_path):
        cfg = self.write_config(tmp_path)
        spaced, joined, first = (tmp_path / f"{name}.csv" for name in ("spaced", "joined", "first"))
        assert main(["run", str(cfg), "--out", str(spaced)]) == 0
        assert main(["run", str(cfg), f"--out={joined}"]) == 0
        chart = tmp_path / "first.svg"
        assert main(["run", "--chart", str(chart), "--out", str(first), str(cfg)]) == 0
        assert spaced.read_bytes() == joined.read_bytes() == first.read_bytes()
        assert chart.read_text(encoding="utf-8").startswith("<svg")

    def test_run_path_imports_no_numpy_or_scipy(self, tmp_path):
        # numpy and scipy are test dependencies only, and the records need
        # neither dataclasses nor inspect: a whole run, log grid included,
        # must load none of them, nor typing or importlib.resources, nor
        # argparse and the gettext and locale it brings.  The child runs
        # under -S, since a site .pth may preload typing and
        # importlib.resources; PYTHONPATH then finds the package itself.
        cfg = tmp_path / "log.config"
        cfg.write_text(TINY_SWEEP.replace("sweep.points          = 3",
                                          "sweep.points          = 2\nsweep.scale = log"),
                       encoding="utf-8")
        script = (
            "import sys\n"
            "from slowlight.cli import main\n"
            f"assert main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'log.csv')!r}]) == 0\n"
            "banned = {'dataclasses', 'inspect', 'typing', 'importlib.resources',\n"
            "          'argparse', 'gettext', 'locale', 'cmath'}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] in ('numpy', 'scipy') or m in banned))\n"
        )
        result = subprocess.run([sys.executable, "-S", "-c", script],
                                capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert len((tmp_path / "log.csv").read_text().splitlines()) == 3


class TestOutputFiles:
    # the CSV and SVG are created as open(path, "w") creates a file, 0o666
    # less the umask, and replace an existing output with that mode too
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        cfg = tmp_path / "tiny.config"
        cfg.write_text(TINY_SWEEP, encoding="utf-8")
        csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        csv.write_text("old\n", encoding="utf-8")
        csv.chmod(0o400 if mode == 0o644 else 0o644)
        script = (f"import os, sys; os.umask({umask}); from slowlight.cli import main; "
                  f"sys.exit(main(['run', {str(cfg)!r}, '--out', {str(csv)!r}, "
                  f"'--chart', {str(svg)!r}]))")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=_child_env(), timeout=60)
        assert result.returncode == 0, result.stderr
        assert (csv.stat().st_mode & 0o777, svg.stat().st_mode & 0o777) == (mode, mode)
        assert csv.read_text(encoding="utf-8").startswith(CSV_HEADER)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.svg", "tiny.config"]


class TestPresetReference:
    """Both presets run in process, byte for byte against the CSV and SVG in
    tests/reference."""

    REFERENCE = Path(__file__).resolve().parent / "reference"

    @staticmethod
    def column_deviations(got: str, want: str) -> str:
        """The largest relative deviation of each numeric column."""
        pairs = [([float(v) for v in g.split(",")[1:]], [float(v) for v in w.split(",")[1:]])
                 for g, w in zip(got.splitlines()[1:], want.splitlines()[1:])]
        return ", ".join(
            f"{name} {max(abs(g[i] - w[i]) / (abs(w[i]) or 1.0) for g, w in pairs):.2e}"
            for i, name in enumerate(SweepRow._fields[1:]))

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_preset_bytes(self, tmp_path, name, capsys):
        preset = tmp_path / f"{name}.preset"
        preset.write_text(preset_text(name), encoding="utf-8")
        csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
        assert main(["run", str(preset), "--out", str(csv), "--chart", str(svg)]) == 0
        capsys.readouterr()
        got = csv.read_text(encoding="utf-8")
        want = (self.REFERENCE / f"{name}.csv").read_text(encoding="utf-8")
        shape = [(text.partition("\n")[0], text.count("\n")) for text in (got, want)]
        assert shape[0] == shape[1], f"{name}.csv: header or row count differs"
        assert got == want, (f"{name}.csv differs; largest relative deviation per column: "
                             f"{self.column_deviations(got, want)}")
        assert svg.read_bytes() == (self.REFERENCE / f"{name}.svg").read_bytes()


class TestRecords:
    @pytest.mark.parametrize("make,field", [
        (lambda: GasSpec(Statistics.BOSE, 3.8e6, 3.81754e-26, 2.75e-9), "n_atoms"),
        (lambda: TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0), "epsilon"),
        (lambda: NumericTolerances(1e-9), "rel_tol_quadrature"),
        (lambda: ProbeParams(3.2e15, 6.3e7, 6.3e8, 7.5e-6, local_field_on=False), "delta"),
        (lambda: SweepRow("bose", 0.5, 2.9e-5, 4.9e-8, 595.0, 0.8126), "x"),
    ], ids=["GasSpec", "TrapGeometry", "NumericTolerances", "ProbeParams", "SweepRow"])
    def test_immutable_and_compared_by_value(self, make, field):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, 1.0)
        assert a == b
