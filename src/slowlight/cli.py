"""Configuration, sweep orchestration, and output.

Config files are line-oriented ``section.key = value`` text with ``#``
comments.  Frequencies are given in ordinary Hz and multiplied by 2*pi
internally; lengths accept SI-prefix suffixes (``7.5 um``); detunings are
in units of gamma; sweep temperatures in units of T_c (T_F when only the
Fermi gas is requested).

Outputs are a CSV table (one row per statistics and grid point) and an
optional self-contained SVG line chart.  Runs are deterministic: the same
config produces byte-identical CSV on every run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .gas import CharScales, GasSpec, Statistics, TrapGeometry, char_scales
from .optics import ProbeParams, effective_group_velocity

C_LIGHT = 2.99792458e8
CSV_HEADER = "statistics,x,L_m,t_d_s,v_g_mps,transmission"


class ConfigError(ValueError):
    """Malformed or invalid configuration; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class SweepSpec:
    axis: str                 # "temperature" | "detuning"
    start: float
    stop: float
    points: int
    scale: str                # "linear" | "log"
    statistics_list: tuple[Statistics, ...]
    temperature: float | None = None  # reduced T, required for detuning sweeps

    def grid(self) -> list[float]:
        if self.scale == "log":
            values = np.geomspace(self.start, self.stop, self.points)
        else:
            values = np.linspace(self.start, self.stop, self.points)
        return [float(v) for v in values]


@dataclass(frozen=True)
class RunConfig:
    gas: GasSpec
    trap: TrapGeometry
    probe: ProbeParams
    sweep: SweepSpec
    scales: CharScales
    out_csv: str | None = None
    out_chart: str | None = None

    @property
    def only_fermi(self) -> bool:
        return all(s is Statistics.FERMI for s in self.sweep.statistics_list)

    @property
    def temperature_unit(self) -> float:
        """Kelvin per unit of reduced temperature for this run."""
        return self.scales.T_F if self.only_fermi else self.scales.T_c

    @property
    def temperature_unit_name(self) -> str:
        return "T_F" if self.only_fermi else "T_c"


@dataclass(frozen=True)
class SweepRow:
    statistics: str
    x: float
    L_m: float
    t_d_s: float
    v_g_mps: float
    transmission: float


_LENGTH_SUFFIX = {
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12,
}

_KNOWN_KEYS = {
    "gas.statistics", "gas.atom_count", "gas.mass", "gas.scattering_length",
    "trap.frequency_hz", "trap.epsilon",
    "probe.wavelength", "probe.frequency_hz", "probe.linewidth_hz",
    "probe.detuning_gamma", "probe.pinhole_radius", "probe.local_field",
    "probe.dipole_moment_sq",
    "sweep.axis", "sweep.start", "sweep.stop", "sweep.points", "sweep.scale",
    "sweep.statistics", "sweep.temperature",
    "output.csv", "output.chart",
}


def _parse_length(text: str) -> float | None:
    """Metres from ``7.5 um``, ``7.5um`` or ``7.5e-6``; None if unparseable."""
    parts = text.split()
    try:
        if len(parts) == 2 and parts[1] in _LENGTH_SUFFIX:
            return float(parts[0]) * _LENGTH_SUFFIX[parts[1]]
        if len(parts) == 1:
            token = parts[0]
            for suffix in sorted(_LENGTH_SUFFIX, key=len, reverse=True):
                if token.endswith(suffix) and len(token) > len(suffix):
                    head = token[: -len(suffix)]
                    if head[-1].isdigit() or head[-1] == ".":
                        return float(head) * _LENGTH_SUFFIX[suffix]
            return float(token)
    except ValueError:
        pass
    return None


class _Entries:
    """Parsed key/value pairs with typed, line-aware accessors."""

    def __init__(self, items: dict[str, tuple[str, int]]):
        self._items = items

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def raw(self, key: str) -> tuple[str, int]:
        if key not in self._items:
            raise ConfigError(f"missing required key {key!r}")
        return self._items[key]

    def number(self, key: str, default: float | None = None) -> float:
        if key not in self._items:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        text, line = self._items[key]
        try:
            if "/" in text:
                num, den = text.split("/")
                value = float(num) / float(den)
            else:
                value = float(text)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{key}: cannot parse number from {text!r}", line) from None
        return self._finite(key, value)

    def integer(self, key: str, default: int | None = None) -> int:
        value = self.number(key, default if default is None else float(default))
        if value != int(value):
            _, line = self._items[key]
            raise ConfigError(f"{key}: expected an integer, got {value}", line)
        return int(value)

    def length(self, key: str, default: float | None = None) -> float:
        if key not in self._items:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        text, line = self._items[key]
        value = _parse_length(text)
        if value is None:
            raise ConfigError(f"{key}: cannot parse length from {text!r}", line)
        return self._finite(key, value)

    def _finite(self, key: str, value: float) -> float:
        # float() accepts "nan" and "inf", and every range check below
        # passes NaN, so non-finite values stop here with their key
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}", self._items[key][1])
        return value

    def boolean(self, key: str, default: bool) -> bool:
        if key not in self._items:
            return default
        text, line = self._items[key]
        low = text.strip().lower()
        if low in ("true", "on", "yes", "1"):
            return True
        if low in ("false", "off", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}", line)

    def word(self, key: str, allowed: Sequence[str], default: str | None = None) -> str:
        if key not in self._items:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        text, line = self._items[key]
        value = text.strip().lower()
        if value not in allowed:
            raise ConfigError(f"{key}: expected one of {', '.join(allowed)}; got {text!r}", line)
        return value

    def string(self, key: str) -> str | None:
        return self._items[key][0] if key in self._items else None

    def statistics(self, key: str) -> Statistics:
        text, line = self.raw(key)
        try:
            return Statistics(text.strip().lower())
        except ValueError:
            raise ConfigError(
                f"{key}: unknown statistics {text!r} (use fermi, bose, boltzmann)", line
            ) from None

    def statistics_list(self, key: str, default: tuple[Statistics, ...]) -> tuple[Statistics, ...]:
        if key not in self._items:
            return default
        text, line = self._items[key]
        out: list[Statistics] = []
        for token in text.split(","):
            token = token.strip().lower()
            if not token:
                continue
            try:
                stat = Statistics(token)
            except ValueError:
                raise ConfigError(f"{key}: unknown statistics {token!r}", line) from None
            if stat in out:
                raise ConfigError(f"{key}: repeated statistics {token!r}", line)
            out.append(stat)
        if not out:
            raise ConfigError(f"{key}: empty statistics list", line)
        return tuple(out)

    def require_positive(self, key: str, value: float) -> float:
        if value <= 0.0:
            line = self._items[key][1] if key in self._items else None
            raise ConfigError(f"{key}: must be positive, got {value}", line)
        return value


def _tokenize(text: str) -> _Entries:
    items: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'section.key = value', got {raw.strip()!r}", lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"{key}: empty value", lineno)
        items[key] = (value, lineno)
    if not items:
        raise ConfigError("empty configuration document")
    return _Entries(items)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document; derived scales included."""
    e = _tokenize(text)

    stat = e.statistics("gas.statistics")
    n_atoms = e.require_positive("gas.atom_count", e.number("gas.atom_count"))
    mass = e.require_positive("gas.mass", e.number("gas.mass"))
    a_sc = e.length("gas.scattering_length", default=0.0)
    if a_sc < 0.0:
        raise ConfigError("gas.scattering_length: must be >= 0")

    freq = e.require_positive("trap.frequency_hz", e.number("trap.frequency_hz"))
    epsilon = e.number("trap.epsilon")
    if epsilon <= 0.0:
        line = e.raw("trap.epsilon")[1]
        raise ConfigError(f"trap.epsilon: must be positive, got {epsilon}", line)

    if ("probe.wavelength" in e) == ("probe.frequency_hz" in e):
        raise ConfigError("exactly one of probe.wavelength / probe.frequency_hz is required")
    if "probe.wavelength" in e:
        lam = e.require_positive("probe.wavelength", e.length("probe.wavelength"))
        omega_0 = 2.0 * math.pi * C_LIGHT / lam
    else:
        omega_0 = 2.0 * math.pi * e.require_positive(
            "probe.frequency_hz", e.number("probe.frequency_hz")
        )
    gamma = 2.0 * math.pi * e.require_positive(
        "probe.linewidth_hz", e.number("probe.linewidth_hz")
    )
    detuning_gamma = e.number("probe.detuning_gamma")
    if detuning_gamma == 0.0:
        raise ConfigError("probe.detuning_gamma: must be nonzero", e.raw("probe.detuning_gamma")[1])
    pinhole = e.require_positive("probe.pinhole_radius", e.length("probe.pinhole_radius"))
    local_field = e.boolean("probe.local_field", default=True)
    d_sq = e.number("probe.dipole_moment_sq", default=0.0)

    axis = e.word("sweep.axis", ("temperature", "detuning"))
    start = e.number("sweep.start")
    stop = e.number("sweep.stop")
    if not start < stop:
        raise ConfigError(f"sweep.start must be < sweep.stop, got [{start}, {stop}]")
    points = e.integer("sweep.points")
    if points < 2:
        raise ConfigError(f"sweep.points: need at least 2, got {points}")
    scale = e.word("sweep.scale", ("linear", "log"), default="linear")
    if scale == "log" and start <= 0.0:
        raise ConfigError("sweep.scale: log scale requires sweep.start > 0")
    stats_list = e.statistics_list("sweep.statistics", default=(stat,))
    sweep_temperature = None
    if axis == "detuning":
        sweep_temperature = e.require_positive("sweep.temperature", e.number("sweep.temperature"))
        if start <= 0.0:
            raise ConfigError("sweep.start: detuning sweeps must stay at positive detuning")
    elif "sweep.temperature" in e:
        raise ConfigError("sweep.temperature: only valid for detuning sweeps")
    if axis == "temperature" and start <= 0.0:
        raise ConfigError("sweep.start: temperatures must be positive")

    try:
        gas_spec = GasSpec(statistics=stat, n_atoms=n_atoms, mass=mass, a_sc=a_sc)
        trap = TrapGeometry(omega_r=2.0 * math.pi * freq, epsilon=epsilon)
        probe = ProbeParams(
            omega_0=omega_0, gamma=gamma, delta=detuning_gamma * gamma,
            pinhole_R=pinhole, d_sq=d_sq, local_field_on=local_field,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if Statistics.BOSE in stats_list and a_sc <= 0.0:
        raise ConfigError("gas.scattering_length: Bose statistics requires a positive value")

    sweep = SweepSpec(
        axis=axis, start=start, stop=stop, points=points, scale=scale,
        statistics_list=stats_list, temperature=sweep_temperature,
    )
    scales = char_scales(gas_spec, trap)
    return RunConfig(
        gas=gas_spec, trap=trap, probe=probe, sweep=sweep,
        scales=scales, out_csv=e.string("output.csv"), out_chart=e.string("output.chart"),
    )


def load_config(path: str | os.PathLike) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def preset_text(name: str) -> str:
    """Text of a shipped preset ('fig1' or 'fig2')."""
    return resources.files("slowlight.presets").joinpath(f"{name}.preset").read_text("utf-8")


def _sweep_point(config: RunConfig, stat: Statistics, x: float) -> SweepRow:
    spec = replace(config.gas, statistics=stat)
    if config.sweep.axis == "temperature":
        T = x * config.temperature_unit
        probe = config.probe
    else:
        T = config.sweep.temperature * config.temperature_unit
        probe = config.probe.with_detuning(x * config.probe.gamma)
    result = effective_group_velocity(spec, config.trap, probe, T)
    return SweepRow(
        statistics=stat.value, x=x, L_m=result.L, t_d_s=result.t_d,
        v_g_mps=result.v_g_eff, transmission=result.transmission,
    )


def run_sweep(config: RunConfig) -> list[SweepRow]:
    """Evaluate every (statistics, grid point); rows ordered by (statistics, x)."""
    rows = []
    for stat in config.sweep.statistics_list:
        for x in config.sweep.grid():
            try:
                rows.append(_sweep_point(config, stat, x))
            except Exception as exc:
                raise RuntimeError(
                    f"sweep point failed at statistics={stat.value}, x={x:g}: {exc}"
                ) from exc
    return rows


def _format_value(value: float) -> str:
    return f"{value:.11e}"


def _atomic_write(path: str | os.PathLike, data: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class OutputRowError(ValueError):
    """A sweep row is non-finite or outside its physical range."""


def _check_row(row: SweepRow) -> None:
    values = (row.x, row.L_m, row.t_d_s, row.v_g_mps, row.transmission)
    if not all(math.isfinite(v) for v in values):
        raise OutputRowError(f"non-finite value in row {row}")
    if not 0.0 < row.transmission <= 1.0:
        raise OutputRowError(f"transmission outside (0, 1] in row {row}")
    if not 0.0 < row.v_g_mps <= C_LIGHT:
        raise OutputRowError(f"v_g outside (0, c] in row {row}")


def write_csv(rows: Sequence[SweepRow], path: str | os.PathLike) -> None:
    """CSV with the fixed schema, 12 significant digits, LF endings.  Every
    row is checked before anything is written; a bad one raises
    OutputRowError and leaves no file."""
    lines = [CSV_HEADER]
    for row in rows:
        _check_row(row)
        lines.append(
            ",".join(
                (
                    row.statistics,
                    _format_value(row.x),
                    _format_value(row.L_m),
                    _format_value(row.t_d_s),
                    _format_value(row.v_g_mps),
                    _format_value(row.transmission),
                )
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str | os.PathLike) -> list[SweepRow]:
    """Inverse of write_csv (used by the round-trip checks)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for line in lines[1:]:
        stat, x, L_m, t_d_s, v_g, trans = line.split(",")
        rows.append(
            SweepRow(
                statistics=stat, x=float(x), L_m=float(L_m),
                t_d_s=float(t_d_s), v_g_mps=float(v_g), transmission=float(trans),
            )
        )
    return rows


# --- SVG chart -------------------------------------------------------------

_CHART_W, _CHART_H = 760, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 160, 40, 60
_COLORS = {"fermi": "#c4461f", "bose": "#1f62c4", "boltzmann": "#3d9943"}


def _linear_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * span:
        ticks.append(value)
        value += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    k = math.ceil(math.log10(lo) - 1e-12)
    while 10.0**k <= hi * (1.0 + 1e-12):
        ticks.append(10.0**k)
        k += 1
    return ticks


def emit_chart(
    rows: Sequence[SweepRow],
    path: str | os.PathLike,
    y_field: str = "v_g_mps",
    log_y: bool | None = None,
    x_label: str = "x",
    y_label: str | None = None,
) -> None:
    """Standalone SVG line chart, one polyline per statistics.

    Group-velocity sweeps get a log y-axis with tick labels at decade
    boundaries; transmission sweeps are linear.  No external assets.
    """
    if not rows:
        raise ValueError("emit_chart needs at least one row")
    if log_y is None:
        log_y = y_field == "v_g_mps"
    if y_label is None:
        y_label = "v_g (m/s)" if y_field == "v_g_mps" else "transmission"

    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row.statistics, []).append((row.x, getattr(row, y_field)))
    for points in series.values():
        points.sort(key=lambda p: p[0])

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if log_y and min(ys) <= 0.0:
        raise ValueError("log-scale chart requires positive y values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo * 1.1 if y_lo else 1.0

    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def x_pix(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    if log_y:
        ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
        if ly_hi == ly_lo:
            ly_hi = ly_lo + 1.0

        def y_pix(y: float) -> float:
            return _MARGIN_T + (ly_hi - math.log10(y)) / (ly_hi - ly_lo) * plot_h

        y_ticks = _decade_ticks(y_lo, y_hi)
        y_tick_labels = [f"1e{int(round(math.log10(t))):+03d}" for t in y_ticks]
    else:

        def y_pix(y: float) -> float:
            return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

        y_ticks = _linear_ticks(y_lo, y_hi)
        y_tick_labels = [f"{t:g}" for t in y_ticks]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for tick, label in zip(y_ticks, y_tick_labels):
        py = y_pix(tick)
        if not _MARGIN_T - 1 <= py <= _MARGIN_T + plot_h + 1:
            continue
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" '
            'stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for tick in _linear_ticks(x_lo, x_hi):
        px = x_pix(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_CHART_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{x_label}</text>'
    )
    parts.append(
        f'<text x="22" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 22 {_MARGIN_T + plot_h / 2:.0f})">{y_label}</text>'
    )
    for index, (name, points) in enumerate(series.items()):
        color = _COLORS.get(name, "#555555")
        coords = " ".join(f"{x_pix(x):.2f},{y_pix(y):.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = _MARGIN_T + 16 + 20 * index
        lx = _MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="13">{name}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# --- command line ----------------------------------------------------------

def _format_scales(config: RunConfig) -> str:
    s = config.scales
    pairs = [
        ("a_r", f"{s.a_r:.6e} m"),
        ("a_ho", f"{s.a_ho:.6e} m"),
        ("R_F", f"{s.R_F:.6e} m"),
        ("R_B", f"{s.R_B:.6e} m"),
        ("E_F", f"{s.E_F:.6e} J"),
        ("T_F", f"{s.T_F:.6e} K"),
        ("T_c", f"{s.T_c:.6e} K"),
        ("mu_TF", f"{s.mu_TF:.6e} J"),
        ("eta", f"{s.eta:.6f}"),
        ("lambda_T(T_c)", f"{s.lambda_T(s.T_c):.6e} m"),
        ("T_F/T_c", f"{s.T_F / s.T_c:.6f}"),
        ("temperature unit", f"{config.temperature_unit_name} = {config.temperature_unit:.6e} K"),
    ]
    width = max(len(name) for name, _ in pairs)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in pairs)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slowlight",
        description="Slow-light observables for trapped quantum gases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep from a config file")
    run_p.add_argument("config", help="path to a section.key = value config file")
    run_p.add_argument("--out", help="CSV output path")
    run_p.add_argument("--chart", help="SVG chart output path")

    scales_p = sub.add_parser("scales", help="print characteristic scales")
    scales_p.add_argument("config", help="path to a config file")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "scales":
            print(_format_scales(config))
            return 0
        print(_format_scales(config))
        rows = run_sweep(config)
        out_csv = args.out or config.out_csv or (Path(args.config).stem + "_sweep.csv")
        write_csv(rows, out_csv)
        print(f"wrote {len(rows)} rows to {out_csv}")
        out_chart = args.chart or config.out_chart
        if out_chart:
            if config.sweep.axis == "temperature":
                emit_chart(rows, out_chart, y_field="v_g_mps",
                           x_label=f"T / {config.temperature_unit_name}")
            else:
                emit_chart(rows, out_chart, y_field="transmission",
                           x_label="detuning / gamma")
            print(f"wrote chart to {out_chart}")
        return 0
    except (ConfigError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
