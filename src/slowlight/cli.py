"""Configuration, sweep orchestration, and output.

Config files are line-oriented ``section.key = value`` text with ``#``
comments; the table ``_KEYS`` holds every key with its parser, its default
and the range its value alone must keep.
The config describes the physics only: the probe resonance is given by its
wavelength, and the dipole moment is always the two-level one fixed by the
linewidth.  Frequencies are given in ordinary Hz and multiplied by 2*pi
internally; lengths accept SI-prefix suffixes (``7.5 um``); detunings are in
units of gamma; sweep temperatures in units of T_c (T_F when only the Fermi
gas is requested).

Outputs are a CSV table (one row per statistics and grid point) and an
optional self-contained SVG line chart, written where ``--out`` and
``--chart`` say.  Runs are deterministic: the same config produces
byte-identical CSV on every run.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import sys
from collections import namedtuple
from collections.abc import Sequence

from .constants import c as C_LIGHT
from .gas import (
    CharScales,
    GasSpec,
    Statistics,
    TrapGeometry,
    char_scales,
    require_temperature_in_range,
    thermal_wavelength,
)
from .optics import ProbeParams, effective_group_velocity


class ConfigError(ValueError):
    """Malformed or invalid configuration; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SweepSpec(namedtuple("SweepSpec", [
    "axis",             # "temperature" | "detuning"
    "start",
    "stop",
    "points",
    "scale",            # "linear" | "log"
    "statistics_list",  # tuple of Statistics
    "temperature",      # reduced T, required for detuning sweeps
], defaults=(None,))):
    __slots__ = ()

    def grid(self) -> list[float]:
        # numpy's linspace/geomspace arithmetic: start + i*step with the
        # last point exactly stop; the log grid is that in log10, with
        # both endpoints exact
        log = self.scale == "log"
        lo, hi = (math.log10(self.start), math.log10(self.stop)) if log else (self.start, self.stop)
        step = (hi - lo) / (self.points - 1)
        inner = [lo + i * step for i in range(1, self.points - 1)]
        return [self.start, *(10.0**v if log else v for v in inner), self.stop]


class RunConfig(namedtuple("RunConfig", "gas trap probe sweep")):
    __slots__ = ()

    @property
    def scales(self) -> CharScales:
        """The characteristic scales of this run's gas and trap."""
        return char_scales(self.gas, self.trap)

    @property
    def temperature_unit_name(self) -> str:
        """T_F when the sweep runs only the Fermi gas, else T_c."""
        if all(s is Statistics.FERMI for s in self.sweep.statistics_list):
            return "T_F"
        return "T_c"

    @property
    def temperature_unit(self) -> float:
        """Kelvin per unit of reduced temperature for this run."""
        return getattr(self.scales, self.temperature_unit_name)


class OutputRowError(ValueError):
    """A sweep row is non-finite or outside its physical range."""


class SweepRow(namedtuple("SweepRow", "statistics x L_m t_d_s v_g_mps transmission")):
    """One CSV row: the statistics, then the numbers, in the order of the
    columns.  A row is checked where it is built, by the run, read_csv or a
    caller: a statistics other than fermi, bose or boltzmann, a non-finite number,
    a transmission outside (0, 1] or a v_g outside (0, c] raises OutputRowError."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, statistics: str, x: float, L_m: float, t_d_s: float, v_g_mps: float,
                transmission: float):
        try:
            statistics = Statistics(statistics).value
        except ValueError:
            raise OutputRowError(
                f"unknown statistics {statistics!r} (use fermi, bose, boltzmann)") from None
        self = tuple.__new__(cls, (statistics, x, L_m, t_d_s, v_g_mps, transmission))
        for name, value in zip(self._fields[1:], self[1:]):
            if not math.isfinite(value):
                raise OutputRowError(f"{name} must be finite, got {value}")
        if not 0.0 < transmission <= 1.0:
            raise OutputRowError(
                f"transmission must be in (0, 1], got {transmission}; e^-absorbance "
                "underflows to 0 for an opaque cloud, whose absorbance grows with "
                "gas.atom_count and falls with |probe.detuning_gamma|")
        if not 0.0 < v_g_mps <= C_LIGHT:
            raise OutputRowError(f"v_g must be positive and at most c, got {v_g_mps}")
        return self


CSV_HEADER = ",".join(SweepRow._fields)


_LENGTH_SUFFIX = {
    "": 1.0, "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12,
}
_BOOLEAN = {**dict.fromkeys(("true", "on", "yes", "1"), True),
            **dict.fromkeys(("false", "off", "no", "0"), False)}

# The value parsers: pure functions of the value text that raise ValueError.


def _number(text: str) -> float:
    """A float, or a fraction of two such as ``1/3``."""
    try:
        num, slash, den = text.partition("/")
        return float(num) / float(den) if slash else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse number from {text!r}") from None


def _integer(text: str) -> int:
    value = _number(text)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


def _length(text: str) -> float:
    """Metres from ``7.5 um``, ``7.5um`` or ``7.5e-6``: the number is the
    shortest head of the text that leaves only blanks and at most a unit."""
    end = next((i for i in range(1, len(text) + 1) if text[i:].lstrip() in _LENGTH_SUFFIX), 0)
    try:
        return float(text[:end]) * _LENGTH_SUFFIX[text[end:].lstrip()]
    except ValueError:
        raise ValueError(f"cannot parse length from {text!r}") from None


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOLEAN:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOLEAN[text.lower()]


def _choice(*words: str):
    def parse(text: str) -> str:
        if text.lower() not in words:
            raise ValueError(f"expected one of {', '.join(words)}; got {text!r}")
        return text.lower()

    return parse


def _statistics(text: str) -> Statistics:
    try:
        return Statistics(text.lower())
    except ValueError:
        raise ValueError(f"unknown statistics {text!r} (use fermi, bose, boltzmann)") from None


def _statistics_list(text: str) -> tuple[Statistics, ...]:
    out: list[Statistics] = []
    for token in filter(None, (token.strip() for token in text.split(","))):
        stat = _statistics(token)
        if stat in out:
            raise ValueError(f"repeated statistics {token!r}")
        out.append(stat)
    if not out:
        raise ValueError("empty statistics list")
    return tuple(out)


_REQUIRED = object()
_POSITIVE_VALUE = (lambda v: v > 0.0, "must be positive")

# The config language: key -> (parser, default, rule) in the order
# parse_config reads them.  A _REQUIRED key must be given; None stands for an
# absent key, which the cross-field rules in parse_config may still require or
# refuse.  The rule (holds, need), if any, is the range a given value keeps
# on its own: holds(value) is true, or the value is refused with need.
_KEYS = {
    "gas.statistics": (_statistics, _REQUIRED, None),
    "gas.atom_count": (_number, _REQUIRED, (lambda v: v >= 1.0, "must be >= 1")),
    "gas.mass": (_number, _REQUIRED, _POSITIVE_VALUE),
    "gas.scattering_length": (_length, 0.0, (lambda v: v >= 0.0, "must be >= 0")),
    "trap.frequency_hz": (_number, _REQUIRED, _POSITIVE_VALUE),
    "trap.epsilon": (_number, _REQUIRED, _POSITIVE_VALUE),
    "probe.wavelength": (_length, _REQUIRED, _POSITIVE_VALUE),
    "probe.linewidth_hz": (_number, _REQUIRED, _POSITIVE_VALUE),
    "probe.detuning_gamma": (_number, _REQUIRED, (lambda v: v != 0.0, "must be nonzero")),
    "probe.pinhole_radius": (_length, _REQUIRED, _POSITIVE_VALUE),
    "probe.local_field": (_boolean, True, None),
    "sweep.axis": (_choice("temperature", "detuning"), _REQUIRED, None),
    "sweep.start": (_number, _REQUIRED, _POSITIVE_VALUE),
    "sweep.stop": (_number, _REQUIRED, None),
    "sweep.points": (_integer, _REQUIRED, (lambda v: v >= 2, "need at least 2")),
    "sweep.scale": (_choice("linear", "log"), "linear", None),
    "sweep.statistics": (_statistics_list, None, None),  # default: (gas.statistics,)
    "sweep.temperature": (_number, None, _POSITIVE_VALUE),
}


def _tokenize(text: str) -> dict[str, tuple[str, int]]:
    """key -> (value text, line number) of a config document."""
    items: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'section.key = value', got {raw.strip()!r}", lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"{key}: empty value", lineno)
        items[key] = (value, lineno)
    if not items:
        raise ConfigError("empty configuration document")
    return items


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document, whose scales must be
    finite and nonzero too."""
    items = _tokenize(text)
    v = {}
    for key, (parse, default, rule) in _KEYS.items():
        entry = items.get(key)
        if entry is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            v[key] = default
            continue
        try:
            value = parse(entry[0])
            # float() accepts "nan" and "inf", and every range check passes
            # NaN, so non-finite values stop here with their key
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"must be finite, got {value}")
            if rule and not rule[0](value):
                raise ValueError(f"{rule[1]}, got {value}")
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", entry[1]) from None
        v[key] = value

    def invalid(key: str, message: str) -> ConfigError:
        return ConfigError(f"{key}: {message}", items[key][1])

    a_sc, axis = v["gas.scattering_length"], v["sweep.axis"]
    start, stop = v["sweep.start"], v["sweep.stop"]
    if not start < stop:
        raise invalid("sweep.stop", f"must be > sweep.start, got [{start}, {stop}]")
    if axis == "detuning" and v["sweep.temperature"] is None:
        raise invalid("sweep.axis", "a detuning sweep requires sweep.temperature")
    if axis == "temperature" and v["sweep.temperature"] is not None:
        raise invalid("sweep.temperature", "only valid for detuning sweeps")
    # the gas spec is built with gas.statistics, the sweep runs sweep.statistics
    for key, stats in (("gas.statistics", (v["gas.statistics"],)),
                       ("sweep.statistics", v["sweep.statistics"] or ())):
        if Statistics.BOSE in stats and a_sc == 0.0:
            raise invalid(key, "Bose statistics requires a positive gas.scattering_length")

    omega_r = 2.0 * math.pi * v["trap.frequency_hz"]
    omega_0 = 2.0 * math.pi * C_LIGHT / v["probe.wavelength"]
    gamma = 2.0 * math.pi * v["probe.linewidth_hz"]
    # a finite value may overflow in SI units, and a detuning underflow; past
    # this check no constructor below can refuse a value.  A detuning sweep's
    # monotone grid sets every point's detuning, from sweep.start to sweep.stop.
    detunings = ("sweep.start", "sweep.stop") if axis == "detuning" else ("probe.detuning_gamma",)
    delta = v[detunings[0]] * gamma
    si_values = [("trap.frequency_hz", "omega_r", omega_r),
                 ("probe.wavelength", "omega_0", omega_0),
                 ("probe.linewidth_hz", "gamma", gamma),
                 *((key, "delta", v[key] * gamma) for key in detunings)]
    for key, name, si in si_values:
        if not (math.isfinite(si) and si):
            raise invalid(key, f"must be finite and nonzero in SI units, got {name} = {si}")
    stats_list = v["sweep.statistics"] or (v["gas.statistics"],)
    gas_spec = GasSpec(v["gas.statistics"], v["gas.atom_count"], v["gas.mass"], a_sc)
    trap = TrapGeometry(omega_r=omega_r, epsilon=v["trap.epsilon"])
    # a value in range may still over- or underflow in the scales or in the
    # lambda_T(T_c) that _format_scales prints; R_B, mu_TF and eta are 0
    # without scattering
    try:
        s = char_scales(gas_spec, trap)
        lambda_c = s.T_c and thermal_wavelength(gas_spec.mass, s.T_c)  # T_c = 0 is refused first
        for name, value in [*s._asdict().items(), ("lambda_T(T_c)", lambda_c)]:
            if not (math.isfinite(value) and (value or not a_sc and name in ("R_B", "mu_TF", "eta"))):
                raise ArithmeticError(f"got {name} = {value}")
    except ArithmeticError as exc:
        raise ConfigError(
            "the characteristic scales and lambda_T(T_c) must be finite and nonzero in SI units "
            f"({exc}); they are computed from gas.atom_count, gas.mass, gas.scattering_length, "
            "trap.frequency_hz and trap.epsilon") from None
    probe = ProbeParams(omega_0=omega_0, gamma=gamma, delta=delta,
                        pinhole_R=v["probe.pinhole_radius"], local_field_on=v["probe.local_field"])

    sweep = SweepSpec(
        axis=axis, start=start, stop=stop, points=v["sweep.points"], scale=v["sweep.scale"],
        statistics_list=stats_list, temperature=v["sweep.temperature"],
    )
    config = RunConfig(gas=gas_spec, trap=trap, probe=probe, sweep=sweep)
    # gas's rule for the temperatures the normalizations take; the grid is
    # monotone, so a temperature sweep's endpoints bound it
    for key in ("sweep.start", "sweep.stop") if axis == "temperature" else ("sweep.temperature",):
        try:
            require_temperature_in_range(v[key] * config.temperature_unit, s)
        except ValueError as exc:
            raise invalid(key, str(exc)) from None
    return config


def load_config(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # the byte-order mark some editors save first, without the utf-8-sig codec
    return parse_config(text.removeprefix("\ufeff"))


def preset_text(name: str) -> str:
    """Text of a shipped preset ('fig1' or 'fig2')."""
    from importlib import resources  # off the run path, which never reads a preset

    return resources.files("slowlight.presets").joinpath(f"{name}.preset").read_text("utf-8")


def _sweep_point(config: RunConfig, stat: Statistics, x: float) -> SweepRow:
    spec = config.gas._replace(statistics=stat)
    if config.sweep.axis == "temperature":
        T = x * config.temperature_unit
        probe = config.probe
    else:
        T = config.sweep.temperature * config.temperature_unit
        probe = config.probe._replace(delta=x * config.probe.gamma)
    return SweepRow(stat.value, x, *effective_group_velocity(spec, config.trap, probe, T))


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


def _atomic_write(path: str | os.PathLike, data: str) -> None:
    """Write data to path through a temporary beside it and os.replace, so a
    reader sees the old file or the new one.  The temporary is created as
    open(path, "w") creates a file, mode 0o666 less the umask."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(rows: Sequence[SweepRow], path: str | os.PathLike) -> None:
    """CSV with the fixed schema, 12 significant digits, LF endings.  Rows
    are checked where they are built (SweepRow), not here."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join((row.statistics, *(f"{v:.11e}" for v in row[1:]))))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str | os.PathLike) -> list[SweepRow]:
    """Inverse of write_csv (used by the round-trip checks)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for line in lines[1:]:
        stat, *values = line.split(",")
        if len(values) != len(SweepRow._fields) - 1:
            raise ValueError(f"expected {len(SweepRow._fields)} columns in {path}: {line!r}")
        rows.append(SweepRow(stat, *map(float, values)))
    return rows


# --- SVG chart -------------------------------------------------------------

_CHART_W, _CHART_H = 760, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 160, 40, 60
_COLORS = {"fermi": "#c4461f", "bose": "#1f62c4", "boltzmann": "#3d9943"}
_TICKS = 6


def _linear_ticks(lo: float, hi: float, step: float = 0.0) -> list[float]:
    # the multiples k * step in [lo, hi], by default of a 1-2-5 step that gives
    # at most _TICKS intervals; counted, so a step below an ulp of lo still ends,
    # with the slack added after dividing, so hi near the largest float is no inf
    span = hi - lo
    if not step:
        if span <= 0.0:
            return [lo]
        step = 10.0 ** math.floor(math.log10(span / _TICKS))
        step *= next(m for m in (1.0, 2.0, 5.0, 10.0) if span / (step * m) <= _TICKS)
    return [k * step for k in range(math.ceil(lo / step),
                                    math.floor(hi / step + 1e-12 * span / step) + 1)]


def _px(v: float | int) -> str:
    """A computed position to 0.01 px; the fixed layout's integers as they are."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _svg_line(x1, y1, x2, y2, stroke: str = "#444", width: str = "1") -> str:
    return (f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _svg_text(x, y, size: int, body: str, anchor: str = "", transform: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{_px(x)}" y="{_px(y)}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body}</text>')


def emit_chart(
    rows: Sequence[SweepRow],
    path: str | os.PathLike,
    y_field: str = "v_g_mps",
    x_label: str = "x",
) -> None:
    """Standalone SVG line chart, one polyline per statistics.

    Group-velocity sweeps get a log y-axis with tick labels at decade
    boundaries; transmission sweeps are linear.  No external assets.
    """
    if not rows:
        raise ValueError("emit_chart needs at least one row")
    log_y = y_field == "v_g_mps"
    y_label = "v_g (m/s)" if log_y else "transmission"

    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row.statistics, []).append((row.x, getattr(row, y_field)))
    for points in series.values():
        points.sort(key=lambda p: p[0])

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        # a unit wide axis, or where a unit is below an ulp of x, the finite
        # one between x / 2 and x
        x_hi = x_lo + 1.0
        if x_hi == x_lo:
            x_lo, x_hi = sorted((x_lo / 2.0, x_lo))
    if y_hi == y_lo:
        y_hi = y_lo * 1.1

    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def x_pix(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    # a log axis is a linear axis over log10(y)
    axis = math.log10 if log_y else (lambda y: y)
    top, bottom = axis(y_hi), axis(y_lo)
    if top == bottom:  # 1.1 y rounds to y when y is subnormal
        top = bottom + 1.0

    def y_pix(y: float) -> float:
        return _MARGIN_T + (top - axis(y)) / (top - bottom) * plot_h

    if log_y:
        decades = [int(k) for k in _linear_ticks(math.log10(y_lo), math.log10(y_hi), 1.0)]
        y_ticks = [10.0**k for k in decades]
        y_tick_labels = [f"1e{k:+03d}" for k in decades]
    else:
        y_ticks = _linear_ticks(y_lo, y_hi)
        y_tick_labels = [f"{t:g}" for t in y_ticks]

    x_axis_y = _MARGIN_T + plot_h
    mid_x, mid_y = _MARGIN_L + plot_w // 2, _MARGIN_T + plot_h // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    # a tick is drawn where it lands on its axis, and once per position: on an
    # axis one ulp wide, several ticks round to each end
    drawn = set()
    for tick, label in zip(y_ticks, y_tick_labels):
        py = y_pix(tick)
        if _MARGIN_T - 1 <= py <= x_axis_y + 1 and ("y", _px(py)) not in drawn:
            drawn.add(("y", _px(py)))
            parts += [_svg_line(_MARGIN_L - 5, py, _MARGIN_L, py),
                      _svg_text(_MARGIN_L - 9, py + 4, 12, label, "end")]
    for tick in _linear_ticks(x_lo, x_hi):
        px = x_pix(tick)
        if _MARGIN_L - 1 <= px <= _MARGIN_L + plot_w + 1 and ("x", _px(px)) not in drawn:
            drawn.add(("x", _px(px)))
            parts += [_svg_line(px, x_axis_y, px, x_axis_y + 5),
                      _svg_text(px, x_axis_y + 20, 12, f"{tick:g}", "middle")]
    parts += [_svg_text(mid_x, _CHART_H - 14, 14, x_label, "middle"),
              _svg_text(22, mid_y, 14, y_label, "middle", f"rotate(-90 22 {mid_y})")]
    for index, (name, points) in enumerate(series.items()):
        color = _COLORS[name]
        coords = " ".join(f"{x_pix(x):.2f},{y_pix(y):.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = _MARGIN_T + 16 + 20 * index
        lx = _MARGIN_L + plot_w + 12
        parts += [_svg_line(lx, ly - 4, lx + 24, ly - 4, color, "1.6"),
                  _svg_text(lx + 30, ly, 13, name)]
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
        ("lambda_T(T_c)", f"{thermal_wavelength(config.gas.mass, s.T_c):.6e} m"),
        ("T_F/T_c", f"{s.T_F / s.T_c:.6f}"),
        ("temperature unit", f"{config.temperature_unit_name} = {config.temperature_unit:.6e} K"),
    ]
    width = max(len(name) for name, _ in pairs)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in pairs)


USAGE = """\
usage: slowlight run CONFIG [--out PATH] [--chart PATH]
       slowlight scales CONFIG
       slowlight -h | --help"""

_HELP = """
Slow-light observables for trapped quantum gases.

  run CONFIG     print the scales, run the sweep of a section.key = value
                 config file and write its CSV
    --out PATH   CSV output path (default: CONFIG's stem + _sweep.csv)
    --chart PATH also write an SVG chart there
  scales CONFIG  print the characteristic scales of a config"""

_OPTIONS = {"run": ("--out", "--chart"), "scales": ()}


def _parse_command_line(argv: Sequence[str]) -> tuple[str, str, dict[str, str]]:
    """(command, CONFIG, {option: PATH}) of a command line in the grammar of
    USAGE; a PATH follows its option as the next word or after ``=``.  For
    ``run``, ``--out`` is always filled in, and no output may be CONFIG or
    the other output.  Anything else raises ValueError with the reason."""
    if not argv:
        raise ValueError("no command given")
    command, *rest = argv
    if command not in _OPTIONS:
        raise ValueError(f"unknown command {command!r}")
    configs, options = [], {}
    words = iter(rest)
    for word in words:
        if not word.startswith("-"):
            configs.append(word)
            continue
        name, equals, value = word.partition("=")
        if name not in _OPTIONS[command]:
            raise ValueError(f"unknown option {name!r} for {command}")
        if not equals:
            value = next(words, "")
            if value.startswith("-"):
                value = ""
        if not value:
            raise ValueError(f"{name} needs a PATH")
        options[name] = value
    if len(configs) != 1:
        raise ValueError(f"{command} takes one CONFIG, got {len(configs)}")
    if command == "run":
        # Path(CONFIG).stem: the last name other than ".", less its suffix
        name = next((n for n in reversed(configs[0].split("/")) if n not in ("", ".")), "")
        head, _, suffix = name.rpartition(".")
        options.setdefault("--out", (head if head and suffix else name) + "_sweep.csv")
        seen = {os.path.realpath(configs[0]): "CONFIG"}
        for name in ("--out", "--chart"):
            if name in options:
                real = os.path.realpath(options[name])
                if real in seen:
                    raise ValueError(f"{name} names the same file as {seen[real]}")
                seen[real] = name
    return command, configs[0], options


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        # The process ends with this command, so its shutdown collections
        # need not walk the heap; an in-process caller keeps its own.
        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        print(f"{USAGE}\n{_HELP}")
        return 0
    try:
        command, config_path, options = _parse_command_line(argv)
    except ValueError as exc:
        print(f"{USAGE}\nslowlight: error: {exc}", file=sys.stderr)
        return 2
    try:
        config = load_config(config_path)
        print(_format_scales(config))
        if command == "scales":
            return 0
        rows = run_sweep(config)
        out_csv = options["--out"]
        write_csv(rows, out_csv)
        print(f"wrote {len(rows)} rows to {out_csv}")
        chart = options.get("--chart")
        if chart:
            if config.sweep.axis == "temperature":
                y_field, x_label = "v_g_mps", f"T / {config.temperature_unit_name}"
            else:
                y_field, x_label = "transmission", "detuning / gamma"
            emit_chart(rows, chart, y_field=y_field, x_label=x_label)
            print(f"wrote chart to {chart}")
        return 0
    except (ConfigError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
