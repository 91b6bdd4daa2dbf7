"""Per-layer measurements: a traced in-process sweep and a microbench on fixed inputs.

Both import the program from the checkout's ``src`` and change no source
file.  The tracer swaps public names at the points where their callers
look them up, and puts the originals back afterwards.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

from workloads import (DEFAULT_SEED, EPSILON, MASS, N_ATOMS, OMEGA_R, QUAD_REL_TOL,
                       boltzmann_length, make_workload)

STATS = ("fermi", "bose", "boltzmann")
TEMPS = {"T025": 0.25, "T050": 0.5, "T150": 1.5}   # label -> T / T_c
FD_BRANCHES = ("series", "integer", "hurwitz", "sommerfeld")
POLYLOG_BRANCHES = ("series", "near_one")

# Metric name -> (unit, better), in the order they are reported.
TRACE_METRICS = {
    "optics.point_ms.p50": ("ms", "lower"),
    "optics.point_ms.p90": ("ms", "lower"),
    "optics.effective_length_share": ("ratio", "lower"),
    "optics.quad_calls_per_point": ("count", "lower"),
    **{f"gas.rho_calls_per_point.{s}": ("count", "lower") for s in STATS},
    "gas.profile_builds": ("count", "lower"),
    "gas.profile_hit_ratio": ("ratio", "higher"),
    **{f"numerics.fd_calls_per_point.{b}": ("count", "lower") for b in FD_BRANCHES},
    **{f"numerics.polylog_calls_per_point.{b}": ("count", "lower") for b in POLYLOG_BRANCHES},
    "cli.driver_self_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}
MICRO_METRICS = {
    "numerics.polylog_series_us": ("us", "lower"),
    "numerics.polylog_near_one_us": ("us", "lower"),
    "numerics.fd_series_us": ("us", "lower"),
    "numerics.fd_hurwitz_us": ("us", "lower"),
    "numerics.fd_sommerfeld_us": ("us", "lower"),
    "numerics.integrate_cylindrical_ms": ("ms", "lower"),
    "numerics.find_root_us": ("us", "lower"),
    **{f"gas.profile_build_ms.{s}.{t}": ("ms", "lower") for s in STATS for t in TEMPS},
    **{f"gas.rho_at_us.{s}": ("us", "lower") for s in STATS},
    **{f"optics.{o}_ms.{s}.{t}": ("ms", "lower")
       for o in ("effective_length", "delay_time", "transmission") for s in STATS for t in TEMPS},
    "cli.load_config_ms": ("ms", "lower"),
    "cli.write_csv_ms": ("ms", "lower"),
    "cli.emit_chart_ms": ("ms", "lower"),
}
PER_LAYER = {**MICRO_METRICS, **TRACE_METRICS}


def import_program(src: Path):
    """Import the program under test from ``src``; returns (cli, gas, numerics, optics)."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from slowlight import cli, gas, numerics, optics

    return cli, gas, numerics, optics


# --- branch classification --------------------------------------------------

def polylog_branch(s: float, z: float, cutoff: float) -> str | None:
    """Branch ``polylog(s, z)`` takes for 0 < z <= 1 (the gas layer's arguments).

    None where no branch runs (z == 0 or s == 1 have closed forms).
    """
    if z == 0.0 or s == 1.0:
        return None
    if abs(z) <= cutoff:
        return "series"
    return "near_one" if z > 0.0 else "negative"


def fd_branch(nu: float, x: float, cutoff: float, sommerfeld_switch: float) -> str:
    """Branch ``fermi_dirac_f(nu, x)`` takes."""
    if x <= math.log(cutoff):
        return "series"
    if abs(nu - round(nu)) < 1e-12:
        return "integer"
    return "hurwitz" if x < sommerfeld_switch else "sommerfeld"


# --- traced sweep -------------------------------------------------------------

class Tracer:
    """Spans at layer boundaries plus call counts, kept in memory.

    A span is [id, parent id, name, label, start, end] in perf_counter
    seconds; the point span's label is its statistics, a quadrature's label
    is the observable it computes.  Counts are attributed to the point that
    is running.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.point_counts: list[dict[str, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, label: str | None) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, label,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self, cli, gas, numerics, optics) -> None:
        tracer = self
        default_tol, switch = numerics.DEFAULT_TOL, numerics.SOMMERFELD_SWITCH
        quad_label = {"effective_length": "L", "_delay_of_profile": "t_d",
                      "_transmission_of_profile": "transmission"}

        def spanned(owner, name, span_name, label_of=None):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                span = tracer._open(span_name, label_of(args) if label_of else None)
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer._close(span)

            self._patch(owner, name, wrapper)

        point_inner = cli.effective_group_velocity

        def point(spec, *args, **kwargs):
            before = dict(tracer.counts)
            span = tracer._open("point", spec.statistics.value)
            try:
                return point_inner(spec, *args, **kwargs)
            finally:
                tracer._close(span)
                tracer.point_counts.append(
                    {k: v - before.get(k, 0) for k, v in tracer.counts.items()})

        self._patch(cli, "effective_group_velocity", point)
        spanned(optics, "make_profile", "profile")
        spanned(optics, "effective_length", "L")
        # the function that called integrate_cylindrical names the observable
        spanned(optics, "integrate_cylindrical", "quad",
                lambda args: quad_label.get(sys._getframe(2).f_code.co_name, "other"))
        spanned(gas, "find_root", "root")

        at_inner = gas.DensityProfile.at

        def at(prof, r, z):
            tracer.counts["rho"] = tracer.counts.get("rho", 0) + 1
            return at_inner(prof, r, z)

        polylog_inner, fd_inner = gas.polylog, gas.fermi_dirac_f

        def polylog(s, z, tol=default_tol):
            tracer._count(f"polylog.{polylog_branch(s, z, tol.series_cutoff)}")
            return polylog_inner(s, z, tol)

        def fermi_dirac_f(nu, x, tol=default_tol):
            tracer._count(f"fd.{fd_branch(nu, x, tol.series_cutoff, switch)}")
            return fd_inner(nu, x, tol)

        self._patch(gas.DensityProfile, "at", at)
        self._patch(gas, "polylog", polylog)
        self._patch(gas, "fermi_dirac_f", fermi_dirac_f)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced_sweep(program, config_path: Path) -> tuple[list, dict, list, dict]:
    """One untraced and one traced cold ``run_sweep``; returns
    (traced rows, per-layer metrics, spans, per-statistics point times)."""
    cli, gas, numerics, optics = program
    config = cli.load_config(config_path)

    gas.make_profile.cache_clear()
    start = time.perf_counter()
    cli.run_sweep(config)
    plain_s = time.perf_counter() - start

    gas.make_profile.cache_clear()
    tracer = Tracer()
    tracer.install(cli, gas, numerics, optics)
    try:
        root = tracer._open("run_sweep", None)
        rows = cli.run_sweep(config)
        tracer._close(root)
    finally:
        tracer.uninstall()
    cache = gas.make_profile.cache_info()

    spans = tracer.spans
    points = [s for s in spans if s[2] == "point"]
    n = len(points)
    point_ms = [1e3 * (s[5] - s[4]) for s in points]
    point_total = sum(s[5] - s[4] for s in points)
    length_total = sum(s[5] - s[4] for s in spans if s[2] == "L")
    traced_s = root[5] - root[4]

    def per_point(key: str) -> float:
        return sum(c.get(key, 0) for c in tracer.point_counts) / n

    def per_stat_point(stat: str) -> float:
        mine = [c for s, c in zip(points, tracer.point_counts) if s[3] == stat]
        return sum(c.get("rho", 0) for c in mine) / len(mine) if mine else 0.0

    metrics = {
        "optics.point_ms.p50": statistics.median(point_ms),
        "optics.point_ms.p90": _percentile(point_ms, 0.9),
        "optics.effective_length_share": length_total / point_total,
        "optics.quad_calls_per_point": sum(s[2] == "quad" for s in spans) / n,
        **{f"gas.rho_calls_per_point.{s}": per_stat_point(s) for s in STATS},
        "gas.profile_builds": cache.misses,
        "gas.profile_hit_ratio": cache.hits / (cache.hits + cache.misses),
        **{f"numerics.fd_calls_per_point.{b}": per_point(f"fd.{b}") for b in FD_BRANCHES},
        **{f"numerics.polylog_calls_per_point.{b}": per_point(f"polylog.{b}")
           for b in POLYLOG_BRANCHES},
        "cli.driver_self_s": traced_s - point_total,
        "trace_overhead_frac": traced_s / plain_s - 1.0,
    }
    by_stat = {}
    for stat in STATS:
        mine = [ms for s, ms in zip(points, point_ms) if s[3] == stat]
        if mine:
            by_stat[stat] = {"p50": statistics.median(mine), "p90": _percentile(mine, 0.9),
                             "n": len(mine)}
    return rows, metrics, spans, by_stat


def write_spans(spans: list, path: Path) -> None:
    keys = ("id", "parent", "name", "label", "start_s", "end_s")
    path.write_text(json.dumps([dict(zip(keys, s)) for s in spans]) + "\n", encoding="utf-8")


# --- microbench -----------------------------------------------------------------

def _grid(lo: float, hi: float, n: int = 25) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _per_call(fn, args: list, min_s: float = 0.02) -> float:
    """Seconds per call of fn(*a) over the argument list, repeated to min_s."""
    loops = 0
    start = time.perf_counter()
    while True:
        for a in args:
            fn(*a)
        loops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / (loops * len(args))


def _once(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


class Microbench:
    """Fixed inputs, identical for every workload; checked before they are timed."""

    def __init__(self, program, workdir: Path, rows_csv: Path):
        import mpmath

        self.cli, self.gas, self.numerics, self.optics = program
        gas, numerics, optics = self.gas, self.numerics, self.optics
        tol = numerics.DEFAULT_TOL
        cutoff, switch = tol.series_cutoff, numerics.SOMMERFELD_SWITCH
        self.workdir = workdir

        # special-function grids: every argument in the branch its metric names
        self.special = {
            "numerics.polylog_series_us":
                (numerics.polylog, 1.5, _grid(0.02, cutoff), "series"),
            "numerics.polylog_near_one_us":
                (numerics.polylog, 1.5, _grid(cutoff + 0.02, 0.999), "near_one"),
            "numerics.fd_series_us":
                (numerics.fermi_dirac_f, 1.5, _grid(-12.0, math.log(cutoff)), "series"),
            "numerics.fd_hurwitz_us":
                (numerics.fermi_dirac_f, 1.5, _grid(math.log(cutoff) + 0.05, switch - 0.5), "hurwitz"),
            "numerics.fd_sommerfeld_us":
                (numerics.fermi_dirac_f, 1.5, _grid(switch, 3.0 * switch), "sommerfeld"),
        }
        mpmath.mp.dps = 30
        for name, (fn, order, grid, branch) in self.special.items():
            for arg in grid:
                if fn is numerics.polylog:
                    got = polylog_branch(order, arg, cutoff)
                else:
                    got = fd_branch(order, arg, cutoff, switch)
                if got != branch:
                    raise AssertionError(f"{name}: argument {arg} is in branch {got}, not {branch}")
            for arg in (grid[0], grid[len(grid) // 2], grid[-1]):
                if fn is numerics.polylog:
                    exact = float(mpmath.re(mpmath.polylog(order, arg)))
                else:
                    exact = -float(mpmath.re(mpmath.polylog(order, -mpmath.exp(arg))))
                value = fn(order, arg)
                if abs(value - exact) > 1e-10 * abs(exact):
                    raise AssertionError(f"{name}: f({arg}) = {value}, mpmath gives {exact}")

        # Gaussian with a closed-form cylindrical integral
        self.gauss_a, self.gauss_b = 1.0, 3.0
        self.gauss_exact = (math.pi * -math.expm1(-36.0)
                            * self.gauss_b * math.sqrt(math.pi) * math.erf(6.0))

        # the sodium cloud of the paper's figures, 0.25 / 0.5 / 1.5 T_c
        self.trap = gas.TrapGeometry(omega_r=OMEGA_R, epsilon=EPSILON)
        self.specs = {s: gas.GasSpec(gas.Statistics(s), N_ATOMS, MASS, 2.75e-9) for s in STATS}
        scales = gas.char_scales(self.specs["bose"], self.trap)
        self.temps = {label: t * scales.T_c for label, t in TEMPS.items()}
        gamma = 2.0 * math.pi * 10.03e6
        self.probe = optics.ProbeParams(omega_0=2.0 * math.pi * 299792458.0 / 589e-9, gamma=gamma,
                                        delta=10.0 * gamma, pinhole_R=7.5e-6)
        extent = scales.R_F
        self.rho_points = [(r, z) for r in _grid(0.0, extent, 12)
                           for z in _grid(-extent / EPSILON, extent / EPSILON, 12)]
        self.profiles = {s: gas.DensityProfile(self.specs[s], self.trap, self.temps["T050"])
                         for s in STATS}
        for prof in self.profiles.values():
            for r, z in self.rho_points:
                if not math.isfinite(prof.at(r, z)) or prof.at(r, z) < 0.0:
                    raise AssertionError(f"rho({r}, {z}) = {prof.at(r, z)}")

        # CLI inputs: the dsweep config and reference rows of the default seed
        self.config_path = workdir / "micro.preset"
        self.config_path.write_text(make_workload("dsweep", DEFAULT_SEED).config_text(),
                                    encoding="utf-8")
        self.rows = self.cli.read_csv(rows_csv)

    def round(self) -> dict[str, float]:
        """One pass over every microbench metric."""
        numerics, gas, optics, cli = self.numerics, self.gas, self.optics, self.cli
        out: dict[str, float] = {}
        for name, (fn, order, grid, _) in self.special.items():
            out[name] = 1e6 * _per_call(fn, [(order, arg) for arg in grid])

        a, b = self.gauss_a, self.gauss_b
        seconds, value = _once(numerics.integrate_cylindrical,
                               lambda r, z: math.exp(-(r / a) ** 2 - (z / b) ** 2), 6.0 * a, 6.0 * b)
        if abs(value - self.gauss_exact) > QUAD_REL_TOL * self.gauss_exact:
            raise AssertionError(f"integrate_cylindrical gave {value}, exact {self.gauss_exact}")
        out["numerics.integrate_cylindrical_ms"] = 1e3 * seconds

        root = numerics.find_root(lambda x: math.cos(x) - x, 0.0, 1.0)
        if abs(root - 0.7390851332151607) > 1e-12:
            raise AssertionError(f"find_root gave {root}")
        out["numerics.find_root_us"] = 1e6 * _per_call(
            numerics.find_root, [(lambda x: math.cos(x) - x, 0.0, 1.0)])

        for stat in STATS:
            spec = self.specs[stat]
            for label, T in self.temps.items():
                out[f"gas.profile_build_ms.{stat}.{label}"] = 1e3 * _per_call(
                    gas.DensityProfile, [(spec, self.trap, T)], min_s=0.005)
            out[f"gas.rho_at_us.{stat}"] = 1e6 * _per_call(self.profiles[stat].at, self.rho_points)

        tol = numerics.DEFAULT_TOL
        for stat in STATS:
            spec = self.specs[stat]
            for label, T in self.temps.items():
                gas.make_profile(spec, self.trap, T, tol)  # warm the profile cache
                seconds, L = _once(optics.effective_length, spec, self.trap, T, tol)
                out[f"optics.effective_length_ms.{stat}.{label}"] = 1e3 * seconds
                seconds, t_d = _once(optics.delay_time, spec, self.trap, self.probe, T, tol)
                out[f"optics.delay_time_ms.{stat}.{label}"] = 1e3 * seconds
                seconds, trans = _once(optics.transmission, spec, self.trap, self.probe, T, tol, L)
                out[f"optics.transmission_ms.{stat}.{label}"] = 1e3 * seconds
                if not (L > 0.0 and t_d > 0.0 and 0.0 < trans <= 1.0):
                    raise AssertionError(f"{stat} {label}: L={L}, t_d={t_d}, transmission={trans}")
                exact = boltzmann_length(T)
                if stat == "boltzmann" and abs(L / exact - 1.0) > QUAD_REL_TOL:
                    raise AssertionError(f"Boltzmann L={L}, exact {exact}")

        out["cli.load_config_ms"] = 1e3 * _per_call(cli.load_config, [(self.config_path,)])
        csv_path, svg_path = self.workdir / "micro.csv", self.workdir / "micro.svg"
        out["cli.write_csv_ms"] = 1e3 * _per_call(cli.write_csv, [(self.rows, csv_path)])
        out["cli.emit_chart_ms"] = 1e3 * _per_call(cli.emit_chart, [(self.rows, svg_path)])
        return out
