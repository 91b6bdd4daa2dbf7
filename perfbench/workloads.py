"""Seeded workload configs for the slowlight benchmark, and checks on the CSVs they produce.

The program only ever sees the config text rendered here.  A seed jitters
the grid endpoints (and, for ``dsweep``, the cloud temperature) by a small
fraction of a grid cell, so every seed gives new inputs while the amount
of work per run stays nearly the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Physical constants as the program takes them from scipy.constants.
C_LIGHT = 299792458.0
HBAR = 1.054571817e-34
K_B = 1.380649e-23
ZETA_3 = 1.2020569031595942

# Sodium reference cloud of the paper's figures (the fig1/fig2 presets).
N_ATOMS = 3.8e6
MASS = 3.81754e-26
TRAP_HZ = 69.0
OMEGA_R = 2.0 * math.pi * TRAP_HZ
EPSILON = 1.0 / 3.0

# The program's default quadrature tolerance; the ROADMAP's bound for
# changes to the CSV values is the same number.
QUAD_REL_TOL = 1e-8
CSV_HEADER = "statistics,x,L_m,t_d_s,v_g_mps,transmission"

# Each planned optimisation is exercised by one workload and bypassed by the
# other: sharing across detunings and the Bose polylog calls run on dsweep
# only; a profile build per point, the Sommerfeld branch and the local field
# switched off on fermi_cold only.
WHY = {
    "dsweep": "fig2 physics at one T per statistics: L and the profile repeat at every detuning, so it "
              "exercises sharing across detunings and the local-field t_d and transmission quadratures",
    "fermi_cold": "degenerate Fermi gas, local field off, new T at every point: a profile build per point, "
                  "Fermi-Dirac series, Hurwitz and Sommerfeld branches, no polylog calls, t_d linear in rho",
}
# Outer range each workload's grid stays inside, in the unit of its sweep axis.
RANGES = {"dsweep": (3.0, 20.0), "fermi_cold": (0.02, 0.3)}
POINTS = {"dsweep": 4, "fermi_cold": 6}
DSWEEP_T = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    axis: str                      # "temperature" | "detuning"
    statistics: tuple[str, ...]
    start: float
    stop: float
    points: int
    scale: str                     # "linear" | "log"
    temperature: float | None      # reduced T of a detuning sweep
    local_field: bool

    def grid(self) -> list[float]:
        n = self.points - 1
        if self.scale == "log":
            lo, hi = math.log(self.start), math.log(self.stop)
            return [math.exp(lo + (hi - lo) * i / n) for i in range(self.points)]
        return [self.start + (self.stop - self.start) * i / n for i in range(self.points)]

    def config_text(self) -> str:
        lines = [
            f"# {self.name} workload, generated by perfbench",
            f"gas.statistics = {self.statistics[0]}",
            f"gas.atom_count = {N_ATOMS!r}",
            f"gas.mass = {MASS!r}",
            "gas.scattering_length = 2.75 nm",
            f"trap.frequency_hz = {TRAP_HZ!r}",
            "trap.epsilon = 1/3",
            "probe.wavelength = 589 nm",
            "probe.linewidth_hz = 10.03e6",
            "probe.detuning_gamma = 10",
            "probe.pinhole_radius = 7.5 um",
            f"probe.local_field = {'on' if self.local_field else 'off'}",
            f"sweep.axis = {self.axis}",
            f"sweep.start = {self.start!r}",
            f"sweep.stop = {self.stop!r}",
            f"sweep.points = {self.points}",
            f"sweep.scale = {self.scale}",
            f"sweep.statistics = {', '.join(self.statistics)}",
        ]
        if self.temperature is not None:
            lines.append(f"sweep.temperature = {self.temperature!r}")
        return "\n".join(lines) + "\n"

    def keys(self) -> list[tuple[str, int]]:
        """One key per sweep point, (statistics, grid index), in CSV row order."""
        return [(stat, i) for stat in self.statistics for i in range(self.points)]

    def kelvin(self, x: float) -> float:
        """Absolute temperature of the row with control value x."""
        wbar = EPSILON ** (1.0 / 3.0) * OMEGA_R
        if self.statistics == ("fermi",):
            unit = HBAR * wbar * (6.0 * N_ATOMS) ** (1.0 / 3.0) / K_B
        else:
            unit = HBAR * wbar * (N_ATOMS / ZETA_3) ** (1.0 / 3.0) / K_B
        return unit * (x if self.axis == "temperature" else self.temperature)


def make_workload(name: str, seed: int) -> Workload:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
    rng = random.Random(f"{name}:{seed}")
    lo, hi = RANGES[name]
    points = POINTS[name]
    if name == "fermi_cold":
        # log grid: jitter by up to 5 % of a grid ratio at each end
        cell = (hi / lo) ** (1.0 / (points - 1))
        start = lo * cell ** (0.05 * rng.random())
        stop = hi / cell ** (0.05 * rng.random())
        return Workload(name, "temperature", ("fermi",), start, stop, points, "log", None, False)
    cell = (hi - lo) / (points - 1)
    start = lo + 0.05 * cell * rng.random()
    stop = hi - 0.05 * cell * rng.random()
    temperature = DSWEEP_T * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))
    return Workload(name, "detuning", ("fermi", "bose", "boltzmann"),
                    start, stop, points, "linear", temperature, True)


def boltzmann_length(T: float) -> float:
    """Exact L of the Boltzmann cloud, sqrt(k_B T / (M eps^2 omega_r^2))."""
    return math.sqrt(K_B * T / (MASS * EPSILON**2 * OMEGA_R**2))


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def failed_points(csv: bytes, wl: Workload, reference: bytes | None = None) -> tuple[set, float]:
    """Points of one run's CSV that break a correctness check.

    A point is keyed (statistics, grid index).  It fails if its row is
    missing or misplaced, non-finite, out of range, a Boltzmann L away from
    the closed form, or (with a reference) more than QUAD_REL_TOL from the
    reference row.  Returns the failed keys and the largest relative
    deviation from the reference (0.0 without one).
    """
    keys = wl.keys()
    lines = csv.decode("utf-8", errors="replace").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return set(keys), 0.0
    rows = lines[1:-1]
    ref_rows = reference.decode("utf-8").split("\n")[1:-1] if reference is not None else None
    grid = wl.grid()
    if len(rows) > len(keys) or (ref_rows is not None and len(ref_rows) != len(keys)):
        return set(keys), 0.0
    failed = set(keys[len(rows):])
    max_dev = 0.0
    for k, line in enumerate(rows):
        stat, i = keys[k]
        fields = line.split(",")
        try:
            x, L, t_d, v_g, trans = (float(v) for v in fields[1:])
        except ValueError:
            failed.add(keys[k])
            continue
        ok = (
            fields[0] == stat
            and _rel_dev(x, grid[i]) <= 1e-10
            and all(math.isfinite(v) for v in (x, L, t_d, v_g, trans))
            and 0.0 < trans <= 1.0
            and 0.0 < v_g <= C_LIGHT
            and L > 0.0
        )
        if ok and stat == "boltzmann":
            ok = _rel_dev(L, boltzmann_length(wl.kelvin(x))) <= QUAD_REL_TOL
        if ref_rows is not None:
            ref = ref_rows[k].split(",")
            dev = max(_rel_dev(a, float(b)) for a, b in zip((x, L, t_d, v_g, trans), ref[1:]))
            max_dev = max(max_dev, dev)
            ok = ok and ref[0] == stat and dev <= QUAD_REL_TOL
        if not ok:
            failed.add(keys[k])
    return failed, max_dev


def differing_points(csv: bytes, first: bytes, wl: Workload) -> set:
    """Points whose CSV line differs from the first run of the same seed."""
    keys = wl.keys()
    a, b = csv.split(b"\n")[1:], first.split(b"\n")[1:]
    if len(a) != len(b):
        return set(keys)
    return {key for key, la, lb in zip(keys, a, b) if la != lb}
