"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines
and the recorded convention constants.  The full-figure sweeps are shared
through session fixtures so the whole module stays well inside the
runtime budgets asserted in the individual tests.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.constants import c as c_light, hbar, k as k_B
from scipy.integrate import quad
from scipy.optimize import brentq

from slowlight.cli import parse_config, preset_text, run_sweep, write_csv
from slowlight.gas import (
    GasSpec,
    Statistics,
    TrapGeometry,
    ZETA_2,
    ZETA_3,
    char_scales,
    condensate_fraction,
    density,
    make_profile,
    solve_mu_fermi,
)
from slowlight.numerics import integrate_cylindrical
from slowlight.optics import (
    ProbeParams,
    delay_time,
    effective_group_velocity,
    effective_length,
    group_velocity_from_dispersion,
    group_velocity_local,
    polarizability,
    transmission,
    v_g_zero_T,
)

warnings.filterwarnings("ignore", message="detuning below")

MASS_NA = 3.81754e-26
LAMBDA_0 = 589e-9
OMEGA_0 = 2.0 * math.pi * c_light / LAMBDA_0
GAMMA = 2.0 * math.pi * 10.03e6


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def na_cloud():
    spec = GasSpec(Statistics.BOSE, 3.8e6, MASS_NA, 2.75e-9)
    trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)
    return spec, trap, char_scales(spec, trap)


@pytest.fixture(scope="module")
def fig1():
    config = parse_config(preset_text("fig1"))
    t0 = time.perf_counter()
    rows = run_sweep(config)
    return config, rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig2():
    config = parse_config(preset_text("fig2"))
    t0 = time.perf_counter()
    rows = run_sweep(config)
    return config, rows, time.perf_counter() - t0


def by_statistics(rows):
    out = {}
    for row in rows:
        out.setdefault(row.statistics, []).append(row)
    return out


def test_criterion_01_characteristic_scales(na_cloud):
    _, _, s = na_cloud
    t0 = time.perf_counter()
    spec = GasSpec(Statistics.BOSE, 3.8e6, MASS_NA, 2.75e-9)
    trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)
    computed = char_scales(spec, trap)
    elapsed = time.perf_counter() - t0
    expected = {"a_r": 2.52e-6, "a_ho": 3.03e-6, "R_B": 17.76e-6, "R_F": 50.04e-6}
    for name, value in expected.items():
        assert getattr(computed, name) == pytest.approx(value, rel=5e-3), name
    assert elapsed < 1.0
    report("criterion 1",
           f"a_r={computed.a_r*1e6:.3f}um a_ho={computed.a_ho*1e6:.3f}um "
           f"R_B={computed.R_B*1e6:.3f}um R_F={computed.R_F*1e6:.3f}um in {elapsed*1e3:.1f}ms")


def test_criterion_02_temperature_ratio(na_cloud):
    _, _, s = na_cloud
    expected = (6.0 * ZETA_3) ** (1.0 / 3.0)
    assert abs(s.T_F / s.T_c - expected) < 1e-6
    report("criterion 2", f"T_F/T_c = {s.T_F/s.T_c:.8f} = (6 zeta(3))^(1/3)")


def test_criterion_03_zero_T_pinhole_ratios(na_cloud):
    _, _, s = na_cloud

    def probe(radius):
        return ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, radius)

    fermi = (
        v_g_zero_T(Statistics.FERMI, s, probe(s.R_F))
        / v_g_zero_T(Statistics.FERMI, s, probe(1e-5 * s.R_F))
    )
    bose = (
        v_g_zero_T(Statistics.BOSE, s, probe(s.R_B))
        / v_g_zero_T(Statistics.BOSE, s, probe(1e-5 * s.R_B))
    )
    assert fermi == pytest.approx(3.0, abs=1e-9)
    assert bose == pytest.approx(2.5, abs=1e-9)
    report("criterion 3", f"pinhole ratios: Fermi {fermi:.12f}, Bose {bose:.12f}")


def test_criterion_04_atom_number_scaling(na_cloud):
    spec, trap, _ = na_cloud
    slopes = {}
    for stat, expected in ((Statistics.BOSE, -0.400), (Statistics.FERMI, -0.500)):
        logs_n, logs_v = [], []
        for n_atoms in np.geomspace(1e5, 1e8, 16):
            gspec = GasSpec(stat, float(n_atoms), spec.mass, spec.a_sc)
            s = char_scales(gspec, trap)
            radius = s.R_B if stat is Statistics.BOSE else s.R_F
            probe = ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, 0.5 * radius)
            logs_n.append(math.log(n_atoms))
            logs_v.append(math.log(v_g_zero_T(stat, s, probe)))
        slope = float(np.polyfit(logs_n, logs_v, 1)[0])
        assert abs(slope - expected) < 0.02
        slopes[stat.value] = slope
    report("criterion 4", f"log-log slopes: Bose {slopes['bose']:.4f}, Fermi {slopes['fermi']:.4f}")


def test_criterion_05_local_field_effect(na_cloud):
    spec, trap, s = na_cloud
    T = 0.2 * s.T_c
    on = effective_group_velocity(
        spec, trap, ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, 7.5e-6), T
    ).v_g_eff
    off = effective_group_velocity(
        spec, trap,
        ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, 7.5e-6, local_field_on=False), T,
    ).v_g_eff
    change = (off - on) / off
    assert 0.01 < change < 0.08
    report("criterion 5",
           f"local-field reduction of v_g_eff at 0.2 T_c: {change*100:.2f}% "
           f"(on {on:.2f} m/s, off {off:.2f} m/s)")


def test_criterion_06_normalization(na_cloud):
    spec, trap, s = na_cloud
    t0 = time.perf_counter()
    worst = 0.0
    for stat, unit in (
        (Statistics.FERMI, s.T_F),
        (Statistics.BOSE, s.T_c),
        (Statistics.BOLTZMANN, s.T_c),
    ):
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        for reduced in (0.2, 0.5, 0.9, 1.1, 2.0):
            prof = make_profile(gspec, trap, reduced * unit)
            total = integrate_cylindrical(
                prof.at, prof.r_cut, prof.z_cut, z_breakpoints=prof.z_breakpoints
            )
            deviation = abs(total / spec.n_atoms - 1.0)
            worst = max(worst, deviation)
            assert deviation < 1e-3, (stat, reduced)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion 6", f"15 normalizations, worst |dN/N| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_statistics_crossover(na_cloud):
    spec, trap, s = na_cloud
    fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
    cspec = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
    samples = [(0.0, 0.0), (0.3, 0.0), (0.7, 0.4), (1.2, 0.9), (0.1, 1.8)]
    worst_f = 0.0
    fprof = make_profile(fspec, trap, 3.0 * s.T_F)
    cprof_f = make_profile(cspec, trap, 3.0 * s.T_F)
    for u, w in samples:
        rho_f = fprof.at(u * s.R_F, w * s.R_F)
        rho_c = cprof_f.at(u * s.R_F, w * s.R_F)
        worst_f = max(worst_f, abs(rho_f / rho_c - 1.0))
    bprof = make_profile(spec, trap, 3.0 * s.T_c)
    cprof_b = make_profile(cspec, trap, 3.0 * s.T_c)
    worst_b = 0.0
    for u, w in samples:
        rho_b = bprof.at(u * s.R_B, w * s.R_B)
        rho_c = cprof_b.at(u * s.R_B, w * s.R_B)
        worst_b = max(worst_b, abs(rho_b / rho_c - 1.0))
    assert worst_f < 0.02 and worst_b < 0.02
    report("criterion 7",
           f"max |rho/rho_C - 1|: Fermi {worst_f*100:.2f}% at 3T_F, Bose {worst_b*100:.2f}% at 3T_c")


def test_criterion_08_oracle_equivalence(na_cloud):
    spec, trap, s = na_cloud
    # (a) special-function Fermi density vs direct momentum quadrature
    fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
    h_planck = 2.0 * math.pi * hbar
    points = [
        (0.15, 0.0, 0.0), (0.15, 0.4, 0.2), (0.3, 0.0, 0.0), (0.3, 0.5, 0.0),
        (0.3, 0.0, 1.5), (0.6, 0.0, 0.0), (0.6, 0.7, 0.7), (1.0, 0.3, 0.0),
        (1.5, 0.0, 0.0), (2.5, 0.5, 1.0),
    ]
    worst_a = 0.0
    for reduced, u, w in points:
        T = reduced * s.T_F
        mu = solve_mu_fermi(T, s)
        beta = 1.0 / (k_B * T)
        r, z = u * s.R_F, w * s.R_F
        V = trap.potential(spec.mass, r, z)
        p_top = math.sqrt(2.0 * spec.mass * (max(mu - V, 0.0) + 60.0 / beta))

        def integrand(p):
            arg = beta * (p * p / (2.0 * spec.mass) + V - mu)
            return p * p / (math.exp(min(arg, 700.0)) + 1.0)

        val, _ = quad(integrand, 0.0, p_top, epsabs=0.0, epsrel=1e-11, limit=400)
        oracle = 4.0 * math.pi * val / h_planck**3
        got = density(fspec, trap, T, r, z)
        worst_a = max(worst_a, abs(got / oracle - 1.0))
        assert got == pytest.approx(oracle, rel=1e-6), (reduced, u, w)

    # (b) zero-T condensate delay vs the column-density antiderivative
    probe = ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, 7.5e-6, local_field_on=False)
    numeric = delay_time(spec, trap, probe, 0.0)
    shape = 1.0 - (1.0 - (probe.pinhole_R / s.R_B) ** 2) ** 2.5
    closed = (
        2.0 * OMEGA_0 * polarizability(probe) * spec.n_atoms
        / (c_light * probe.delta * probe.pinhole_R**2) * shape
    )
    dev_b = abs(numeric / closed - 1.0)
    assert dev_b < 0.01

    # (c) dispersive-derivative group velocity vs the closed form
    probe10 = ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, 7.5e-6)
    rho_peak = make_profile(spec, trap, 0.0).peak()
    closed_v = group_velocity_local(rho_peak, probe10)
    deriv_v = group_velocity_from_dispersion(rho_peak, probe10)
    dev_c = abs(deriv_v / closed_v - 1.0)
    assert dev_c < 0.01
    report("criterion 8",
           f"(a) worst {worst_a:.2e} over 10 points; (b) delay dev {dev_b:.2e}; "
           f"(c) dispersion-route dev {dev_c:.2e}")


def test_criterion_09_figure_one_qualitative(na_cloud, fig1):
    spec, trap, s = na_cloud
    config, rows, _ = fig1
    grouped = by_statistics(rows)

    # (i) slope discontinuity at the condensation transition of the density
    # model: the fitted condensate fraction first turns positive at t*
    # (0.947 T_c here); the quotient ratio at exactly T_c is also recorded.
    tstar = brentq(
        lambda t: 1.0 - t**3 - s.eta * (ZETA_2 / ZETA_3) * t * t * (1.0 - t**3) ** 0.4,
        0.5, 1.0 - 1e-12,
    )
    probe = config.probe
    h = 0.01

    def v_at(t):
        return effective_group_velocity(spec, trap, probe, t * s.T_c).v_g_eff

    left = (v_at(tstar) - v_at(tstar - h)) / h
    right = (v_at(tstar + h) - v_at(tstar)) / h
    ratio_tstar = abs(left / right)
    assert ratio_tstar > 5.0
    ratio_tc = abs((v_at(1.0 + h) - v_at(1.0)) / (v_at(1.0) - v_at(1.0 - h)))

    # (ii) log v_g of the Fermi gas is close to linear below half T_F
    fermi_rows = [
        r for r in grouped["fermi"]
        if 0.1 <= r.x * s.T_c / s.T_F <= 0.5
    ]
    xs = np.array([r.x for r in fermi_rows])
    ys = np.log(np.array([r.v_g_mps for r in fermi_rows]))
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    r_squared = 1.0 - np.sum((ys - fitted) ** 2) / np.sum((ys - np.mean(ys)) ** 2)
    assert r_squared > 0.99

    # (iii) pointwise velocity ordering below T_c
    below = [i for i, r in enumerate(grouped["fermi"]) if r.x < 1.0]
    for i in below:
        vf = grouped["fermi"][i].v_g_mps
        vc = grouped["boltzmann"][i].v_g_mps
        vb = grouped["bose"][i].v_g_mps
        assert vf > vc > vb, grouped["fermi"][i].x
    report("criterion 9",
           f"kink ratio {ratio_tstar:.1f}x at t*={tstar:.4f} T_c "
           f"(at T_c itself: {ratio_tc:.1f}x); Fermi log fit R^2={r_squared:.5f}; "
           f"ordering holds at {len(below)} grid points")


def test_criterion_10_figure_two_qualitative(na_cloud, fig2):
    spec, trap, s = na_cloud
    _, rows, _ = fig2
    grouped = by_statistics(rows)
    for rf, rc, rb in zip(grouped["fermi"], grouped["boltzmann"], grouped["bose"]):
        assert rf.transmission > rc.transmission > rb.transmission, rf.x

    # deep near-resonant opacity of the Bose cloud
    T = 0.5 * s.T_c
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for dg in (1.0, 1.5, 2.0, 2.5):
            probe = ProbeParams(OMEGA_0, GAMMA, dg * GAMMA, 7.5e-6)
            value = transmission(spec, trap, probe, T)
            worst = max(worst, value)
            assert value < 0.05, dg
    report("criterion 10",
           f"transmission ordering holds at all {len(grouped['fermi'])} detunings; "
           f"Bose opaque below 3 gamma (max {worst:.4f})")


def test_criterion_11_convention_constants_recorded(na_cloud):
    # the zero-T closed forms carry twice the pipeline's L / t_d, exactly:
    # see the v_g_zero_T docstring for the algebra
    spec, trap, s = na_cloud
    constants = {}
    for stat, radius in ((Statistics.BOSE, s.R_B), (Statistics.FERMI, s.R_F)):
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        ratios = []
        for frac in (0.1, 0.3, 0.6, 1.0):
            probe = ProbeParams(
                OMEGA_0, GAMMA, 10.0 * GAMMA, frac * radius, local_field_on=False
            )
            v_pipe = effective_length(gspec, trap, 0.0) / delay_time(gspec, trap, probe, 0.0)
            ratios.append(v_g_zero_T(stat, s, probe) / v_pipe)
        for ratio in ratios:
            assert ratio == pytest.approx(2.0, rel=1e-9), stat
        constants[stat.value] = max(abs(r / 2.0 - 1.0) for r in ratios)
    report("criterion 11",
           "closed-form/pipeline constant is 2 (asserted to 1e-9): worst |r/2 - 1| "
           f"Bose {constants['bose']:.1e}, Fermi {constants['fermi']:.1e}")


def test_criterion_12_determinism_and_runtime(tmp_path, fig1, fig2):
    config, rows_first, seconds1 = fig1
    _, _, seconds2 = fig2
    rows_again = run_sweep(config, threads=1)
    rows_threaded = run_sweep(config, threads=4)
    paths = []
    for name, rows in (("a", rows_first), ("b", rows_again), ("c", rows_threaded)):
        path = tmp_path / f"fig1_{name}.csv"
        write_csv(rows, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    assert seconds1 + seconds2 < 300.0
    report("criterion 12",
           f"byte-identical CSV across reruns and 4 threads; "
           f"fig1 {seconds1:.1f}s + fig2 {seconds2:.1f}s < 300s")
