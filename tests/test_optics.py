"""Susceptibility, group velocity, delay, transmission, and zero-T forms."""

import importlib.util
import math
import sys
import threading
import warnings
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st
from scipy.constants import c as c_light, h, hbar, k as k_B

from slowlight import optics
from slowlight.cli import parse_config, preset_text
from slowlight.gas import (
    GasSpec, Statistics, TrapGeometry, char_scales, density, make_profile, mu_bose,
)
from slowlight.numerics import DEFAULT_TOL, NumericTolerances, integrate_cylindrical
from slowlight.optics import (
    LocalFieldPoleError,
    PinholeError,
    ProbeParams,
    ZeroDetuningError,
    delay_time,
    effective_group_velocity,
    effective_length,
    group_velocity_from_dispersion,
    group_velocity_local,
    polarizability,
    susceptibility,
    transmission,
    v_g_zero_T,
    _delay_of_profile,
    _pinhole_integral,
    _transmission_of_profile,
)

MASS_NA = 3.81754e-26
LAMBDA_0 = 589e-9
OMEGA_0 = 2.0 * math.pi * c_light / LAMBDA_0
GAMMA = 2.0 * math.pi * 10.03e6


def na_probe(delta_gamma=10.0, pinhole=7.5e-6, local_field=True):
    return ProbeParams(
        omega_0=OMEGA_0, gamma=GAMMA, delta=delta_gamma * GAMMA,
        pinhole_R=pinhole, local_field_on=local_field,
    )


@pytest.fixture(scope="module")
def na_cloud():
    spec = GasSpec(Statistics.BOSE, 3.8e6, MASS_NA, 2.75e-9)
    trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)
    return spec, trap, char_scales(spec, trap)


class UniformBall:
    """Stub profile: uniform density inside the scaled ball r^2 + eps^2 z^2 <= S^2.

    The delay and the transmission integrate over shells of the scaled
    radius, so a stub density must depend on (r, eps z) through that radius
    alone; the surface is flagged as tf_radius, which puts the jump on a
    panel edge."""

    def __init__(self, rho, S, epsilon=1.0 / 3.0):
        self.rho = rho
        self.trap = TrapGeometry(2.0 * math.pi * 69.0, epsilon)
        self.tf_radius = S
        self.z_cut = 1.001 * S / epsilon

    def at(self, r, z):
        inside = r * r + (self.trap.epsilon * z) ** 2 <= self.tf_radius**2
        return self.rho if inside else 0.0

    def at_radius(self, s):
        return self.at(s, 0.0)

    def peak(self):
        return self.rho


class TestPolarizability:
    def test_reference_value(self):
        probe = na_probe()
        alpha = polarizability(probe)
        k_l = OMEGA_0 / c_light
        two_level = 3.0 * GAMMA / (4.0 * k_l**3 * probe.delta)
        assert alpha == pytest.approx(two_level, rel=1e-12, abs=0.0)
        assert alpha == pytest.approx(6.18e-23, rel=2e-3, abs=0.0)

    def test_vanishes_at_large_detuning(self):
        assert polarizability(na_probe(1e6)) < 1e-27

    def test_sign_follows_detuning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert polarizability(na_probe(-10.0)) < 0.0
        assert polarizability(na_probe(10.0)) > 0.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ZeroDetuningError):
            ProbeParams(OMEGA_0, GAMMA, 0.0, 7.5e-6)

    @pytest.mark.parametrize("field", ["omega_0", "gamma", "delta", "pinhole_R"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, field, bad):
        fields = dict(omega_0=OMEGA_0, gamma=GAMMA, delta=10.0 * GAMMA, pinhole_R=7.5e-6)
        fields[field] = bad
        with pytest.raises(ValueError, match=field):
            ProbeParams(**fields)

    def test_near_resonance_warns(self):
        with pytest.warns(UserWarning):
            na_probe(2.0)

    @pytest.mark.parametrize("flag", ["off", "False", 0, 1, None])
    def test_local_field_flag_must_be_a_bool(self, flag):
        # a truthy "off" would turn the local field on
        with pytest.raises(ValueError, match="local_field_on"):
            ProbeParams(OMEGA_0, GAMMA, 10.0 * GAMMA, 7.5e-6, local_field_on=flag)


class TestSusceptibility:
    def test_zero_density(self):
        chi = susceptibility(0.0, na_probe())
        assert chi.chi_re == 0.0 and chi.chi_abs == 0.0

    def test_low_density_limit_no_local_field(self):
        probe = na_probe(1000.0, local_field=False)
        rho = 1e18
        chi = susceptibility(rho, probe)
        alpha_rho = polarizability(probe) * rho
        # g = gamma/(2 delta) is tiny: chi' -> alpha rho, chi'' -> 0
        assert chi.chi_re == pytest.approx(alpha_rho, rel=1e-6)
        assert chi.chi_abs < 1e-3 * abs(chi.chi_re)

    def test_absorptive_part_nonnegative_both_signs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for dg in (10.0, -10.0):
                chi = susceptibility(1e20, na_probe(dg))
                assert chi.chi_abs >= 0.0
                assert math.copysign(1.0, chi.chi_re) == math.copysign(1.0, dg)

    def test_local_field_raises_response(self):
        rho = 1.3e20
        with_lf = susceptibility(rho, na_probe())
        without = susceptibility(rho, na_probe(local_field=False))
        assert with_lf.chi_re > without.chi_re


class TestGroupVelocityLocal:
    def test_vacuum_is_c(self):
        assert group_velocity_local(0.0, na_probe()) == pytest.approx(c_light, rel=1e-15, abs=0.0)

    def test_monotone_decreasing_in_density(self):
        probe = na_probe()
        velocities = [group_velocity_local(rho, probe) for rho in (0.0, 1e19, 5e19, 1.3e20)]
        assert all(a > b for a, b in zip(velocities, velocities[1:]))
        assert velocities[-1] > 0.0
        assert velocities[0] <= c_light

    def test_closed_form_value(self):
        probe = na_probe()
        rho = 1.35e20
        x = 4.0 * math.pi * polarizability(probe) * rho / 3.0
        expected = c_light / (
            1.0 + 2.0 * math.pi * OMEGA_0 * polarizability(probe) * rho
            / (probe.delta * (1.0 - x) ** 2)
        )
        assert group_velocity_local(rho, probe) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_dispersion_route_agrees_with_closed_form(self):
        probe = na_probe()
        for rho in (1e19, 1.35e20):
            closed = group_velocity_local(rho, probe)
            derivative = group_velocity_from_dispersion(rho, probe)
            assert derivative == pytest.approx(closed, rel=1e-2)


class TestEffectiveLength:
    def test_bose_zero_T(self, na_cloud):
        spec, trap, s = na_cloud
        expected = s.R_B / (math.sqrt(7.0) * trap.epsilon)
        assert effective_length(spec, trap, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_fermi_zero_T(self, na_cloud):
        spec, trap, s = na_cloud
        fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        expected = s.R_F / (2.0 * math.sqrt(2.0) * trap.epsilon)
        assert effective_length(fspec, trap, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_boltzmann_gaussian_moment(self, na_cloud):
        spec, trap, s = na_cloud
        cspec = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
        T = 0.8 * s.T_c
        expected = math.sqrt(k_B * T / (spec.mass * trap.epsilon**2 * trap.omega_r**2))
        assert effective_length(cspec, trap, T) == pytest.approx(expected, rel=1e-6)


class TestDelayTime:
    def test_vacuum_zero_delay(self):
        ball = UniformBall(0.0, 30e-6)
        assert _delay_of_profile(ball, na_probe(), DEFAULT_TOL) == 0.0

    def test_homogeneous_slab_closed_form(self):
        # the ball holds (4 pi / 3)[S^3 - (S^2 - R^2)^(3/2)] / eps of volume
        # inside the pinhole cylinder; pinholes narrower and wider than S
        rho0, S = 5e19, 25e-6
        ball = UniformBall(rho0, S)
        for R in (7.5e-6, 40e-6):
            probe = na_probe(pinhole=R)
            got = _delay_of_profile(ball, probe, DEFAULT_TOL)
            excess = 1.0 / group_velocity_local(rho0, probe) - 1.0 / c_light
            volume = (4.0 * math.pi / 3.0) * (S**3 - max(S * S - R * R, 0.0) ** 1.5)
            expected = excess * volume / (ball.trap.epsilon * math.pi * R * R)
            assert got == pytest.approx(expected, rel=1e-8, abs=0.0)
        # a dilute ball, where 1/v_g - 1/c would round to a staircase: the
        # excess slowness K rho0 / D^2 holds to rounding
        rho0, R = 1e4, 7.5e-6
        ball = UniformBall(rho0, S)
        probe = na_probe(pinhole=R)
        alpha = polarizability(probe)
        K = 2.0 * math.pi * OMEGA_0 * alpha / (probe.delta * c_light)
        D = 1.0 - (4.0 * math.pi / 3.0) * alpha * rho0
        volume = (4.0 * math.pi / 3.0) * (S**3 - (S * S - R * R) ** 1.5)
        expected = K * rho0 / D**2 * volume / (ball.trap.epsilon * math.pi * R * R)
        got = _delay_of_profile(ball, probe, DEFAULT_TOL)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_T_bose_column_antiderivative(self, na_cloud):
        # pinhole-averaged condensate column has the closed form
        # t_d = (2 w0 a N / (c D R^2)) (1 - [1-(R/R_B)^2]^(5/2))
        spec, trap, s = na_cloud
        probe = na_probe(local_field=False)
        got = delay_time(spec, trap, probe, 0.0)
        alpha = polarizability(probe)
        shape = 1.0 - (1.0 - (probe.pinhole_R / s.R_B) ** 2) ** 2.5
        expected = (
            2.0 * OMEGA_0 * alpha * spec.n_atoms
            / (c_light * probe.delta * probe.pinhole_R**2) * shape
        )
        assert got == pytest.approx(expected, rel=1e-2)

    @pytest.mark.parametrize("stat,reduced", [
        (Statistics.FERMI, 0.3), (Statistics.BOSE, 0.5), (Statistics.BOSE, 1.5),
        (Statistics.BOLTZMANN, 1.0),
    ])
    def test_linear_delay_matches_quadrature(self, na_cloud, stat, reduced):
        # local field off: the closed-form column route against the
        # quadrature of the excess slowness it replaces
        spec, trap, s = na_cloud
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        T = reduced * (s.T_F if stat is Statistics.FERMI else s.T_c)
        probe = na_probe(local_field=False)
        prof = make_profile(gspec, trap, T)
        R = probe.pinhole_R
        oracle = integrate_cylindrical(
            lambda r, z: 1.0 / group_velocity_local(prof.at(r, z), probe) - 1.0 / c_light,
            R, prof.z_cut, z_breakpoints=prof.z_breakpoints,
        ) / (math.pi * R * R)
        assert delay_time(gspec, trap, probe, T) == pytest.approx(oracle, rel=1e-8, abs=0.0)

    def test_saturated_bose_on_axis_cusp(self, na_cloud):
        # between t* = 0.947 T_c and T_c the Bose cloud has no condensate and
        # g_{3/2}(e^{-v}) has a cusp on the plane z = 0; a 2 um pinhole makes
        # the columns near the axis feel it, and the z integral from -z_max
        # used to raise NonConvergenceError there
        spec, trap, s = na_cloud
        T = 0.97 * s.T_c
        probe = na_probe(pinhole=2e-6)
        prof = make_profile(spec, trap, T)
        assert prof.tf_radius == 0.0
        R = probe.pinhole_R
        column = integrate_cylindrical(prof.at, R, prof.z_cut, z_breakpoints=prof.z_breakpoints)
        assert column == pytest.approx(prof.pinhole_column(R), rel=1e-10)
        linear = delay_time(spec, trap, na_probe(pinhole=2e-6, local_field=False), T)
        # the local field adds 0.3 per cent at this density
        assert 1.0 < delay_time(spec, trap, probe, T) / linear < 1.01

    def test_local_field_pole_rejected_before_integrating(self, na_cloud):
        # (4 pi / 3) alpha rho(0, 0) = 1.52 for N = 3e9 at 3 gamma, 0.5 T_c
        spec, trap, _ = na_cloud
        dense = GasSpec(Statistics.BOSE, 3e9, spec.mass, spec.a_sc)
        T = 0.5 * char_scales(dense, trap).T_c
        with pytest.raises(LocalFieldPoleError, match=r"x_peak .* = 1\.522\d* >= 1.*gas\.atom_count"):
            delay_time(dense, trap, na_probe(3.0), T)
        assert delay_time(dense, trap, na_probe(3.0, local_field=False), T) > 0.0
        probe = na_probe()
        rho_pole = 1.0 / ((4.0 * math.pi / 3.0) * polarizability(probe))
        with pytest.raises(LocalFieldPoleError):
            _delay_of_profile(UniformBall(1.01 * rho_pole, 25e-6), probe, DEFAULT_TOL)
        ball = UniformBall(0.99 * rho_pole, 25e-6)
        assert _delay_of_profile(ball, probe, DEFAULT_TOL) > 0.0

    def test_pinhole_wider_than_condensate(self, na_cloud):
        # N = 1.84e5 at 0.0372 T_c: R_c = 10.05 um inside a 38.3 um pinhole.
        # The nested (r, z) quadrature raised NonConvergenceError here: in the
        # outer columns 1/v_g - 1/c rounds to a staircase.  scipy's quad of
        # the shell integral at 1e-13 gives this value to 4e-16
        spec, trap, _ = na_cloud
        small = GasSpec(Statistics.BOSE, 1.84e5, spec.mass, spec.a_sc)
        T = 0.0372 * char_scales(small, trap).T_c
        assert make_profile(small, trap, T).tf_radius == pytest.approx(10.05e-6, rel=1e-3)
        t_d = delay_time(small, trap, na_probe(pinhole=38.3e-6), T)
        assert t_d == pytest.approx(2.6518553992899665e-10, rel=1e-8, abs=0.0)
        linear = delay_time(small, trap, na_probe(pinhole=38.3e-6, local_field=False), T)
        # x_peak = 0.0094: the local field adds about one per cent
        assert 1.0 < t_d / linear < 1.02

    def test_delay_positive_for_blue_detuning(self, na_cloud):
        spec, trap, s = na_cloud
        assert delay_time(spec, trap, na_probe(), 0.5 * s.T_c) > 0.0


class TestTransmission:
    def test_vacuum_fully_transparent(self):
        ball = UniformBall(0.0, 30e-6)
        assert _transmission_of_profile(ball, na_probe(), 50e-6, DEFAULT_TOL) == 1.0

    def test_far_detuning_approaches_unity(self, na_cloud):
        spec, trap, s = na_cloud
        assert transmission(spec, trap, na_probe(2000.0), 0.5 * s.T_c) > 0.999

    def test_bounded_in_unit_interval(self, na_cloud):
        spec, trap, s = na_cloud
        for dg in (5.0, 10.0):
            t = transmission(spec, trap, na_probe(dg), 0.5 * s.T_c)
            assert 0.0 < t <= 1.0

    def test_statistics_ordering_at_half_tc(self, na_cloud):
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        values = {}
        for stat in Statistics:
            gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
            values[stat] = transmission(gspec, trap, na_probe(6.0), T)
        assert values[Statistics.FERMI] > values[Statistics.BOLTZMANN] > values[Statistics.BOSE]

    def test_monotone_in_detuning_all_statistics(self, na_cloud):
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        for stat in Statistics:
            gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
            L = effective_length(gspec, trap, T)
            got = [
                transmission(gspec, trap, na_probe(dg), T, L=L)
                for dg in (3.0, 5.0, 10.0, 30.0, 100.0)
            ]
            assert all(a < b for a, b in zip(got, got[1:])), stat

    @pytest.mark.parametrize("L", [-1e-5, 0.0, math.nan, math.inf])
    def test_window_length_must_be_finite_and_positive(self, na_cloud, L):
        # a negative L gave a transmission above 1, and L = 0 gave exactly 1
        spec, trap, s = na_cloud
        with pytest.raises(ValueError, match=r"\bL must be finite and positive"):
            transmission(spec, trap, na_probe(), 0.5 * s.T_c, L=L)


class TestShellIntegral:
    """The shell route of the local-field delay and the transmission against
    the nested (r, z) quadrature, run ten times tighter."""

    ORACLE_TOL = NumericTolerances(rel_tol_quadrature=1e-9)
    # no shrinking: a failure would otherwise search for minutes
    ORACLE_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)

    @staticmethod
    def profile(na_cloud, stat, reduced):
        spec, trap, s = na_cloud
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        return make_profile(gspec, trap, reduced * (s.T_F if stat is Statistics.FERMI else s.T_c))

    @given(
        stat=st.sampled_from(list(Statistics)),
        reduced=st.one_of(st.just(0.0), st.floats(0.02, 2.0)),
        pinhole=st.floats(1e-6, 50e-6),
        delta_gamma=st.floats(3.0, 20.0),
    )
    @example(stat=Statistics.BOSE, reduced=0.5, pinhole=5e-6, delta_gamma=6.0)   # inside R_c
    @example(stat=Statistics.BOSE, reduced=0.5, pinhole=30e-6, delta_gamma=6.0)  # wider than R_c
    @example(stat=Statistics.BOSE, reduced=0.0, pinhole=30e-6, delta_gamma=3.0)
    @example(stat=Statistics.BOSE, reduced=0.97, pinhole=2e-6, delta_gamma=10.0)  # on-axis cusp
    @example(stat=Statistics.BOSE, reduced=1.5, pinhole=10e-6, delta_gamma=10.0)
    @example(stat=Statistics.FERMI, reduced=0.0, pinhole=10e-6, delta_gamma=3.0)
    # pinholes wide against a cold cloud: the nested route raised, and so did
    # the far shells when they had to meet the tolerance on their own
    @example(stat=Statistics.BOLTZMANN, reduced=0.02, pinhole=28.9e-6, delta_gamma=18.8)
    @example(stat=Statistics.BOSE, reduced=0.0285, pinhole=33.4e-6, delta_gamma=8.3)
    @settings(max_examples=20, deadline=None, phases=ORACLE_PHASES)
    def test_matches_cylindrical_oracle(self, na_cloud, stat, reduced, pinhole, delta_gamma):
        assume(reduced > 0.0 or stat is not Statistics.BOLTZMANN)
        prof = self.profile(na_cloud, stat, reduced)
        probe = na_probe(delta_gamma, pinhole)
        alpha = polarizability(probe)
        assume((4.0 * math.pi / 3.0) * alpha * prof.peak() < 1.0)
        R = probe.pinhole_R
        L = math.sqrt(prof.axial_moment() / prof.spec.n_atoms)

        def oracle(f, z_max):
            return integrate_cylindrical(
                lambda r, z: f(prof.at(r, z)), R, z_max, self.ORACLE_TOL,
                z_breakpoints=prof.z_breakpoints, r_breakpoints=(prof.tf_radius,),
            ) / (math.pi * R * R)

        # 1/v_g - 1/c written without the difference, which rounds to a
        # staircase where rho is tiny and stalls the columns of a pinhole
        # far wider than the cloud
        t_d = oracle(
            lambda rho: 2.0 * math.pi * OMEGA_0 * alpha * rho
            / (probe.delta * c_light * (1.0 - (4.0 * math.pi / 3.0) * alpha * rho) ** 2),
            prof.z_cut,
        )
        assert _delay_of_profile(prof, probe, DEFAULT_TOL) == pytest.approx(t_d, rel=1e-8, abs=0.0)
        alpha_T = -2.0 * OMEGA_0 / c_light * oracle(
            lambda rho: susceptibility(rho, probe).chi_abs, min(0.5 * L, prof.z_cut))
        got = math.log(_transmission_of_profile(prof, probe, L, DEFAULT_TOL))
        assert got == pytest.approx(alpha_T, rel=1e-8)

    @pytest.mark.parametrize("stat", list(Statistics))
    @pytest.mark.parametrize("local_field,ratio", [(False, 1e-5), (False, 3.5e-7),
                                                   (True, 2e-6), (True, 2.2e-7)])
    def test_pinhole_far_narrower_than_the_window(self, na_cloud, stat, local_field, ratio):
        # R / W <= 1e-5, W the window: the overlap s - t cancelled for t >> R and
        # the quadrature raised NonConvergenceError, or missed the turn of the
        # weight at t ~ R and was silently off
        prof = self.profile(na_cloud, stat, 0.5)
        L = math.sqrt(prof.axial_moment() / prof.spec.n_atoms)
        z_max = prof.z_cut if local_field else min(0.5 * L, prof.z_cut)
        probe = na_probe(10.0, ratio * prof.trap.epsilon * z_max, local_field)
        R, alpha = probe.pinhole_R, polarizability(probe)
        if local_field:
            got = _delay_of_profile(prof, probe, DEFAULT_TOL)
            F = lambda rho: 2.0 * math.pi * OMEGA_0 * alpha * rho / (
                probe.delta * c_light * (1.0 - (4.0 * math.pi / 3.0) * alpha * rho) ** 2)
        else:
            got = math.log(_transmission_of_profile(prof, probe, L, DEFAULT_TOL))
            F = lambda rho: -2.0 * OMEGA_0 / c_light * susceptibility(rho, probe).chi_abs
        oracle = integrate_cylindrical(
            lambda r, z: F(prof.at(r, z)), R, z_max, NumericTolerances(1e-10),
            z_breakpoints=prof.z_breakpoints, r_breakpoints=(prof.tf_radius,),
        ) / (math.pi * R * R)
        assert got == pytest.approx(oracle, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("stat,reduced", [
        (Statistics.FERMI, 0.0), (Statistics.FERMI, 0.3), (Statistics.BOSE, 0.0),
        (Statistics.BOSE, 0.5), (Statistics.BOSE, 0.97), (Statistics.BOSE, 1.5),
        (Statistics.BOLTZMANN, 1.0),
    ])
    @pytest.mark.parametrize("pinhole", [2e-6, 7.5e-6, 30e-6])
    def test_density_gives_pinhole_column(self, na_cloud, stat, reduced, pinhole):
        prof = self.profile(na_cloud, stat, reduced)
        W = prof.trap.epsilon * prof.z_cut
        column = _pinhole_integral(lambda rho: rho, prof, pinhole, W, DEFAULT_TOL)
        assert column == pytest.approx(prof.pinhole_column(pinhole), rel=1e-10)

    @pytest.mark.parametrize("stat", list(Statistics))
    @pytest.mark.parametrize("reduced", [0.5, 1.5])
    @pytest.mark.parametrize("ratio", [1e-3, 1e-5, 1e-7])
    def test_narrow_pinhole_column(self, na_cloud, stat, reduced, ratio):
        # the difference f_3(zeta) - f_3(zeta e^{-a R^2}) alone lost about
        # log10(1 / (a R^2)) digits: 3.1e-4 off for Fermi at 1.5 T_F, R / W = 1e-7
        prof = self.profile(na_cloud, stat, reduced)
        W = prof.trap.epsilon * prof.z_cut
        R = ratio * W
        column = _pinhole_integral(lambda rho: rho, prof, R, W,
                                   NumericTolerances(rel_tol_quadrature=1e-10))
        assert prof.pinhole_column(R) == pytest.approx(column, rel=1e-10, abs=0.0)


def mp_pinhole_mean(F, rho, eps, R, W, s_end, breaks=()):
    """The pinhole mean (1 / pi R^2) int F(rho) dV over r < R, |eps z| < W,
    from the sphere caps that each shell |s| = s of the scaled coordinates
    keeps inside that region,

        (4 pi / eps) int_0^s_end s max(0, min(s, W) - sqrt(max(s^2 - R^2, 0))) F(rho(s)) ds,

    a geometry independent of the substitution s = sqrt(R^2 + t^2) that
    _pinhole_integral makes.  mpmath.quad stops at an absolute error of
    eps / 8, so it runs in y = s / R with F scaled by its value on the axis,
    where the integrand is of order one and not of order 1e-15 as in SI."""
    F0 = F(rho(mp.mpf(0)))

    def shell(y):
        cap = min(y, W / R) - mp.sqrt(max(y * y - 1, 0))
        return y * max(cap, 0) * F(rho(R * y)) / F0

    # the cap's kinks: s = W, s = R and s = sqrt(R^2 + W^2), where it closes
    kinks = (W, R, mp.sqrt(R * R + W * W), *breaks)
    edges = sorted({0, s_end, *(e for e in kinks if e < s_end)})
    return 4 * R * F0 / eps * mp.quad(shell, [e / R for e in edges])


def mp_observables(rho, eps, L, delta_gamma, pinhole, s_end, breaks=()):
    """(t_d, ln transmission) in mpmath for the density rho(s): the excess
    slowness K rho / (1 - b rho)^2 averaged over the whole column, and the
    absorbance over the central +-L/2 window."""
    R, c = mp.mpf(pinhole), mp.mpf(c_light)
    omega_0, gamma = mp.mpf(OMEGA_0), mp.mpf(GAMMA)
    delta = delta_gamma * gamma
    alpha = 3 * gamma / (4 * (omega_0 / c) ** 3 * delta)
    b = 4 * mp.pi / 3 * alpha
    K = 2 * mp.pi * omega_0 * alpha / (delta * c)
    g = gamma / (2 * delta)
    t_d = mp_pinhole_mean(lambda n: K * n / (1 - b * n) ** 2, rho, eps, R, mp.inf, s_end, breaks)
    ln_T = -2 * omega_0 / c * mp_pinhole_mean(
        lambda n: alpha * n * g / ((1 - b * n) ** 2 + g * g), rho, eps, R, eps * L / 2, s_end, breaks)
    return t_d, ln_T


class TestZeroTemperatureMpmathOracle:
    """The local-field t_d and ln(transmission) of T = 0 clouds against mpmath
    (mp_pinhole_mean).  The density, alpha and L are written out from the
    zero-temperature closed forms, not taken from the program."""

    @pytest.mark.parametrize("stat,n_atoms,delta_gamma,pinhole", [
        (Statistics.BOSE, 3.8e6, 10.0, 7.5e-6),
        (Statistics.FERMI, 3.8e6, 10.0, 7.5e-6),
        (Statistics.BOSE, 3.8e8, 3.0, 7.5e-6),   # x_peak = 0.735: a strong local field
        (Statistics.FERMI, 1e9, 3.0, 30e-6),
    ])
    def test_delay_and_transmission(self, na_cloud, stat, n_atoms, delta_gamma, pinhole):
        spec, trap, _ = na_cloud
        gspec = GasSpec(stat, n_atoms, spec.mass, spec.a_sc)
        s = char_scales(gspec, trap)
        got = effective_group_velocity(gspec, trap, na_probe(delta_gamma, pinhole), 0.0)

        with mp.workdps(20):
            eps = mp.mpf(trap.epsilon)
            if stat is Statistics.BOSE:
                R_c, power = mp.mpf(s.R_B), 1
                amp = 15 * n_atoms * eps / (8 * mp.pi * R_c**5)
                L = R_c / (mp.sqrt(7) * eps)
            else:
                R_c, power = mp.mpf(s.R_F), mp.mpf(1.5)
                amp = 8 * n_atoms * eps / (mp.pi**2 * R_c**6)
                L = R_c / (mp.sqrt(8) * eps)
            # s = R y rounds past R_c at the last node
            t_d, ln_T = mp_observables(lambda x: amp * max(R_c**2 - x * x, 0) ** power,
                                       eps, L, delta_gamma, pinhole, R_c)
        assert got.t_d == pytest.approx(float(t_d), rel=1e-9, abs=0.0)
        assert math.log(got.transmission) == pytest.approx(float(ln_T), rel=1e-9, abs=0.0)


def mp_fd_hurwitz(s, x):
    """f_s(e^x) = -Li_s(-e^x) for half-integer s from the Hurwitz-zeta form
    Li_s(-e^x) = 2 (2 pi)^(s-1) Gamma(1-s) Re[e^(i pi (1-s)/2) zeta(1-s, 1/2 - i x/2pi)],
    which holds for every real x, as in test_numerics.mp_fd_three_halves."""
    a = mp.mpf(0.5) - 1j * mp.mpf(x) / (2 * mp.pi)
    return -2 * (2 * mp.pi) ** (s - 1) * mp.gamma(1 - s) * mp.re(
        mp.expjpi((1 - s) / 2) * mp.zeta(1 - s, a))


@lru_cache(maxsize=None)
def mp_fd_three_halves_piece(k, digits):
    """(c, h, coefficients) of the k-th piece [c - h, c + h] of
    mp_fd_three_halves_core: the Taylor series of f_{3/2}(e^x) about c, whose
    coefficients are f_{3/2-m}(e^c) / m!.  The pieces start at -ln 2 and
    join end to end.  The series has radius |c + i pi|, the distance to the
    poles of f at x = +-i pi, and each piece reaches half as far,
    h = |c + i pi| / 2, so on the piece the terms fall about twofold per
    order.  Cached per working precision: the clouds of a test run share
    the pieces."""
    lo = -mp.ln2 if k == 0 else sum(mp_fd_three_halves_piece(k - 1, digits)[:2])
    with mp.workdps(digits + 10):
        # h = |lo + h + i pi| / 2 solved for h
        h = (lo + mp.sqrt(4 * lo * lo + 3 * mp.pi**2)) / 3
        c, tiny = lo + h, mp.mpf(10) ** -digits
        coeffs, terms = [], []  # terms: the largest |d_m (x - c)^m| on the piece
        while len(terms) < 3 or max(terms[-2:]) > tiny * terms[0]:
            m = len(coeffs)
            coeffs.append(mp_fd_hurwitz(mp.mpf(1.5) - m, c) / mp.factorial(m))
            terms.append(abs(coeffs[-1]) * h**m)
    return c, h, [+d for d in reversed(coeffs)]


def mp_fd_three_halves_core(x_top):
    """f_{3/2}(e^x) = -Li_{3/2}(-e^x) on -ln 2 <= x <= x_top, where
    mpmath.polylog costs 30-120 ms a call, as the Taylor series of the
    pieces of mp_fd_three_halves_piece that cover that range."""
    pieces = [mp_fd_three_halves_piece(0, mp.mp.dps)]
    while sum(pieces[-1][:2]) < x_top:
        pieces.append(mp_fd_three_halves_piece(len(pieces), mp.mp.dps))

    def core(x):
        c, _, coeffs = next(p for p in pieces if x <= p[0] + p[1])
        return mp.polyval(coeffs, x - c)
    return core


def mp_thermal_cloud(stat, n_atoms, a_sc, trap, T):
    """(rho, L, s_end, R_c) of a T > 0 cloud of sodium atoms in mpmath,
    independent of the program.

    The density is the thermal ladder rho = f(a s^2) / lambda_T^3 of the
    scaled radius s, a = M omega_r^2 / 2 k_B T, plus the Thomas-Fermi
    condensate (mu - V)/U for Bose below T_c, which ends at R_c (0 without
    one).  The scales, the chemical potential or fugacity (solved from the
    normalization with mp.findroot) and L = [(1/N) int z^2 rho dV]^(1/2) are
    computed here.  f is the fugacity times e^-v for Boltzmann and otherwise
    mpmath.polylog of order 3/2, except in the core of the Fermi cloud,
    x > -ln 2, where it is mp_fd_three_halves_core.  rho is below e^-60 of
    its peak beyond s_end."""
    N, M = mp.mpf(n_atoms), mp.mpf(MASS_NA)
    eps, omega_r, kT = mp.mpf(trap.epsilon), mp.mpf(trap.omega_r), k_B * mp.mpf(T)
    wbar = eps ** (mp.mpf(1) / 3) * omega_r
    t = kT / (hbar * wbar * mp.cbrt(N / mp.zeta(3)))  # T / T_c
    a = M * omega_r**2 / (2 * kT)
    lam3 = (h / mp.sqrt(2 * mp.pi * M * kT)) ** 3
    # N = int rho dV = (k_B T / hbar wbar)^3 f_3(zeta) for every ladder
    target = N * (hbar * wbar / kT) ** 3
    x_top, R_c, amp, kappa = mp.mpf(0), mp.mpf(0), 0, 1
    if stat is Statistics.FERMI:
        x_top = mp.findroot(lambda x: -mp.polylog(3, -mp.exp(x)) - target, mp.cbrt(6 * target))
        core = mp_fd_three_halves_core(x_top) if x_top > -mp.ln2 else None

        def ladder(v):
            x = x_top - v
            return -mp.polylog(1.5, -mp.exp(x)) if x <= -mp.ln2 else core(x)
    elif stat is Statistics.BOLTZMANN:
        def ladder(v):
            return target * mp.exp(-v)
    else:
        fugacity = 1
        if t > 1:
            fugacity = mp.findroot(lambda u: mp.polylog(3, u) - target, 0.3)
        else:
            # the interacting condensate fraction and mu = mu_TF (N_0/N)^(2/5)
            a_ho = mp.sqrt(hbar / (M * wbar))
            eta = mp.cbrt(mp.zeta(3)) / 2 * (15 * mp.root(N, 6) * a_sc / a_ho) ** 0.4
            frac = 1 - t**3 - eta * mp.zeta(2) / mp.zeta(3) * t**2 * (1 - t**3) ** 0.4
            mu = eta * kT / t * frac**0.4
            kappa = (1 - frac) / t**3
            R_c = mp.sqrt(2 * mu / (M * omega_r**2))
            amp = M**2 * omega_r**2 / (8 * mp.pi * hbar**2 * a_sc)

        def ladder(v):
            return kappa * mp.re(mp.polylog(1.5, fugacity * mp.exp(-v)))

    # observables at other detunings integrate over the same nodes
    memo = {}

    def rho(s):
        n = memo.get(s)
        if n is None:
            n = memo[s] = ladder(a * s * s) / lam3
        return n + amp * (R_c**2 - s * s) if s < R_c else n

    s_end = mp.sqrt((60 + max(x_top, 0)) / a)
    rho_0 = rho(mp.mpf(0))
    L = mp.sqrt(4 * mp.pi * s_end**5 * rho_0 / (3 * eps**3 * N) * mp.quad(
        lambda y: y**4 * rho(s_end * y) / rho_0, [0, R_c / s_end, 1]))
    return rho, L, s_end, R_c


class TestThermalMpmathOracle:
    """The local-field t_d and ln(transmission) of T > 0 clouds against mpmath
    (mp_thermal_cloud and mp_observables), one temperature below and one
    above T_c per statistics.  The t_d window is unbounded: the program cuts
    at r_cut, where the density is below e^-32 of its peak, and the oracle at
    e^-60."""

    @pytest.mark.parametrize("stat,n_atoms,reduced,delta_gamma,pinhole", [
        (Statistics.BOSE, 3.8e8, 0.5, 3.0, 7.5e-6),       # x_peak = 0.65
        (Statistics.BOSE, 3.8e6, 1.5, 10.0, 7.5e-6),
        (Statistics.FERMI, 1e9, 0.8, 3.0, 30e-6),
        (Statistics.FERMI, 3.8e6, 1.5, 10.0, 7.5e-6),
        (Statistics.BOLTZMANN, 1e10, 0.5, 3.0, 7.5e-6),   # x_peak = 0.61
        (Statistics.BOLTZMANN, 3.8e6, 1.5, 10.0, 7.5e-6),
    ])
    def test_delay_and_transmission(self, na_cloud, stat, n_atoms, reduced, delta_gamma, pinhole):
        spec, trap, _ = na_cloud
        gspec = GasSpec(stat, n_atoms, spec.mass, spec.a_sc)
        T = reduced * char_scales(gspec, trap).T_c
        got = effective_group_velocity(gspec, trap, na_probe(delta_gamma, pinhole), T)

        with mp.workdps(20):
            rho, L, s_end, R_c = mp_thermal_cloud(stat, n_atoms, spec.a_sc, trap, T)
            t_d, ln_T = mp_observables(rho, mp.mpf(trap.epsilon), L, delta_gamma, pinhole,
                                       s_end, (R_c,))
        assert got.L == pytest.approx(float(L), rel=1e-9, abs=0.0)
        assert got.t_d == pytest.approx(float(t_d), rel=1e-9, abs=0.0)
        assert math.log(got.transmission) == pytest.approx(float(ln_T), rel=1e-9, abs=0.0)


def benchmark_workload(name):
    """The benchmark's seed-0 workload and its checked-in CSV rows.

    perfbench/workloads.py is loaded from its file under a name of its own;
    the test reads it and perfbench/reference/ and writes nothing there."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        loader = importlib.util.spec_from_file_location("perfbench_workloads",
                                                        bench / "workloads.py")
        module = importlib.util.module_from_spec(loader)
        sys.modules[loader.name] = module  # dataclass reads its own module
        loader.loader.exec_module(module)
    wl = module.make_workload(name, 0)
    # the cloud and probe the oracles below take, as the run reads them
    config = wl.config_text().splitlines()
    for line in (f"gas.atom_count = {3.8e6!r}", f"gas.mass = {MASS_NA!r}",
                 "gas.scattering_length = 2.75 nm", f"trap.frequency_hz = {69.0!r}",
                 "trap.epsilon = 1/3", "probe.wavelength = 589 nm",
                 "probe.linewidth_hz = 10.03e6", "probe.detuning_gamma = 10",
                 "probe.pinhole_radius = 7.5 um"):
        assert line in config, line
    lines = (bench / "reference" / f"{name}.csv").read_text().splitlines()
    assert lines[0] == module.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], i % wl.points) for i, r in enumerate(rows)] == wl.keys()
    xs = wl.grid() * len(wl.statistics)
    for row, x in zip(rows, xs):  # x is printed to 12 digits
        assert float(row[1]) == pytest.approx(x, rel=1e-11, abs=0.0)
    return wl, [(r[0], x, *map(float, r[2:])) for r, x in zip(rows, xs)]


class TestBenchmarkReferenceOracle:
    """The rows in perfbench/reference/, rebuilt from the seed-0 workloads of
    perfbench/workloads.py, against mpmath: the program wrote them, so they
    hold it to the oracles of this file, not only to itself."""

    def test_dsweep_rows(self):
        # the local field is on: t_d and ln(transmission) from mp_observables
        # on the densities of mp_thermal_cloud, the first and last detuning
        # of each statistics; L at every row.  At 15 digits the oracle is
        # within 1e-15 of its 20-digit values and takes half the time.
        wl, rows = benchmark_workload("dsweep")
        trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)
        for stat in wl.statistics:
            mine = [r for r in rows if r[0] == stat]
            with mp.workdps(15):
                rho, L, s_end, R_c = mp_thermal_cloud(
                    Statistics(stat), 3.8e6, 2.75e-9, trap, wl.kelvin(mine[0][1]))
                expected = [mp_observables(rho, mp.mpf(trap.epsilon), L, row[1], 7.5e-6, s_end,
                                           (R_c,)) for row in (mine[0], mine[-1])]
            for _, _, L_m, _, _, _ in mine:
                assert L_m == pytest.approx(float(L), rel=1e-9, abs=0.0), stat
            for row, (t_d, ln_T) in zip((mine[0], mine[-1]), expected):
                assert row[3] == pytest.approx(float(t_d), rel=1e-9, abs=0.0), (stat, row[1])
                assert math.log(row[5]) == pytest.approx(float(ln_T), rel=1e-9, abs=0.0), (
                    stat, row[1])

    def test_fermi_cold_rows(self):
        # the local field is off, so t_d is K times the pinhole column over
        # pi R^2, and both observables are closed forms in f_n(zeta) =
        # -Li_n(-zeta): with a = M omega_r^2 / 2 k_B T,
        #   L^2 = f_4(zeta) / (2 a eps^2 f_3(zeta)),
        #   column = (pi/a)^(3/2) [f_3(zeta) - f_3(zeta e^{-a R^2})] / (eps lambda_T^3),
        # and ln zeta = mp.findroot of N = (k_B T / hbar wbar)^3 f_3(zeta)
        wl, rows = benchmark_workload("fermi_cold")
        assert len(rows) == 6 and not wl.local_field
        with mp.workdps(30):
            N, M, R = mp.mpf(3.8e6), mp.mpf(MASS_NA), mp.mpf(7.5e-6)
            eps, omega_r = mp.mpf(1) / 3, 2 * mp.pi * 69
            wbar = mp.cbrt(eps) * omega_r
            c, omega_0, gamma = mp.mpf(c_light), 2 * mp.pi * c_light / mp.mpf(LAMBDA_0), mp.mpf(GAMMA)
            delta = 10 * gamma
            alpha = 3 * gamma / (4 * (omega_0 / c) ** 3 * delta)
            K = 2 * mp.pi * omega_0 * alpha / (delta * c)

            def f(n, x):
                return -mp.polylog(n, -mp.exp(x))

            for _, x, L_m, t_d, _, _ in rows:
                kT = k_B * mp.mpf(wl.kelvin(x))
                target = N * (hbar * wbar / kT) ** 3
                x_top = mp.findroot(lambda u: f(3, u) - target, mp.cbrt(6 * target))
                a = M * omega_r**2 / (2 * kT)
                lam3 = (h / mp.sqrt(2 * mp.pi * M * kT)) ** 3
                L = mp.sqrt(f(4, x_top) / (2 * a * eps**2 * f(3, x_top)))
                column = (mp.pi / a) ** 1.5 * (f(3, x_top) - f(3, x_top - a * R * R)) / (eps * lam3)
                assert L_m == pytest.approx(float(L), rel=1e-9, abs=0.0), x
                assert t_d == pytest.approx(float(K * column / (mp.pi * R * R)), rel=1e-9,
                                            abs=0.0), x


def preset_reference(name):
    """The preset's config and the rows of tests/reference/<name>.csv, with the
    control value x of each row from the preset's grid (the CSV prints it to
    12 digits).  The cloud and probe are those of the oracles above."""
    config = parse_config(preset_text(name))
    gas, probe = config.gas, config.probe
    assert (gas.n_atoms, gas.mass, gas.a_sc) == pytest.approx((3.8e6, MASS_NA, 2.75e-9), rel=1e-15)
    assert (probe.omega_0, probe.gamma) == pytest.approx((OMEGA_0, GAMMA), rel=1e-15)
    assert probe.local_field_on
    reference = Path(__file__).resolve().parent / "reference" / f"{name}.csv"
    lines = reference.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    xs = config.sweep.grid() * len(config.sweep.statistics_list)
    assert [r[0] for r in rows] == [s.value for s in config.sweep.statistics_list
                                    for _ in range(config.sweep.points)]
    for row, x in zip(rows, xs):
        assert float(row[1]) == pytest.approx(x, rel=1e-11, abs=0.0)
    return config, [(Statistics(r[0]), x, *map(float, r[2:])) for r, x in zip(rows, xs)]


def check_rows_against_oracle(config, rows, T, delta_gammas):
    """L, t_d and ln(transmission) of rows of one statistics at temperature T
    against mp_observables on mp_thermal_cloud, at the detunings given."""
    trap, stat = config.trap, rows[0][0]
    with mp.workdps(15):
        rho, L, s_end, R_c = mp_thermal_cloud(stat, config.gas.n_atoms, config.gas.a_sc, trap, T)
        expected = [mp_observables(rho, mp.mpf(trap.epsilon), L, delta_gamma,
                                   config.probe.pinhole_R, s_end, (R_c,))
                    for delta_gamma in delta_gammas]
    for (_, x, L_m, t_d, _, trans), (t_d_mp, ln_T) in zip(rows, expected):
        assert L_m == pytest.approx(float(L), rel=1e-9, abs=0.0), (stat, x)
        assert t_d == pytest.approx(float(t_d_mp), rel=1e-9, abs=0.0), (stat, x)
        assert math.log(trans) == pytest.approx(float(ln_T), rel=1e-9, abs=0.0), (stat, x)


class TestPresetReferenceOracle:
    """Rows of tests/reference/fig1.csv and fig2.csv, which TestPresetReference
    holds the run to byte for byte, against mpmath, as TestBenchmarkReferenceOracle
    does for the benchmark's rows.  At 15 digits the oracle takes about a
    second per cloud."""

    def test_fig2_rows(self):
        # T = T_c / 2: the lowest, middle and highest detuning of each statistics
        config, rows = preset_reference("fig2")
        T = config.sweep.temperature * config.scales.T_c
        for stat in config.sweep.statistics_list:
            mine = [r for r in rows if r[0] is stat]
            picked = [mine[0], mine[len(mine) // 2], mine[-1]]
            check_rows_against_oracle(config, picked, T, [r[1] for r in picked])

    def test_fig1_rows(self):
        # the lowest and highest T of Bose and Boltzmann.  Fermi rows 0, 10,
        # 11 and 63, at beta mu = 19.2, 4.13, 3.74 and -1.88: the coldest
        # density, through the fit's pieces on [6, 20], [2, 6] and
        # [ln 1/2, 2] and the power series, two through the last two pieces
        # and the series, and one through the series alone
        config, rows = preset_reference("fig1")
        T_c, points = config.scales.T_c, config.sweep.points
        picked = {Statistics.FERMI: (0, 10, 11, points - 1),
                  Statistics.BOSE: (0, points - 1), Statistics.BOLTZMANN: (0, points - 1)}
        for stat, indices in picked.items():
            mine = [r for r in rows if r[0] is stat]
            for i in indices:
                check_rows_against_oracle(config, [mine[i]], mine[i][1] * T_c,
                                          [config.probe.delta / config.probe.gamma])


class TestEffectiveGroupVelocity:
    def test_bundle_consistency(self, na_cloud):
        spec, trap, s = na_cloud
        probe = na_probe()
        T = 0.5 * s.T_c
        res = effective_group_velocity(spec, trap, probe, T)
        assert res.L == pytest.approx(effective_length(spec, trap, T), rel=1e-9, abs=0.0)
        assert res.t_d == pytest.approx(delay_time(spec, trap, probe, T), rel=1e-9, abs=0.0)
        # slow-light regime: L / t_d to parts in 1e6
        assert res.v_g_eff == pytest.approx(res.L / res.t_d, rel=1e-5)
        assert res.v_g_eff <= c_light
        assert 0.0 < res.transmission <= 1.0

    def test_bose_far_below_transition(self, na_cloud):
        # beta mu exceeds 709 here, where e^{beta mu} overflows a float
        spec, trap, s = na_cloud
        T = 1e-4 * s.T_c
        assert mu_bose(T, s).fugacity == 1.0
        res = effective_group_velocity(spec, trap, na_probe(), T)
        assert all(math.isfinite(v) for v in (res.L, res.t_d, res.v_g_eff, res.transmission))

    def test_pinhole_as_wide_as_the_cloud_refused(self, na_cloud):
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        r_cut = make_profile(spec, trap, T).r_cut
        with pytest.raises(PinholeError, match=r"probe\.pinhole_radius: .* r_cut"):
            effective_group_velocity(spec, trap, na_probe(pinhole=r_cut), T)

    @pytest.mark.parametrize("observable", [delay_time, transmission, effective_group_velocity])
    @pytest.mark.parametrize("pinhole", ["r_cut", 1e-3])
    def test_every_observable_refuses_a_pinhole_wider_than_the_cloud(
        self, na_cloud, observable, pinhole
    ):
        # the fig1 Fermi cloud at 0.1 T_c, whose cut-off radius is 0.40 mm
        spec, trap, s = na_cloud
        fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        T = 0.1 * s.T_c
        r_cut = make_profile(fspec, trap, T).r_cut
        assert r_cut == pytest.approx(0.40e-3, rel=0.01)
        R = r_cut if pinhole == "r_cut" else pinhole
        with pytest.raises(PinholeError, match=r"probe\.pinhole_radius: .* r_cut"):
            observable(fspec, trap, na_probe(pinhole=R), T)

    def test_velocity_ordering_below_tc(self, na_cloud):
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        got = {}
        for stat in Statistics:
            gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
            got[stat] = effective_group_velocity(gspec, trap, na_probe(), T).v_g_eff
        assert got[Statistics.FERMI] > got[Statistics.BOLTZMANN] > got[Statistics.BOSE]

    def test_local_field_toggle_strictly_slows(self, na_cloud):
        spec, trap, s = na_cloud
        changes = []
        for T in (0.2 * s.T_c, 0.5 * s.T_c):
            von = effective_group_velocity(spec, trap, na_probe(), T).v_g_eff
            voff = effective_group_velocity(spec, trap, na_probe(local_field=False), T).v_g_eff
            assert von < voff
            changes.append((voff - von) / voff)
        # larger peak density (lower T) gives the larger shift
        assert changes[0] > changes[1] > 0.0

    @pytest.mark.parametrize("local_field", [True, False])
    def test_response_bound_once_per_probe(self, na_cloud, monkeypatch, local_field):
        # alpha is computed per probe, not at every node of the quadratures
        spec, trap, s = na_cloud
        calls = []
        real = optics.polarizability
        monkeypatch.setattr(optics, "polarizability",
                            lambda probe: calls.append(probe) or real(probe))
        effective_group_velocity(spec, trap, na_probe(local_field=local_field), 0.5 * s.T_c)
        assert 0 < len(calls) <= 3


class TestSharedProfile:
    def test_threads_sharing_a_profile_get_the_serial_rows(self, na_cloud):
        # the shell memo is a plain dict: threads that miss on one radius at
        # once each store the same float, so no row depends on the interleaving
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        probes = [na_probe(delta_gamma=d) for d in (3.0, 5.0, 8.0, 13.0, 20.0)]
        make_profile.cache_clear()
        serial = [effective_group_velocity(spec, trap, p, T) for p in probes]
        make_profile.cache_clear()
        rows = {}

        def sweep(k):
            order = probes[k:] + probes[:k]
            rows[k] = [effective_group_velocity(spec, trap, p, T) for p in order]

        workers = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for k in range(4):
            assert rows[k] == serial[k:] + serial[:k]


    def test_density_and_the_observables_share_one_profile(self, na_cloud):
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        make_profile.cache_clear()
        rho = density(spec, trap, T, 0.0, 0.0)
        delay_time(spec, trap, na_probe(), T)
        assert make_profile.cache_info().misses == 1
        prof = make_profile(spec, trap, T, DEFAULT_TOL)
        assert make_profile.cache_info().currsize == 1
        # the one profile keeps the shells that delay_time integrated over
        assert prof._shells and prof.at(0.0, 0.0) == rho


class TestZeroTemperatureClosedForms:
    def test_fermi_pinhole_ratio_is_three(self, na_cloud):
        _, _, s = na_cloud
        wide = v_g_zero_T(Statistics.FERMI, s, na_probe(pinhole=s.R_F))
        narrow = v_g_zero_T(Statistics.FERMI, s, na_probe(pinhole=1e-5 * s.R_F))
        assert wide / narrow == pytest.approx(3.0, abs=1e-9)

    def test_bose_pinhole_ratio_is_five_halves(self, na_cloud):
        _, _, s = na_cloud
        wide = v_g_zero_T(Statistics.BOSE, s, na_probe(pinhole=s.R_B))
        narrow = v_g_zero_T(Statistics.BOSE, s, na_probe(pinhole=1e-5 * s.R_B))
        assert wide / narrow == pytest.approx(2.5, abs=1e-9)

    def test_pinhole_exceeding_cloud_rejected(self, na_cloud):
        _, _, s = na_cloud
        with pytest.raises(PinholeError):
            v_g_zero_T(Statistics.BOSE, s, na_probe(pinhole=1.05 * s.R_B))

    def test_atom_number_scaling(self, na_cloud):
        # pinhole tied to the cloud radius: v ~ N^(-2/5) Bose, N^(-1/2) Fermi
        spec, trap, _ = na_cloud
        import numpy as np

        for stat, expected in ((Statistics.BOSE, -0.4), (Statistics.FERMI, -0.5)):
            logs_n, logs_v = [], []
            for n_atoms in np.geomspace(1e5, 1e8, 13):
                gspec = GasSpec(stat, float(n_atoms), spec.mass, spec.a_sc)
                s = char_scales(gspec, trap)
                radius = s.R_B if stat is Statistics.BOSE else s.R_F
                v = v_g_zero_T(stat, s, na_probe(pinhole=0.5 * radius))
                logs_n.append(math.log(n_atoms))
                logs_v.append(math.log(v))
            slope = np.polyfit(logs_n, logs_v, 1)[0]
            assert slope == pytest.approx(expected, abs=0.02)

    def test_pipeline_shape_matches_closed_form(self, na_cloud):
        # ratio pipeline/closed-form is R-independent; its value is a
        # convention constant (recorded, not asserted)
        spec, trap, s = na_cloud
        ratios = []
        for frac in (0.1, 0.3, 0.6, 1.0):
            probe = na_probe(pinhole=frac * s.R_B, local_field=False)
            L = effective_length(spec, trap, 0.0)
            t_d = delay_time(spec, trap, probe, 0.0)
            ratios.append((L / t_d) / v_g_zero_T(Statistics.BOSE, s, probe))
        mean = sum(ratios) / len(ratios)
        assert max(abs(r / mean - 1.0) for r in ratios) < 0.01
