"""Susceptibility, group velocity, delay, transmission, and zero-T forms."""

import importlib.util
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st
from scipy.constants import c as c_light, h, hbar, k as k_B
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.signal import convolve
from scipy.special import erf

from slowlight import numerics, optics
from slowlight.cli import parse_config, preset_text
from slowlight.gas import (
    GasSpec, Statistics, TrapGeometry, UnsupportedStatisticsError, char_scales, density,
    make_profile, mu_bose,
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

    def pinhole_column(self, R):
        # the ball's (4 pi / 3)[S^3 - (S^2 - R^2)^(3/2)] / eps of volume inside
        # the cylinder r < R
        S = self.tf_radius
        cap = max(S * S - R * R, 0.0) ** 1.5
        return self.rho * (4.0 * math.pi / 3.0) * (S**3 - cap) / self.trap.epsilon


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

    @pytest.mark.parametrize("field,message", [
        ("omega_0", "omega_0 and gamma must be positive"),
        ("gamma", "omega_0 and gamma must be positive"),
        ("pinhole_R", "pinhole radius must be positive"),
    ])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_rejected_by_rule(self, field, message, bad):
        fields = dict(omega_0=OMEGA_0, gamma=GAMMA, delta=10.0 * GAMMA, pinhole_R=7.5e-6)
        fields[field] = bad
        with pytest.raises(ValueError, match=message):
            ProbeParams(**fields)

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

    @pytest.mark.parametrize("rho", [-1e20, -5e-324, math.nan, math.inf])
    def test_negative_or_nan_density_refused(self, rho):
        # NaN once passed the check rho < 0 and came back as (nan, nan), and
        # so did inf, with the local field on and off
        message = re.escape(f"density must be finite and nonnegative, got rho={rho}")
        with pytest.raises(ValueError, match=message):
            susceptibility(rho, na_probe(local_field=False))
        with pytest.raises(ValueError, match=message):
            susceptibility(rho, na_probe())

    def test_resonant_denominator_underflow(self):
        # g = gamma / (2 Delta) = 5e-161, and rho one ulp from the pole makes
        # 1 - (4 pi / 3) alpha rho exactly 0: the denominator is g^2, below 1e-300
        probe = ProbeParams(OMEGA_0, GAMMA, 1e160 * GAMMA, 7.5e-6)
        alpha, factor = polarizability(probe), 4.0 * math.pi / 3.0
        rho = 1.0 / (factor * alpha)
        while 1.0 - factor * (alpha * rho) > 0.0:
            rho = math.nextafter(rho, math.inf)
        assert 1.0 - factor * (alpha * rho) == 0.0
        with pytest.raises(ZeroDivisionError, match="resonant denominator underflow"):
            susceptibility(rho, probe)


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

    @pytest.mark.parametrize("rho", [1e15, 1e19, 1.35e20])
    @pytest.mark.parametrize("delta_gamma", [3.0, -3.0, 5.0, -5.0, 10.0, -10.0, 20.0, -20.0])
    def test_dispersion_route_keeps_its_linear_identity(self, delta_gamma, rho):
        # with the local field off chi' = alpha rho / (1 + g^2) is linear in rho,
        # and c/v_g - 1 of the route over that of the closed form is exact in g
        # and Delta / omega_0; a difference in omega = omega_0 + Delta, rounded
        # to omega_0's ulp, once missed it by 5.8e-5
        probe = na_probe(delta_gamma, local_field=False)
        g = probe.gamma / (2.0 * probe.delta)
        expected = (1.0 - g * g) / (1.0 + g * g) ** 2 + (probe.delta / OMEGA_0) / (1.0 + g * g)
        slowness_ratio = ((c_light / group_velocity_from_dispersion(rho, probe) - 1.0)
                          / (c_light / group_velocity_local(rho, probe) - 1.0))
        assert slowness_ratio == pytest.approx(expected, rel=1e-8, abs=0.0)

    def test_dispersion_route_at_three_gamma_builds_no_nearer_probe(self):
        # under the suite's filter a probe below 3 gamma fails here; the route
        # once took chi' at Delta - h, nearer resonance than the probe given
        probe = na_probe(3.0)
        closed = group_velocity_local(1e19, probe)
        assert group_velocity_from_dispersion(1e19, probe) == pytest.approx(closed, rel=0.1)

    @pytest.mark.parametrize("rho", [-1e20, math.nan, math.inf])
    def test_density_must_be_finite_and_nonnegative(self, rho):
        # -1e20 once gave -1601.6 m/s, and NaN gave NaN
        with pytest.raises(ValueError, match=re.escape(f"finite and nonnegative, got rho={rho}")):
            group_velocity_local(rho, na_probe())

    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_density_past_the_local_field_pole_refused(self, x):
        # b rho = 2 once gave 19.69 m/s, where delay_time refuses the cloud
        probe = na_probe()
        b = 4.0 * math.pi / 3.0 * polarizability(probe)
        rho = x / b
        while b * rho < 1.0:
            rho = math.nextafter(rho, math.inf)
        with pytest.raises(LocalFieldPoleError, match="local-field pole"):
            group_velocity_local(rho, probe)
        # with the local field off the same density has no pole
        assert 0.0 < group_velocity_local(rho, na_probe(local_field=False)) < c_light


class TestEffectiveLength:
    def test_bose_zero_T(self, na_cloud):
        spec, trap, s = na_cloud
        expected = s.R_B / (math.sqrt(7.0) * trap.epsilon)
        assert effective_length(spec, trap, 0.0) == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_fermi_zero_T(self, na_cloud):
        spec, trap, s = na_cloud
        fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        expected = s.R_F / (2.0 * math.sqrt(2.0) * trap.epsilon)
        assert effective_length(fspec, trap, 0.0) == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_boltzmann_gaussian_moment(self, na_cloud):
        spec, trap, s = na_cloud
        cspec = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
        T = 0.8 * s.T_c
        expected = math.sqrt(k_B * T / (spec.mass * trap.epsilon**2 * trap.omega_r**2))
        assert effective_length(cspec, trap, T) == pytest.approx(expected, rel=1e-6, abs=0.0)


class TestDelayTime:
    def test_vacuum_zero_delay(self):
        ball = UniformBall(0.0, 30e-6)
        assert _delay_of_profile(ball, na_probe(), DEFAULT_TOL) == 0.0
        # x_peak = 2.6e-322: the remainder's tolerance 1e-8 / |x_peak (2 - x_peak)|
        # overflowed to inf, which the tolerance record refuses
        assert _delay_of_profile(UniformBall(1e-300, 30e-6), na_probe(), DEFAULT_TOL) == 0.0

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

    @pytest.mark.parametrize("stat,n_atoms,delta_gamma,x_peak", [
        # one ulp past x = -1: a remainder tolerance taken from the bound
        # |x| (2 + |x|) / (1 - |x|)^2 is 1.6e-40 here, and the quadrature
        # raised NonConvergenceError
        (Statistics.BOLTZMANN, 2.6900903623426212e10, -3.0, -1.0000000000000002),
        (Statistics.BOSE, 3e9, -3.0, -1.5222274417142538),
        (Statistics.BOLTZMANN, 2.5e10, 3.0, 0.9640211675606849),
    ])
    def test_local_field_remainder_meets_the_tolerance(self, na_cloud, stat, n_atoms, delta_gamma,
                                                       x_peak):
        # t_d is K times the pinhole column plus the local-field remainder,
        # integrated to rel_tol / |x_peak (2 - x_peak)|: the sum meets
        # rel_tol at both signs of the detuning
        spec, trap, _ = na_cloud
        gspec = GasSpec(stat, n_atoms, spec.mass, spec.a_sc)
        T = 0.5 * char_scales(gspec, trap).T_c
        probe = na_probe(delta_gamma)
        prof = make_profile(gspec, trap, T)
        alpha = polarizability(probe)
        b = (4.0 * math.pi / 3.0) * alpha
        assert b * prof.peak() == pytest.approx(x_peak, rel=1e-12, abs=0.0)
        K = 2.0 * math.pi * OMEGA_0 * alpha / (probe.delta * c_light)
        R = probe.pinhole_R
        oracle = integrate_cylindrical(
            lambda r, z: K * prof.at(r, z) / (1.0 - b * prof.at(r, z)) ** 2,
            R, prof.z_cut, 1e-10,
            z_breakpoints=prof.z_breakpoints, r_breakpoints=(prof.tf_radius,),
        ) / (math.pi * R * R)
        assert delay_time(gspec, trap, probe, T) == pytest.approx(oracle, rel=1e-8, abs=0.0)

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

    ORACLE_REL_TOL = 1e-9
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
    # the condensate surface meets the transmission window's edge at r = 13.3 um,
    # inside the pinhole: without that breakpoint the oracle was 1.8e-8 off
    @example(stat=Statistics.BOSE, reduced=0.7413598396624249, pinhole=3.1751080107591054e-05,
             delta_gamma=6.0)
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
            # the column kinks at the condensate edge and, for a window shorter
            # than the condensate, where its surface meets the window's edge
            edge, window = prof.tf_radius, prof.trap.epsilon * z_max
            meet = math.sqrt(edge * edge - window * window) if window < edge else 0.0
            return integrate_cylindrical(
                lambda r, z: f(prof.at(r, z)), R, z_max, self.ORACLE_REL_TOL,
                z_breakpoints=prof.z_breakpoints, r_breakpoints=(edge, meet),
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
            lambda r, z: F(prof.at(r, z)), R, z_max, 1e-10,
            z_breakpoints=prof.z_breakpoints, r_breakpoints=(prof.tf_radius,),
        ) / (math.pi * R * R)
        assert got == pytest.approx(oracle, rel=1e-8, abs=0.0)

    def test_remainder_panels_fit_the_cloud(self, monkeypatch):
        # fig1's first Fermi row, 0.1 T_c with the preset probe: the window W is
        # 53 pinhole radii and the density ends within about 7, so the far end
        # is cut in halves at t = W / 2^k, where bisection took 11 panels
        config = parse_config(preset_text("fig1"))
        spec = config.gas._replace(statistics=Statistics.FERMI)
        prof = make_profile(spec, config.trap, 0.1 * config.temperature_unit)
        panels = []
        qk21 = numerics._qk21
        monkeypatch.setattr(numerics, "_qk21", lambda f, a, b: panels.append(a) or qk21(f, a, b))
        _delay_of_profile(prof, config.probe, DEFAULT_TOL)
        assert 0 < len(panels) <= 8

    @pytest.mark.parametrize("stat,reduced", [
        (Statistics.FERMI, 0.0), (Statistics.FERMI, 0.3), (Statistics.BOSE, 0.0),
        (Statistics.BOSE, 0.5), (Statistics.BOSE, 0.97), (Statistics.BOSE, 1.5),
        (Statistics.BOLTZMANN, 1.0),
    ])
    @pytest.mark.parametrize("pinhole", [2e-6, 7.5e-6, 30e-6])
    def test_density_gives_pinhole_column(self, na_cloud, stat, reduced, pinhole):
        prof = self.profile(na_cloud, stat, reduced)
        W = prof.trap.epsilon * prof.z_cut
        column = _pinhole_integral(lambda rho: rho, prof, pinhole, W,
                                   DEFAULT_TOL.rel_tol_quadrature)
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
        column = _pinhole_integral(lambda rho: rho, prof, R, W, 1e-10)
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


@lru_cache(maxsize=None)
def mp_bose_three_halves_coefficients(digits):
    """The coefficients zeta(3/2 - k) (-1)^k / k!, highest k first, of
    Robinson's expansion

        g_{3/2}(e^-u) = Gamma(-1/2) u^(1/2) + sum_k zeta(3/2 - k) (-u)^k / k!,

    which converges for u < 2 pi, up to the first k past 3 whose term at
    u = pi is below 10^-(digits + 5).  Cached per working precision."""
    with mp.workdps(digits + 10):
        coeffs, tiny = [], mp.mpf(10) ** -(digits + 5)
        while len(coeffs) < 4 or abs(coeffs[-1]) * mp.pi ** (len(coeffs) - 1) > tiny:
            k = len(coeffs)
            coeffs.append(mp.zeta(mp.mpf(1.5) - k) * (-1) ** k / mp.factorial(k))
    return coeffs[::-1]


def mp_bose_three_halves(u):
    """g_{3/2}(e^-u) = Li_{3/2}(e^-u) for u >= 0: Robinson's expansion below
    u = pi, where mpmath.polylog takes 2-10 ms a call, and mpmath.polylog
    above.  The sum is taken at 10 guard digits: at u = pi its two parts
    cancel to a hundredth."""
    if u >= mp.pi:
        return mp.re(mp.polylog(1.5, mp.exp(-u)))
    coeffs = mp_bose_three_halves_coefficients(mp.mp.dps)
    with mp.workdps(mp.mp.dps + 10):
        return +(mp.gamma(-0.5) * mp.sqrt(u) + mp.polyval(coeffs, u))


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
    x > -ln 2, where it is mp_fd_three_halves_core, and for Bose, where it is
    mp_bose_three_halves.  rho is below e^-60 of
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
            # floored at 0, as gas.condensate_fraction is: just below T_c the
            # interaction shift leaves no condensate, and mu would turn complex
            frac = max(1 - t**3 - eta * mp.zeta(2) / mp.zeta(3) * t**2 * (1 - t**3) ** 0.4, 0)
            mu = eta * kT / t * frac**0.4
            kappa = (1 - frac) / t**3
            R_c = mp.sqrt(2 * mu / (M * omega_r**2))
            amp = M**2 * omega_r**2 / (8 * mp.pi * hbar**2 * a_sc)

        def ladder(v):
            return kappa * mp_bose_three_halves(v - mp.ln(fugacity))

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


class TestBoseThreeHalves:
    def test_robinson_expansion_is_polylog(self):
        # both sides of the switch at u = pi, the cusp at u = 0 and the
        # largest cancellation just below pi
        for digits in (15, 20):
            with mp.workdps(digits):
                for u in (0, mp.mpf("1e-6"), mp.mpf("0.3"), 1, 3, mp.pi * (1 - mp.eps), mp.pi, 5):
                    want = mp.polylog(1.5, mp.exp(-u))
                    assert abs(mp_bose_three_halves(mp.mpf(u)) / want - 1) < 10 ** (2 - digits), u


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


def run_kelvin(wl, x):
    """The temperature of the row with control value x as the run takes it
    from the workload's config: x, or sweep.temperature, times the run's
    temperature unit.  wl.kelvin rounds hbar to ten digits, 6e-10 off."""
    config = parse_config(wl.config_text())
    reduced = x if config.sweep.axis == "temperature" else config.sweep.temperature
    return reduced * config.temperature_unit


class TestBenchmarkReferenceOracle:
    """The rows in perfbench/reference/, rebuilt from the seed-0 workloads of
    perfbench/workloads.py, against mpmath: the program wrote them, so they
    hold it to the oracles of this file, not only to itself."""

    def test_dsweep_rows(self):
        # the local field is on: L, t_d and ln(transmission) of every row,
        # from mp_observables on the densities of mp_thermal_cloud, which the
        # detunings of one statistics share.  At 15 digits the oracle is
        # within 1e-15 of its 20-digit values and takes half the time.
        wl, rows = benchmark_workload("dsweep")
        trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)
        for stat in wl.statistics:
            mine = [r for r in rows if r[0] == stat]
            with mp.workdps(15):
                rho, L, s_end, R_c = mp_thermal_cloud(
                    Statistics(stat), 3.8e6, 2.75e-9, trap, run_kelvin(wl, mine[0][1]))
                expected = [mp_observables(rho, mp.mpf(trap.epsilon), L, row[1], 7.5e-6, s_end,
                                           (R_c,)) for row in mine]
            for _, _, L_m, _, _, _ in mine:
                assert L_m == pytest.approx(float(L), rel=1e-9, abs=0.0), stat
            for row, (t_d, ln_T) in zip(mine, expected):
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
                kT = k_B * mp.mpf(run_kelvin(wl, x))
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
    assert (gas.n_atoms, gas.mass, gas.a_sc) == pytest.approx((3.8e6, MASS_NA, 2.75e-9),
                                                              rel=1e-15, abs=0.0)
    assert (probe.omega_0, probe.gamma) == pytest.approx((OMEGA_0, GAMMA), rel=1e-15, abs=0.0)
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
    against mp_observables on mp_thermal_cloud, at the detunings given.  The
    float64 oracle of TestFloat64Oracle is held to the same mpmath values at
    1e-11 here, where mpmath reaches, before that test relies on it."""
    trap, stat = config.trap, rows[0][0]
    with mp.workdps(15):
        rho, L, s_end, R_c = mp_thermal_cloud(stat, config.gas.n_atoms, config.gas.a_sc, trap, T)
        expected = [mp_observables(rho, mp.mpf(trap.epsilon), L, delta_gamma,
                                   config.probe.pinhole_R, s_end, (R_c,))
                    for delta_gamma in delta_gammas]
    cloud = f64_cloud(stat, config.gas.n_atoms, config.gas.a_sc, trap, T)
    assert cloud.L == pytest.approx(float(L), rel=1e-11, abs=0.0), (stat, T)
    for (_, x, L_m, t_d, _, trans), (t_d_mp, ln_T) in zip(rows, expected):
        assert L_m == pytest.approx(float(L), rel=1e-9, abs=0.0), (stat, x)
        assert t_d == pytest.approx(float(t_d_mp), rel=1e-9, abs=0.0), (stat, x)
        assert math.log(trans) == pytest.approx(float(ln_T), rel=1e-9, abs=0.0), (stat, x)
    for delta_gamma, (t_d_mp, ln_T) in zip(delta_gammas, expected):
        f64 = f64_observables(cloud, trap.epsilon, delta_gamma, config.probe.pinhole_R)
        assert f64.t_d == pytest.approx(float(t_d_mp), rel=1e-11, abs=0.0), (stat, delta_gamma)
        assert f64.ln_T == pytest.approx(float(ln_T), rel=1e-11, abs=0.0), (stat, delta_gamma)


class TestPresetReferenceOracle:
    """Rows of tests/reference/fig1.csv and fig2.csv, which TestPresetReference
    holds the run to byte for byte, against mpmath, as TestBenchmarkReferenceOracle
    does for the benchmark's rows.  At 15 digits the oracle takes about a
    second per cloud."""

    def test_fig2_rows(self):
        # T = T_c / 2: every detuning of the condensed Bose and the degenerate
        # Fermi cloud, which no closed form reaches; the lowest, middle and
        # highest of Boltzmann, whose every row TestBoltzmannClosedForm checks
        config, rows = preset_reference("fig2")
        T = config.sweep.temperature * config.scales.T_c
        for stat in config.sweep.statistics_list:
            mine = [r for r in rows if r[0] is stat]
            picked = ([mine[0], mine[len(mine) // 2], mine[-1]]
                      if stat is Statistics.BOLTZMANN else mine)
            check_rows_against_oracle(config, picked, T, [r[1] for r in picked])

    def test_fig1_rows(self):
        # the lowest and highest T of Boltzmann.  Bose rows 0, 15, 28, 29 and
        # 63: 0.1, 0.552 (N_0/N = 0.73) and 0.944 T_c, the last row with a
        # condensate, then 0.975 T_c, saturated with none, and 2 T_c.  Fermi
        # rows 0, 10, 11, 22, 33 and 63, at beta mu = 19.2, 4.13, 3.74, 1.27,
        # 0.02 and -1.88: the coldest density, through the fit's pieces on
        # [6, 20], [2, 6] and [ln 1/2, 2] and the power series, two through
        # the last two pieces and the series, two through the last piece and
        # the series (row 33 is the last with beta mu > ln 0.95, which the
        # closed form of TestNondegenerateClosedForm leaves here), and one
        # through the series alone
        config, rows = preset_reference("fig1")
        T_c, points = config.scales.T_c, config.sweep.points
        picked = {Statistics.FERMI: (0, 10, 11, 22, 33, points - 1),
                  Statistics.BOSE: (0, 15, 28, 29, points - 1),
                  Statistics.BOLTZMANN: (0, points - 1)}
        for stat, indices in picked.items():
            mine = [r for r in rows if r[0] is stat]
            for i in indices:
                check_rows_against_oracle(config, [mine[i]], mine[i][1] * T_c,
                                          [config.probe.delta / config.probe.gamma])


# The float64 oracle: numpy and scipy only, none of the program's special
# functions.  Each Fermi-Dirac or Bose integral is a sum over fixed
# Gauss-Legendre pieces in u = sqrt(t), at most _F64_PIECE wide, up to
# u^2 = x + _F64_TAIL, past which the integrand is below e^-45 of its peak.
_F64_X, _F64_W = np.polynomial.legendre.leggauss(16)
_F64_PIECE = 0.5
_F64_TAIL = 45.0


def _f64_nodes(edges):
    """The Gauss-Legendre nodes and weights of the pieces between edges."""
    edges = np.asarray(edges, dtype=float)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * _F64_X).ravel(), (half[:, None] * _F64_W).ravel()


def _f64_span(lo, hi):
    """Edges from lo to hi, equal pieces at most _F64_PIECE wide."""
    return np.linspace(lo, hi, max(1, math.ceil((hi - lo) / _F64_PIECE)) + 1)


# The Bose pieces halve from u = 1/2 down to 2^-45: the integrand dips to 0
# over u ~ sqrt(w) at u = 0, and a piece [u, 2u] keeps that pole, u = i
# sqrt(w), out of its Bernstein ellipse at any w.  The first piece, [0,
# 2^-45], is below 1e-13 of g_nu.
_F64_BOSE = _f64_nodes([0.0, *2.0 ** np.arange(-45, 0),
                        *_f64_span(0.5, math.sqrt(_F64_TAIL))[1:]])


def f64_fermi_dirac(nu, x):
    """f_nu(e^x) = (1/Gamma(nu)) int_0^inf t^(nu-1) / (e^(t-x) + 1) dt in
    float64, with t = u^2, the pieces split at the Fermi edge u = sqrt(x)."""
    top = math.sqrt(max(x, 0.0) + _F64_TAIL)
    edges = _f64_span(0.0, top) if x <= 0.0 else np.concatenate(
        [_f64_span(0.0, math.sqrt(x)), _f64_span(math.sqrt(x), top)[1:]])
    u, weight = _f64_nodes(edges)
    return 2.0 / math.gamma(nu) * np.dot(weight, u ** (2.0 * nu - 1.0) / (np.exp(u * u - x) + 1.0))


def f64_bose(nu, w):
    """g_nu(e^-w) = (1/Gamma(nu)) int_0^inf t^(nu-1) / (e^(t+w) - 1) dt in
    float64 for w >= 0, with t = u^2, which leaves the integrand finite at
    w = 0, where it is zeta(nu)."""
    u, weight = _F64_BOSE
    return 2.0 / math.gamma(nu) * np.dot(weight, u ** (2.0 * nu - 1.0) / np.expm1(u * u + w))


F64Cloud = namedtuple("F64Cloud", "rho L s_end R_c error")


def f64_cloud(stat, n_atoms, a_sc, trap, T):
    """The sodium cloud of mp_thermal_cloud in float64: rho(s), L, s_end, R_c
    and the relative error estimate of L's quadrature.  zeta(2) and zeta(3)
    are g_2(1) and g_3(1) of f64_bose; mu (Fermi) and the fugacity (Bose
    above T_c) are brentq roots of N = (k_B T / hbar wbar)^3 f_3, on
    brackets that the bounds x^3/6 < f_3(e^x) (x > 0), f_3(e^x) < e^x and
    g_3(e^-w) < e^-w zeta(3) make sure of.  rho is memoized, so the
    observables of one cloud at many detunings share its values."""
    eps, omega_r, kT = trap.epsilon, trap.omega_r, k_B * T
    wbar = eps ** (1.0 / 3.0) * omega_r
    zeta_2, zeta_3 = f64_bose(2.0, 0.0), f64_bose(3.0, 0.0)
    t = kT / (hbar * wbar * (n_atoms / zeta_3) ** (1.0 / 3.0))  # T / T_c
    a = MASS_NA * omega_r**2 / (2.0 * kT)
    lam3 = (h / math.sqrt(2.0 * math.pi * MASS_NA * kT)) ** 3
    target = n_atoms * (hbar * wbar / kT) ** 3
    x_top = w_top = R_c = amp = 0.0
    kappa = 1.0
    if stat is Statistics.FERMI:
        x_top = brentq(lambda x: f64_fermi_dirac(3.0, x) - target, math.log(target) - 1.0,
                       (6.0 * target) ** (1.0 / 3.0) + 1.0, xtol=1e-300, rtol=_BRENTQ_RTOL)

        def ladder(v):
            return f64_fermi_dirac(1.5, x_top - v)
    elif stat is Statistics.BOLTZMANN:
        def ladder(v):
            return target * math.exp(-v)
    else:
        if t > 1.0:
            w_top = brentq(lambda w: f64_bose(3.0, w) - target, 0.0,
                           math.log(zeta_3 / target) + 1.0, xtol=1e-300, rtol=_BRENTQ_RTOL)
        else:  # as in mp_thermal_cloud
            a_ho = math.sqrt(hbar / (MASS_NA * wbar))
            eta = zeta_3 ** (1.0 / 3.0) / 2.0 * (15.0 * n_atoms ** (1.0 / 6.0) * a_sc / a_ho) ** 0.4
            frac = max(1.0 - t**3 - eta * zeta_2 / zeta_3 * t**2 * (1.0 - t**3) ** 0.4, 0.0)
            kappa = (1.0 - frac) / t**3
            R_c = math.sqrt(2.0 * eta * kT / t * frac**0.4 / (MASS_NA * omega_r**2))
            amp = MASS_NA**2 * omega_r**2 / (8.0 * math.pi * hbar**2 * a_sc)

        def ladder(v):
            return kappa * f64_bose(1.5, v + w_top)

    memo = {}

    def rho(s):
        n = memo.get(s)
        if n is None:
            n = memo[s] = ladder(a * s * s) / lam3 + (amp * (R_c**2 - s * s) if s < R_c else 0.0)
        return n

    s_end = math.sqrt((60.0 + max(x_top, 0.0)) / a)
    moment, error = quad(lambda s: s**4 * rho(s), 0.0, s_end, points=[R_c] if R_c else None,
                         epsabs=0.0, epsrel=1e-13, limit=200)
    L = math.sqrt(4.0 * math.pi / (3.0 * eps**3 * n_atoms) * moment)
    return F64Cloud(rho, L, s_end, R_c, error / moment)


def f64_pinhole_mean(F, cloud, eps, R, W):
    """mp_pinhole_mean in float64 with scipy's quad: the sphere caps that the
    shells of the scaled radius keep inside r < R, |eps z| < W, cut at the
    cap's kinks and the condensate edge.  Returns (mean, relative error)."""
    def shell(s):
        cap = min(s, W) - math.sqrt(max(s * s - R * R, 0.0))
        return s * cap * F(cloud.rho(s)) if cap > 0.0 else 0.0

    kinks = sorted({e for e in (W, R, math.hypot(R, W), cloud.R_c) if 0.0 < e < cloud.s_end})
    value, error = quad(shell, 0.0, cloud.s_end, points=kinks or None, epsabs=0.0,
                        epsrel=1e-13, limit=200)
    return 4.0 / (eps * R * R) * value, error / abs(value)


F64Observables = namedtuple("F64Observables", "t_d ln_T error")


def f64_observables(cloud, eps, delta_gamma, pinhole):
    """mp_observables in float64: t_d and ln(transmission) of the cloud with
    the local field on, and the larger relative error estimate of the two."""
    alpha, g, K = sodium_probe_constants(delta_gamma)
    b = 4.0 * math.pi / 3.0 * alpha
    t_d, t_error = f64_pinhole_mean(lambda n: K * n / (1.0 - b * n) ** 2, cloud, eps, pinhole,
                                    math.inf)
    absorbed, a_error = f64_pinhole_mean(lambda n: alpha * n * g / ((1.0 - b * n) ** 2 + g * g),
                                         cloud, eps, pinhole, eps * cloud.L / 2.0)
    return F64Observables(t_d, -2.0 * OMEGA_0 / c_light * absorbed, max(t_error, a_error))


class TestFloat64Oracle:
    """Every Bose and Fermi row of tests/reference/fig1.csv and fig2.csv
    against the float64 oracle at 1e-9, with the oracle's own error estimate
    well inside that.  fig1's condensed Bose rows and its Fermi rows with
    z > 0.95 have no other check but this and, for a few, mpmath
    (check_rows_against_oracle, which also holds this oracle to mpmath)."""

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_preset_rows(self, name):
        config, rows = preset_reference(name)
        T_c, probe = config.scales.T_c, config.probe
        clouds = {}
        checked = 0
        for stat, x, L, t_d, _, trans in rows:
            if stat is Statistics.BOLTZMANN:
                continue  # TestBoltzmannClosedForm checks every one
            if name == "fig1":  # x is T / T_c
                T, delta_gamma = x * T_c, probe.delta / probe.gamma
            else:  # x is the detuning in gamma
                T, delta_gamma = config.sweep.temperature * T_c, x
            cloud = clouds.get((stat, T))
            if cloud is None:
                cloud = clouds[stat, T] = f64_cloud(stat, config.gas.n_atoms, config.gas.a_sc,
                                                    config.trap, T)
            expected = f64_observables(cloud, config.trap.epsilon, delta_gamma, probe.pinhole_R)
            assert max(cloud.error, expected.error) < 1e-11, (stat, x, cloud, expected)
            assert L == pytest.approx(cloud.L, rel=1e-9, abs=0.0), (stat, x)
            assert t_d == pytest.approx(expected.t_d, rel=1e-9, abs=0.0), (stat, x)
            assert math.log(trans) == pytest.approx(expected.ln_T, rel=1e-9, abs=0.0), (stat, x)
            checked += 1
        assert checked == 2 * config.sweep.points


# The closed-form oracle keeps the terms of the density's Gaussian sum while
# z^j / (1 - z) is above this share of the first, and solves for the fugacity
# on z <= _CF_Z_MAX, beyond which the sums grow too long to be cheap.
_CF_TAIL = 1e-18
_CF_Z_MAX = 0.995
_BRENTQ_RTOL = 4.0 * np.finfo(float).eps

ClosedForm = namedtuple("ClosedForm", "L t_d ln_T error")


def _gaussian_count(z):
    """Terms j <= J of a Gaussian sum at fugacity z: the first J with
    z^J / (1 - z) <= _CF_TAIL."""
    return max(1, math.ceil(math.log(_CF_TAIL * (1.0 - z)) / math.log(z)))


def sodium_probe_constants(delta_gamma):
    """(alpha, g, K) of the sodium D-line probe at the detuning delta_gamma:
    the two-level polarizability alpha = 3 gamma / (4 k^3 Delta), g = gamma /
    2 Delta and the linear excess slowness per density K = 2 pi omega_0 alpha
    / (Delta c), written out here, not read from the program."""
    delta = delta_gamma * GAMMA
    alpha = 3.0 * GAMMA / (4.0 * (OMEGA_0 / c_light) ** 3 * delta)
    return alpha, GAMMA / (2.0 * delta), 2.0 * math.pi * OMEGA_0 * alpha / (delta * c_light)


def thermal_coefficients(stat, n_atoms, trap, T):
    """(c, a, z): a nondegenerate sodium cloud's density as a sum of Gaussians
    in the scaled radius s, rho(s) = sum_j c_j e^(-j a s^2), with
    a = M omega_r^2 / 2 k_B T and

        c_j = z^j / (j^(3/2) lambda_T^3)               Bose above T_c,
        c_j = (-1)^(j+1) z^j / (j^(3/2) lambda_T^3)    Fermi,
        c_1 = z / lambda_T^3, one term                 Boltzmann.

    The fugacity z is solved here, by brentq, from
    N = sum_j c_j (pi / (j a))^(3/2) / eps; neither z nor lambda_T comes
    from the program.  Bose and Fermi take z <= _CF_Z_MAX, else brentq raises
    ValueError, and keep the terms j <= _gaussian_count(z)."""
    kT = k_B * T
    a = MASS_NA * trap.omega_r**2 / (2.0 * kT)
    lam3 = (h / math.sqrt(2.0 * math.pi * MASS_NA * kT)) ** 3
    target = n_atoms * trap.epsilon * lam3 * (a / math.pi) ** 1.5  # sum_j c_j lam3 / j^(3/2)
    if stat is Statistics.BOLTZMANN:
        return np.array([target / lam3]), a, target
    j = np.arange(1, _gaussian_count(_CF_Z_MAX) + 1)
    signs = np.ones(len(j)) if stat is Statistics.BOSE else np.where(j % 2, 1.0, -1.0)
    z = brentq(lambda u: np.sum(signs * u**j / j**3.0) - target, 0.0, _CF_Z_MAX,
               xtol=1e-300, rtol=_BRENTQ_RTOL)
    count = _gaussian_count(z)
    return signs[:count] * z ** j[:count] / j[:count] ** 1.5 / lam3, a, z


def gaussian_sum_closed_form(c, a, n_atoms, trap, delta_gamma, pinhole, local_field=True):
    """(L, t_d, ln transmission, error) of the sodium cloud
    rho(s) = sum_j c_j e^(-j a s^2) (thermal_coefficients) in closed form,
    with no quadrature and none of the program's functions.

    Each Gaussian e^(-m a s^2) integrates in closed form over the pinhole
    cylinder r < R and the window |eps z| < W:

        G_m(W) = (pi / m a) (1 - e^(-m a R^2)) sqrt(pi / m a) erf(sqrt(m a) W) / eps,

    and over the whole trap with weight z^2 to (pi / m a)^(3/2) / (2 m a eps^3),
    which gives L.  With rho_0 = sum_j c_j, u = c / rho_0 and y = b rho,
    1 / (1 - y)^2 = sum_k (k + 1) y^k and 1 / ((1 - y)^2 + g^2) = sum_k d_k y^k,
    d_k = Im[(1 - i g)^-(k+1)] / g, so

        t_d  =  K rho_0 sum_k (k + 1) x^k P_k(inf) / pi R^2,
        ln T = -(2 omega_0 / c) |alpha g| rho_0 sum_k d_k x^k P_k(eps L / 2) / pi R^2,

    x = b rho_0 = x_peak, where P_k(W) = sum_m (u^*(k+1))_m G_m(W) and the
    (k+1)-fold convolution u^*(k+1) holds the coefficients of (rho / rho_0)^(k+1).
    The sums in k stop at the first k with (k + 1) |x|^k < 1e-20: rho <= rho_0
    gives P_k <= P_0, and |d_k| <= k + 1, so for |x| <= 0.9 the terms left
    out add less than 1e-18 of the first.  The series diverge at |x| = 1,
    and the helper takes only |x| <= 0.9.

    error estimates the relative error of t_d and ln T: the Gaussian terms
    left out (_CF_TAIL), the fugacity's brentq tolerance times the mean order
    sum_j j |c_j| / rho_0, and the rounding of the sums, a few machine epsilons
    times log2 of the longest convolution (done by FFT where that is faster)
    times sum_k |weight_k| (sum_j |u_j|)^(k+1) G_(k+1) / |sum_k weight_k P_k|,
    the sums' condition, which the alternating Fermi c_j raise."""
    eps, R2 = trap.epsilon, pinhole * pinhole
    j = np.arange(1, len(c) + 1)
    L = math.sqrt(math.fsum(c * (math.pi / (j * a)) ** 1.5 / (2.0 * j * a)) / (eps**3 * n_atoms))
    rho_0 = math.fsum(c)
    u = c / rho_0
    alpha, g, K = sodium_probe_constants(delta_gamma)
    x = 4.0 * math.pi / 3.0 * alpha * rho_0 if local_field else 0.0
    assert abs(x) <= 0.9, x
    terms = 1
    while (terms + 1) * abs(x) ** terms >= 1e-20:
        terms += 1
    w = 1.0 / complex(1.0, -g)
    sums, bounds = np.zeros(2), np.zeros(2)
    power, longest, mass = u, 1, math.fsum(np.abs(u))
    for k in range(terms):
        ma = np.arange(k + 1, k + 1 + len(power)) * a
        column = math.pi / ma * -np.expm1(-ma * R2) * np.sqrt(math.pi / ma) / eps
        window = column * erf(np.sqrt(ma) * eps * L / 2.0)
        weights = np.array([(k + 1) * x**k, (w ** (k + 1)).imag / g * x**k])
        sums += weights * [np.dot(power, column), np.dot(power, window)]
        bounds += np.abs(weights) * mass ** (k + 1) * [column[0], window[0]]
        longest = max(longest, len(power))
        if k + 1 < terms:
            power = convolve(power, u)
    rounding = 8.0 * np.finfo(float).eps * math.log2(2 + longest) * np.max(bounds / np.abs(sums))
    error = _CF_TAIL + _BRENTQ_RTOL * math.fsum(j * np.abs(c)) / abs(rho_0) + rounding
    scale = rho_0 / (math.pi * R2)
    ln_T = -2.0 * OMEGA_0 / c_light * abs(alpha * g) * scale * sums[1]
    return ClosedForm(L, K * scale * sums[0], ln_T, error)


def closed_form(stat, n_atoms, trap, T, delta_gamma, pinhole, local_field=True):
    """gaussian_sum_closed_form of the nondegenerate cloud of thermal_coefficients."""
    c, a, _ = thermal_coefficients(stat, n_atoms, trap, T)
    return gaussian_sum_closed_form(c, a, n_atoms, trap, delta_gamma, pinhole, local_field)


def check_closed_form(row, expected):
    """A row's (L, t_d, transmission) against a ClosedForm at 1e-9, with the
    closed form's own error estimate well inside that."""
    (L, t_d, trans), cf = row, expected
    assert cf.error < 1e-11, cf
    assert L == pytest.approx(cf.L, rel=1e-9, abs=0.0)
    assert t_d == pytest.approx(cf.t_d, rel=1e-9, abs=0.0)
    assert math.log(trans) == pytest.approx(cf.ln_T, rel=1e-9, abs=0.0)


class TestBoltzmannClosedForm:
    """L, t_d and ln(transmission) of Boltzmann clouds against closed_form
    at 1e-9: every Boltzmann row of the fig1, fig2 and benchmark references,
    a cloud near the local-field pole at both signs of the detuning, with
    the local field on and off, and clouds drawn by hypothesis."""

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_preset_rows(self, name):
        config, rows = preset_reference(name)
        T_c, probe = config.scales.T_c, config.probe
        mine = [r for r in rows if r[0] is Statistics.BOLTZMANN]
        assert len(mine) == config.sweep.points
        for _, x, L, t_d, _, trans in mine:
            if name == "fig1":  # x is T / T_c
                T, delta_gamma = x * T_c, probe.delta / probe.gamma
            else:  # x is the detuning in gamma
                T, delta_gamma = config.sweep.temperature * T_c, x
            check_closed_form((L, t_d, trans), closed_form(
                Statistics.BOLTZMANN, config.gas.n_atoms, config.trap, T, delta_gamma,
                probe.pinhole_R))

    def test_benchmark_rows(self, na_cloud):
        # T from the run's T_c: wl.kelvin takes hbar to 10 digits, 6e-10 off
        _, trap, s = na_cloud
        wl, rows = benchmark_workload("dsweep")
        mine = [r for r in rows if r[0] == "boltzmann"]
        assert len(mine) == wl.points and wl.local_field
        for _, x, L, t_d, _, trans in mine:
            check_closed_form((L, t_d, trans), closed_form(
                Statistics.BOLTZMANN, 3.8e6, trap, wl.temperature * s.T_c, x, 7.5e-6))

    @pytest.mark.parametrize("delta_gamma", [3.0, -3.0])
    @pytest.mark.parametrize("local_field", [True, False])
    def test_near_the_pole(self, na_cloud, delta_gamma, local_field):
        # 1e10 atoms at T_c / 2: x_peak = +-0.61 with the local field on
        spec, trap, _ = na_cloud
        cloud = GasSpec(Statistics.BOLTZMANN, 1e10, spec.mass)
        T = 0.5 * char_scales(cloud, trap).T_c
        got = effective_group_velocity(cloud, trap, na_probe(delta_gamma, local_field=local_field), T)
        check_closed_form((got.L, got.t_d, got.transmission), closed_form(
            Statistics.BOLTZMANN, 1e10, trap, T, delta_gamma, 7.5e-6, local_field))

    @given(
        log_n=st.floats(min_value=4.0, max_value=11.5),
        t=st.floats(min_value=0.2, max_value=3.0),
        epsilon=st.floats(min_value=0.05, max_value=1.0),
        pinhole=st.floats(min_value=0.05, max_value=3.0),
        delta_gamma=st.floats(min_value=3.0, max_value=50.0),
        red=st.booleans(),
        local_field=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_clouds_below_the_pole(self, log_n, t, epsilon, pinhole, delta_gamma, red,
                                   local_field):
        # T in units of the cloud's T_c, the pinhole in units of its radial
        # width sigma_r = (k_B T / M omega_r^2)^(1/2), a quarter of the
        # program's cut-off radius at most; |x_peak| <= 0.9, where the
        # closed form converges, and a transmission that does not underflow
        n_atoms, delta_gamma = 10.0**log_n, -delta_gamma if red else delta_gamma
        trap = TrapGeometry(2.0 * math.pi * 69.0, epsilon)
        cloud = GasSpec(Statistics.BOLTZMANN, n_atoms, MASS_NA)
        T = t * char_scales(cloud, trap).T_c
        R = pinhole * math.sqrt(k_B * T / MASS_NA) / trap.omega_r
        c, a, _ = thermal_coefficients(Statistics.BOLTZMANN, n_atoms, trap, T)
        b = 4.0 * math.pi / 3.0 * sodium_probe_constants(delta_gamma)[0] if local_field else 0.0
        assume(abs(b * c[0]) <= 0.9)
        expected = gaussian_sum_closed_form(c, a, n_atoms, trap, delta_gamma, R, local_field)
        assume(expected.ln_T > -700.0)
        got = effective_group_velocity(cloud, trap, na_probe(delta_gamma, R, local_field), T)
        check_closed_form((got.L, got.t_d, got.transmission), expected)


class TestNondegenerateClosedForm:
    """The Bose and Fermi rows of tests/reference/fig1.csv whose cloud is a
    convergent Gaussian sum against closed_form at 1e-9: every Bose row above
    T_c and every Fermi row with z <= 0.95, z from the oracle's own solve."""

    @pytest.mark.parametrize("stat,count", [(Statistics.BOSE, 33), (Statistics.FERMI, 30)])
    def test_fig1_rows(self, stat, count):
        config, rows = preset_reference("fig1")
        T_c, probe = config.scales.T_c, config.probe
        checked = 0
        for _, x, L, t_d, _, trans in (r for r in rows if r[0] is stat):
            if stat is Statistics.BOSE and x <= 1.0:
                continue  # condensed: no Gaussian sum
            try:
                c, a, z = thermal_coefficients(stat, config.gas.n_atoms, config.trap, x * T_c)
            except ValueError:  # no fugacity on z <= _CF_Z_MAX: degenerate Fermi
                continue
            if z > 0.95:
                continue
            check_closed_form((L, t_d, trans), gaussian_sum_closed_form(
                c, a, config.gas.n_atoms, config.trap, probe.delta / probe.gamma,
                probe.pinhole_R))
            checked += 1
        assert checked == count


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

    # GasSpec takes a_sc = 1e300 m, whose R_B and so cut-off radius are
    # infinite: the window that radius sets was halved toward the pinhole
    # forever.  In a child, so a hang fails the test.
    CHILD_INFINITE_R_CUT = (
        "import math\n"
        "from slowlight.gas import GasSpec, Statistics, TrapGeometry, char_scales\n"
        "from slowlight.optics import ProbeParams, delay_time, effective_group_velocity, "
        "transmission\n"
        "spec = GasSpec(Statistics.BOSE, 3.8e6, 3.81754e-26, 1e300)\n"
        "trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)\n"
        "probe = ProbeParams(3.2e15, 6.3e7, 6.3e8, 7.5e-6, local_field_on=True)\n"
        "for observable in (delay_time, transmission, effective_group_velocity):\n"
        "    try:\n"
        "        observable(spec, trap, probe, 0.5 * char_scales(spec, trap).T_c)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )

    def test_every_observable_refuses_an_infinite_cut_off_radius(self):
        package_parent = Path(optics.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", self.CHILD_INFINITE_R_CUT], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(package_parent)}, timeout=30)
        assert result.returncode == 0, result.stderr
        assert result.stdout == 3 * "the cloud's cut-off radius r_cut must be finite, got inf\n"

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

    def test_a_tighter_tolerance_shares_the_profile(self, na_cloud):
        # the profile reads no tolerance, so a caller's tol once built a second
        # profile, with a second shell memo, at the same T: fig2's Fermi cloud
        spec, trap, s = na_cloud
        fermi = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass, spec.a_sc)
        T, tight, probe = 0.5 * s.T_c, NumericTolerances(1e-9), na_probe()
        make_profile.cache_clear()
        delay_time(fermi, trap, probe, T)
        delay_time(fermi, trap, probe, T, tight)
        transmission(fermi, trap, probe, T, tight)
        effective_length(fermi, trap, T, tight)
        effective_group_velocity(fermi, trap, probe, T, tight)
        info = make_profile.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


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

    def test_refusals_name_the_cloud(self, na_cloud):
        _, _, s = na_cloud
        with pytest.raises(PinholeError, match="pinhole exceeds the Fermi radius"):
            v_g_zero_T(Statistics.FERMI, s, na_probe(pinhole=1.05 * s.R_F))
        with pytest.raises(UnsupportedStatisticsError, match="needs Bose or Fermi"):
            v_g_zero_T(Statistics.BOLTZMANN, s, na_probe())

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


class TestReadmeLibraryUse:
    def test_example_runs_from_the_modules(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        # each name comes from its module: the package re-exports none
        assert "from slowlight import" not in code
        namespace = {}
        exec(compile(code, str(readme), "exec"), namespace)
        result = namespace["result"]
        assert 0.0 < result.v_g_eff < c_light
        assert 0.0 < result.transmission <= 1.0
        assert capsys.readouterr().out == f"{result.v_g_eff} {result.transmission}\n"
