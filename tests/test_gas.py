"""Trapped-gas thermodynamics and density profiles."""

import math

import mpmath as mp
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy.constants import hbar, k as k_B
from scipy.integrate import quad

from slowlight import gas
from slowlight.gas import (
    DensityProfile,
    GasSpec,
    Statistics,
    TrapGeometry,
    UnsupportedStatisticsError,
    ZETA_2,
    ZETA_3,
    char_scales,
    condensate_fraction,
    density,
    make_profile,
    mu_bose,
    solve_mu_fermi,
    thermal_wavelength,
)
from slowlight.numerics import find_root, integrate_cylindrical

MASS_NA = 3.81754e-26  # kg, sodium-23


@pytest.fixture(scope="module")
def na_cloud():
    spec = GasSpec(Statistics.BOSE, 3.8e6, MASS_NA, 2.75e-9)
    trap = TrapGeometry(2.0 * math.pi * 69.0, 1.0 / 3.0)
    return spec, trap, char_scales(spec, trap)


def normalization(spec, trap, T):
    prof = make_profile(spec, trap, T)
    return integrate_cylindrical(
        prof.at, prof.r_cut, prof.z_cut, z_breakpoints=prof.z_breakpoints
    ) / spec.n_atoms


class TestCharScales:
    def test_constants_bit_equal_to_codata(self):
        import scipy.constants

        from slowlight import constants

        assert (constants.h, constants.hbar, constants.k_B, constants.c) == (
            scipy.constants.h, scipy.constants.hbar, scipy.constants.k, scipy.constants.c
        )

    def test_reference_cloud_lengths(self, na_cloud):
        _, _, s = na_cloud
        assert s.a_r == pytest.approx(2.52e-6, rel=5e-3)
        assert s.a_ho == pytest.approx(3.03e-6, rel=5e-3)
        assert s.R_B == pytest.approx(17.76e-6, rel=5e-3)
        assert s.R_F == pytest.approx(50.04e-6, rel=5e-3)

    def test_oscillator_length_relation(self, na_cloud):
        _, trap, s = na_cloud
        assert s.a_ho == pytest.approx(s.a_r * trap.epsilon ** (-1.0 / 6.0), rel=1e-12, abs=0.0)

    def test_fermi_to_condensation_temperature_ratio(self, na_cloud):
        _, _, s = na_cloud
        assert s.T_F / s.T_c == pytest.approx((6.0 * ZETA_3) ** (1.0 / 3.0), rel=1e-9)
        # "approximately twice" the condensation temperature
        assert 1.8 < s.T_F / s.T_c < 2.1

    def test_reference_temperatures(self, na_cloud):
        _, _, s = na_cloud
        assert s.T_F == pytest.approx(651e-9, rel=5e-3)
        assert s.T_c == pytest.approx(337e-9, rel=5e-3)

    def test_interaction_scaling_parameter(self, na_cloud):
        spec, _, s = na_cloud
        direct = 0.5 * ZETA_3 ** (1.0 / 3.0) * (
            15.0 * spec.n_atoms ** (1.0 / 6.0) * spec.a_sc / s.a_ho
        ) ** 0.4
        assert s.eta == pytest.approx(direct, rel=1e-12, abs=0.0)
        assert s.eta == pytest.approx(0.2617, rel=2e-3)
        assert s.mu_TF == pytest.approx(s.eta * k_B * s.T_c, rel=1e-12, abs=0.0)

    def test_thermal_wavelength(self):
        T = 300e-9
        expected = (2.0 * math.pi * hbar) / math.sqrt(2.0 * math.pi * MASS_NA * k_B * T)
        assert thermal_wavelength(MASS_NA, T) == expected


class TestChemicalPotentials:
    def test_fermi_low_temperature_limit(self, na_cloud):
        _, _, s = na_cloud
        assert solve_mu_fermi(1e-4 * s.T_F, s) == pytest.approx(s.E_F, rel=1e-6, abs=0.0)

    def test_fermi_at_fermi_temperature(self, na_cloud):
        # beta mu is mpmath's root of f_3(e^x) = 1/6
        _, _, s = na_cloud
        with mp.workdps(30):
            x = mp.findroot(lambda u: -mp.polylog(3, -mp.exp(u)) - mp.mpf(1) / 6, -1.7)
        got = solve_mu_fermi(s.T_F, s) / (k_B * s.T_F)
        assert got == pytest.approx(float(x), rel=2e-12, abs=0.0)

    def test_fermi_sommerfeld_branch_value(self, na_cloud):
        # f_3(e^x) = x^3/6 + pi^2 x/6 + f_3(e^-x); at 0.05 T_F the last term is
        # 2e-12 of the rest, so beta mu is the real root of x^3 + pi^2 x = (T_F/T)^3
        _, _, s = na_cloud
        q, p = 0.05**-3, math.pi**2
        root = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        x = (q / 2.0 + root) ** (1.0 / 3.0) - (root - q / 2.0) ** (1.0 / 3.0)
        got = solve_mu_fermi(0.05 * s.T_F, s) / (k_B * 0.05 * s.T_F)
        assert got == pytest.approx(x, rel=3e-12, abs=0.0)

    @pytest.mark.parametrize("t", [1e-120, 1e120])
    def test_temperature_past_the_float_range_names_the_ratio(self, na_cloud, t):
        # (T/T_F)^3 or its inverse leaves the float range while T does not:
        # without the rule an OverflowError, a math domain error, a
        # ZeroDivisionError or a BracketError, by function and side
        spec, trap, s = na_cloud
        T = t * s.T_F
        fermi = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        boltzmann = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
        for call in (lambda: solve_mu_fermi(T, s),
                     lambda: mu_bose(T, s), lambda: make_profile(fermi, trap, T),
                     lambda: make_profile(boltzmann, trap, T),
                     lambda: make_profile(spec, trap, T)):
            with pytest.raises(ValueError, match=r"^\(T/T_F\)\^3 and its inverse must be finite "
                                                 r"and nonzero, got \(T/T_F\)\^3 = (inf|0\.0)$"):
                call()

    def test_classical_matches_fermi_high_branch(self, na_cloud):
        # f_3(z) = z - z^2/8 + O(z^3): above T_F, beta mu = ln z exceeds the
        # Boltzmann value ln z_cl, z_cl = (T_F/T)^3 / 6, by z_cl/8 + O(z_cl^2)
        _, _, s = na_cloud
        for t in (2.5, 5.0, 10.0):
            T = t * s.T_F
            z_cl = 1.0 / (6.0 * t**3)
            gap = solve_mu_fermi(T, s) / (k_B * T) - math.log(z_cl)
            assert gap == pytest.approx(z_cl / 8.0, rel=z_cl, abs=0.0)

    def test_no_jump_where_the_limiting_formulas_meet(self, na_cloud):
        # the Sommerfeld and classical formulas differ by more than 1e-3 E_F
        # at 0.55 T_F; the normalization root is continuous there
        _, _, s = na_cloud
        T = 0.55 * s.T_F
        low = s.E_F * (1.0 - math.pi**2 * 0.55**2 / 3.0)
        high = -k_B * T * math.log(6.0 * 0.55**3)
        assert abs(low - high) > 1e-3 * s.E_F
        jump = abs(solve_mu_fermi(T, s) - solve_mu_fermi(T * (1 + 1e-13), s))
        assert jump < 1e-11 * s.E_F

    def test_normalization_solved_mu_matches_branches_in_their_limits(self, na_cloud):
        # the Sommerfeld value E_F (1 - pi^2 t^2 / 3) and the Boltzmann one
        # -k_B T ln(6 t^3), t = T/T_F
        _, _, s = na_cloud
        assert solve_mu_fermi(0.05 * s.T_F, s) == pytest.approx(
            s.E_F * (1.0 - math.pi**2 * 0.05**2 / 3.0), rel=2e-3, abs=0.0
        )
        assert solve_mu_fermi(4.0 * s.T_F, s) == pytest.approx(
            -k_B * 4.0 * s.T_F * math.log(6.0 * 4.0**3), rel=2e-3, abs=0.0
        )

    def test_root_bracket_straddles_the_root(self, na_cloud, monkeypatch):
        # solve_mu_fermi brackets f_3(e^x) - (T_F/T)^3 / 6 with closed-form
        # bounds at 201 log-spaced T/T_F in [1e-3, 1e2]; every 20th root is
        # checked against mpmath's
        _, _, s = na_cloud
        ends = []

        def spy(f, lo, hi):
            ends.append((f(lo), f(hi)))
            return find_root(f, lo, hi)

        monkeypatch.setattr(gas, "find_root", spy)
        for i in range(201):
            T = 10.0 ** (-3.0 + 5.0 * i / 200) * s.T_F
            x = solve_mu_fermi(T, s) / (k_B * T)
            assert ends[-1][0] < 0.0 < ends[-1][1], T / s.T_F
            if i % 20 == 0:
                target = (s.T_F / T) ** 3 / 6.0
                with mp.workdps(30):
                    root = mp.findroot(lambda u: -mp.polylog(3, -mp.exp(u)) - target, x)
                assert x == pytest.approx(float(root), rel=2e-12, abs=0.0), T / s.T_F
        assert len(ends) == 201


class TestBoseThermodynamics:
    def test_fugacity_at_transition(self, na_cloud):
        spec, _, s = na_cloud
        pt = mu_bose(s.T_c, s)
        assert pt.fugacity == pytest.approx(1.0, abs=1e-9)
        assert pt.condensate_fraction == pytest.approx(0.0, abs=1e-9)

    def test_fugacity_at_twice_transition(self, na_cloud):
        spec, _, s = na_cloud
        pt = mu_bose(2.0 * s.T_c, s)
        assert f"{pt.fugacity:.4f}" == "0.1474"
        assert pt.mu == pytest.approx(k_B * 2.0 * s.T_c * math.log(pt.fugacity), rel=1e-12, abs=0.0)
        assert pt.condensate_fraction == 0.0

    def test_zero_temperature_point(self, na_cloud):
        spec, _, s = na_cloud
        pt = mu_bose(0.0, s)
        assert pt.condensate_fraction == 1.0
        assert pt.mu == s.mu_TF

    def test_condensate_fraction_endpoints(self, na_cloud):
        _, _, s = na_cloud
        assert condensate_fraction(0.0, s) == 1.0
        assert condensate_fraction(s.T_c, s) == 0.0

    def test_condensate_fraction_midpoint(self, na_cloud):
        _, _, s = na_cloud
        t = 0.5
        expected = 1.0 - t**3 - s.eta * (ZETA_2 / ZETA_3) * t**2 * (1.0 - t**3) ** 0.4
        got = condensate_fraction(0.5 * s.T_c, s)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert got == pytest.approx(0.7901, abs=2e-4)

    def test_fraction_floored_near_transition(self, na_cloud):
        # the fitting function dips below zero close to T_c; it is clamped
        _, _, s = na_cloud
        assert condensate_fraction(0.98 * s.T_c, s) == 0.0
        assert condensate_fraction(0.90 * s.T_c, s) > 0.0

    def test_below_transition_uses_thomas_fermi_mu(self, na_cloud):
        spec, _, s = na_cloud
        pt = mu_bose(0.5 * s.T_c, s)
        assert pt.mu == pytest.approx(s.mu_TF * pt.condensate_fraction**0.4, rel=1e-12, abs=0.0)
        assert pt.fugacity == 1.0  # the saturated thermal cloud

    def test_condensate_radius_tends_to_convention_constant(self, na_cloud):
        # R_B carries eps^(1/5) where the Thomas-Fermi radius of mu_TF carries
        # eps^(1/6), so the condensate edge tends to R_B eps^(-1/30) as T -> 0+
        spec, trap, s = na_cloud
        prof = DensityProfile(spec, trap, 1e-6 * s.T_c)
        assert prof.tf_radius / s.R_B == pytest.approx(trap.epsilon ** (-1.0 / 30.0), rel=1e-9)


class TestDensityProfiles:
    def test_zero_T_bose_peak(self, na_cloud):
        spec, trap, s = na_cloud
        peak = density(spec, trap, 0.0, 0.0, 0.0)
        expected = 15.0 * spec.n_atoms * (1.0 / 3.0) / (8.0 * math.pi * s.R_B**3)
        assert peak == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert peak == pytest.approx(1.35e20, rel=5e-3)

    def test_zero_T_outside_support(self, na_cloud):
        spec, trap, s = na_cloud
        assert density(spec, trap, 0.0, s.R_B * 1.01, 0.0) == 0.0
        fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        assert density(fspec, trap, 0.0, 0.0, s.R_F / trap.epsilon * 1.01) == 0.0

    def test_zero_T_boltzmann_rejected(self, na_cloud):
        spec, trap, _ = na_cloud
        cspec = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
        with pytest.raises(UnsupportedStatisticsError):
            density(cspec, trap, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("stat", [Statistics.FERMI, Statistics.BOSE])
    def test_zero_T_normalization(self, na_cloud, stat):
        spec, trap, s = na_cloud
        zspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        prof = make_profile(zspec, trap, 0.0)
        total = integrate_cylindrical(prof.at, prof.r_cut, prof.z_cut)
        assert total == pytest.approx(spec.n_atoms, rel=1e-3)

    def test_zero_T_rms_axial_moments(self, na_cloud):
        # <z^2> = R_B^2/(7 eps^2) for the condensate, R_F^2/(8 eps^2) Fermi
        spec, trap, s = na_cloud
        eps = trap.epsilon
        for stat, expected in (
            (Statistics.BOSE, s.R_B**2 / (7.0 * eps**2)),
            (Statistics.FERMI, s.R_F**2 / (8.0 * eps**2)),
        ):
            zspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
            prof = make_profile(zspec, trap, 0.0)
            moment = integrate_cylindrical(
                lambda r, z: z * z * prof.at(r, z), prof.r_cut, prof.z_cut
            )
            norm = integrate_cylindrical(prof.at, prof.r_cut, prof.z_cut)
            assert moment / norm == pytest.approx(expected, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("stat,unit", [
        (Statistics.FERMI, "T_F"),
        (Statistics.BOSE, "T_c"),
        (Statistics.BOLTZMANN, "T_c"),
    ])
    @pytest.mark.parametrize("reduced", [0.2, 0.5, 0.9, 1.1, 2.0])
    def test_normalization_grid(self, na_cloud, stat, unit, reduced):
        spec, trap, s = na_cloud
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        T = reduced * (s.T_F if unit == "T_F" else s.T_c)
        assert normalization(gspec, trap, T) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_peaking_along_rays(self, na_cloud):
        spec, trap, s = na_cloud
        for stat in Statistics:
            gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
            prof = make_profile(gspec, trap, 0.5 * s.T_c)
            for direction in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
                values = [
                    prof.at(direction[0] * u * s.R_B, direction[1] * u * s.R_B)
                    for u in (0.0, 0.3, 0.7, 1.2, 2.5)
                ]
                assert all(a >= b for a, b in zip(values, values[1:]))
                assert values[0] == prof.peak()

    def test_fermi_boltzmann_crossover(self, na_cloud):
        spec, trap, s = na_cloud
        fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        cspec = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
        T = 3.0 * s.T_F
        fprof = make_profile(fspec, trap, T)
        cprof = make_profile(cspec, trap, T)
        worst = 0.0
        for u in (0.0, 0.2, 0.5, 1.0, 1.5):
            for w in (0.0, 0.5, 1.5):
                rho_f = fprof.at(u * s.R_F, w * s.R_F)
                rho_c = cprof.at(u * s.R_F, w * s.R_F)
                if rho_c > 0.0:
                    worst = max(worst, abs(rho_f / rho_c - 1.0))
        assert worst < 0.02

    def test_bose_boltzmann_crossover(self, na_cloud):
        spec, trap, s = na_cloud
        cspec = GasSpec(Statistics.BOLTZMANN, spec.n_atoms, spec.mass)
        T = 3.0 * s.T_c
        bprof = make_profile(spec, trap, T)
        cprof = make_profile(cspec, trap, T)
        worst = 0.0
        for u in (0.0, 0.2, 0.5, 1.0, 2.0):
            rho_b = bprof.at(u * s.R_B, 0.3 * u * s.R_B)
            rho_c = cprof.at(u * s.R_B, 0.3 * u * s.R_B)
            worst = max(worst, abs(rho_b / rho_c - 1.0))
        assert worst < 0.02

    def test_fermi_momentum_integral_oracle(self, na_cloud):
        # direct p-quadrature of the semiclassical distribution vs the
        # special-function reduction, at the trap center and T = 0.3 T_F
        spec, trap, s = na_cloud
        fspec = GasSpec(Statistics.FERMI, spec.n_atoms, spec.mass)
        T = 0.3 * s.T_F
        mu = solve_mu_fermi(T, s)
        beta = 1.0 / (k_B * T)
        h_planck = 2.0 * math.pi * hbar

        def oracle(r, z):
            V = trap.potential(spec.mass, r, z)
            p_top = math.sqrt(2.0 * spec.mass * max(mu - V, 0.0) + 80.0 * spec.mass / beta)

            def integrand(p):
                arg = beta * (p * p / (2.0 * spec.mass) + V - mu)
                return p * p / (math.exp(min(arg, 700.0)) + 1.0)

            val, _ = quad(integrand, 0.0, p_top, epsabs=0.0, epsrel=1e-10, limit=300)
            return 4.0 * math.pi * val / h_planck**3

        got = density(fspec, trap, T, 0.0, 0.0)
        assert got == pytest.approx(oracle(0.0, 0.0), rel=1e-6)

    def test_density_tail_vanishes(self, na_cloud):
        spec, trap, s = na_cloud
        for stat in Statistics:
            gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
            assert density(gspec, trap, 0.7 * s.T_c, 20.0 * s.R_B, 0.0) == pytest.approx(0.0, abs=1e5)

    def test_condensate_fraction_consistent_with_thermal_integral(self, na_cloud):
        # by construction the thermal cloud holds N - N_0 atoms; check the
        # full profile minus condensate part integrates accordingly
        spec, trap, s = na_cloud
        T = 0.5 * s.T_c
        prof = make_profile(spec, trap, T)
        frac = condensate_fraction(T, s)
        pt = mu_bose(T, s)
        inv_U = spec.mass / (4.0 * math.pi * hbar**2 * spec.a_sc)

        def thermal_only(r, z):
            rho = prof.at(r, z)
            local = pt.mu - trap.potential(spec.mass, r, z)
            if local > 0.0:
                rho -= local * inv_U
            return rho

        n_thermal = integrate_cylindrical(
            thermal_only, prof.r_cut, prof.z_cut, z_breakpoints=prof.z_breakpoints
        )
        assert 1.0 - n_thermal / spec.n_atoms == pytest.approx(frac, abs=0.05)

    def test_profile_cache_reuse(self, na_cloud):
        spec, trap, s = na_cloud
        assert make_profile(spec, trap, 0.5 * s.T_c) is make_profile(spec, trap, 0.5 * s.T_c)

    @pytest.mark.parametrize("stat,reduced", [
        (Statistics.FERMI, 0.0), (Statistics.FERMI, 0.5), (Statistics.FERMI, 1.5),
        (Statistics.BOSE, 0.0), (Statistics.BOSE, 0.5), (Statistics.BOSE, 1.5),
        (Statistics.BOLTZMANN, 0.5), (Statistics.BOLTZMANN, 1.5),
    ])
    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(0.0, 1.2))
    def test_shell_memo_is_the_density_on_the_axis(self, na_cloud, stat, reduced, u):
        # at_radius(s) returns the float that at(s, 0.0) returns, on the
        # first call and from the memo on the second
        spec, trap, s = na_cloud
        prof = DensityProfile(GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc), trap,
                              reduced * s.T_c)
        radius = u * prof.r_cut
        first = prof.at_radius(radius)
        assert first.hex() == prof.at(radius, 0.0).hex()
        assert prof.at_radius(radius).hex() == first.hex()


class TestClosedFormMoments:
    """The ladder closed forms against the quadrature oracle, to the default
    quadrature tolerance (1e-8 relative).  The oracle itself runs ten times
    tighter and breaks the outer integral at the condensate edge R_c, where
    the Gauss-Kronrod error estimate misses the kink otherwise (a pinhole
    column at 0.681 T_c, wider than R_c, came out 3.6e-7 off without the
    break)."""

    ORACLE_REL_TOL = 1e-9
    # no shrinking: each example is a nested quadrature of up to a second,
    # and shrinking a failure would take minutes
    ORACLE_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)

    @staticmethod
    def profile(na_cloud, stat, reduced):
        spec, trap, s = na_cloud
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        unit = s.T_F if stat is Statistics.FERMI else s.T_c
        return DensityProfile(gspec, trap, reduced * unit)

    @given(stat=st.sampled_from(list(Statistics)), reduced=st.floats(0.02, 3.0))
    @example(stat=Statistics.BOSE, reduced=0.5)   # condensate plus thermal cloud
    @example(stat=Statistics.BOSE, reduced=0.97)  # saturated, no condensate
    @example(stat=Statistics.BOSE, reduced=1.5)   # fugacity below one
    @example(stat=Statistics.BOSE, reduced=0.021484375)  # tail underflows far out
    @settings(max_examples=20, deadline=None, phases=ORACLE_PHASES)
    def test_axial_moment(self, na_cloud, stat, reduced):
        prof = self.profile(na_cloud, stat, reduced)
        oracle = integrate_cylindrical(
            lambda r, z: z * z * prof.at(r, z), prof.r_cut, prof.z_cut,
            self.ORACLE_REL_TOL, z_breakpoints=prof.z_breakpoints,
            r_breakpoints=(prof.tf_radius,),
        )
        assert prof.axial_moment() == pytest.approx(oracle, rel=1e-8)

    @given(
        stat=st.sampled_from(list(Statistics)),
        reduced=st.floats(0.02, 3.0),
        log_aR2=st.floats(-5.0, 1.5),
    )
    @example(stat=Statistics.FERMI, reduced=0.05, log_aR2=-5.0)
    @example(stat=Statistics.BOSE, reduced=0.5, log_aR2=-5.0)
    @example(stat=Statistics.BOSE, reduced=0.5, log_aR2=1.0)  # wider than the condensate
    @example(stat=Statistics.BOSE, reduced=0.6808683036982737, log_aR2=0.6808683036982737)
    @example(stat=Statistics.BOSE, reduced=0.71875, log_aR2=-4.4375)  # round-off stalled it
    @example(stat=Statistics.BOSE, reduced=0.97, log_aR2=-5.0)  # on-axis cusp, no condensate
    @example(stat=Statistics.BOSE, reduced=1.5, log_aR2=-5.0)
    @example(stat=Statistics.BOLTZMANN, reduced=1.0, log_aR2=-5.0)
    @settings(max_examples=30, deadline=None, phases=ORACLE_PHASES)
    def test_pinhole_column(self, na_cloud, stat, reduced, log_aR2):
        # log_aR2 = log10(a R^2), a = beta M omega_r^2 / 2: the thermal part
        # is f_3(zeta) - f_3(zeta e^{-a R^2}), which loses about -log_aR2 digits
        prof = self.profile(na_cloud, stat, reduced)
        radius = math.sqrt(10.0**log_aR2 * k_B * prof.T
                           / (0.5 * prof.spec.mass * prof.trap.omega_r**2))
        oracle = integrate_cylindrical(
            prof.at, radius, prof.z_cut, self.ORACLE_REL_TOL, z_breakpoints=prof.z_breakpoints,
            r_breakpoints=(prof.tf_radius,),
        )
        assert prof.pinhole_column(radius) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("reduced", [0.918, 0.9263, 0.937])
    def test_condensate_edge_breakpoint(self, na_cloud, reduced):
        # without the breakpoint at R_c the default tolerance's error estimate
        # misses the kink: 7e-6 off at 0.918 T_c, 4.4e-8 at 0.9263 T_c
        prof = self.profile(na_cloud, Statistics.BOSE, reduced)
        assert 0.0 < prof.tf_radius < prof.r_cut
        moment = integrate_cylindrical(
            lambda r, z: z * z * prof.at(r, z), prof.r_cut, prof.z_cut,
            z_breakpoints=prof.z_breakpoints, r_breakpoints=(prof.tf_radius,),
        )
        assert prof.axial_moment() == pytest.approx(moment, rel=1e-8)

    @pytest.mark.parametrize("stat", [Statistics.FERMI, Statistics.BOSE])
    @pytest.mark.parametrize("u2", [1e-5, 1e-2, 0.25, 1.0])
    def test_zero_T(self, na_cloud, stat, u2):
        prof = self.profile(na_cloud, stat, 0.0)
        cloud = prof.scales.R_F if stat is Statistics.FERMI else prof.scales.R_B
        moment = integrate_cylindrical(
            lambda r, z: z * z * prof.at(r, z), prof.r_cut, prof.z_cut,
            self.ORACLE_REL_TOL, z_breakpoints=prof.z_breakpoints,
            r_breakpoints=(prof.tf_radius,),
        )
        assert prof.axial_moment() == pytest.approx(moment, rel=1e-8)
        radius = math.sqrt(u2) * cloud
        column = integrate_cylindrical(
            prof.at, radius, prof.z_cut, self.ORACLE_REL_TOL, z_breakpoints=prof.z_breakpoints,
            r_breakpoints=(prof.tf_radius,),
        )
        assert prof.pinhole_column(radius) == pytest.approx(column, rel=1e-8)


class TestValidation:
    def test_gas_spec_validation(self):
        with pytest.raises(ValueError):
            GasSpec(Statistics.FERMI, 0.0, MASS_NA)
        with pytest.raises(ValueError):
            GasSpec(Statistics.BOSE, 1e6, MASS_NA, 0.0)
        with pytest.raises(ValueError):
            GasSpec(Statistics.FERMI, 1e6, -1.0)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_statistics_given_as_its_value_is_the_enum(self, na_cloud, t):
        # a string once stayed a string, so every `is Statistics.X` test missed
        # it; equal specs share one cache entry, so the string goes first
        _, trap, s = na_cloud
        T, z = t * s.T_F, 0.3 * s.R_F / trap.epsilon
        make_profile.cache_clear()
        by_value = GasSpec("fermi", 3.8e6, MASS_NA)
        first = density(by_value, trap, T, 0.0, z)
        make_profile.cache_clear()
        assert first == density(GasSpec(Statistics.FERMI, 3.8e6, MASS_NA), trap, T, 0.0, z) > 0.0
        assert by_value.statistics is Statistics.FERMI

    def test_statistics_value_checked(self):
        with pytest.raises(ValueError, match="positive a_sc"):
            GasSpec("bose", 1e6, MASS_NA, 0.0)
        with pytest.raises(ValueError, match="nonsense"):
            GasSpec("nonsense", 1e6, MASS_NA)

    def test_trap_validation(self):
        with pytest.raises(ValueError):
            TrapGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            TrapGeometry(100.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="n_atoms"):
            GasSpec(Statistics.FERMI, bad, MASS_NA)
        with pytest.raises(ValueError, match="mass"):
            GasSpec(Statistics.FERMI, 1e6, bad)
        with pytest.raises(ValueError, match="a_sc"):
            GasSpec(Statistics.BOSE, 1e6, MASS_NA, bad)
        with pytest.raises(ValueError, match="omega_r"):
            TrapGeometry(bad, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            TrapGeometry(100.0, bad)

    def test_density_negative_temperature(self, na_cloud):
        spec, trap, _ = na_cloud
        with pytest.raises(ValueError):
            density(spec, trap, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("refusal,message", [
        (lambda s: GasSpec(Statistics.FERMI, 1e6, MASS_NA, -1e-9), "scattering length must be >= 0"),
        (lambda s: thermal_wavelength(MASS_NA, 0.0), "thermal wavelength requires T > 0"),
        (lambda s: solve_mu_fermi(-1.0, s), "solve_mu_fermi requires T > 0"),
        (lambda s: condensate_fraction(-1e-12 * s.T_c, s), r"requires 0 <= T <= T_c"),
        (lambda s: condensate_fraction(1.01 * s.T_c, s), r"requires 0 <= T <= T_c"),
        (lambda s: mu_bose(-1.0, s), "mu_bose requires T >= 0"),
    ], ids=["a_sc", "thermal_wavelength", "solve_mu_fermi",
            "condensate_fraction-below", "condensate_fraction-above", "mu_bose"])
    def test_refusal_names_its_rule(self, na_cloud, refusal, message):
        with pytest.raises(ValueError, match=message):
            refusal(na_cloud[2])

    @pytest.mark.parametrize("stat,unit", [(Statistics.FERMI, "T_F"), (Statistics.BOSE, "T_c")])
    @pytest.mark.parametrize("name", ["r", "z"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_density_position_must_be_finite(self, na_cloud, stat, unit, name, bad):
        # a Fermi cloud once returned NaN at r = NaN and a Bose cloud blamed
        # polylog's z; at r = inf both returned 0
        spec, trap, s = na_cloud
        gspec = GasSpec(stat, spec.n_atoms, spec.mass, spec.a_sc)
        position = {"r": 0.0, "z": 0.0, name: bad}
        with pytest.raises(ValueError, match=f"density needs a finite {name}, got {name}={bad}"):
            density(gspec, trap, 0.5 * getattr(s, unit), **position)
