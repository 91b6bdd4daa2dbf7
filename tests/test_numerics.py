"""Special functions, quadrature, and root finding."""

import math
import random
import warnings
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import zeta as scipy_zeta

from slowlight.numerics import (
    DEFAULT_TOL,
    BracketError,
    DomainError,
    NonConvergenceError,
    NumericTolerances,
    SOMMERFELD_SWITCH,
    fermi_dirac_f,
    find_root,
    integrate_1d,
    integrate_cylindrical,
    polylog,
    riemann_zeta,
    _FD32_FIT,
    _fd_sommerfeld,
    _polylog_negative_axis,
    _polylog_series,
)

mp.mp.dps = 30


def series_polylog(s: float, z: float, terms: int = 4000) -> float:
    """Independent brute-force oracle: direct partial sums."""
    acc = 0.0
    for j in range(1, terms + 1):
        acc += z**j / j**s
    return acc


def mp_polylog(s: float, z: float) -> float:
    return float(complex(mp.polylog(mp.mpf(s), mp.mpf(z))).real)


def served_beyond_series(order: float) -> bool:
    """The domain rule of fermi_dirac_f past its series region: order 3/2,
    the density's, and the integers >= 1."""
    return order == 1.5 or (order == round(order) and order >= 1)


def check_negative_axis(s: float, z: float) -> None:
    """polylog refuses z < -1/2 and names fermi_dirac_f, which gives
    Li_s(z) = -f_s(e^x), x = ln(-z), there under its own domain rule."""
    with pytest.raises(DomainError, match=r"-fermi_dirac_f\(s, ln\(-z\)\)"):
        polylog(s, z)
    if not served_beyond_series(s):
        with pytest.raises(DomainError, match=f"got nu={s}"):
            fermi_dirac_f(s, math.log(-z))
        return
    assert -fermi_dirac_f(s, math.log(-z)) == pytest.approx(mp_polylog(s, z), rel=1e-10, abs=0.0)


class TestPolylog:
    def test_zeta3_at_unit_argument(self):
        assert polylog(3.0, 1.0) == pytest.approx(1.2020569031595943, rel=1e-12, abs=0.0)

    def test_zero_argument(self):
        assert polylog(3.0, 0.0) == 0.0
        assert polylog(1.5, 0.0) == 0.0

    def test_half_argument_order_three(self):
        oracle = series_polylog(3.0, 0.5, 200)
        assert polylog(3.0, 0.5) == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert polylog(3.0, 0.5) == pytest.approx(0.5372131936080402, rel=1e-10)

    def test_zeta_three_halves_at_unit_argument(self):
        assert polylog(1.5, 1.0) == pytest.approx(2.6123753486854883, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("z", [-1.0, -0.9, -0.6, -0.3, 0.05, 0.3, 0.49, 0.51, 0.7, 0.9, 0.99, 1.0])
    def test_against_mpmath(self, s, z):
        if z < -DEFAULT_TOL.series_cutoff:
            check_negative_axis(s, z)
            return
        assert polylog(s, z) == pytest.approx(mp_polylog(s, z), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("z", [-40.0, -5.0, -1.5])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_large_negative_arguments(self, s, z):
        check_negative_axis(s, z)

    def test_domain_ends(self):
        cutoff = DEFAULT_TOL.series_cutoff
        assert polylog(1.5, -cutoff) == pytest.approx(mp_polylog(1.5, -cutoff), rel=1e-14, abs=0.0)
        for z in (math.nextafter(-cutoff, -1.0), math.nan):
            with pytest.raises(DomainError, match="polylog takes"):
                polylog(1.5, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            polylog(3.0, 1.0001)
        with pytest.raises(DomainError):
            polylog(1.0, 1.0)

    def test_order_one_is_a_logarithm(self):
        assert polylog(1.0, 0.3) == pytest.approx(-math.log(0.7), rel=1e-14, abs=0.0)

    @given(
        z=st.floats(min_value=0.01, max_value=0.99),
        dz=st.floats(min_value=0.005, max_value=0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_increasing_in_z(self, z, dz):
        hi = min(z + dz, 1.0)
        for s in (1.5, 3.0):
            assert polylog(s, hi) > polylog(s, z)

    @given(
        s=st.floats(min_value=1.2, max_value=4.0),
        ds=st.floats(min_value=0.05, max_value=2.0),
        z=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_order(self, s, ds, z):
        assert polylog(s + ds, z) < polylog(s, z)

    def test_exhausted_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(NumericTolerances, "max_iterations", 3)
        with pytest.raises(NonConvergenceError):
            polylog(1.5, 0.49)


class TestFermiDirac:
    def test_small_fugacity_alternating_series(self):
        x = math.log(0.01)
        oracle = sum(
            (-1) ** (j + 1) * 0.01**j / j**1.5 for j in range(1, 60)
        )
        assert fermi_dirac_f(1.5, x) == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert fermi_dirac_f(1.5, x) == pytest.approx(0.00996483586990717, rel=1e-10)

    def test_vanishing_fugacity_limit(self):
        assert fermi_dirac_f(1.5, -800.0) == 0.0
        assert fermi_dirac_f(1.5, -50.0) == pytest.approx(math.exp(-50.0), rel=1e-10, abs=0.0)

    def test_momentum_quadrature_oracle_at_high_degeneracy(self):
        # f_{3/2}(e^x) = (2/sqrt(pi)) * int_0^inf sqrt(t) / (exp(t - x) + 1) dt
        x = 20.0
        oracle, _ = quad(
            lambda t: math.sqrt(t) / (math.exp(min(t - x, 700.0)) + 1.0),
            0.0, x + 60.0, limit=400,
        )
        oracle *= 2.0 / math.sqrt(math.pi)
        assert fermi_dirac_f(1.5, x) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("x", [-3.0, -0.69, -0.2, 0.0, 0.8, 2.35, 5.0, 9.7, 15.0, 19.9, 20.1, 30.0])
    def test_against_mpmath(self, nu, x):
        if x > math.log(DEFAULT_TOL.series_cutoff) and not served_beyond_series(nu):
            with pytest.raises(DomainError, match=f"got nu={nu}"):
                fermi_dirac_f(nu, x)
            return
        exact = float(complex(-mp.polylog(mp.mpf(nu), -mp.exp(mp.mpf(x)))).real)
        assert fermi_dirac_f(nu, x) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("x", [-1.0, 0.3, 4.0, 12.0, 40.0])
    def test_integer_orders(self, n, x):
        exact = float(complex(-mp.polylog(n, -mp.exp(mp.mpf(x)))).real)
        assert fermi_dirac_f(float(n), x) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_order_one_closed_form(self):
        # f_1(e^x) = ln(1 + e^x), written for x > 0 so that e^x cannot overflow
        for x in (-0.5, 0.0, 3.0):
            assert fermi_dirac_f(1.0, x) == pytest.approx(
                math.log1p(math.exp(x)), rel=1e-15, abs=0.0)
        value = fermi_dirac_f(1.0, 800.0)
        assert math.isfinite(value) and value == 800.0 + math.log1p(math.exp(-800.0))

    @pytest.mark.parametrize("nu,x", [(0.0, 1.0), (-1.0, 1.0), (0.0, -0.2)])
    def test_integer_order_below_one_is_a_domain_error(self, nu, x):
        with pytest.raises(DomainError, match=f"order must be >= 1, got {round(nu)}"):
            fermi_dirac_f(nu, x)

    def test_branch_overlap_window(self):
        # the asymptotic branch stays within the quadrature tolerance of the
        # exact value on both sides of the switchover
        for x in (SOMMERFELD_SWITCH - 3.0, SOMMERFELD_SWITCH, SOMMERFELD_SWITCH + 3.0):
            exact = float(mp_fd_three_halves(x))
            asym = _fd_sommerfeld(1.5, x)
            full = fermi_dirac_f(1.5, x)
            assert asym == pytest.approx(exact, rel=10 * DEFAULT_TOL.rel_tol_quadrature)
            assert full == pytest.approx(exact, rel=10 * DEFAULT_TOL.rel_tol_quadrature)

    def test_series_seam_continuity(self):
        cut = math.log(DEFAULT_TOL.series_cutoff)
        series = -_polylog_series(1.5, -math.exp(cut))
        assert series == pytest.approx(float(mp_fd_three_halves(cut)), rel=1e-15, abs=0.0)

    @given(
        x=st.floats(min_value=-30.0, max_value=30.0),
        dx=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_strictly_increasing(self, x, dx):
        assert fermi_dirac_f(1.5, x + dx) > fermi_dirac_f(1.5, x)

    def test_sommerfeld_leading_form(self):
        # (4 / 3 sqrt(pi)) x^(3/2) (1 + pi^2 / (8 x^2) + ...)
        x = 25.0
        leading = 4.0 / (3.0 * math.sqrt(math.pi)) * x**1.5 * (1.0 + math.pi**2 / (8 * x * x))
        assert _fd_sommerfeld(1.5, x) == pytest.approx(leading, rel=1e-5)


FIT_EDGES = (math.log(0.5), 2.0, 6.0, 20.0)
FIT_TERMS = 24


@lru_cache(maxsize=None)
def mp_fd_three_halves(x) -> mp.mpf:
    """f_{3/2}(e^x) in mpmath at 30 digits from the Hurwitz-zeta inversion,
    Li_s(-e^x) = 2 (2 pi)^(s-1) Gamma(1-s) Re[e^(i pi (1-s)/2) zeta(1-s, 1/2 - i x/2pi)].
    It costs about 4 ms a call where mpmath.polylog(1.5, -e^x) costs about
    40 ms; test_mpmath_reference_is_polylog checks that the two agree.
    Cached, so the tests of the fit share the node values."""
    with mp.workdps(30):
        s = mp.mpf(1.5)
        a = mp.mpf(0.5) - 1j * mp.mpf(x) / (2 * mp.pi)
        return -2 * (2 * mp.pi) ** (s - 1) * mp.gamma(1 - s) * mp.re(
            mp.expjpi((1 - s) / 2) * mp.zeta(1 - s, a))


def mp_chebyshev_fit(lo: float, hi: float) -> tuple[float, ...]:
    """The generator of numerics._FD32_FIT: c_k = (2/N) sum_j f(x_j) cos(k theta_j),
    c_0 halved, at the N Chebyshev nodes x_j = mid + half cos(theta_j),
    theta_j = pi (j + 1/2) / N, all in mpmath at 30 digits."""
    with mp.workdps(30):
        mid, half = (mp.mpf(lo) + hi) / 2, (mp.mpf(hi) - lo) / 2
        theta = [mp.pi * (j + mp.mpf(0.5)) / FIT_TERMS for j in range(FIT_TERMS)]
        values = [mp_fd_three_halves(mid + half * mp.cos(t)) for t in theta]
        coeffs = [2 * mp.fsum(v * mp.cos(k * t) for v, t in zip(values, theta)) / FIT_TERMS
                  for k in range(FIT_TERMS)]
        coeffs[0] /= 2
        return tuple(float(c) for c in coeffs)


def fit_check_points(per_interval: int) -> list[float]:
    """Chebyshev extrema of each fit interval, edges included: the points
    farthest from the interpolation nodes."""
    points = []
    for lo, hi in zip(FIT_EDGES, FIT_EDGES[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        inner = [mid - half * math.cos(math.pi * j / (per_interval - 1))
                 for j in range(1, per_interval - 1)]
        points += [lo, *inner, hi]
    return points


class TestThreeHalvesFit:
    """f_{3/2}(e^x) on ln 1/2 < x < 20 comes from a Chebyshev fit on three
    intervals, reached through _polylog_negative_axis."""

    def test_generator_rebuilds_the_checked_in_coefficients(self):
        assert tuple((lo, hi) for lo, hi, _ in _FD32_FIT) == tuple(zip(FIT_EDGES, FIT_EDGES[1:]))
        for lo, hi, coeffs in _FD32_FIT:
            assert len(coeffs) == FIT_TERMS
            for k, (got, want) in enumerate(zip(coeffs, mp_chebyshev_fit(lo, hi))):
                assert abs(got - want) <= math.ulp(want), (lo, k, got, want)

    def test_mpmath_reference_is_polylog(self):
        for x in (-0.5, 3.5, 12.0):
            exact = -mp.polylog(1.5, -mp.exp(mp.mpf(x)))
            assert abs(mp_fd_three_halves(x) / mp.re(exact) - 1) < mp.mpf(1e-25), x

    def test_against_mpmath(self):
        points = fit_check_points(36)
        assert len(points) >= 100
        for x in points:
            exact = float(mp_fd_three_halves(x))
            assert -_polylog_negative_axis(1.5, x) == pytest.approx(exact, rel=1e-15, abs=0.0), x

    def test_against_mpmath_at_random_points(self):
        # off the Chebyshev extrema too: fermi_dirac_f at uniform random x
        rng = random.Random(1)
        for lo, hi in zip(FIT_EDGES, FIT_EDGES[1:]):
            for _ in range(50):
                x = rng.uniform(lo, hi)
                exact = float(mp_fd_three_halves(x))
                assert fermi_dirac_f(1.5, x) == pytest.approx(exact, rel=1e-15, abs=0.0), x

    @pytest.mark.parametrize("edge", [2.0, 6.0])
    def test_continuous_between_intervals(self, edge):
        left = fermi_dirac_f(1.5, math.nextafter(edge, -math.inf))
        right = fermi_dirac_f(1.5, edge)
        assert right == pytest.approx(left, rel=2e-15, abs=0.0)
        assert right == pytest.approx(float(mp_fd_three_halves(edge)), rel=1e-15, abs=0.0)

    def test_continuous_with_the_series_below(self):
        edge = math.log(DEFAULT_TOL.series_cutoff)
        assert edge == FIT_EDGES[0]
        series = fermi_dirac_f(1.5, edge)
        fit = fermi_dirac_f(1.5, math.nextafter(edge, math.inf))
        assert fit == pytest.approx(series, rel=2e-15, abs=0.0)

    def test_continuous_with_sommerfeld_above(self):
        # the truncated Sommerfeld series is itself 7e-12 off at x = 20
        assert SOMMERFELD_SWITCH == FIT_EDGES[-1]
        fit = fermi_dirac_f(1.5, math.nextafter(SOMMERFELD_SWITCH, 0.0))
        asym = fermi_dirac_f(1.5, SOMMERFELD_SWITCH)
        assert asym == pytest.approx(fit, rel=1e-11, abs=0.0)
        assert fit == pytest.approx(float(mp_fd_three_halves(SOMMERFELD_SWITCH)),
                                    rel=1e-15, abs=0.0)


class TestIntegrate1d:
    def test_monomial(self):
        assert integrate_1d(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_thomas_fermi_column_antiderivative(self):
        # int_0^Rb r (Rb^2 - r^2)^(3/2) dr = Rb^5 / 5
        r_b = 17.76e-6
        got = integrate_1d(lambda r: r * (r_b**2 - r * r) ** 1.5, 0.0, r_b)
        assert got == pytest.approx(r_b**5 / 5.0, rel=1e-8, abs=0.0)

    def test_zero_function(self):
        assert integrate_1d(lambda x: 0.0, 0.0, 1.0) == 0.0

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    def test_non_convergence_names_interval(self):
        message = r"\[0\.0, 1\.0\]: The maximum number of subdivisions"
        with pytest.raises(NonConvergenceError, match=message):
            integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("f,a,b,points", [
        (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 4.0, None),
        (lambda x: math.sqrt(x) * math.log1p(x), 0.0, 3.0, None),
        (lambda x: 1.0 / (1.0 + 100.0 * (x - 0.7) ** 2), -1.0, 2.0, None),
        (lambda x: abs(x - 0.3) + max(0.0, 1.0 - x * x) ** 1.5, -2.0, 2.0, (0.3, -1.0, 1.0)),
        (lambda x: max(0.0, 0.5 - x) ** 0.5 * math.exp(x), 0.0, 2.0, (0.5, 7.0)),
    ])
    def test_matches_scipy_quad(self, f, a, b, points):
        expected, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-10, points=points, limit=400)
        assert integrate_1d(f, a, b, points=points) == pytest.approx(expected, rel=1e-8)

    def test_tolerance_refinement(self):
        loose = NumericTolerances(rel_tol_quadrature=1e-6)
        tight = NumericTolerances(rel_tol_quadrature=5e-7)
        f = lambda x: math.exp(-x * x) * math.cos(7.0 * x)
        a = integrate_1d(f, 0.0, 4.0, loose)
        b = integrate_1d(f, 0.0, 4.0, tight)
        assert abs(a - b) <= 1e-6 * abs(a) + 1e-15


class TestIntegrateCylindrical:
    def test_unit_function_gives_cylinder_volume(self):
        r_max, z_max = 2.0, 3.0
        got = integrate_cylindrical(lambda r, z: 1.0, r_max, z_max)
        assert got == pytest.approx(2.0 * math.pi * r_max**2 * z_max, rel=1e-9)

    def test_gaussian_factorizes(self):
        got = integrate_cylindrical(
            lambda r, z: math.exp(-(r * r) - z * z), 8.0, 8.0
        )
        assert got == pytest.approx(math.pi * math.sqrt(math.pi), rel=1e-8)

    @given(amp=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative_integrand_nonnegative_result(self, amp):
        got = integrate_cylindrical(
            lambda r, z: amp * math.exp(-r - abs(z)), 3.0, 3.0
        )
        assert got >= 0.0

    def test_breakpoint_hint_accepted(self):
        def f(r, z):
            return max(0.0, 1.0 - r * r - z * z)

        def breaks(r):
            return (math.sqrt(1.0 - r * r),) if r < 1.0 else ()

        got = integrate_cylindrical(f, 1.0, 1.5, z_breakpoints=breaks)
        # int over unit ball of (1 - rho^2) = 8 pi / 15
        assert got == pytest.approx(8.0 * math.pi / 15.0, rel=1e-9)

    def test_emits_no_warning(self):
        # a kink at the condensate-like edge r = 1, with and without the hint
        f = lambda r, z: max(0.0, 1.0 - r * r) + math.exp(-r * r - z * z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = integrate_cylindrical(f, 3.0, 3.0)
            b = integrate_cylindrical(f, 3.0, 3.0, r_breakpoints=(1.0, 5.0))
        exact = math.pi * 3.0 + math.pi * -math.expm1(-9.0) * math.sqrt(math.pi) * math.erf(3.0)
        assert b == pytest.approx(exact, rel=1e-9)
        assert a == pytest.approx(exact, rel=1e-6)

    def test_halving_tolerance_stays_within_previous_estimate(self):
        f = lambda r, z: math.exp(-r * r - z * z) * (1.0 + 0.5 * math.cos(3.0 * z))
        loose = NumericTolerances(rel_tol_quadrature=1e-6)
        tight = NumericTolerances(rel_tol_quadrature=5e-7)
        a = integrate_cylindrical(f, 6.0, 6.0, loose)
        b = integrate_cylindrical(f, 6.0, 6.0, tight)
        assert abs(a - b) <= 1e-6 * abs(a)


class TestFindRoot:
    BRENTQ = dict(xtol=1e-300, rtol=DEFAULT_TOL.rel_tol_root, maxiter=DEFAULT_TOL.max_iterations)

    @pytest.mark.parametrize("reduced", [0.05, 0.3, 1.0, 3.0])
    def test_fermi_mu_root_matches_brentq(self, reduced):
        # the root solve_mu_fermi takes: f_3(e^x) = (T_F/T)^3 / 6
        target = 1.0 / (6.0 * reduced**3)
        f = lambda x: fermi_dirac_f(3.0, x) - target
        lo, hi = -10.0 - 3.0 * math.log(6.0 * reduced**3), 10.0 + 1.0 / reduced
        assert find_root(f, lo, hi) == pytest.approx(brentq(f, lo, hi, **self.BRENTQ), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("reduced", [1.001, 1.2, 2.0, 5.0])
    def test_bose_fugacity_root_matches_brentq(self, reduced):
        # the root mu_bose takes above T_c: Li_3(z) = zeta(3) (T_c/T)^3
        target = riemann_zeta(3.0) / reduced**3
        f = lambda z: polylog(3.0, z) - target
        expected = brentq(f, 1e-300, 1.0, **self.BRENTQ)
        assert find_root(f, 1e-300, 1.0) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_exhausted_iteration_budget_raises(self, monkeypatch):
        f = lambda x: math.cos(x) - x
        assert find_root(f, 0.0, 1.0) == pytest.approx(0.7390851332151607, rel=1e-12, abs=0.0)
        monkeypatch.setattr(NumericTolerances, "max_iterations", 3)
        with pytest.raises(NonConvergenceError, match="3 iterations"):
            find_root(f, 0.0, 1.0)

    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-12)

    def test_fugacity_equation_eighth(self):
        target = riemann_zeta(3.0) / 8.0
        root = find_root(lambda z: polylog(3.0, z) - target, 1e-12, 1.0)
        # oracle: bisection against the direct series
        lo, hi = 1e-12, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if series_polylog(3.0, mid, 300) < target:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert f"{root:.4f}" == "0.1474"

    def test_boundary_root(self):
        target = riemann_zeta(3.0)
        root = find_root(lambda z: polylog(3.0, z) - target, 1e-12, 1.0)
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_positive_rescaling(self, scale):
        f = lambda x: math.tanh(x) - 0.3
        base = find_root(f, -2.0, 2.0)
        scaled = find_root(lambda x: scale * f(x), -2.0, 2.0)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-13)


# the orders the package evaluates zeta at: the polylog orders, the even
# integers of the Sommerfeld coefficients and the near-one coefficients
# zeta(s - k), k <= 24
ZETA_ARGS = sorted(
    {0.5, 0.75, 1.5, 2.5, 3.0, 4.0}
    | {2.0 * k for k in range(1, 13)}
    | {s - k for s in (1.5, 2.5, 3.0, 4.0) for k in range(25)}
    - {1.0}
)


class TestRiemannZeta:
    @pytest.mark.parametrize("s", ZETA_ARGS)
    def test_against_mpmath_and_scipy(self, s):
        exact = float(mp.zeta(s))
        got = riemann_zeta(s)
        if exact == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert got == pytest.approx(float(scipy_zeta(s)), rel=1e-14, abs=0.0)

    def test_exact_values(self):
        assert riemann_zeta(0.0) == -0.5
        assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-15, abs=0.0)
        for n in range(1, 13):
            assert riemann_zeta(-2.0 * n) == 0.0

    def test_pole(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)


class TestTolerances:
    def test_validation(self):
        with pytest.raises(ValueError):
            NumericTolerances(rel_tol_quadrature=0.0)
        # the other knobs are class constants, not settable per instance
        for field in ("rel_tol_root", "series_cutoff", "max_iterations"):
            with pytest.raises(TypeError):
                NumericTolerances(**{field: 0.2})
            assert getattr(DEFAULT_TOL, field) == getattr(NumericTolerances, field)

    @pytest.mark.parametrize("field", ["rel_tol_quadrature"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=field):
            NumericTolerances(**{field: bad})
