"""Special functions, quadrature, and root finding."""

import math
import random
import re
import sys
import warnings
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from slowlight import numerics
from slowlight.gas import ZETA_3
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


def served(order: float, x: float) -> bool:
    """The domain rule of fermi_dirac_f(order, x) and of polylog(order, e^x):
    every order in the series region, x <= ln(series_cutoff), past it the
    orders the cloud uses, 3/2 (the density), 2 and 3 (the columns and the
    mu roots) and 4 (the axial moment)."""
    return x <= math.log(DEFAULT_TOL.series_cutoff) or order in (1.5, 2.0, 3.0, 4.0)


def check_negative_axis(s: float, z: float) -> None:
    """polylog refuses z < 0 and names fermi_dirac_f, which gives
    Li_s(z) = -f_s(e^x), x = ln(-z), there under its own domain rule."""
    with pytest.raises(DomainError, match=r"-fermi_dirac_f\(s, ln\(-z\)\)"):
        polylog(s, z)
    if not served(s, math.log(-z)):
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
        if z < 0.0:
            check_negative_axis(s, z)
            return
        if not served(s, math.log(z)):
            with pytest.raises(DomainError, match=f"takes s = 3/2, 2, 3 or 4, got s={s}"):
                polylog(s, z)
            return
        assert polylog(s, z) == pytest.approx(mp_polylog(s, z), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("z", [-40.0, -5.0, -1.5])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_large_negative_arguments(self, s, z):
        check_negative_axis(s, z)

    def test_domain_ends(self):
        # 0 <= z <= 1, the fugacities of a Bose cloud, ends included
        assert polylog(1.5, 0.0) == polylog(1.5, -0.0) == 0.0
        assert polylog(1.5, 1.0) == pytest.approx(mp_polylog(1.5, 1.0), rel=1e-14, abs=0.0)
        for z in (math.nextafter(0.0, -1.0), -DEFAULT_TOL.series_cutoff, math.nextafter(1.0, 2.0),
                  math.nan):
            with pytest.raises(DomainError, match=re.escape(f"polylog takes 0 <= z <= 1, got z={z}")):
                polylog(1.5, z)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            polylog(3.0, 1.0001)
        with pytest.raises(DomainError):
            polylog(1.0, 1.0)

    @pytest.mark.parametrize("s,z,message", [
        (0.5, 0.7, "takes s = 3/2, 2, 3 or 4, got s=0.5"),
        (math.nan, 0.7, "takes s = 3/2, 2, 3 or 4, got s=nan"),
        (math.inf, 0.7, "takes s = 3/2, 2, 3 or 4, got s=inf"),
        (math.nan, 0.3, "order of Li_s must be a number, got s=nan"),
        (math.nan, 0.0, "order of Li_s must be a number, got s=nan"),
        (-math.inf, 0.0, "order of Li_s must be a number, got s=-inf"),
    ])
    def test_domain_errors_name_the_order(self, s, z, message):
        with pytest.raises(DomainError, match=message):
            polylog(s, z)

    @pytest.mark.parametrize("s", [math.nan, -math.inf])
    def test_order_refused_before_the_series(self, monkeypatch, s):
        # -inf once divided by j^-inf = 0 in the series, and NaN was named only
        # after it had spent the series' term budget
        def series(*args):
            raise AssertionError(f"the series ran at {args}")

        monkeypatch.setattr(numerics, "_polylog_series", series)
        message = re.escape(f"order of Li_s must be a number, got s={s}")
        with pytest.raises(DomainError, match=message):
            polylog(s, 0.3)
        with pytest.raises(DomainError, match=message):
            fermi_dirac_f(s, -5.0)

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
        z=st.floats(min_value=0.05, max_value=DEFAULT_TOL.series_cutoff),
        z_near=st.floats(min_value=DEFAULT_TOL.series_cutoff, max_value=1.0, exclude_min=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_order(self, s, ds, z, z_near):
        # any order in the series region; past it, the four orders served
        assert polylog(s + ds, z) < polylog(s, z)
        li = [polylog(order, z_near) for order in (1.5, 2.0, 3.0, 4.0)]
        assert li[0] > li[1] > li[2] > li[3], (z_near, li)

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
        if not served(nu, x):
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
        # f_1(e^x) = ln(1 + e^x) comes from the series, which serves every
        # order; past it no cloud takes order 1, and it is refused
        for x in (-30.0, -1.0, math.log(DEFAULT_TOL.series_cutoff)):
            assert fermi_dirac_f(1.0, x) == pytest.approx(
                math.log1p(math.exp(x)), rel=1e-15, abs=0.0)
        for x in (-0.5, 0.0, 3.0, 800.0):
            with pytest.raises(DomainError, match=r"takes nu = 3/2, 2, 3 or 4, got nu=1\.0"):
                fermi_dirac_f(1.0, x)

    def test_integer_orders_end_at_four(self):
        # past the series, _fd_integer writes out the reflection polynomials
        # P_2, P_3 and P_4: n = 4, the axial moment's, is the last order served
        for x in (-0.5, 0.3, 3.0, 12.0, 40.0):
            exact = float(complex(-mp.polylog(4, -mp.exp(mp.mpf(x)))).real)
            assert fermi_dirac_f(4.0, x) == pytest.approx(exact, rel=1e-14, abs=0.0), x
        for nu in (5.0, 25.0):
            for x in (-0.5, 1.0, 40.0):
                with pytest.raises(DomainError, match=f"got nu={nu}"):
                    fermi_dirac_f(nu, x)
        # inside the series region every order is served
        assert fermi_dirac_f(26.0, -1.0) == pytest.approx(
            float(complex(-mp.polylog(26, -mp.exp(-1))).real), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("nu,x", [(0.0, 1.0), (-1.0, 1.0), (0.0, -0.2)])
    def test_integer_order_below_one_is_a_domain_error(self, nu, x):
        with pytest.raises(DomainError, match=f"takes nu = 3/2, 2, 3 or 4, got nu={nu}"):
            fermi_dirac_f(nu, x)

    @pytest.mark.parametrize("nu,x,message", [
        (1.5, math.nan, "got x=nan"),
        (4.0, math.nan, "got x=nan"),
        (3.0, math.nan, "got x=nan"),
        (math.nan, 1.0, "got nu=nan"),
        (math.inf, 1.0, "got nu=inf"),
        (-math.inf, 30.0, "got nu=-inf"),
        (math.nan, -5.0, "order of Li_s must be a number, got s=nan"),
    ])
    def test_not_a_number_is_a_domain_error_naming_it(self, nu, x, message):
        with pytest.raises(DomainError, match=message):
            fermi_dirac_f(nu, x)

    @pytest.mark.parametrize("nu", [1.5, 2.0, 3.0, 4.0])
    def test_infinite_argument_gives_the_limits(self, nu):
        assert fermi_dirac_f(nu, -math.inf) == 0.0
        assert fermi_dirac_f(nu, math.inf) == math.inf

    def test_branch_overlap_window(self):
        # the asymptotic branch stays within the quadrature tolerance of the
        # exact value on both sides of the switchover
        for x in (SOMMERFELD_SWITCH - 3.0, SOMMERFELD_SWITCH, SOMMERFELD_SWITCH + 3.0):
            exact = float(mp_fd_three_halves(x))
            asym = _fd_sommerfeld(x)
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
        assert _fd_sommerfeld(x) == pytest.approx(leading, rel=1e-5)


FIT_EDGES = (math.log(0.5), 2.0, 6.0, 20.0)
FIT_TERMS = 24
# the piece for x >= 20: f Gamma(5/2) / x^(3/2) on u = (20/x)^2 in [0, 1]
TAIL_TERMS = 12
TAIL_DIGITS = 34


@lru_cache(maxsize=None)
def mp_fd_three_halves(x, digits: int = 30) -> mp.mpf:
    """f_{3/2}(e^x) in mpmath at the given digits from the Hurwitz-zeta inversion,
    Li_s(-e^x) = 2 (2 pi)^(s-1) Gamma(1-s) Re[e^(i pi (1-s)/2) zeta(1-s, 1/2 - i x/2pi)].
    It costs about 4 ms a call where mpmath.polylog(1.5, -e^x) costs about
    40 ms; test_mpmath_reference_is_polylog checks that the two agree.
    Cached, so the tests of the fit share the node values."""
    with mp.workdps(digits):
        s = mp.mpf(1.5)
        a = mp.mpf(0.5) - 1j * mp.mpf(x) / (2 * mp.pi)
        return -2 * (2 * mp.pi) ** (s - 1) * mp.gamma(1 - s) * mp.re(
            mp.expjpi((1 - s) / 2) * mp.zeta(1 - s, a))


def mp_chebyshev_fit(f, terms: int, digits: int) -> tuple[float, ...]:
    """The generator of numerics._FD32_FIT: c_k = (2/N) sum_j f(t_j) cos(k theta_j),
    c_0 halved, at the N Chebyshev nodes t_j = cos(theta_j) of [-1, 1],
    theta_j = pi (j + 1/2) / N, all in mpmath at the given digits."""
    with mp.workdps(digits):
        theta = [mp.pi * (j + mp.mpf(0.5)) / terms for j in range(terms)]
        values = [f(mp.cos(t)) for t in theta]
        coeffs = [2 * mp.fsum(v * mp.cos(k * t) for v, t in zip(values, theta)) / terms
                  for k in range(terms)]
        coeffs[0] /= 2
        return tuple(float(c) for c in coeffs)


def mp_fit_pieces() -> list[tuple[float, float, tuple[float, ...]]]:
    """(lo, hi, c) of every piece, as numerics._FD32_FIT holds them: f itself
    at x = mid + half t on the three intervals of FIT_EDGES, at 30 digits,
    and f Gamma(5/2) / x^(3/2) at u = (1 + t) / 2, x = 20 / sqrt(u), at 34."""

    def interval(lo, hi):
        return lambda t: mp_fd_three_halves((mp.mpf(lo) + hi) / 2 + (mp.mpf(hi) - lo) / 2 * t)

    def tail(t):
        x = FIT_EDGES[-1] / mp.sqrt((1 + t) / 2)
        return mp_fd_three_halves(x, TAIL_DIGITS) * mp.gamma(2.5) / x**1.5

    pieces = [(lo, hi, mp_chebyshev_fit(interval(lo, hi), FIT_TERMS, 30))
              for lo, hi in zip(FIT_EDGES, FIT_EDGES[1:])]
    return pieces + [(0.0, 1.0, mp_chebyshev_fit(tail, TAIL_TERMS, TAIL_DIGITS))]


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


def tail_check_points(count: int) -> list[float]:
    """x in [20, 1e6] for the piece in u = (20/x)^2: the next float above 20,
    x at the Chebyshev extrema of u in (0, 1], 20 among them, and a geometric
    grid up to 1e6, where u is 4e-10."""
    edge = FIT_EDGES[-1]
    extrema = [0.5 * (1.0 + math.cos(math.pi * j / count)) for j in range(count)]
    geometric = [edge * 5e4 ** (j / count) for j in range(1, count + 1)]
    return [math.nextafter(edge, math.inf), *(edge / math.sqrt(u) for u in extrema), *geometric]


class TestThreeHalvesFit:
    """f_{3/2}(e^x) for x > ln 1/2 comes from a Chebyshev fit in four pieces,
    the three intervals of FIT_EDGES reached through _polylog_negative_axis
    and the piece in u = (20/x)^2 for x >= 20 through _fd_sommerfeld."""

    def test_generator_rebuilds_the_checked_in_coefficients(self):
        rebuilt = mp_fit_pieces()
        assert [(lo, hi, len(c)) for lo, hi, c in _FD32_FIT] == [
            (lo, hi, len(c)) for lo, hi, c in rebuilt]
        for (lo, _, coeffs), (_, _, wanted) in zip(_FD32_FIT, rebuilt):
            for k, (got, want) in enumerate(zip(coeffs, wanted)):
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
            assert -_polylog_negative_axis(x) == pytest.approx(exact, rel=1e-15, abs=0.0), x

    def test_tail_against_mpmath(self):
        points = tail_check_points(60)
        assert len(points) >= 100 and min(points) == FIT_EDGES[-1] and max(points) == 1e6
        for x in points:
            exact = float(mp_fd_three_halves(x))
            assert fermi_dirac_f(1.5, x) == pytest.approx(exact, rel=1e-15, abs=0.0), x

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
        # the _fd_sommerfeld branch is the fit's piece in (20/x)^2; the
        # truncated Sommerfeld series it replaced was 7e-12 off at x = 20
        assert SOMMERFELD_SWITCH == FIT_EDGES[-1]
        fit = fermi_dirac_f(1.5, math.nextafter(SOMMERFELD_SWITCH, 0.0))
        tail = fermi_dirac_f(1.5, SOMMERFELD_SWITCH)
        assert tail == pytest.approx(fit, rel=2e-15, abs=0.0)
        for value in (fit, tail):
            assert value == pytest.approx(float(mp_fd_three_halves(SOMMERFELD_SWITCH)),
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

    def test_result_within_ten_times_its_tolerance_raises(self, monkeypatch):
        # one panel of e^x, the whole budget: its estimate, 50 machine epsilons
        # of the integral, is 5.6 times rel_tol |I|, and a result within 10
        # times its tolerance was once kept when the panel budget ran out
        monkeypatch.setattr(NumericTolerances, "max_iterations", 1)
        rel_tol = 2e-15
        value, error = numerics._qk21(math.exp, 0.0, 1.0)
        assert rel_tol * value < error < 10.0 * rel_tol * value
        message = r"\[0\.0, 1\.0\]: The maximum number of subdivisions \(1\)"
        with pytest.raises(NonConvergenceError, match=message):
            integrate_1d(math.exp, 0.0, 1.0, rel_tol)

    @pytest.mark.parametrize("points,panels", [(None, 1), ((0.5,), 2)],
                             ids=["one-panel", "breakpoint"])
    def test_underflowed_integrand_returns_after_its_first_panels(self, points, panels):
        # subnormal values: the estimate is below the smallest normal float at
        # once, but never below rel_tol |I|, so the loop once spent its whole
        # panel budget, 16,779 calls, before keeping the result
        calls = []

        def f(x):
            calls.append(x)
            return 1e-312 * (2.0 + math.cos(1e5 * x))

        got = integrate_1d(f, 0.0, 1.0, points=points)
        assert len(calls) <= 21 * panels
        exact = 1e-312 * (2.0 + math.sin(1e5) / 1e5)
        assert abs(got - exact) <= sys.float_info.min

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-8, math.nan, math.inf])
    def test_rel_tol_must_be_positive_and_finite(self, rel_tol):
        def f(x):
            raise AssertionError("integrand called before rel_tol was checked")

        with pytest.raises(DomainError, match=r"\brel_tol must be a positive finite number"):
            integrate_1d(f, 0.0, 1.0, rel_tol)

    def test_panel_that_cannot_be_bisected_names_interval(self):
        # a step inside one ulp: the panel [1, 1 + ulp] has no midpoint
        b = math.nextafter(1.0, 2.0)
        message = r"\[1\.0, 1\.0000000000000002\]: The panel with the largest error cannot be"
        with pytest.raises(NonConvergenceError, match=message):
            integrate_1d(lambda x: 1.0 if x == 1.0 else -1.0, 1.0, b)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("points,panel", [(None, r"\[0\.0, 1\.0\]"),
                                              ((0.5,), r"\[0\.5, 1\.0\]")],
                             ids=["one-panel", "breakpoint"])
    def test_non_finite_panel_raises_naming_it(self, value, points, panel):
        # NaN compares false with every tolerance, so the loop once bisected it
        # to the panel budget and returned NaN; an infinity came back as the value
        calls = []

        def f(x):
            calls.append(x)
            return value if x > 0.5 else x

        with pytest.raises(NonConvergenceError, match=panel + ": .* is not finite"):
            integrate_1d(f, 0.0, 1.0, points=points)
        assert len(calls) <= 42  # at most the two panels of the breakpoint

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
        f = lambda x: math.exp(-x * x) * math.cos(7.0 * x)
        a = integrate_1d(f, 0.0, 4.0, 1e-6)
        b = integrate_1d(f, 0.0, 4.0, 5e-7)
        assert abs(a - b) <= 1e-6 * abs(a) + 1e-15


class TestIntegrateCylindrical:
    def test_unit_function_gives_cylinder_volume(self):
        r_max, z_max = 2.0, 3.0
        got = integrate_cylindrical(lambda r, z: 1.0, r_max, z_max)
        assert got == pytest.approx(2.0 * math.pi * r_max**2 * z_max, rel=1e-9)

    def test_extent_must_be_positive(self):
        for r_max, z_max in ((0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(DomainError, match="r_max and z_max must be positive"):
                integrate_cylindrical(lambda r, z: 1.0, r_max, z_max)

    def test_non_finite_integrand_raises_at_once(self):
        # the nested loops once bisected a NaN column to the panel budget at
        # every outer node, tens of millions of calls; the counter stops that
        calls = [0]

        def f(r, z):
            calls[0] += 1
            if calls[0] > 10_000:
                raise RuntimeError("integrand called past 10,000 times")
            return math.nan

        with pytest.raises(NonConvergenceError, match=r"quadrature failed on \[0\.0, 1\.0\]"):
            integrate_cylindrical(f, 1.0, 1.0, 1e-3)
        assert calls[0] <= 21  # one panel

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
        a = integrate_cylindrical(f, 6.0, 6.0, 1e-6)
        b = integrate_cylindrical(f, 6.0, 6.0, 5e-7)
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
        target = ZETA_3 / reduced**3
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

    def test_nan_at_an_end_is_refused(self):
        # f(lo) = NaN passed both bracket checks, and lo came back as the root
        f = lambda x: math.nan if x == 0.0 else x - 0.3
        with pytest.raises(BracketError, match=r"^f\(0\.0\)=nan and f\(1\.0\)=0\.7 do not bracket"):
            find_root(f, 0.0, 1.0)

    def test_ends_of_one_sign_are_refused_when_their_product_underflows(self):
        # f(lo) f(hi) = 2e-400 rounded to 0.0, which passed as a bracket: 0.0 came back
        with pytest.raises(BracketError, match="do not bracket a root"):
            find_root(lambda x: 1e-200 * (1.0 + x), 0.0, 1.0)

    def test_nan_inside_the_bracket_is_refused(self):
        # a NaN step compared false everywhere: 0.2500000000000454 came back
        f = lambda x: math.nan if 0.25 < x < 0.35 else x - 0.3
        with pytest.raises(NonConvergenceError, match=r"is NaN inside \[0\.0, 1\.0\]"):
            find_root(f, 0.0, 1.0)

    def test_fugacity_equation_eighth(self):
        target = ZETA_3 / 8.0
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
        target = ZETA_3
        root = find_root(lambda z: polylog(3.0, z) - target, 1e-12, 1.0)
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_bracket_must_be_ordered(self, lo, hi):
        with pytest.raises(BracketError, match=r"need lo < hi"):
            find_root(lambda x: x - 1.5, lo, hi)

    def test_root_at_either_end_is_returned(self):
        assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert find_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_positive_rescaling(self, scale):
        f = lambda x: math.tanh(x) - 0.3
        base = find_root(f, -2.0, 2.0)
        scaled = find_root(lambda x: scale * f(x), -2.0, 2.0)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-13)


class TestZetaData:
    """The zeta values that the expansion of Li_s about z = 1 reads, for the
    orders the cloud uses, are checked-in literals; mpmath rebuilds them."""

    def test_generator_rebuilds_the_checked_in_values(self):
        with mp.workdps(40):
            assert [numerics._ZETA_2, numerics._ZETA_3, numerics._ZETA_4] == [
                float(mp.zeta(n)) for n in (2, 3, 4)]
            assert numerics._ZETA_HALF == tuple(
                float(mp.zeta(mp.mpf(1.5) - k)) for k in range(17))
            # zeta(-m) = -B_{m+1}/(m + 1) with B_1 = +1/2; mpmath's B_1 is -1/2
            bernoulli = [-mp.bernoulli(m + 1) / (m + 1) for m in range(15)]
            bernoulli[0] = -bernoulli[0]
            assert numerics._ZETA_NEGATIVE == tuple(float(b) for b in bernoulli)
            assert numerics._ZETA_NEGATIVE == tuple(float(mp.zeta(-m)) for m in range(15))

    def test_rows_are_zeta_over_factorial(self):
        # zeta(s - k)/k!, and H_k/k! at an integer order's pole k = s - 1,
        # each within an ulp: the literal's rounding, then the division's
        assert tuple(numerics._NEAR_ONE) == numerics._ORDERS == (1.5, 2.0, 3.0, 4.0)
        with mp.workdps(40):
            for s, row in numerics._NEAR_ONE.items():
                assert len(row) == 17
                for k, got in enumerate(row):
                    u = mp.mpf(s) - k
                    exact = (mp.harmonic(k) if u == 1 else mp.zeta(u)) / mp.factorial(k)
                    assert abs(got - exact) <= math.ulp(float(exact)), (s, k, got, exact)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
    def test_unit_argument_is_zeta(self, s):
        with mp.workdps(40):
            assert polylog(s, 1.0) == float(mp.zeta(s))

    def test_zeta3_is_the_bose_constant(self):
        # T_c and the Bose fugacity root read gas.ZETA_3; at T = T_c the root
        # of Li_3(z) = ZETA_3 lands on z = 1 exactly
        assert polylog(3.0, 1.0) == ZETA_3 == 1.2020569031595942
        assert find_root(lambda z: polylog(3.0, z) - ZETA_3, 1e-12, 1.0) == 1.0

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
    def test_near_one_against_mpmath(self, s):
        # random z in (1/2, 1] and both ends of that range
        rng = random.Random(int(2 * s))
        points = [math.nextafter(DEFAULT_TOL.series_cutoff, 1.0), 1.0,
                  *(rng.uniform(DEFAULT_TOL.series_cutoff, 1.0) for _ in range(300))]
        for z in points:
            assert polylog(s, z) == pytest.approx(mp_polylog(s, z), rel=1e-15, abs=0.0), z


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
