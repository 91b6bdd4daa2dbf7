"""Scalar special functions, quadrature, and root finding.

The thermodynamics of a trapped quantum gas reduces to polylogarithms
g_n(z) = Li_n(z) on the Bose side and Fermi-Dirac functions
f_nu(e^x) = -Li_nu(-e^x) on the Fermi side.  Everything here is scalar,
pure, and deterministic; the optics integrals call these inside adaptive
quadrature, so the special functions are kept cheap.

Evaluation strategy for Li_s on -series_cutoff <= z <= 1 (further along the
negative axis Li_s(z) = -f_s(e^x), x = ln(-z), is the Fermi-Dirac function's):
  * |z| <= series_cutoff          direct power series
  * series_cutoff < z <= 1        expansion in ln z about the z=1 point
and for f_nu(e^x):
  * x <= ln(series_cutoff)        alternating power series, any order
  * integer nu >= 1 beyond it     exact reflection and the square formula
  * nu = 3/2, x < 20              a checked-in Chebyshev fit on three
                                  intervals (3/2 is the order of every
                                  LDA density)
  * nu = 3/2, x >= 20             Sommerfeld asymptotic expansion
  * any other nu beyond it        DomainError
The branches overlap to well below the working tolerances; tests pin the
agreement windows.

Riemann zeta comes from an Euler-Maclaurin sum (s >= 1/2) and the
functional equation (s < 1/2).  Quadrature is an adaptive 21-point
Gauss-Kronrod rule with QUADPACK's error estimate (Piessens et al. 1983)
and roots come from Brent's bracketing method (Brent 1973), both in plain
Python; scipy serves only as the tests' oracle.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache


class DomainError(ValueError):
    """Argument outside the supported domain (e.g. Li_s(z) with z > 1)."""


class NonConvergenceError(RuntimeError):
    """Iteration or subdivision budget exhausted before reaching tolerance."""


class BracketError(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


def require_finite(obj: object, *fields: str) -> None:
    """Reject NaN and infinite fields by name; the range checks that follow
    a call to this compare with < and <=, which are all false for NaN."""
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def replace(record, **changes):
    """Copy of a record with some fields changed.

    The package's records are namedtuple subclasses that run their checks
    in __new__; the copy goes through the constructor so that the checks
    run again, which namedtuple's own _replace would skip."""
    return type(record)(**{**record._asdict(), **changes})


class NumericTolerances(namedtuple("NumericTolerances", "rel_tol_quadrature")):
    """The quadrature tolerance of integrate_1d, integrate_cylindrical and
    the optics observables built on them, the only routines whose result
    depends on it.

    The root tolerance, the series cutoff and the iteration budget are
    constants of the class: every run uses the same values.  find_root, the
    quadrature loop and the private special-function helpers read them from
    the class.  polylog and fermi_dirac_f still take a record and read the
    series cutoff through it, and make_profile keeps one in its cache key,
    because the benchmark's tracer and layer timings call them with one."""

    __slots__ = ()
    rel_tol_root = 1e-12
    series_cutoff = 0.5
    max_iterations = 400  # series terms, root steps, quadrature panels

    def __new__(cls, rel_tol_quadrature: float = 1e-8):
        self = tuple.__new__(cls, (rel_tol_quadrature,))
        require_finite(self, "rel_tol_quadrature")
        if self.rel_tol_quadrature <= 0:
            raise ValueError("tolerances must be strictly positive")
        return self


DEFAULT_TOL = NumericTolerances()

# Sommerfeld expansion takes over from the mid-range branch here.
SOMMERFELD_SWITCH = 20.0

_B2K = (  # Bernoulli numbers B_2, B_4, ..., B_24
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730,
)
_EM_TERMS = len(_B2K)
_EM_OFFSET = 20


def riemann_zeta(s: float) -> float:
    """Riemann zeta at real s != 1: the Euler-Maclaurin sum for s >= 1/2,
    the functional equation zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s)
    zeta(1-s) below, exact at the zeros s = -2, -4, ... and at s = 0."""
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    if s >= 0.5:
        # Euler-Maclaurin: the terms n = 1..20, then the tail at t = 21
        acc = 0.0
        for n in range(1, _EM_OFFSET + 1):
            acc += n ** (-s)
        t = _EM_OFFSET + 1.0
        acc += t ** (1.0 - s) / (s - 1.0) + 0.5 * t ** (-s)
        poch = s  # rising factorial (s)_{2j-1}
        for j in range(1, _EM_TERMS + 1):
            acc += _B2K[j - 1] / math.factorial(2 * j) * poch * t ** (1.0 - s - 2 * j)
            poch *= (s + 2 * j - 1) * (s + 2 * j)
        return acc
    if s == 0.0:
        return -0.5
    if s < 0.0 and s % 2.0 == 0.0:
        return 0.0
    # sin(pi s / 2) with the argument reduced exactly to (-2 pi, 2 pi)
    sine = math.sin(math.pi * math.fmod(0.5 * s, 2.0))
    return (
        2.0**s * math.pi ** (s - 1.0) * sine * math.gamma(1.0 - s) * riemann_zeta(1.0 - s)
    )


# eta(2k) = (1 - 2^{1-2k}) zeta(2k), k = 1..12, for Sommerfeld coefficients
_ETA_EVEN = tuple((1.0 - 2.0 ** (1 - 2 * k)) * riemann_zeta(2 * k) for k in range(1, 13))


def _is_integer(s: float) -> bool:
    return abs(s - round(s)) < 1e-12


def _polylog_series(s: float, z: float) -> float:
    # Direct sum of z^j / j^s; geometric for |z| <= series_cutoff.
    acc = 0.0
    zj = 1.0
    for j in range(1, NumericTolerances.max_iterations + 1):
        zj *= z
        term = zj / j**s
        acc += term
        if abs(term) <= 1e-16 * abs(acc) + 5e-324:
            return acc
    raise NonConvergenceError(f"polylog series stalled at s={s}, z={z}")


_LNZ_KMAX = 24


@lru_cache(maxsize=64)
def _lnz_coefficients(s: float) -> tuple[float, ...]:
    # zeta(s - k)/k! for the expansion of Li_s(e^mu) about mu = 0; 0 at
    # zeta's pole s - k = 1 of an order that _is_integer accepts, where
    # _polylog_near_one puts its log term instead.
    coeffs = []
    fact = 1.0
    for k in range(_LNZ_KMAX + 1):
        if k:
            fact *= k
        u = s - k
        coeffs.append(0.0 if abs(u - 1.0) < 1e-12 else riemann_zeta(u) / fact)
    return tuple(coeffs)


def _polylog_near_one(s: float, z: float) -> float:
    # Li_s(e^mu) = Gamma(1-s)(-mu)^{s-1} + sum_k zeta(s-k) mu^k / k! for
    # non-integer s; for integer s = n the pole term is mu^{n-1}(H_{n-1} -
    # ln(-mu))/(n-1)! at k = n - 1 instead.  |mu| < 2pi.
    mu = math.log(z)
    integer = _is_integer(s)
    log_k = round(s) - 1 if integer else -1
    acc = 0.0 if integer or mu == 0.0 else math.gamma(1.0 - s) * (-mu) ** (s - 1.0)
    muk = 1.0
    for k, c in enumerate(_lnz_coefficients(s)):
        if k == log_k and mu != 0.0:
            harmonic = sum(1.0 / i for i in range(1, k + 1))
            acc += muk * (harmonic - math.log(-mu)) / math.factorial(k)
        acc += c * muk
        muk *= mu
    return acc


# f_{3/2}(e^x) on [ln 1/2, 2], [2, 6] and [6, 20], the window between the
# series and the Sommerfeld branch: (lo, hi, c) per interval with
# f = sum_k c[k] T_k(t), t = (2x - lo - hi) / (hi - lo), the Chebyshev
# interpolant at the 24 Chebyshev nodes of the interval, from mpmath at 30
# digits (the approach of GSL's fermi_dirac.c, Goano 1995, Fukushima 2015).
# tests/test_numerics.py rebuilds these coefficients and checks them.
_FD32_FIT = (
    (-0.6931471805599453, 2.0, (
        1.4383016205347552, 1.191860928041034, 0.19020558940967625,
        0.005042193254285613, -0.001737531198552282, 1.6269150364562425e-05,
        3.5368814357415883e-05, -2.526355414830369e-06, -7.622918008879186e-07,
        1.181552130491055e-07, 1.4372354540595996e-08, -4.481712842734078e-09,
        -1.4457503021790816e-10, 1.511857581349793e-10, -5.610517104674464e-12,
        -4.5695769655523694e-12, 5.015112231221808e-13, 1.1917327511467845e-13,
        -2.539656758547365e-14, -2.3234956788041866e-15, 1.0455705694041409e-15,
        7.530901782873439e-18, -3.738731072773858e-17, 2.561076967839974e-18,
    )),
    (2.0, 6.0, (
        6.822331200416223, 4.326494589081217, 0.31182204394738927,
        -0.015074124093662279, 0.0010336943219750605, 1.275942021625074e-05,
        -2.558567750062837e-05, 5.9820837738666e-06, -8.341551387635099e-07,
        5.032169605549768e-08, 1.0347453275513807e-08, -4.147227751526919e-09,
        7.88250466005287e-10, -8.457979102266991e-11, -1.6125970697502915e-12,
        3.102185991939906e-12, -7.969775843976461e-13, 1.1883694228990596e-13,
        -6.765523675280562e-15, -2.052726130453918e-15, 7.990731405931911e-16,
        -1.548296914891273e-16, 1.6466040705162375e-17, 4.595543893835384e-19,
    )),
    (6.0, 20.0, (
        37.482243396667684, 28.122477298755534, 1.9748983629615107,
        -0.09804792079474829, 0.011524856423962775, -0.0018895203154333737,
        0.0003711478111814602, -7.984200479815646e-05, 1.753805839613533e-05,
        -3.6992111310900183e-06, 6.984431775769462e-07, -1.0230242019121055e-07,
        4.481660897240093e-09, 4.442997249010732e-09, -2.435808080561878e-09,
        8.921565840446428e-10, -2.7599493549533964e-10, 7.692105831588033e-11,
        -1.9792072653509068e-11, 4.73133377361921e-12, -1.041590836968143e-12,
        2.0446634614844792e-13, -3.263544357256342e-14, 3.0806362409293324e-15,
    )),
)
# Clenshaw's form of each interval: lo + hi, 1 / (hi - lo), c[N-1], ..., c[1], c[0]
_FD32_CLENSHAW = tuple((lo + hi, 1.0 / (hi - lo), c[:0:-1], c[0]) for lo, hi, c in _FD32_FIT)


def _polylog_negative_axis(s: float, x: float) -> float:
    # Li_{3/2}(-e^x) for ln 1/2 <= x <= 20 from _FD32_FIT by Clenshaw's
    # recurrence; fermi_dirac_f has refused every other order by now.  The
    # name stays because the benchmark's branch classifier spies on it.
    total, inverse, tail, c0 = _FD32_CLENSHAW[0 if x < 2.0 else 1 if x < 6.0 else 2]
    t = (x + x - total) * inverse
    t2 = t + t
    b1 = b2 = 0.0
    for c in tail:
        b1, b2 = c + t2 * b1 - b2, b1
    return -(c0 + t * b1 - b2)


def _fd_front_polynomial(n: int, x: float) -> float:
    # Closed even/odd polynomial P_n with f_n(e^x) = P_n(x) + (-1)^{n-1} f_n(e^-x).
    acc = x**n / math.factorial(n)
    pref = 1.0 / math.factorial(n - 1)
    for m in range(1, n, 2):
        eta_m1 = _ETA_EVEN[(m + 1) // 2 - 1]
        acc += pref * 2.0 * math.comb(n - 1, m) * math.factorial(m) * eta_m1 * x ** (n - 1 - m)
    return acc


def _fd_sommerfeld(nu: float, x: float) -> float:
    # Degenerate expansion; truncated at the smallest term.
    acc = 1.0
    fall = 1.0
    prev = math.inf
    for k in range(1, len(_ETA_EVEN) + 1):
        fall *= (nu - 2 * k + 2) * (nu - 2 * k + 1)
        term = 2.0 * _ETA_EVEN[k - 1] * fall * x ** (-2 * k)
        if abs(term) >= prev:
            break
        acc += term
        prev = abs(term)
        if prev <= 1e-17 * abs(acc):
            break
    return x**nu / math.gamma(nu + 1.0) * acc


def polylog(s: float, z: float, tol: NumericTolerances = DEFAULT_TOL) -> float:
    """Li_s(z) = sum_{j>=1} z^j / j^s for real s and -series_cutoff <= z <= 1;
    further along the negative axis Li_s(z) = -fermi_dirac_f(s, ln(-z))."""
    if not -tol.series_cutoff <= z <= 1.0:
        raise DomainError(f"polylog takes -{tol.series_cutoff} <= z <= 1, got z={z}; "
                          "below, Li_s(z) is -fermi_dirac_f(s, ln(-z))")
    if z == 0.0:
        return 0.0
    if s == 1.0:
        if z == 1.0:
            raise DomainError("Li_1 diverges at z = 1")
        return -math.log1p(-z)
    if z <= tol.series_cutoff:
        return _polylog_series(s, z)
    if s <= 1.0:
        raise DomainError(f"polylog near z=1 requires s > 1, got s={s}")
    return _polylog_near_one(s, z)


def _fd_integer(n: int, x: float) -> float:
    # f_n(e^x) for integer n >= 1; exact reflection for x > 0.
    if n < 1:
        raise DomainError(f"integer Fermi-Dirac order must be >= 1, got {n}")
    if n == 1:
        return math.log1p(math.exp(x)) if x <= 0.0 else x + math.log1p(math.exp(-x))
    if x > 0.0:
        sign = 1.0 if n % 2 else -1.0
        return _fd_front_polynomial(n, x) + sign * _fd_integer(n, -x)
    y = math.exp(x)
    if y <= NumericTolerances.series_cutoff:
        return -_polylog_series(n, -y)
    # the square formula Li_n(-y) + Li_n(y) = 2^{1-n} Li_n(y^2), solved for f_n(y) = -Li_n(-y)
    return polylog(n, y) - 2 ** (1 - n) * polylog(n, y * y)


def fermi_dirac_f(nu: float, x: float, tol: NumericTolerances = DEFAULT_TOL) -> float:
    """Complete Fermi-Dirac function f_nu(e^x) = -Li_nu(-e^x).

    This is the momentum integral of a Fermi distribution in disguise:
    integral d^3p/h^3 [exp(beta(p^2/2M) - x) + 1]^{-1} equals
    f_{3/2}(e^x) / lambda_T^3.

    Inside the series region, x <= ln(series_cutoff), every order works.
    Beyond it only the orders the LDA cloud uses are served: nu = 3/2 (the
    density) and the integers nu >= 1 (columns, moments and the mu roots);
    any other order is a DomainError.  This is also Li_nu(z) for
    z < -series_cutoff, which polylog refuses.
    """
    if x <= math.log(tol.series_cutoff):
        return -_polylog_series(nu, -math.exp(x))
    if _is_integer(nu):
        return _fd_integer(round(nu), x)
    if nu != 1.5:
        raise DomainError(
            f"f_nu(e^x) beyond the series region takes nu = 3/2 or an integer >= 1, got nu={nu}"
        )
    if x < SOMMERFELD_SWITCH:
        return -_polylog_negative_axis(nu, x)
    return _fd_sommerfeld(nu, x)


# QUADPACK's qk21 rule (Piessens et al. 1983): the 21 Kronrod abscissae on
# [-1, 1] come as the centre and the pairs +-_XGK[j]; the pairs with odd j
# are the nodes of the embedded 10-point Gauss rule, whose weights _WG holds
# at the same index (0 at the Kronrod-only nodes).
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067952149, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: the integral over [a, b] and QUADPACK's error
    estimate, |Kronrod - Gauss| scaled by the integrand's variation and
    floored at 50 machine epsilons of the integral of |f|."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f_centre = f(centre)
    lower = [f(centre - half * x) for x in _XGK]
    upper = [f(centre + half * x) for x in _XGK]
    kronrod = _WGK_CENTRE * f_centre
    gauss = 0.0
    res_abs = abs(kronrod)
    for wk, wg, lo, hi in zip(_WGK, _WG, lower, upper):
        pair = lo + hi
        kronrod += wk * pair
        gauss += wg * pair
        res_abs += wk * (abs(lo) + abs(hi))
    mean = 0.5 * kronrod
    res_asc = _WGK_CENTRE * abs(f_centre - mean)
    for wk, lo, hi in zip(_WGK, lower, upper):
        res_asc += wk * (abs(lo - mean) + abs(hi - mean))
    width = abs(half)
    res_abs *= width
    res_asc *= width
    err = abs((kronrod - gauss) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * res_abs, err)
    return kronrod * half, err


# A result that misses the tolerance when the panel budget runs out (typically
# round-off in the integrand) is kept while its error estimate stays within
# this factor of the requested tolerance, or below the smallest normal float
# where the integrand has underflowed; the final integrals then still meet
# their tolerance (checked against the closed-form moments in the tests).
_FLAGGED_SLACK = 10.0


def _quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float,
    points: Sequence[float] | None,
) -> tuple[float, float]:
    # Globally adaptive: the breakpoints cut the first panels, then the panel
    # with the largest error estimate is bisected until the summed estimate
    # meets the tolerance or the budget of panels is spent.
    edges = [a, *sorted({p for p in points or () if a < p < b}), b]
    panels = [[lo, hi, *_qk21(f, lo, hi)] for lo, hi in zip(edges, edges[1:])]
    limit = NumericTolerances.max_iterations
    while True:
        val = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= rel_tol * abs(val):
            return val, err
        if len(panels) >= limit:
            message = f"The maximum number of subdivisions ({limit}) has been achieved."
            break
        worst = max(panels, key=lambda p: p[3])
        lo, hi = worst[0], worst[1]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            message = "The panel with the largest error cannot be bisected further."
            break
        worst[1:] = [mid, *_qk21(f, lo, mid)]
        panels.append([mid, hi, *_qk21(f, mid, hi)])
    bound = max(_FLAGGED_SLACK * rel_tol * abs(val), _TINY)
    if err > bound:
        raise NonConvergenceError(f"quadrature failed on [{a}, {b}]: {message}")
    return val, err


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: NumericTolerances = DEFAULT_TOL,
    points: Sequence[float] | None = None,
) -> float:
    """Adaptive integral of f over [a, b] to rel_tol_quadrature."""
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    return _quad(f, a, b, tol.rel_tol_quadrature, points)[0]


def integrate_cylindrical(
    f: Callable[[float, float], float],
    r_max: float,
    z_max: float,
    tol: NumericTolerances = DEFAULT_TOL,
    z_breakpoints: Callable[[float], Sequence[float]] | None = None,
    r_breakpoints: Sequence[float] = (),
) -> float:
    """integral_0^r_max 2 pi r dr integral_{-z_max}^{z_max} dz f(r, z).

    Azimuthal symmetry and mirror symmetry f(r, -z) = f(r, z) are assumed
    (true of every density in a harmonic trap), so the inner integral runs
    over [0, z_max] and is doubled; a kink on the plane z = 0, such as the
    on-axis cusp of a saturated Bose cloud, then sits at a panel edge.  The
    inner integral runs a factor tighter than the outer so the nesting does
    not eat the requested tolerance.  z_breakpoints(r) may flag the positive
    axial kinks of the integrand (e.g. a condensate surface), r_breakpoints
    the radii where the column integral kinks (the condensate edge); points
    outside (0, r_max) and (0, z_max) are ignored.

    The program's observables integrate over shells instead (optics); this
    nested route is the tests' 2-D oracle for them and for the closed-form
    trap moments.
    """
    if r_max <= 0.0 or z_max <= 0.0:
        raise DomainError("r_max and z_max must be positive")

    def column(r: float) -> float:
        pts = z_breakpoints(r) if z_breakpoints is not None else None
        val, _ = _quad(lambda z: f(r, z), 0.0, z_max, tol.rel_tol_quadrature / 4.0, pts)
        return 4.0 * math.pi * r * val

    return _quad(column, 0.0, r_max, tol.rel_tol_quadrature, r_breakpoints)[0]


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a monotone f on a bracketing interval [lo, hi].

    Brent's method (Brent 1973) step for step as scipy's brentq takes it:
    inverse quadratic or secant steps while they shrink the bracket fast
    enough, bisection otherwise, to NumericTolerances.rel_tol_root.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"f({lo})={flo} and f({hi})={fhi} do not bracket a root"
        )
    x_pre, x_cur, f_pre, f_cur = lo, hi, flo, fhi
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(NumericTolerances.max_iterations):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (1e-300 + NumericTolerances.rel_tol_root * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = None
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
        if s_try is not None and 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur)
    raise NonConvergenceError(
        f"no root found on [{lo}, {hi}] in {NumericTolerances.max_iterations} iterations"
    )
