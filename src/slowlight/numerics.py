"""Scalar special functions, quadrature, and root finding.

The thermodynamics of a trapped quantum gas reduces to polylogarithms
g_n(z) = Li_n(z) on the Bose side and Fermi-Dirac functions
f_nu(e^x) = -Li_nu(-e^x) on the Fermi side.  Everything here is scalar,
pure, and deterministic; the optics integrals call these inside adaptive
quadrature, so the special functions are kept cheap.

Each function takes only what the cloud passes.  Li_s(z) takes 0 <= z <= 1,
every Bose fugacity (the negative axis, Li_s(-e^x) = -f_s(e^x), is the
Fermi-Dirac function's):
  * z <= series_cutoff            direct power series, any order
  * s = 3/2, 2, 3, 4 beyond it    expansion in ln z about the z=1 point
  * any other s beyond it         DomainError
and f_nu(e^x) every order for x <= ln(series_cutoff), beyond it the orders
of the density (3/2), the columns and mu roots (2, 3) and the moment (4):
  * x <= ln(series_cutoff)        alternating power series, any order
  * nu = 2, 3, 4 beyond it        the square formula up to x = 0, then the
                                  exact reflection, P_2, P_3, P_4 written out
  * nu = 3/2 beyond it            a checked-in Chebyshev fit in four pieces,
                                  three in x up to x = 20 and one in
                                  (20/x)^2 past it (3/2 is the order of
                                  every LDA density)
  * any other nu beyond it        DomainError
The branches overlap to well below the working tolerances; tests pin the
agreement windows.

The expansion about z = 1 reads checked-in, correctly rounded values of
Riemann zeta for the four orders it serves; no zeta function is computed.
Quadrature is an adaptive 21-point Gauss-Kronrod rule with QUADPACK's error
estimate (Piessens et al. 1983): integrate_1d and integrate_cylindrical take
the relative tolerance rel_tol as a number, accept a result when the summed
error estimate is at most max(rel_tol |I|, smallest normal float), and raise
NonConvergenceError otherwise.  Roots come from Brent's bracketing method
(Brent 1973).  Both are plain Python; scipy serves only as the tests' oracle.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence


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


class NumericTolerances(namedtuple("NumericTolerances", "rel_tol_quadrature")):
    """The quadrature tolerance of the optics observables, which hand
    rel_tol_quadrature to their quadratures as a number; integrate_1d and
    integrate_cylindrical default to DEFAULT_TOL's.

    The root tolerance, the series cutoff and the iteration budget are
    constants of the class: every run uses the same values.  find_root,
    integrate_1d and the private special-function helpers read them from
    the class.  polylog and fermi_dirac_f still take a record and read the
    series cutoff through it, and make_profile keeps one in its cache key,
    because the benchmark's tracer and layer timings call them with one."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too
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

# f_{3/2}(e^x) takes the last _FD32_FIT piece, in (20/x)^2, from here on.
SOMMERFELD_SWITCH = 20.0

# The orders past the series cutoff: 3/2 of every LDA density, 2 and 3 of the
# columns and the mu roots, 4 of the axial moment.
_ORDERS = (1.5, 2.0, 3.0, 4.0)

# zeta at the arguments those orders reach, correctly rounded (mpmath at 40
# digits; tests/test_numerics.py rebuilds every one): zeta(2), zeta(3) and
# zeta(4), zeta(3/2 - k) for k = 0..16, and zeta(-m) = -B_{m+1}/(m + 1) for
# m = 0..14, with B_1 = +1/2
_ZETA_2, _ZETA_3, _ZETA_4 = 1.6449340668482264, 1.2020569031595942, 1.0823232337111381
_ZETA_HALF = (
    2.612375348685488, -1.4603545088095868, -0.20788622497735457, -0.025485201889833036,
    0.008516928777850331, 0.004441011335479432, -0.0030916692472158338, -0.0026714580198992244,
    0.0027467679395368687, 0.00326903957260022, -0.00441603287300489, -0.006672172296466641,
    0.011146122473942813, 0.02039697871594279, -0.04057496748119458, -0.08717525590621725,
    0.2011740493842269,
)
_ZETA_NEGATIVE = (
    -1 / 2, -1 / 12, 0.0, 1 / 120, 0.0, -1 / 252, 0.0, 1 / 240, 0.0, -1 / 132, 0.0,
    691 / 32760, 0.0, -1 / 12, 0.0,
)
_ZETA = {2.0: _ZETA_2, 3.0: _ZETA_3, 4.0: _ZETA_4,
         **{1.5 - k: value for k, value in enumerate(_ZETA_HALF)},
         **{-m: value for m, value in enumerate(_ZETA_NEGATIVE)}}

# zeta(s - k)/k!, k = 0..16, of the expansion of Li_s(e^mu) about mu = 0 for
# each order; at an integer order's pole s - k = 1 the row holds H_k/k!, the
# harmonic part of the pole term mu^k (H_k - ln(-mu))/k!.  The first term
# left out, k = 17 at |mu| = ln 2, is below 5e-18 of Li_s.
_NEAR_ONE = {
    s: tuple((_ZETA[s - k] if s - k != 1.0 else sum(1 / i for i in range(1, k + 1)))
             / math.factorial(k) for k in range(len(_ZETA_HALF)))
    for s in _ORDERS
}


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


def _polylog_near_one(s: float, z: float) -> float:
    # Li_s(e^mu) = sum_k _NEAR_ONE[s][k] mu^k plus, for s = 3/2, the term
    # Gamma(1 - s)(-mu)^(s-1) with Gamma(-1/2) = -2 sqrt(pi), and for an integer
    # s the log part -ln(-mu) mu^(s-1)/(s-1)! of the pole term.  |mu| <= ln 2.
    mu = math.log(z)
    row = _NEAR_ONE[s]
    if mu == 0.0:
        return row[0]
    if s == 1.5:
        pole = -2.0 * math.sqrt(-math.pi * mu)
    else:
        k = int(s) - 1
        pole = -math.log(-mu) * mu**k / math.factorial(k)
    acc = 0.0
    for c in row[:0:-1]:
        acc = acc * mu + c
    # zeta(s) and the pole term first: for s = 3/2 they cancel to a fraction
    return row[0] + pole + acc * mu


# f_{3/2}(e^x) past the series in pieces (lo, hi, c), sum_k c[k] T_k(t) with
# t = (2y - lo - hi) / (hi - lo): f at y = x on [ln 1/2, 2], [2, 6], [6, 20],
# each interpolated at 24 Chebyshev nodes from mpmath at 30 digits, then
# f Gamma(5/2) / x^(3/2) at y = (20/x)^2 on [0, 1] for x >= 20, at 12 nodes
# from 34 digits (the approach of GSL's fermi_dirac.c, Goano 1995, Fukushima 2015).
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
    (0.0, 1.0, (
        1.0015446730749555, 0.0015455309173088, 8.632102239522673e-07,
        5.47374112593124e-09, 1.1094262715226966e-10, 5.470191578375079e-12,
        4.081846357095711e-13, 1.113340339347423e-15, -1.1013945992646052e-14,
        -1.6034236062008197e-15, 3.3316527353209203e-16, 9.505597406544322e-17,
    )),
)
# Clenshaw's form of each interval: lo + hi, 1 / (hi - lo), c[N-1], ..., c[1], c[0]
_FD32_CLENSHAW = tuple((lo + hi, 1.0 / (hi - lo), c[:0:-1], c[0]) for lo, hi, c in _FD32_FIT)


def _fd32_fit(piece: int, x: float) -> float:
    # sum_k c[k] T_k(t) of one _FD32_FIT piece at x by Clenshaw's recurrence
    total, inverse, tail, c0 = _FD32_CLENSHAW[piece]
    t = (x + x - total) * inverse
    t2 = t + t
    b1 = b2 = 0.0
    for c in tail:
        b1, b2 = c + t2 * b1 - b2, b1
    return c0 + t * b1 - b2


def _polylog_negative_axis(x: float) -> float:
    # Li_{3/2}(-e^x), ln 1/2 <= x < 20, from _FD32_FIT's first three pieces; the
    # name stays because the benchmark's branch classifier spies on it.
    return -_fd32_fit(0 if x < 2.0 else 1 if x < 6.0 else 2, x)


def _fd_sommerfeld(x: float) -> float:
    # f_{3/2}(e^x) for x >= 20 from the last _FD32_FIT piece, in u = (20/x)^2;
    # the name stays because the benchmark's branch classifier spies on it.
    return _fd32_fit(3, (SOMMERFELD_SWITCH / x) ** 2) * x**1.5 / math.gamma(2.5)


def polylog(s: float, z: float, tol: NumericTolerances = DEFAULT_TOL) -> float:
    """Bose function g_s(z) = Li_s(z) = sum_{j>=1} z^j / j^s for real s and
    0 <= z <= 1, the fugacities of a Bose cloud; on the negative axis
    Li_s(z) = -fermi_dirac_f(s, ln(-z)).

    Above z = series_cutoff only the orders the cloud uses are served,
    s = 3/2, 2, 3 and 4, as in fermi_dirac_f.  DomainError names the
    argument it refuses: z outside that range or NaN, an order s that is NaN
    or -inf, and above z = series_cutoff any other order."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"polylog takes 0 <= z <= 1, got z={z}; "
                          "for z < 0, Li_s(z) is -fermi_dirac_f(s, ln(-z))")
    if z <= tol.series_cutoff:
        # the series divides by j^s: a NaN order would spend its term budget,
        # and -inf divides by j^-inf = 0 (+inf gives the limit Li_inf(z) = z)
        if not s > -math.inf:
            raise DomainError(f"the order of Li_s must be a number, got s={s}")
        return _polylog_series(s, z)
    if s not in _ORDERS:
        raise DomainError(
            f"Li_s(z) for z > {tol.series_cutoff} takes s = 3/2, 2, 3 or 4, got s={s}")
    return _polylog_near_one(s, z)


def _fd_integer(n: int, x: float) -> float:
    # f_n(e^x) for n = 2, 3 or 4 past the series region; for x > 0 the exact
    # reflection f_n(e^x) = P_n(x) + (-1)^(n-1) f_n(e^-x), P_n in zeta(2) and zeta(4)
    if x > 0.0:
        if n == 2:
            return x**2 / 2 + _ZETA_2 - fermi_dirac_f(2, -x)
        if n == 3:
            return x**3 / 6 + _ZETA_2 * x + fermi_dirac_f(3, -x)
        return x**4 / 24 + 0.5 * _ZETA_2 * x**2 + 1.75 * _ZETA_4 - fermi_dirac_f(4, -x)
    y = math.exp(x)
    # the square formula Li_n(-y) + Li_n(y) = 2^{1-n} Li_n(y^2), solved for f_n(y) = -Li_n(-y)
    return polylog(n, y) - 2 ** (1 - n) * polylog(n, y * y)


def fermi_dirac_f(nu: float, x: float, tol: NumericTolerances = DEFAULT_TOL) -> float:
    """Complete Fermi-Dirac function f_nu(e^x) = -Li_nu(-e^x).

    This is the momentum integral of a Fermi distribution in disguise:
    integral d^3p/h^3 [exp(beta(p^2/2M) - x) + 1]^{-1} equals
    f_{3/2}(e^x) / lambda_T^3.

    Inside the series region, x <= ln(series_cutoff), every order works.
    Beyond it only the orders the LDA cloud uses are served: nu = 3/2 (the
    density), 2 and 3 (the columns and the mu roots) and 4 (the axial
    moment); any other order is a DomainError that names it.  This is also
    Li_nu(z) for z < 0, which polylog refuses.

    x = -inf and +inf give the limits 0 and inf; a NaN nu or x, and
    nu = -inf, is a DomainError that names it.
    """
    if x <= math.log(tol.series_cutoff):
        if not nu > -math.inf:  # as in polylog
            raise DomainError(f"the order of Li_s must be a number, got s={nu}")
        return -_polylog_series(nu, -math.exp(x))
    if nu not in _ORDERS:
        raise DomainError(
            f"f_nu(e^x) beyond the series region takes nu = 3/2, 2, 3 or 4, got nu={nu}")
    if math.isnan(x):
        raise DomainError(f"f_nu(e^x) takes a number x, got x={x}")
    if nu != 1.5:
        return _fd_integer(int(nu), x)
    if x < SOMMERFELD_SWITCH:
        return -_polylog_negative_axis(x)
    return _fd_sommerfeld(x)


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
    floored at 50 machine epsilons of the integral of |f|.  A panel whose
    integral or estimate is not finite raises NonConvergenceError: no
    bisection can bring a NaN or an infinity within a tolerance."""
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
    val = kronrod * half
    if not (math.isfinite(val) and math.isfinite(err)):
        raise NonConvergenceError(
            f"quadrature failed on [{a}, {b}]: the panel's integral {val} or its "
            f"error estimate {err} is not finite")
    return val, err


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_TOL.rel_tol_quadrature,
    points: Sequence[float] | None = None,
) -> float:
    """Adaptive integral of f over [a, b] to the relative tolerance rel_tol.

    Globally adaptive: the breakpoints in points cut the first panels, then
    the panel with the largest error estimate is bisected.  One rule accepts
    a result, as QUADPACK's does with epsabs the smallest normal float: the
    summed error estimate is at most max(rel_tol |I|, smallest normal float),
    so an integrand that has underflowed is done at its first panels.

    Raises DomainError unless a < b and rel_tol is a positive finite number,
    before f is called, and NonConvergenceError, naming the interval or
    panel, when the panel budget (NumericTolerances.max_iterations) or the
    bisection runs out first, or a panel's integral or error estimate is NaN
    or infinite."""
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    if not 0.0 < rel_tol < math.inf:
        raise DomainError(f"rel_tol must be a positive finite number, got rel_tol={rel_tol}")
    edges = [a, *sorted({p for p in points or () if a < p < b}), b]
    panels = [[lo, hi, *_qk21(f, lo, hi)] for lo, hi in zip(edges, edges[1:])]
    limit = NumericTolerances.max_iterations
    while True:
        val = math.fsum(p[2] for p in panels)
        if math.fsum(p[3] for p in panels) <= max(rel_tol * abs(val), _TINY):
            return val
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
    raise NonConvergenceError(f"quadrature failed on [{a}, {b}]: {message}")


def integrate_cylindrical(
    f: Callable[[float, float], float],
    r_max: float,
    z_max: float,
    rel_tol: float = DEFAULT_TOL.rel_tol_quadrature,
    z_breakpoints: Callable[[float], Sequence[float]] | None = None,
    r_breakpoints: Sequence[float] = (),
) -> float:
    """integral_0^r_max 2 pi r dr integral_{-z_max}^{z_max} dz f(r, z).

    Azimuthal symmetry and mirror symmetry f(r, -z) = f(r, z) are assumed
    (true of every density in a harmonic trap), so the inner integral runs
    over [0, z_max] and is doubled; a kink on the plane z = 0, such as the
    on-axis cusp of a saturated Bose cloud, then sits at a panel edge.  Both
    loops are integrate_1d and accept or raise by its rule: the outer runs to
    rel_tol, each inner column to rel_tol / 4 so the nesting does not eat the
    requested tolerance.  z_breakpoints(r) may flag the positive
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
        return 4.0 * math.pi * r * integrate_1d(lambda z: f(r, z), 0.0, z_max, rel_tol / 4.0, pts)

    return integrate_1d(column, 0.0, r_max, rel_tol, r_breakpoints)


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a monotone f on a bracketing interval [lo, hi].

    Brent's method (Brent 1973) step for step as scipy's brentq takes it:
    inverse quadratic or secant steps while they shrink the bracket fast
    enough, bisection otherwise, to NumericTolerances.rel_tol_root.  A NaN
    of f raises BracketError at an end and NonConvergenceError past it.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if not (flo <= 0.0 <= fhi or fhi <= 0.0 <= flo):  # a NaN at either end too
        raise BracketError(
            f"f({lo})={flo} and f({hi})={fhi} do not bracket a root"
        )
    if flo == 0.0:  # f(hi) = 0 returns hi on the loop's first pass
        return lo
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
        if math.isnan(f_cur):
            raise NonConvergenceError(f"f({x_cur}) is NaN inside [{lo}, {hi}]")
    raise NonConvergenceError(
        f"no root found on [{lo}, {hi}] in {NumericTolerances.max_iterations} iterations"
    )
