"""Scalar special functions, quadrature, and root finding.

The thermodynamics of a trapped quantum gas reduces to polylogarithms
g_n(z) = Li_n(z) on the Bose side and Fermi-Dirac functions
f_nu(e^x) = -Li_nu(-e^x) on the Fermi side.  Everything here is scalar,
pure, and deterministic; the optics integrals call these inside adaptive
quadrature, so the special functions are kept cheap.

Evaluation strategy for Li_s:
  * |z| <= series_cutoff          direct power series
  * series_cutoff < z <= 1        expansion in ln z about the z=1 point
  * z < -series_cutoff            square formula / Hurwitz-zeta inversion
and for f_nu(e^x):
  * x <= ln(series_cutoff)        alternating power series
  * intermediate x                Hurwitz-zeta inversion (exact, all x)
  * x >= 20                       Sommerfeld asymptotic expansion
The branches overlap to well below the working tolerances; tests pin the
agreement windows.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import integrate, optimize
from scipy.special import zeta as _scipy_zeta


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


@dataclass(frozen=True)
class NumericTolerances:
    """Central knobs for every numerical routine; thread explicitly."""

    rel_tol_quadrature: float = 1e-8
    rel_tol_root: float = 1e-12
    series_cutoff: float = 0.5
    max_iterations: int = 400

    def __post_init__(self) -> None:
        require_finite(
            self, "rel_tol_quadrature", "rel_tol_root", "series_cutoff", "max_iterations"
        )
        if self.rel_tol_quadrature <= 0 or self.rel_tol_root <= 0:
            raise ValueError("tolerances must be strictly positive")
        if not 0.0 < self.series_cutoff < 1.0:
            raise ValueError("series_cutoff must lie in (0, 1)")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


DEFAULT_TOL = NumericTolerances()

# Sommerfeld expansion takes over from the Hurwitz-zeta route here.
SOMMERFELD_SWITCH = 20.0

_B2K = (  # Bernoulli numbers B_2, B_4, ..., B_24
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730,
)
_EM_TERMS = len(_B2K)
_EM_OFFSET = 20

# eta(2k) = (1 - 2^{1-2k}) zeta(2k), k = 1..12, for Sommerfeld coefficients
_ETA_EVEN = tuple(
    (1.0 - 2.0 ** (1 - 2 * k)) * float(_scipy_zeta(2 * k)) for k in range(1, 13)
)


def riemann_zeta(s: float) -> float:
    """Riemann zeta at real s != 1."""
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    return float(_scipy_zeta(s))


def _is_integer(s: float) -> bool:
    return abs(s - round(s)) < 1e-12


def _polylog_series(s: float, z: float, tol: NumericTolerances) -> float:
    # Direct sum of z^j / j^s; geometric for |z| <= series_cutoff.
    acc = 0.0
    zj = 1.0
    for j in range(1, tol.max_iterations + 1):
        zj *= z
        term = zj / j**s
        acc += term
        if abs(term) <= 1e-16 * abs(acc) + 5e-324:
            return acc
    raise NonConvergenceError(f"polylog series stalled at s={s}, z={z}")


def _lnz_coefficients(s: float, kmax: int) -> tuple[float, ...]:
    # zeta(s - k)/k! for the expansion of Li_s(e^mu) about mu = 0.
    coeffs = []
    fact = 1.0
    for k in range(kmax + 1):
        if k:
            fact *= k
        u = s - k
        coeffs.append(0.0 if u == 1.0 else float(_scipy_zeta(u)) / fact)
    return tuple(coeffs)


_LNZ_CACHE: dict[float, tuple[float, ...]] = {}
_LNZ_KMAX = 24


def _polylog_near_one(s: float, z: float) -> float:
    # Li_s(e^mu) = Gamma(1-s)(-mu)^{s-1} + sum_k zeta(s-k) mu^k / k!
    # (non-integer s), log-modified for integer s; |mu| < 2pi.
    mu = math.log(z)
    if s not in _LNZ_CACHE:
        _LNZ_CACHE[s] = _lnz_coefficients(s, _LNZ_KMAX)
    coeffs = _LNZ_CACHE[s]
    if _is_integer(s):
        n = round(s)
        acc = 0.0
        muk = 1.0
        fact_nm1 = math.factorial(n - 1)
        harmonic = sum(1.0 / i for i in range(1, n))
        for k, c in enumerate(coeffs):
            if k == n - 1:
                if mu != 0.0:
                    acc += muk * (harmonic - math.log(-mu)) / fact_nm1
            else:
                acc += c * muk
            muk *= mu
        return acc
    acc = math.gamma(1.0 - s) * (-mu) ** (s - 1.0) if mu != 0.0 else 0.0
    muk = 1.0
    for c in coeffs:
        acc += c * muk
        muk *= mu
    return acc


def _hurwitz_zeta(s: float, a: complex) -> complex:
    # Euler-Maclaurin; valid for the real s < 1 and Re a = 1/2 used here.
    acc = complex(0.0)
    for n in range(_EM_OFFSET):
        acc += (a + n) ** (-s)
    t = a + _EM_OFFSET
    acc += t ** (1.0 - s) / (s - 1.0) + 0.5 * t ** (-s)
    poch = s  # rising factorial (s)_{2j-1}
    for j in range(1, _EM_TERMS + 1):
        acc += _B2K[j - 1] / math.factorial(2 * j) * poch * t ** (1.0 - s - 2 * j)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return acc


def _polylog_negative_axis(s: float, x: float) -> float:
    # Li_s(-e^x) for non-integer s via the Hurwitz-zeta inversion formula;
    # exact for every real x, fast for the awkward mid-degeneracy window.
    a = 0.5 - 1j * x / (2.0 * math.pi)
    pref = (2.0 * math.pi) ** (s - 1.0) * math.gamma(1.0 - s)
    phase = cmath.exp(1j * math.pi * (1.0 - s) / 2.0)
    return pref * 2.0 * (phase * _hurwitz_zeta(1.0 - s, a)).real


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
    """Li_s(z) = sum_{j>=1} z^j / j^s for real s and real z <= 1."""
    if z > 1.0:
        raise DomainError(f"polylog requires z <= 1, got z={z}")
    if z == 0.0:
        return 0.0
    if s == 1.0:
        if z == 1.0:
            raise DomainError("Li_1 diverges at z = 1")
        return -math.log1p(-z)
    if abs(z) <= tol.series_cutoff:
        return _polylog_series(s, z, tol)
    if z > 0.0:
        if s <= 1.0:
            raise DomainError(f"polylog near z=1 requires s > 1, got s={s}")
        return _polylog_near_one(s, z)
    # negative argument beyond the series region
    if z >= -1.0 and s > 1.0:
        # Li_s(z) + Li_s(-z) = 2^{1-s} Li_s(z^2)
        return 2.0 ** (1.0 - s) * polylog(s, z * z, tol) - polylog(s, -z, tol)
    if _is_integer(s):
        if s < 2.0:
            raise DomainError(f"polylog with integer s < 2 and z < -cutoff: s={s}")
        return -_fd_integer(round(s), math.log(-z), tol)
    return _polylog_negative_axis(s, math.log(-z))


def _fd_integer(n: int, x: float, tol: NumericTolerances) -> float:
    # f_n(e^x) for integer n >= 1; exact reflection for x > 0.
    if n == 1:
        return math.log1p(math.exp(x)) if x <= 0.0 else x + math.log1p(math.exp(-x))
    if x > 0.0:
        sign = 1.0 if n % 2 else -1.0
        return _fd_front_polynomial(n, x) + sign * _fd_integer(n, -x, tol)
    z = -math.exp(x)
    if -z <= tol.series_cutoff:
        return -_polylog_series(n, z, tol)
    return -(2.0 ** (1 - n) * polylog(n, z * z, tol) - polylog(n, -z, tol))


def fermi_dirac_f(nu: float, x: float, tol: NumericTolerances = DEFAULT_TOL) -> float:
    """Complete Fermi-Dirac function f_nu(e^x) = -Li_nu(-e^x).

    This is the momentum integral of a Fermi distribution in disguise:
    integral d^3p/h^3 [exp(beta(p^2/2M) - x) + 1]^{-1} equals
    f_{3/2}(e^x) / lambda_T^3.
    """
    if x <= math.log(tol.series_cutoff):
        return -_polylog_series(nu, -math.exp(x), tol)
    if _is_integer(nu):
        return _fd_integer(round(nu), x, tol)
    if x < SOMMERFELD_SWITCH:
        return -_polylog_negative_axis(nu, x)
    return _fd_sommerfeld(nu, x)


def fermi_dirac_sommerfeld(nu: float, x: float) -> float:
    """Asymptotic branch on its own, for overlap checks against the exact route."""
    if x <= 0.0:
        raise DomainError("Sommerfeld branch requires x > 0")
    return _fd_sommerfeld(nu, x)


# A result QUADPACK flags (non-zero status, typically round-off in the
# integrand) is kept while its error estimate stays within this factor of
# the requested tolerance, or below the smallest normal float where the
# integrand has underflowed; the final integrals then still meet their
# tolerance (checked against the closed-form moments in the tests).
_FLAGGED_SLACK = 10.0


def _quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: NumericTolerances,
    points: Sequence[float] | None,
) -> tuple[float, float]:
    pts = None
    if points:
        pts = sorted(p for p in points if a < p < b)
        pts = pts or None
    val, err, _, *message = integrate.quad(
        f, a, b, epsabs=0.0, epsrel=tol.rel_tol_quadrature,
        limit=max(tol.max_iterations, 50), points=pts, full_output=1,
    )
    # QUADPACK appends a message only for a non-zero status
    bound = max(_FLAGGED_SLACK * tol.rel_tol_quadrature * abs(val), sys.float_info.min)
    if message and err > bound:
        raise NonConvergenceError(
            f"quadrature failed on [{a}, {b}]: {' '.join(message[0].split())}"
        )
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
    return _quad(f, a, b, tol, points)[0]


def integrate_cylindrical(
    f: Callable[[float, float], float],
    r_max: float,
    z_max: float,
    tol: NumericTolerances = DEFAULT_TOL,
    z_breakpoints: Callable[[float], Sequence[float]] | None = None,
    r_breakpoints: Sequence[float] = (),
) -> float:
    """integral_0^r_max 2 pi r dr integral_{-z_max}^{z_max} dz f(r, z).

    Azimuthal symmetry assumed.  The inner integral runs a factor tighter
    than the outer so the nesting does not eat the requested tolerance.
    z_breakpoints(r) may flag integrand kinks (e.g. a condensate surface),
    r_breakpoints the radii where the column integral kinks (the condensate
    edge); points outside (0, r_max) are ignored.
    """
    if r_max <= 0.0 or z_max <= 0.0:
        raise DomainError("r_max and z_max must be positive")
    inner_tol = NumericTolerances(
        rel_tol_quadrature=tol.rel_tol_quadrature / 4.0,
        rel_tol_root=tol.rel_tol_root,
        series_cutoff=tol.series_cutoff,
        max_iterations=tol.max_iterations,
    )

    def column(r: float) -> float:
        pts: list[float] = []
        if z_breakpoints is not None:
            for p in z_breakpoints(r):
                pts.extend((-p, p))
        val, _ = _quad(lambda z: f(r, z), -z_max, z_max, inner_tol, pts)
        return 2.0 * math.pi * r * val

    return _quad(column, 0.0, r_max, tol, r_breakpoints)[0]


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> float:
    """Root of a monotone f on a bracketing interval [lo, hi]."""
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
    return float(
        optimize.brentq(
            f, lo, hi,
            xtol=1e-300, rtol=max(tol.rel_tol_root, 4e-16),
            maxiter=tol.max_iterations,
        )
    )
