"""Trapped-gas thermodynamics and spatial density profiles.

Local density approximation for a harmonic trap
V(r, z) = M omega_r^2 (r^2 + eps^2 z^2) / 2, probe axis along z.
Characteristic scales use the ideal-gas trap definitions
E_F = hbar*wbar*(6N)^(1/3) and k_B T_c = hbar*wbar*(N/zeta(3))^(1/3)
with wbar = eps^(1/3) omega_r, which reproduce T_F/T_c = (6 zeta(3))^(1/3).

Density models:
  Fermi      rho = f_{3/2}(e^{beta(mu - V)}) / lambda_T^3, mu fixed by the
             normalization integral N = int rho dV.
  Bose       Thomas-Fermi condensate (mu - V)/U below T_c plus a thermal
             cloud g_{3/2}(e^{-beta V}) / lambda_T^3 scaled to hold exactly
             N - N_0 atoms; above T_c an ideal saturated cloud with the
             fugacity solved from Li_3(z) = zeta(3) (T_c/T)^3.
  Boltzmann  rho = e^{beta(mu - V)} / lambda_T^3, normalized in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from scipy.constants import hbar, h as planck_h, k as k_B

from .numerics import (
    DEFAULT_TOL,
    NumericTolerances,
    fermi_dirac_f,
    find_root,
    polylog,
    require_finite,
    riemann_zeta,
)

ZETA_3 = riemann_zeta(3.0)
ZETA_2 = riemann_zeta(2.0)
ZETA_3_HALF = riemann_zeta(1.5)


class UnsupportedStatisticsError(ValueError):
    """Requested operation undefined for this statistics."""


class Statistics(str, Enum):
    FERMI = "fermi"
    BOSE = "bose"
    BOLTZMANN = "boltzmann"


@dataclass(frozen=True)
class TrapGeometry:
    """Axially symmetric harmonic trap: radial frequency and aspect ratio."""

    omega_r: float  # rad/s
    epsilon: float  # omega_z / omega_r

    def __post_init__(self) -> None:
        require_finite(self, "omega_r", "epsilon")
        if self.omega_r <= 0.0:
            raise ValueError("trap omega_r must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("trap epsilon must be positive")

    def potential(self, mass: float, r: float, z: float) -> float:
        """V(r, z) in joules."""
        return 0.5 * mass * self.omega_r**2 * (r * r + self.epsilon**2 * z * z)


@dataclass(frozen=True)
class GasSpec:
    """Species definition: statistics, atom number, mass, scattering length."""

    statistics: Statistics
    n_atoms: float
    mass: float  # kg
    a_sc: float = 0.0  # m, used only for Bose statistics

    def __post_init__(self) -> None:
        require_finite(self, "n_atoms", "mass", "a_sc")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.a_sc < 0.0:
            raise ValueError("scattering length must be >= 0")
        if self.statistics is Statistics.BOSE and self.a_sc == 0.0:
            raise ValueError("Bose statistics requires a positive a_sc")


@dataclass(frozen=True)
class CharScales:
    """Derived characteristic quantities of a (spec, trap) pair."""

    E_F: float      # J
    T_F: float      # K
    T_c: float      # K
    a_r: float      # m, radial oscillator length
    a_ho: float     # m, mean oscillator length a_r eps^(-1/6)
    R_F: float      # m, zero-T Fermi radius
    R_B: float      # m, zero-T Thomas-Fermi condensate radius
    mu_TF: float    # J, Thomas-Fermi chemical potential at T = 0
    eta: float      # mu_TF / (k_B T_c)
    mass: float     # kg, kept so lambda_T is self-contained
    epsilon: float  # trap aspect ratio, kept for the zero-T profiles

    def lambda_T(self, T: float) -> float:
        """Thermal de Broglie wavelength at temperature T."""
        return thermal_wavelength(self.mass, T)


@dataclass(frozen=True)
class ThermoPoint:
    """Chemical potential and condensate data at one temperature."""

    T: float
    mu: float
    fugacity: float
    condensate_fraction: float


def thermal_wavelength(mass: float, T: float) -> float:
    if T <= 0.0:
        raise ValueError("thermal wavelength requires T > 0")
    return planck_h / math.sqrt(2.0 * math.pi * mass * k_B * T)


def char_scales(spec: GasSpec, trap: TrapGeometry) -> CharScales:
    """All characteristic scales for the cloud, statistics-independent."""
    wbar = trap.epsilon ** (1.0 / 3.0) * trap.omega_r
    a_r = math.sqrt(hbar / (spec.mass * trap.omega_r))
    a_ho = math.sqrt(hbar / (spec.mass * wbar))
    E_F = hbar * wbar * (6.0 * spec.n_atoms) ** (1.0 / 3.0)
    T_F = E_F / k_B
    T_c = hbar * wbar * (spec.n_atoms / ZETA_3) ** (1.0 / 3.0) / k_B
    R_F = (48.0 * spec.n_atoms * trap.epsilon) ** (1.0 / 6.0) * a_r
    if spec.a_sc > 0.0:
        R_B = (15.0 * spec.n_atoms * trap.epsilon * spec.a_sc / a_ho) ** 0.2 * a_r
        eta = 0.5 * ZETA_3 ** (1.0 / 3.0) * (
            15.0 * spec.n_atoms ** (1.0 / 6.0) * spec.a_sc / a_ho
        ) ** 0.4
        mu_TF = eta * k_B * T_c
    else:
        R_B = 0.0
        eta = 0.0
        mu_TF = 0.0
    return CharScales(
        E_F=E_F, T_F=T_F, T_c=T_c, a_r=a_r, a_ho=a_ho,
        R_F=R_F, R_B=R_B, mu_TF=mu_TF, eta=eta, mass=spec.mass,
        epsilon=trap.epsilon,
    )


def mu_fermi(T: float, scales: CharScales) -> float:
    """Piecewise Fermi chemical potential: Sommerfeld branch below 0.55 T_F,
    classical branch above.  The two branches do not match exactly at the
    seam; the small jump is documented by a test rather than smoothed."""
    if T <= 0.0:
        raise ValueError("mu_fermi requires T > 0")
    t = T / scales.T_F
    if t > 0.55:
        return -k_B * T * math.log(6.0 * t**3)
    return scales.E_F * (1.0 - math.pi**2 * t * t / 3.0)


def mu_classical(T: float, scales: CharScales) -> float:
    """Boltzmann-gas chemical potential; normalizes the Gaussian cloud exactly."""
    if T <= 0.0:
        raise ValueError("mu_classical requires T > 0")
    return -k_B * T * math.log(6.0 * (T / scales.T_F) ** 3)


def solve_mu_fermi(
    T: float, scales: CharScales, tol: NumericTolerances = DEFAULT_TOL
) -> float:
    """Fermi chemical potential fixed by N = int rho dV, i.e. the root of
    f_3(e^{beta mu}) = (T_F/T)^3 / 6.  This is the mu the density uses;
    mu_fermi gives the closed-form limiting branches."""
    if T <= 0.0:
        raise ValueError("solve_mu_fermi requires T > 0")
    beta = 1.0 / (k_B * T)
    target = (scales.T_F / T) ** 3 / 6.0
    guesses = (mu_fermi(T, scales) * beta, mu_classical(T, scales) * beta)
    lo = min(guesses) - 10.0
    hi = max(guesses) + 10.0
    x = find_root(lambda u: fermi_dirac_f(3.0, u, tol) - target, lo, hi, tol)
    return x / beta


def condensate_fraction(T: float, scales: CharScales) -> float:
    """N_0/N of the interacting condensate, floored at zero.

    1 - t^3 - eta (zeta_2/zeta_3) t^2 (1 - t^3)^(2/5),  t = T/T_c.
    """
    if not 0.0 <= T <= scales.T_c * (1.0 + 1e-12):
        raise ValueError("condensate_fraction requires 0 <= T <= T_c")
    t = min(T / scales.T_c, 1.0)
    f0 = 1.0 - t**3
    value = f0 - scales.eta * (ZETA_2 / ZETA_3) * t * t * f0**0.4
    return max(value, 0.0)


def mu_bose(
    T: float, spec: GasSpec, scales: CharScales,
    tol: NumericTolerances = DEFAULT_TOL,
) -> ThermoPoint:
    """Bose-gas thermodynamic point.

    Above T_c the fugacity solves Li_3(z) = zeta(3) (T_c/T)^3.  At and
    below T_c the condensate fraction follows the interacting fitting
    function and mu = mu_TF (N_0/N)^(2/5); the reported fugacity is
    clamped to 1, matching the saturated thermal-cloud convention.
    """
    if T < 0.0:
        raise ValueError("mu_bose requires T >= 0")
    if T == 0.0:
        return ThermoPoint(T=0.0, mu=scales.mu_TF, fugacity=1.0, condensate_fraction=1.0)
    if T > scales.T_c:
        target = ZETA_3 * (scales.T_c / T) ** 3
        z = find_root(lambda u: polylog(3.0, u, tol) - target, 1e-300, 1.0, tol)
        return ThermoPoint(T=T, mu=k_B * T * math.log(z), fugacity=z, condensate_fraction=0.0)
    frac = condensate_fraction(T, scales)
    mu = scales.mu_TF * frac**0.4
    fugacity = min(math.exp(mu / (k_B * T)), 1.0)
    return ThermoPoint(T=T, mu=mu, fugacity=fugacity, condensate_fraction=frac)


def density_zero_T(spec: GasSpec, scales: CharScales, r: float, z: float) -> float:
    """Closed-form zero-temperature profiles (Fermi and Bose only)."""
    eps = scales.epsilon
    if spec.statistics is Statistics.FERMI:
        arg = scales.R_F**2 - r * r - eps**2 * z * z
        if arg <= 0.0:
            return 0.0
        return 8.0 * spec.n_atoms * eps / (math.pi**2 * scales.R_F**6) * arg**1.5
    if spec.statistics is Statistics.BOSE:
        arg = scales.R_B**2 - r * r - eps**2 * z * z
        if arg <= 0.0:
            return 0.0
        return 15.0 * spec.n_atoms * eps / (8.0 * math.pi * scales.R_B**5) * arg
    raise UnsupportedStatisticsError("no zero-temperature Boltzmann profile")


class DensityProfile:
    """Frozen evaluation context: rho(r, z) at fixed (spec, trap, T).

    Precomputes the chemical potential, wavelength, and amplitudes once so
    quadrature loops pay only for the local special-function call.  Pure
    and safe to share across threads.  tf_radius is the radial edge of the
    Thomas-Fermi part (the condensate, or the whole cloud at T = 0), where
    the density kinks; 0 when there is none.
    """

    def __init__(
        self,
        spec: GasSpec,
        trap: TrapGeometry,
        T: float,
        tol: NumericTolerances = DEFAULT_TOL,
    ) -> None:
        self.spec = spec
        self.trap = trap
        self.T = T
        self.tol = tol
        self.scales = char_scales(spec, trap)
        s = self.scales
        stats = spec.statistics
        self._zero_T = T == 0.0
        if self._zero_T:
            if stats is Statistics.BOLTZMANN:
                raise UnsupportedStatisticsError("no zero-temperature Boltzmann profile")
            cloud_r = s.R_F if stats is Statistics.FERMI else s.R_B
            self.r_cut = 1.001 * cloud_r
            self.z_cut = self.r_cut / trap.epsilon
            self.tf_radius = cloud_r
            return
        self._beta = 1.0 / (k_B * T)
        self._lam3 = thermal_wavelength(spec.mass, T) ** 3
        self._vcoef = 0.5 * spec.mass * trap.omega_r**2 * self._beta
        sigma_r = math.sqrt(k_B * T / (spec.mass * trap.omega_r**2))
        self.tf_radius = 0.0
        if stats is Statistics.FERMI:
            self._x0 = solve_mu_fermi(T, s, tol) * self._beta
            self.r_cut = 8.0 * max(s.R_F, sigma_r)
        elif stats is Statistics.BOSE:
            point = mu_bose(T, spec, s, tol)
            self._fugacity = point.fugacity
            if T <= s.T_c:
                self._mu = point.mu
                self._inv_U = spec.mass / (4.0 * math.pi * hbar**2 * spec.a_sc)
                t = T / s.T_c
                # thermal amplitude scaled so the cloud holds N - N_0 atoms
                self._kappa = (1.0 - point.condensate_fraction) / t**3
                if point.mu > 0.0:
                    self.tf_radius = math.sqrt(
                        2.0 * point.mu / (spec.mass * trap.omega_r**2)
                    )
            self.r_cut = 8.0 * max(s.R_B, sigma_r)
        elif stats is Statistics.BOLTZMANN:
            self._zmu = math.exp(mu_classical(T, s) * self._beta)
            self.r_cut = 8.0 * sigma_r
        else:  # pragma: no cover
            raise UnsupportedStatisticsError(str(stats))
        self.z_cut = self.r_cut / trap.epsilon

    def _ladder(self, order: float, v: float = 0.0) -> float:
        """The thermal cloud's special function of order n at beta V = v:
        f_n(e^{x0 - v}), g_n(z e^{-v}) or kappa g_n(e^{-v}), and z e^{-v}
        for every n in the Boltzmann limit.  At n = 3/2 it is lambda_T^3
        times the thermal density; n = 3 and 4 give the moments below."""
        stats = self.spec.statistics
        if stats is Statistics.FERMI:
            return fermi_dirac_f(order, self._x0 - v, self.tol)
        if stats is Statistics.BOLTZMANN:
            return self._zmu * math.exp(-v)
        if self.T > self.scales.T_c:
            return polylog(order, self._fugacity * math.exp(-v), self.tol)
        return self._kappa * polylog(order, math.exp(-v), self.tol)

    def at(self, r: float, z: float) -> float:
        """Number density in m^-3."""
        if self._zero_T:
            return density_zero_T(self.spec, self.scales, r, z)
        v = self._vcoef * (r * r + self.trap.epsilon**2 * z * z)
        rho = self._ladder(1.5, v) / self._lam3
        if self.tf_radius > 0.0:
            local = self._mu - v / self._beta
            if local > 0.0:
                rho += local * self._inv_U
        return rho

    # Closed-form moments.  With v = a s^2, a = beta M omega_r^2 / 2 and the
    # scaled coordinates s = (x, y, eps z), the ladder identity
    #     int d^3s f_nu(zeta e^{-a s^2}) = (pi/a)^(3/2) f_{nu+3/2}(zeta)
    # and its a-derivative turn the trap moments of the thermal cloud into
    # order-3 and order-4 functions; the Thomas-Fermi parts are polynomials.

    def axial_moment(self) -> float:
        """int z^2 rho dV in m^2 (atoms times m^2), in closed form."""
        eps = self.trap.epsilon
        if self._zero_T:
            # N R^2 / (8 eps^2) for the Fermi sphere, N R^2 / (7 eps^2) for
            # the condensate paraboloid
            shape = 8.0 if self.spec.statistics is Statistics.FERMI else 7.0
            return self.spec.n_atoms * self.tf_radius**2 / (shape * eps**2)
        a = self._vcoef
        moment = self._ladder(4.0) * (math.pi / a) ** 1.5 / (2.0 * a * eps**3 * self._lam3)
        R_c = self.tf_radius
        if R_c > 0.0:
            moment += self._tf_curvature() * (8.0 * math.pi / 105.0) * R_c**7 / eps**3
        return moment

    def pinhole_column(self, radius: float) -> float:
        """Atoms in the axial cylinder r < radius, int_{r<radius} dA int dz rho,
        in closed form.  The thermal part is a difference of two order-3
        functions, which loses about log10(1 / (a radius^2)) digits."""
        eps = self.trap.epsilon
        if self._zero_T:
            power = 3.0 if self.spec.statistics is Statistics.FERMI else 2.5
            u2 = min(radius / self.tf_radius, 1.0) ** 2
            return self.spec.n_atoms * _cap_fraction(u2, power)
        a = self._vcoef
        column = (
            (self._ladder(3.0) - self._ladder(3.0, a * radius * radius))
            * math.pi**1.5 / (eps * self._lam3 * a**1.5)
        )
        R_c = self.tf_radius
        if R_c > 0.0:
            u2 = min(radius / R_c, 1.0) ** 2
            column += (
                self._tf_curvature() * (8.0 * math.pi / (15.0 * eps)) * R_c**5
                * _cap_fraction(u2, 2.5)
            )
        return column

    def _tf_curvature(self) -> float:
        # condensate density (mu - V) / U = this times (R_c^2 - r^2 - eps^2 z^2)
        return 0.5 * self.spec.mass * self.trap.omega_r**2 * self._inv_U

    def peak(self) -> float:
        return self.at(0.0, 0.0)

    def z_breakpoints(self, r: float):
        """Axial kink positions of the integrand at radius r (condensate edge)."""
        R = self.tf_radius
        if R <= 0.0 or r >= R:
            return ()
        return (math.sqrt(R * R - r * r) / self.trap.epsilon,)


def _cap_fraction(u2: float, power: float) -> float:
    """1 - (1 - u2)^power: the share of the atoms inside the cylinder of
    radius sqrt(u2) R when the column density goes as (1 - r^2/R^2)^(power - 1).
    Accurate for small u2."""
    return -math.expm1(power * math.log1p(-u2)) if u2 < 1.0 else 1.0


@lru_cache(maxsize=64)
def make_profile(
    spec: GasSpec,
    trap: TrapGeometry,
    T: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> DensityProfile:
    return DensityProfile(spec, trap, T, tol)


def density(
    spec: GasSpec,
    trap: TrapGeometry,
    T: float,
    r: float,
    z: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> float:
    """Number density rho(r, z) at temperature T (T = 0 uses closed forms)."""
    if T < 0.0:
        raise ValueError("density requires T >= 0")
    return make_profile(spec, trap, T, tol).at(r, z)
