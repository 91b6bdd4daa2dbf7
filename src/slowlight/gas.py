"""Trapped-gas thermodynamics and spatial density profiles.

Local density approximation for a harmonic trap
V(r, z) = M omega_r^2 (r^2 + eps^2 z^2) / 2, probe axis along z.
Characteristic scales use the ideal-gas trap definitions
E_F = hbar*wbar*(6N)^(1/3) and k_B T_c = hbar*wbar*(N/zeta(3))^(1/3)
with wbar = eps^(1/3) omega_r, which reproduce T_F/T_c = (6 zeta(3))^(1/3).

Density models: one thermal function, chosen when the profile is built and
zero at T = 0, plus one Thomas-Fermi paraboloid A (R_c^2 - s^2)^p,
s^2 = r^2 + eps^2 z^2, which may be absent.
  Fermi      rho = f_{3/2}(e^{beta(mu - V)}) / lambda_T^3, mu fixed by the
             normalization integral N = int rho dV.  At T = 0 the sphere
             8 N eps (R_F^2 - s^2)^(3/2) / (pi^2 R_F^6).
  Bose       Thomas-Fermi condensate (mu - V)/U below T_c plus a thermal
             cloud g_{3/2}(e^{-beta V}) / lambda_T^3 scaled to hold exactly
             N - N_0 atoms; above T_c an ideal saturated cloud with the
             fugacity solved from Li_3(z) = zeta(3) (T_c/T)^3.  At T = 0
             the paraboloid 15 N eps (R_B^2 - s^2) / (8 pi R_B^5).
  Boltzmann  rho = z e^{-beta V} / lambda_T^3 with the fugacity
             z = (T_F/T)^3 / 6, normalized in closed form; undefined at T = 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .constants import h as planck_h, hbar, k_B
from .numerics import (
    DEFAULT_TOL,
    NumericTolerances,
    fermi_dirac_f,
    find_root,
    integrate_1d,
    polylog,
    require_finite,
)

ZETA_3 = polylog(3.0, 1.0)  # zeta(n) = Li_n(1)
ZETA_2 = polylog(2.0, 1.0)


class UnsupportedStatisticsError(ValueError):
    """Requested operation undefined for this statistics."""


class Statistics(str, Enum):
    FERMI = "fermi"
    BOSE = "bose"
    BOLTZMANN = "boltzmann"


class TrapGeometry(namedtuple("TrapGeometry", "omega_r epsilon")):
    """Axially symmetric harmonic trap: radial frequency omega_r (rad/s) and
    aspect ratio epsilon = omega_z / omega_r."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, omega_r: float, epsilon: float):
        self = tuple.__new__(cls, (omega_r, epsilon))
        require_finite(self, "omega_r", "epsilon")
        if self.omega_r <= 0.0:
            raise ValueError("trap omega_r must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("trap epsilon must be positive")
        return self

    def potential(self, mass: float, r: float, z: float) -> float:
        """V(r, z) in joules."""
        return 0.5 * mass * self.omega_r**2 * (r * r + self.epsilon**2 * z * z)


class GasSpec(namedtuple("GasSpec", "statistics n_atoms mass a_sc")):
    """Species definition: statistics, atom number, mass (kg) and scattering
    length a_sc (m, used only for Bose statistics)."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, statistics: Statistics, n_atoms: float, mass: float, a_sc: float = 0.0):
        self = tuple.__new__(cls, (Statistics(statistics), n_atoms, mass, a_sc))
        require_finite(self, "n_atoms", "mass", "a_sc")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.a_sc < 0.0:
            raise ValueError("scattering length must be >= 0")
        if self.statistics is Statistics.BOSE and self.a_sc == 0.0:
            raise ValueError("Bose statistics requires a positive a_sc")
        return self


class CharScales(namedtuple("CharScales", [
    "E_F",      # J
    "T_F",      # K
    "T_c",      # K
    "a_r",      # m, radial oscillator length
    "a_ho",     # m, mean oscillator length a_r eps^(-1/6)
    "R_F",      # m, zero-T Fermi radius
    "R_B",      # m, zero-T Thomas-Fermi condensate radius
    "mu_TF",    # J, Thomas-Fermi chemical potential at T = 0
    "eta",      # mu_TF / (k_B T_c)
])):
    """Derived characteristic quantities of a (spec, trap) pair."""

    __slots__ = ()


class ThermoPoint(namedtuple("ThermoPoint", "mu fugacity condensate_fraction")):
    """Chemical potential and condensate data at one temperature."""

    __slots__ = ()


def thermal_wavelength(mass: float, T: float) -> float:
    if T <= 0.0:
        raise ValueError("thermal wavelength requires T > 0")
    return planck_h / math.sqrt(2.0 * math.pi * mass * k_B * T)


def char_scales(spec: GasSpec, trap: TrapGeometry) -> CharScales:
    """All characteristic scales for the cloud, statistics-independent.

    R_B = (15 N eps a / a_ho)^(1/5) a_r is the paper's zero-T condensate
    radius, while mu_TF (through eta) is the standard Thomas-Fermi chemical
    potential, whose radius sqrt(2 mu_TF / (M omega_r^2)) = R_B eps^(-1/30)
    carries eps^(1/6) where R_B has eps^(1/5).  So the condensate radius of
    the profile tends to R_B eps^(-1/30) as T -> 0+ (1.0373 R_B at
    eps = 1/3), and L jumps at T = 0, where the profile uses R_B.
    """
    wbar = trap.epsilon ** (1.0 / 3.0) * trap.omega_r
    a_r = math.sqrt(hbar / (spec.mass * trap.omega_r))
    a_ho = math.sqrt(hbar / (spec.mass * wbar))
    E_F = hbar * wbar * (6.0 * spec.n_atoms) ** (1.0 / 3.0)
    T_F = E_F / k_B
    T_c = hbar * wbar * (spec.n_atoms / ZETA_3) ** (1.0 / 3.0) / k_B
    R_F = (48.0 * spec.n_atoms * trap.epsilon) ** (1.0 / 6.0) * a_r
    R_B = eta = mu_TF = 0.0
    if spec.a_sc > 0.0:
        R_B = (15.0 * spec.n_atoms * trap.epsilon * spec.a_sc / a_ho) ** 0.2 * a_r
        eta = 0.5 * ZETA_3 ** (1.0 / 3.0) * (
            15.0 * spec.n_atoms ** (1.0 / 6.0) * spec.a_sc / a_ho
        ) ** 0.4
        mu_TF = eta * k_B * T_c
    return CharScales(
        E_F=E_F, T_F=T_F, T_c=T_c, a_r=a_r, a_ho=a_ho,
        R_F=R_F, R_B=R_B, mu_TF=mu_TF, eta=eta,
    )


def require_temperature_in_range(T: float, scales: CharScales) -> None:
    """The normalizations take (T/T_F)^3 and (T/T_c)^3 or their inverses,
    which must be finite and nonzero.  They leave the float range long
    before T does, where ** raises OverflowError and a zero ends in a bare
    math domain error; the cube by multiplication rounds to inf or 0 instead."""
    for name in ("T_F", "T_c"):
        t = T / getattr(scales, name)
        cube = t * t * t
        if not (math.isfinite(cube) and cube and math.isfinite(1.0 / cube)):
            raise ValueError(f"(T/{name})^3 and its inverse must be finite and nonzero, "
                             f"got (T/{name})^3 = {cube}")


def solve_mu_fermi(T: float, scales: CharScales) -> float:
    """Fermi chemical potential fixed by N = int rho dV: x = beta mu solves
    f_3(e^x) = (T_F/T)^3 / 6.  Brent's bracket, each end padded by 1 against
    rounding: the Boltzmann value ln((T_F/T)^3 / 6) below, as f_3(y) < y, and
    T_F/T above, as f_3(e^x) = x^3/6 + pi^2 x/6 + f_3(e^-x) > x^3/6 for x > 0."""
    if T <= 0.0:
        raise ValueError("solve_mu_fermi requires T > 0")
    require_temperature_in_range(T, scales)
    beta = 1.0 / (k_B * T)
    t_inv = scales.T_F / T
    target = t_inv**3 / 6.0
    x = find_root(lambda u: fermi_dirac_f(3.0, u) - target, math.log(target) - 1.0, t_inv + 1.0)
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


def mu_bose(T: float, scales: CharScales) -> ThermoPoint:
    """Bose-gas thermodynamic point, from T and the cloud's scales alone.

    Above T_c the fugacity solves Li_3(z) = zeta(3) (T_c/T)^3.  At and
    below T_c the condensate fraction follows the interacting fitting
    function and mu = mu_TF (N_0/N)^(2/5) >= 0, and the fugacity of the
    saturated thermal cloud is 1.
    """
    if T < 0.0:
        raise ValueError("mu_bose requires T >= 0")
    if T == 0.0:
        return ThermoPoint(mu=scales.mu_TF, fugacity=1.0, condensate_fraction=1.0)
    require_temperature_in_range(T, scales)
    if T > scales.T_c:
        target = ZETA_3 * (scales.T_c / T) ** 3
        z = find_root(lambda u: polylog(3.0, u) - target, 1e-300, 1.0)
        return ThermoPoint(mu=k_B * T * math.log(z), fugacity=z, condensate_fraction=0.0)
    frac = condensate_fraction(T, scales)
    return ThermoPoint(mu=scales.mu_TF * frac**0.4, fugacity=1.0, condensate_fraction=frac)


class DensityProfile:
    """Frozen evaluation context: rho(r, z) at fixed (spec, trap, T).

    Every cloud is one thermal function plus one Thomas-Fermi term
    A (R_c^2 - s^2)^p on s^2 = r^2 + eps^2 z^2 < R_c^2, so rho depends on
    (r, z) through s alone.  The thermal function is chosen once, at
    construction: _ladder(n, v), the special function of order n at
    beta V = v, is f_n(e^{x0 - v}) (Fermi), kappa g_n(z e^{-v}) (Bose, with
    kappa = 1 above T_c and z = 1 below) or z e^{-v} for every n
    (Boltzmann), and exactly zero at T = 0.  At n = 3/2 it is lambda_T^3
    times the thermal density; n = 3 and 4 give the moments.  The
    Thomas-Fermi term is the condensate (mu - V)/U below T_c (p = 1), the
    whole cloud at T = 0 (p = 1 for Bose with R_c = R_B, p = 3/2 for the
    Fermi sphere with R_c = R_F), and absent otherwise.

    Precomputes the chemical potential, wavelength, and amplitudes once so
    every density node takes the same path, whatever the statistics and T,
    and pays only for the local special-function call.
    tf_radius is R_c, where the density kinks; 0 when there is no
    Thomas-Fermi term.

    The profile also keeps the shell densities it has evaluated
    (at_radius): the shell quadratures of optics sample it at nodes fixed by
    the pinhole, the window and the panel tree, which repeat at every
    detuning, so the memo stops growing at that node set and lives as long
    as the profile's make_profile cache entry.
    """

    def __init__(self, spec: GasSpec, trap: TrapGeometry, T: float) -> None:
        self.spec = spec
        self.trap = trap
        self.T = T
        self._shells = {}  # scaled radius s -> at(s, 0.0), see at_radius
        self.scales = char_scales(spec, trap)
        self._eps2 = trap.epsilon**2
        s = self.scales
        stats = spec.statistics
        # the Thomas-Fermi term A (R_c^2 - s^2)^p; absent unless set below
        self.tf_radius = 0.0
        self._tf_amp = 0.0
        self._tf_power = 1.0
        if T == 0.0:
            # no thermal part: a zero ladder with finite scales adds exactly
            # +0.0 to every value; the whole cloud is the Thomas-Fermi term
            self._ladder = lambda order, v=0.0: 0.0
            self._lam3 = self._vcoef = 1.0
            N, eps = spec.n_atoms, trap.epsilon
            if stats is Statistics.FERMI:
                self.tf_radius = s.R_F
                self._tf_amp = 8.0 * N * eps / (math.pi**2 * s.R_F**6)
                self._tf_power = 1.5
            elif stats is Statistics.BOSE:
                self.tf_radius = s.R_B
                self._tf_amp = 15.0 * N * eps / (8.0 * math.pi * s.R_B**5)
            else:
                raise UnsupportedStatisticsError("no zero-temperature Boltzmann profile")
            self.r_cut = 1.001 * self.tf_radius
            self.z_cut = self.r_cut / eps
            return
        beta = 1.0 / (k_B * T)
        half_M_w2 = 0.5 * spec.mass * trap.omega_r**2
        self._lam3 = thermal_wavelength(spec.mass, T) ** 3
        self._vcoef = half_M_w2 * beta
        sigma_r = math.sqrt(k_B * T / (spec.mass * trap.omega_r**2))
        if stats is Statistics.FERMI:
            x0 = solve_mu_fermi(T, s) * beta
            self._ladder = lambda order, v=0.0: fermi_dirac_f(order, x0 - v)
            self.r_cut = 8.0 * max(s.R_F, sigma_r)
        elif stats is Statistics.BOSE:
            point = mu_bose(T, s)
            z = point.fugacity
            kappa = 1.0
            if T <= s.T_c:
                # thermal amplitude scaled so the cloud holds N - N_0 atoms
                kappa = (1.0 - point.condensate_fraction) / (T / s.T_c) ** 3
                # condensate (mu - V)/U with U = 4 pi hbar^2 a / M
                self._tf_amp = half_M_w2 * spec.mass / (4.0 * math.pi * hbar**2 * spec.a_sc)
                self.tf_radius = math.sqrt(point.mu / half_M_w2)
            self._ladder = lambda order, v=0.0: kappa * polylog(order, z * math.exp(-v))
            self.r_cut = 8.0 * max(s.R_B, sigma_r)
        else:  # Boltzmann
            require_temperature_in_range(T, s)
            t = T / s.T_F
            zmu = 1.0 / (6.0 * (t * t * t))
            self._ladder = lambda order, v=0.0: zmu * math.exp(-v)
            self.r_cut = 8.0 * sigma_r
        self.z_cut = self.r_cut / trap.epsilon

    def at(self, r: float, z: float) -> float:
        """Number density in m^-3."""
        s2 = r * r + self._eps2 * z * z
        rho = self._ladder(1.5, self._vcoef * s2) / self._lam3
        R_c2 = self.tf_radius**2
        if s2 < R_c2:
            rho += self._tf_amp * (R_c2 - s2) ** self._tf_power
        return rho

    def at_radius(self, s: float) -> float:
        """Number density at the scaled radius s, at(s, 0.0), memoised."""
        rho = self._shells.get(s)
        if rho is None:
            rho = self._shells[s] = self.at(s, 0.0)
        return rho

    # Closed-form moments.  With v = a s^2, a = beta M omega_r^2 / 2 and the
    # scaled coordinates s = (x, y, eps z), dV = d^3s / eps, the ladder identity
    #     int d^3s f_nu(zeta e^{-a s^2}) = (pi/a)^(3/2) f_{nu+3/2}(zeta)
    # and its a-derivative turn the trap moments of the thermal cloud into
    # order-3 and order-4 functions.  The Thomas-Fermi term A (R_c^2 - s^2)^p
    # gives Beta functions of p.

    def axial_moment(self) -> float:
        """int z^2 rho dV in m^2 (atoms times m^2), in closed form."""
        eps = self.trap.epsilon
        p = self._tf_power
        a = self._vcoef
        moment = (
            self._tf_amp * (2.0 * math.pi / (3.0 * eps**3)) * self.tf_radius ** (2.0 * p + 5.0)
            * math.gamma(2.5) * math.gamma(p + 1.0) / math.gamma(p + 3.5)
        )
        return moment + self._ladder(4.0) * (math.pi / a) ** 1.5 / (2.0 * a * eps**3 * self._lam3)

    def pinhole_column(self, radius: float) -> float:
        """Atoms in the axial cylinder r < radius, int_{r<radius} dA int dz rho,
        in closed form.  The thermal part is f_3(zeta) - f_3(zeta e^{-a R^2}),
        a difference that loses about log10(1 / (a R^2)) digits; below
        a R^2 = _NARROW_AR2 it is the integral of the order-2 function over
        [0, a R^2] instead, which loses none."""
        eps = self.trap.epsilon
        a = self._vcoef
        v = a * radius * radius
        if self.T > 0.0 and 0.0 < v < _NARROW_AR2:
            # d/dv of the order-3 ladder is minus the order-2 one
            thermal = integrate_1d(lambda u: self._ladder(2.0, u), 0.0, v)
        else:  # zero at T = 0, where the ladder is
            thermal = self._ladder(3.0) - self._ladder(3.0, v)
        column = thermal * math.pi**1.5 / (eps * self._lam3 * a**1.5)
        R_c = self.tf_radius
        if R_c > 0.0:
            p = self._tf_power
            u2 = min(radius / R_c, 1.0) ** 2
            column += (
                self._tf_amp * math.pi**1.5 / eps * R_c ** (2.0 * p + 3.0)
                * math.gamma(p + 1.0) / math.gamma(p + 2.5) * _cap_fraction(u2, p + 1.5)
            )
        return column

    def peak(self) -> float:
        return self.at_radius(0.0)

    def z_breakpoints(self, r: float):
        """Axial kink positions of the integrand at radius r (condensate edge)."""
        R = self.tf_radius
        if R <= 0.0 or r >= R:
            return ()
        return (math.sqrt(R * R - r * r) / self.trap.epsilon,)


# a R^2 below which pinhole_column integrates the thermal column instead of
# differencing it: the difference keeps about 13 digits here
_NARROW_AR2 = 1e-3


def _cap_fraction(u2: float, power: float) -> float:
    """1 - (1 - u2)^power: the share of the atoms inside the cylinder of
    radius sqrt(u2) R when the column density goes as (1 - r^2/R^2)^(power - 1).
    Accurate for small u2."""
    return -math.expm1(power * math.log1p(-u2)) if u2 < 1.0 else 1.0


# The profile reads no NumericTolerances: the fourth argument is only part of
# the cache key.  optics and density pass DEFAULT_TOL there, and so does
# perfbench/layers.py, which warms this cache before it times effective_length;
# lru_cache keys on the arguments as passed, so a caller that left it out would
# build a second profile, with a second shell memo, at the same T.
@lru_cache(maxsize=64)
def make_profile(
    spec: GasSpec,
    trap: TrapGeometry,
    T: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> DensityProfile:
    return DensityProfile(spec, trap, T)


def density(spec: GasSpec, trap: TrapGeometry, T: float, r: float, z: float) -> float:
    """Number density rho(r, z) at temperature T >= 0 from the cached
    DensityProfile; at T = 0 only its Thomas-Fermi term remains (Bose and
    Fermi), and a Boltzmann cloud raises UnsupportedStatisticsError.  A
    negative T, and an r or z that is NaN or infinite, raise ValueError."""
    if T < 0.0:
        raise ValueError("density requires T >= 0")
    for name, value in (("r", r), ("z", z)):
        if not math.isfinite(value):
            raise ValueError(f"density needs a finite {name}, got {name}={value}")
    return make_profile(spec, trap, T, DEFAULT_TOL).at(r, z)
