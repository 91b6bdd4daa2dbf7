"""Optical response of the cloud and the slow-light observables.

A weak probe, far off resonance (detuning Delta = omega - omega_0), sees
the Clausius-Mossotti susceptibility of the local density, including the
Lorentz-Lorenz local-field denominator:

    chi = alpha rho / (1 - (4 pi / 3) alpha rho + i gamma / (2 Delta)).

alpha = d^2 / (hbar Delta) is the off-resonant polarizability expressed in
the Gaussian-unit convention in which chi' ~ alpha rho is dimensionless.
The atoms are two-level, so the linewidth fixes the dipole moment,
d^2 = 3 hbar gamma c^3 / (4 omega_0^3), and alpha = 3 gamma / (4 k_L^3 Delta).
_response binds this response once per probe for chi, the local group
velocity, t_d and the transmission.

Observables, all per unit cloud at temperature T:
  effective_length          L = [ (1/N) int z^2 rho dV ]^(1/2)
  delay_time                pinhole average of the excess slowness
                            (1/v_g - 1/c) along the axis
  effective_group_velocity  L over the total transit time
  transmission              exp of the pinhole-averaged absorbance over
                            the central +-L/2 window

L is closed-form for every statistics and temperature (the profile's axial
moment, DensityProfile.axial_moment), and so is t_d with the local field
off, where the excess slowness is linear in rho and only the pinhole column
(DensityProfile.pinhole_column) enters; for a pinhole far narrower than the
thermal cloud that column is one short 1-D integral.  t_d with the local
field on and the transmission are nonlinear in rho and stay adaptive
quadratures, one 1-D integral over shells each (_pinhole_integral): in the
scaled coordinates s = (x, y, eps z) the LDA density depends on |s| alone.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Callable

from .constants import c as c_light, hbar
from .gas import (
    CharScales,
    GasSpec,
    Statistics,
    TrapGeometry,
    UnsupportedStatisticsError,
    make_profile,
)
from .numerics import (
    DEFAULT_TOL,
    NumericTolerances,
    integrate_1d,
    integrate_cylindrical,  # the perfbench tracer wraps this name
    replace,
    require_finite,
)


class ZeroDetuningError(ValueError):
    """The off-resonant response is undefined at Delta = 0."""


class PinholeError(ValueError):
    """Pinhole radius exceeds the cloud radius."""


class LocalFieldPoleError(ValueError):
    """The Lorentz-Lorenz denominator 1 - (4 pi / 3) alpha rho vanishes
    inside the cloud."""


class ProbeParams(namedtuple("ProbeParams", "omega_0 gamma delta pinhole_R local_field_on")):
    """Probe definition: atomic resonance omega_0, spontaneous linewidth
    gamma and detuning delta = omega - omega_0 (all rad/s), pinhole radius
    pinhole_R (m), and whether the local-field denominator is on."""

    __slots__ = ()

    def __new__(cls, omega_0: float, gamma: float, delta: float, pinhole_R: float,
                local_field_on: bool = True):
        self = tuple.__new__(cls, (omega_0, gamma, delta, pinhole_R, local_field_on))
        require_finite(self, "omega_0", "gamma", "delta", "pinhole_R")
        if not isinstance(local_field_on, bool):
            raise ValueError(f"local_field_on must be True or False, got {local_field_on!r}")
        if self.omega_0 <= 0.0 or self.gamma <= 0.0:
            raise ValueError("omega_0 and gamma must be positive")
        if self.delta == 0.0:
            raise ZeroDetuningError("probe detuning must be nonzero")
        if self.pinhole_R <= 0.0:
            raise ValueError("pinhole radius must be positive")
        if abs(self.delta) < 3.0 * self.gamma:
            warnings.warn(
                "detuning below 3*gamma: far-off-resonance response is marginal",
                stacklevel=2,
            )
        return self


class Susceptibility(namedtuple("Susceptibility", "chi_re chi_abs")):
    """Real part and nonnegative absorptive part of chi."""

    __slots__ = ()


class PropagationResult(namedtuple("PropagationResult", "L t_d v_g_eff transmission")):
    """Bundle of slow-light observables at one sweep point: L (m), the
    excess delay over vacuum t_d (s), v_g_eff (m/s), transmission in (0, 1]."""

    __slots__ = ()


def polarizability(probe: ProbeParams) -> float:
    """alpha = d^2 / (hbar Delta) with the two-level dipole moment
    d^2 = 3 hbar gamma c^3 / (4 omega_0^3); a signed volume in m^3."""
    d_sq = 3.0 * hbar * probe.gamma * c_light**3 / (4.0 * probe.omega_0**3)
    return d_sq / (hbar * probe.delta)


def _response(probe: ProbeParams):
    """(b, chi, excess), bound once per probe: b = (4 pi / 3) alpha is the
    local-field strength (0 with the local field off), chi(rho) = (chi', chi''),
    and excess(rho) = K rho / (1 - b rho)^2, K = 2 pi omega_0 alpha / (Delta c),
    is 1/v_g - 1/c without the difference, which rounds to a staircase."""
    alpha = polarizability(probe)
    factor = 4.0 * math.pi / 3.0 if probe.local_field_on else 0.0
    b = factor * alpha
    g = probe.gamma / (2.0 * probe.delta)
    K = 2.0 * math.pi * probe.omega_0 * alpha / (probe.delta * c_light)

    def chi(rho: float) -> tuple[float, float]:
        if rho < 0.0:
            raise ValueError("density must be nonnegative")
        alpha_rho = alpha * rho
        d_loc = 1.0 - factor * alpha_rho
        den = d_loc * d_loc + g * g
        if den < 1e-300:
            raise ZeroDivisionError("resonant denominator underflow in susceptibility")
        return alpha_rho * d_loc / den, abs(alpha_rho * g) / den

    def excess(rho: float) -> float:
        return K * rho / (1.0 - b * rho) ** 2

    return b, chi, excess


def susceptibility(rho: float, probe: ProbeParams) -> Susceptibility:
    """Clausius-Mossotti response at number density rho."""
    _, chi, _ = _response(probe)
    return Susceptibility(*chi(rho))


def group_velocity_local(rho: float, probe: ProbeParams) -> float:
    """Local group velocity of the dispersive response, c / (1 + c K rho /
    (1 - b rho)^2) with the excess slowness of _response."""
    _, _, excess = _response(probe)
    return c_light / (1.0 + c_light * excess(rho))


def group_velocity_from_dispersion(rho: float, probe: ProbeParams) -> float:
    """Cross-check path: v_g from c / (1 + 2 pi chi' + 2 pi omega_0 dchi'/domega)
    with the frequency derivative taken at omega_0 + Delta by a central
    difference of step 1e-5 |Delta|.

    The derivative term enters with the sign that reproduces the closed
    form above (the dispersive slope of the off-resonant response is
    normal); agreement is ~0.3% at Delta = 10 gamma, the residual being
    the static 2 pi chi' term and the gamma^2/4Delta^2 linewidth factor.
    """

    def chi_re_at(omega: float) -> float:
        shifted = replace(probe, delta=omega - probe.omega_0)
        return susceptibility(rho, shifted).chi_re

    omega = probe.omega_0 + probe.delta
    h = 1e-5 * abs(probe.delta)
    dchi = (chi_re_at(omega + h) - chi_re_at(omega - h)) / (2.0 * h)
    return c_light / (
        1.0 + 2.0 * math.pi * chi_re_at(omega) - 2.0 * math.pi * probe.omega_0 * dchi
    )


def effective_length(
    spec: GasSpec, trap: TrapGeometry, T: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> float:
    """RMS axial extent of the cloud, L = [(1/N) int z^2 rho dV]^(1/2), from
    the profile's closed-form axial moment."""
    return math.sqrt(make_profile(spec, trap, T, tol).axial_moment() / spec.n_atoms)


def _pinhole_integral(
    F: Callable[[float], float], prof, R: float, W: float, tol: NumericTolerances
) -> float:
    """int F(rho) dV over the cylinder r < R and the window |eps z| < W.

    In the scaled coordinates s = (x, y, eps z), dV = d^3s / eps and the LDA
    density is constant on each sphere |s| = s, so the volume integral is
    one integral over shells weighted by the area each keeps inside the
    region (Archimedes: a band of the sphere holds area 2 pi s dz_s):

        (4 pi / eps) [ int_0^R min(s^2, W s) F(rho(s)) ds
                     + int_0^W t (min(sqrt(R^2 + t^2), W) - t) F(rho(sqrt(R^2 + t^2))) dt ].

    The shells outside the cylinder, s > R, are reached through
    s = sqrt(R^2 + t^2), which removes the square-root kink of the
    sphere-cylinder overlap at s = R.  Both pieces run as one quadrature,
    u = s on [0, R] and u = R + t beyond, so the tolerance holds for the
    whole integral: the far shells, where F(rho) is tiny and may round to a
    staircase, need not meet it on their own.  The window edge W and the
    condensate edge tf_radius are breakpoints of whichever piece they fall in.
    rho(s) comes from the profile's memo (at_radius), so the nodes that
    repeat at every point of a detuning sweep are evaluated once.

    The overlap s - t is taken as R^2 / (s + t), which does not cancel where
    t >> R.  The weight t R^2 / (s + t) turns from t R to R^2 / 2 over t ~ R,
    a feature of width R at one end of a piece of width W, so a pinhole much
    narrower than the window adds breakpoints at t = R 2^k below W / 64.
    Checked against the 2-D quadrature for R / W from 3.5e-2 down to 3.5e-8.
    """

    rho = prof.at_radius

    def shell(u: float) -> float:
        if u <= R:
            return min(u * u, W * u) * F(rho(u))
        t = u - R
        s = math.sqrt(R * R + t * t)
        return t * (R * R / (s + t) if s < W else W - t) * F(rho(s))

    edges = (W, prof.tf_radius)
    points = [R, *(e for e in edges if e < R),
              *(R + math.sqrt(e * e - R * R) for e in edges if e > R)]
    t = R
    while t < W / 64.0:
        points.append(R + t)
        t += t
    return 4.0 * math.pi / prof.trap.epsilon * integrate_1d(shell, 0.0, R + W, tol, points)


def _delay_of_profile(
    prof, probe: ProbeParams, tol: NumericTolerances
) -> float:
    # Pinhole-averaged excess delay; the vacuum transit cancels in the excess
    # slowness, so the axial window only needs to cover the cloud.
    R = probe.pinhole_R
    b, _, excess = _response(probe)
    if not probe.local_field_on:
        # Without the local-field denominator the excess slowness is linear
        # in rho, so the average needs only the atoms in the pinhole column.
        return excess(prof.pinhole_column(R)) / (math.pi * R * R)

    # the density peaks at the trap centre, so 1 - (4 pi / 3) alpha rho stays
    # positive throughout the cloud exactly when it does there
    x_peak = b * prof.peak()
    if x_peak >= 1.0:
        raise LocalFieldPoleError(
            f"local-field pole: x_peak = (4 pi/3) alpha rho(0, 0) = {x_peak:.6g} >= 1; "
            "x_peak grows with gas.atom_count and falls with probe.detuning_gamma"
        )

    W = prof.trap.epsilon * prof.z_cut
    return _pinhole_integral(excess, prof, R, W, tol) / (math.pi * R * R)


def _checked_profile(
    spec: GasSpec, trap: TrapGeometry, probe: ProbeParams, T: float, tol: NumericTolerances
):
    """The cached profile, or PinholeError when the pinhole is as wide as its
    cut-off radius r_cut; r_cut depends on T and the statistics, so the
    config reader cannot refuse it."""
    prof = make_profile(spec, trap, T, tol)
    if probe.pinhole_R >= prof.r_cut:
        raise PinholeError(
            f"probe.pinhole_radius: R = {probe.pinhole_R:.6g} m is not inside the cloud, "
            f"whose cut-off radius is r_cut = {prof.r_cut:.6g} m"
        )
    return prof


def delay_time(
    spec: GasSpec, trap: TrapGeometry, probe: ProbeParams, T: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> float:
    """Averaged pulse delay over the pinhole column, vacuum transit removed.
    A pinhole as wide as the cloud raises PinholeError."""
    return _delay_of_profile(_checked_profile(spec, trap, probe, T, tol), probe, tol)


def _transmission_of_profile(
    prof, probe: ProbeParams, L: float, tol: NumericTolerances
) -> float:
    R = probe.pinhole_R
    _, chi, _ = _response(probe)
    W = prof.trap.epsilon * min(0.5 * L, prof.z_cut)
    integral = _pinhole_integral(lambda rho: chi(rho)[1], prof, R, W, tol)
    alpha_T = -2.0 * probe.omega_0 / c_light * integral / (math.pi * R * R)
    return math.exp(alpha_T)


def transmission(
    spec: GasSpec, trap: TrapGeometry, probe: ProbeParams, T: float,
    tol: NumericTolerances = DEFAULT_TOL,
    L: float | None = None,
) -> float:
    """Transmission exp(alpha_T) with the absorbance averaged over the
    pinhole and the central +-L/2 axial window; L defaults to the
    effective length and must be finite and positive.  A pinhole as wide as
    the cloud raises PinholeError."""
    prof = _checked_profile(spec, trap, probe, T, tol)
    if L is None:
        L = effective_length(spec, trap, T, tol)
    elif not 0.0 < L < math.inf:
        raise ValueError(f"L must be finite and positive, got {L!r}")
    return _transmission_of_profile(prof, probe, L, tol)


def effective_group_velocity(
    spec: GasSpec, trap: TrapGeometry, probe: ProbeParams, T: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> PropagationResult:
    """L, t_d, effective group speed, and transmission at temperature T.

    The speed is L over the total transit time t_d + L/c; deep in the
    slow-light regime this is L/t_d to parts in 10^6, and it degrades
    gracefully to c for an empty medium.  A pinhole as wide as the cloud
    raises PinholeError.
    """
    prof = _checked_profile(spec, trap, probe, T, tol)
    L = effective_length(spec, trap, T, tol)
    t_d = _delay_of_profile(prof, probe, tol)
    v_g_eff = L / (t_d + L / c_light)
    trans = _transmission_of_profile(prof, probe, L, tol)
    return PropagationResult(L=L, t_d=t_d, v_g_eff=v_g_eff, transmission=trans)


def v_g_zero_T(
    statistics: Statistics, scales: CharScales, probe: ProbeParams
) -> float:
    """Closed-form zero-temperature effective group velocity.

    Bose:  (4 omega_0^2 Delta^2 / (3 sqrt7 N eps c^2 gamma)) R^2 R_B
           / (1 - [1 - (R/R_B)^2]^(5/2))
    Fermi: (sqrt2 omega_0^2 Delta^2 / (9 N eps c^2 gamma)) R_F^3
           / (1 - (R/R_F)^2 + (R/R_F)^4 / 3)

    N eps is (R_F / a_r)^6 / 48 by the scales' definition of R_F; R is the
    pinhole radius and must not exceed the cloud radius.

    Both are exactly twice the pipeline's L / t_d with the local field off.
    There t_d = K C / (pi R^2) with K = 2 pi omega_0 alpha / (Delta c)
    = 3 pi gamma c^2 / (2 omega_0^2 Delta^2) with the two-level dipole moment,
    and the zero-T pinhole columns are C = N (1 - [1 - u^2]^(5/2)) (Bose)
    and C = N (1 - [1 - u^2]^3) = 3 N u^2 (1 - u^2 + u^4 / 3) (Fermi),
    u = R / R_cloud.  With L = R_B / (sqrt7 eps) and R_F / (sqrt8 eps):

        Bose:  L / t_d = (2 / (3 sqrt7)) omega_0^2 Delta^2 R^2 R_B
                         / (N eps c^2 gamma (1 - [1 - (R/R_B)^2]^(5/2)))
        Fermi: L / t_d = (sqrt2 / 18) omega_0^2 Delta^2 R_F^3
                         / (N eps c^2 gamma (1 - (R/R_F)^2 + (R/R_F)^4 / 3))

    against the prefactors 4 / (3 sqrt7) and sqrt2 / 9 above.  Acceptance
    criterion 11 asserts the factor 2 to 1e-9.
    """
    n_eps = (scales.R_F / scales.a_r) ** 6 / 48.0
    R = probe.pinhole_R
    w0, dlt, gam = probe.omega_0, probe.delta, probe.gamma
    if statistics is Statistics.BOSE:
        if R > scales.R_B:
            raise PinholeError("pinhole exceeds the condensate radius")
        u2 = (R / scales.R_B) ** 2
        shape = -math.expm1(2.5 * math.log1p(-u2)) if u2 < 1.0 else 1.0
        return (
            4.0 * w0**2 * dlt**2 / (3.0 * math.sqrt(7.0) * n_eps * c_light**2 * gam)
            * R * R * scales.R_B / shape
        )
    if statistics is Statistics.FERMI:
        if R > scales.R_F:
            raise PinholeError("pinhole exceeds the Fermi radius")
        u2 = (R / scales.R_F) ** 2
        shape = 1.0 - u2 + u2 * u2 / 3.0
        return (
            math.sqrt(2.0) * w0**2 * dlt**2 / (9.0 * n_eps * c_light**2 * gam)
            * scales.R_F**3 / shape
        )
    raise UnsupportedStatisticsError("zero-T group velocity needs Bose or Fermi")
