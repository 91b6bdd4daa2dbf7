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
                            1/v_g - 1/c = K rho / (1 - b rho)^2 along the axis
  effective_group_velocity  L over the total transit time
  transmission              exp of the pinhole-averaged absorbance over
                            the central +-L/2 window

L is closed-form for every statistics and temperature (the profile's axial
moment, DensityProfile.axial_moment).  t_d is one formula for both
local-field settings: the part of the excess slowness linear in rho, K rho,
averages to K times the closed-form pinhole column
(DensityProfile.pinhole_column), and the local field adds the remainder
K rho y (2 - y) / (1 - y)^2, y = b rho, which is zero when b = 0.  The
remainder and the transmission are nonlinear in rho, and they are the only
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
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

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
    """Bundle of slow-light observables at one sweep point: L (m), the excess
    delay over vacuum t_d (s), v_g_eff (m/s), transmission in [0, 1] (0.0 for
    an opaque cloud, whose e^-absorbance underflows)."""

    __slots__ = ()


def polarizability(probe: ProbeParams) -> float:
    """alpha = d^2 / (hbar Delta) with the two-level dipole moment
    d^2 = 3 hbar gamma c^3 / (4 omega_0^3); a signed volume in m^3."""
    d_sq = 3.0 * hbar * probe.gamma * c_light**3 / (4.0 * probe.omega_0**3)
    return d_sq / (hbar * probe.delta)


def _response(probe: ProbeParams):
    """(b, K, chi), bound once per probe: b = (4 pi / 3) alpha is the
    local-field strength (0 with the local field off), K = 2 pi omega_0 alpha
    / (Delta c) the linear excess slowness per density, so that 1/v_g - 1/c
    = K rho / (1 - b rho)^2, and chi(rho) = (chi', chi'') the susceptibility at
    a nonnegative density, which refuses a resonant denominator that underflows."""
    alpha = polarizability(probe)
    factor = 4.0 * math.pi / 3.0 if probe.local_field_on else 0.0
    g = probe.gamma / (2.0 * probe.delta)
    K = 2.0 * math.pi * probe.omega_0 * alpha / (probe.delta * c_light)

    def chi(rho: float) -> tuple[float, float]:
        alpha_rho = alpha * rho
        d_loc = 1.0 - factor * alpha_rho
        den = d_loc * d_loc + g * g
        if den < 1e-300:
            raise ZeroDivisionError("resonant denominator underflow in susceptibility")
        return alpha_rho * d_loc / den, abs(alpha_rho * g) / den

    return factor * alpha, K, chi


def susceptibility(rho: float, probe: ProbeParams) -> Susceptibility:
    """Clausius-Mossotti response at number density rho; a density that is
    negative, NaN or infinite raises ValueError."""
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"density must be finite and nonnegative, got rho={rho}")
    _, _, chi = _response(probe)
    return Susceptibility(*chi(rho))


def group_velocity_local(rho: float, probe: ProbeParams) -> float:
    """Local group velocity of the dispersive response, c / (1 + c K rho /
    (1 - b rho)^2) with b and K of _response.

    A density that is negative, NaN or infinite raises ValueError, and one at
    or past the Lorentz-Lorenz pole, b rho >= 1, LocalFieldPoleError, as
    delay_time does for a cloud whose peak density reaches it."""
    b, K, _ = _response(probe)
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"density must be finite and nonnegative, got rho={rho}")
    if b * rho >= 1.0:
        raise LocalFieldPoleError(
            f"local-field pole: (4 pi/3) alpha rho = {b * rho:.6g} >= 1")
    # 1/v_g - 1/c written out, not the difference, which rounds to a staircase
    return c_light / (1.0 + c_light * (K * rho / (1.0 - b * rho) ** 2))


def group_velocity_from_dispersion(rho: float, probe: ProbeParams) -> float:
    """Cross-check path: v_g = c / (1 + 2 pi chi' - 2 pi omega_0 dchi'/dDelta),
    the derivative a one-sided second-order difference of step h = 1e-5 Delta
    away from resonance: no probe it builds is nearer resonance than this one.

    With the local field off chi' is linear in rho, and with g = gamma / 2 Delta
    the route keeps (c/v_g - 1) / (c/v_local - 1) = (1 - g^2) / (1 + g^2)^2
    + (Delta / omega_0) / (1 + g^2) against group_velocity_local: where the
    slowness dominates, its v_g is 0.75% above the closed form at Delta = 10
    gamma and 8.65% above it at 3 gamma.
    """
    h = 1e-5 * probe.delta
    chi_0, chi_1, chi_2 = (susceptibility(rho, p).chi_re for p in (
        probe, probe._replace(delta=probe.delta + h), probe._replace(delta=probe.delta + 2.0 * h)))
    dchi = (4.0 * chi_1 - 3.0 * chi_0 - chi_2) / (2.0 * h)
    return c_light / (1.0 + 2.0 * math.pi * chi_0 - 2.0 * math.pi * probe.omega_0 * dchi)


def effective_length(
    spec: GasSpec, trap: TrapGeometry, T: float,
    tol: NumericTolerances = DEFAULT_TOL,
) -> float:
    """RMS axial extent of the cloud, L = [(1/N) int z^2 rho dV]^(1/2), from
    the profile's closed-form axial moment; it takes no quadrature, so tol
    has no effect."""
    return math.sqrt(make_profile(spec, trap, T, DEFAULT_TOL).axial_moment() / spec.n_atoms)


def _pinhole_integral(
    F: Callable[[float], float], prof, R: float, W: float, rel_tol: float
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
    u = s on [0, R] and u = R + t beyond, so the relative tolerance rel_tol
    holds for the whole integral: the far shells, where F(rho) is tiny and
    may round to a staircase, need not meet it on their own.  The window edge
    W and the condensate edge tf_radius are breakpoints of whichever piece
    they fall in.
    rho(s) comes from the profile's memo (at_radius), so the nodes that
    repeat at every point of a detuning sweep are evaluated once.

    The overlap s - t is taken as R^2 / (s + t), which does not cancel where
    t >> R.  Breakpoints at t = W / 2^k while that exceeds 4 R serve both ends
    of the piece: the weight t R^2 / (s + t) turns from t R to R^2 / 2 over
    t ~ R, and the cloud ends long before a wide window's W.
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
    t = 0.5 * W
    while t > 4.0 * R:
        points.append(R + t)
        t *= 0.5
    return 4.0 * math.pi / prof.trap.epsilon * integrate_1d(shell, 0.0, R + W, rel_tol, points)


def _delay_of_profile(
    prof, probe: ProbeParams, tol: NumericTolerances
) -> float:
    # Pinhole average of the excess slowness K rho / (1 - y)^2, y = b rho: K
    # times the closed-form pinhole column, plus the local field's remainder
    # K rho y (2 - y) / (1 - y)^2, the one quadrature.
    R = probe.pinhole_R
    b, K, _ = _response(probe)
    # the density peaks at the trap centre, so 1 - (4 pi / 3) alpha rho stays
    # positive throughout the cloud exactly when it does there
    x_peak = b * prof.peak() if b else 0.0
    if x_peak >= 1.0:
        raise LocalFieldPoleError(
            f"local-field pole: x_peak = (4 pi/3) alpha rho(0, 0) = {x_peak:.6g} >= 1; "
            "x_peak grows with gas.atom_count and falls with probe.detuning_gamma"
        )
    t_d = K * prof.pinhole_column(R)
    if x_peak:
        def remainder(rho: float) -> float:
            y = b * rho
            return K * rho * y * (2.0 - y) / (1.0 - y) ** 2

        # the remainder's share of the total, y (2 - y) at each node, is at most
        # |x_peak (2 - x_peak)| at both signs of x_peak, so the sum meets
        # rel_tol_quadrature; the cap at 1 keeps a tiny x_peak's tolerance finite
        share = abs(x_peak * (2.0 - x_peak))
        W = prof.trap.epsilon * prof.z_cut  # the window covers the cloud
        t_d += _pinhole_integral(remainder, prof, R, W, min(tol.rel_tol_quadrature / share, 1.0))
    return t_d / (math.pi * R * R)


def _checked_profile(spec: GasSpec, trap: TrapGeometry, probe: ProbeParams, T: float):
    """The cached profile, or PinholeError when the pinhole is as wide as its
    cut-off radius r_cut; r_cut depends on T and the statistics, so the
    config reader cannot refuse it.  An infinite r_cut (an infinite R_B,
    say) raises ValueError: the window it sets would never be halved down to
    the pinhole.  The profile reads no tolerance, so the cache key takes
    DEFAULT_TOL whatever the caller's: one profile per (spec, trap, T)."""
    prof = make_profile(spec, trap, T, DEFAULT_TOL)
    if not math.isfinite(prof.r_cut):
        raise ValueError(f"the cloud's cut-off radius r_cut must be finite, got {prof.r_cut}")
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
    return _delay_of_profile(_checked_profile(spec, trap, probe, T), probe, tol)


def _transmission_of_profile(
    prof, probe: ProbeParams, L: float, tol: NumericTolerances
) -> float:
    R = probe.pinhole_R
    _, _, chi = _response(probe)
    W = prof.trap.epsilon * min(0.5 * L, prof.z_cut)
    integral = _pinhole_integral(lambda rho: chi(rho)[1], prof, R, W, tol.rel_tol_quadrature)
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
    prof = _checked_profile(spec, trap, probe, T)
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
    prof = _checked_profile(spec, trap, probe, T)
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
