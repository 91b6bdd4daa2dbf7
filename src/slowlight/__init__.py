"""Slow-light observables for harmonically trapped atomic gases."""

from .numerics import (
    BracketError,
    DEFAULT_TOL,
    DomainError,
    NonConvergenceError,
    NumericTolerances,
    fermi_dirac_f,
    find_root,
    integrate_1d,
    integrate_cylindrical,
    polylog,
)
from .gas import (
    CharScales,
    DensityProfile,
    GasSpec,
    Statistics,
    ThermoPoint,
    TrapGeometry,
    UnsupportedStatisticsError,
    char_scales,
    condensate_fraction,
    density,
    density_zero_T,
    make_profile,
    mu_bose,
    mu_classical,
    mu_fermi,
    solve_mu_fermi,
    thermal_wavelength,
)
from .optics import (
    LocalFieldPoleError,
    PinholeError,
    ProbeParams,
    PropagationResult,
    Susceptibility,
    ZeroDetuningError,
    char_volume,
    delay_time,
    effective_group_velocity,
    effective_length,
    group_velocity_from_dispersion,
    group_velocity_local,
    polarizability,
    susceptibility,
    transmission,
    transmission_peak_estimate,
    v_g_zero_T,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
