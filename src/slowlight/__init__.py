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
    make_profile,
    mu_bose,
    mu_classical,
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
    delay_time,
    effective_group_velocity,
    effective_length,
    group_velocity_from_dispersion,
    group_velocity_local,
    polarizability,
    susceptibility,
    transmission,
    v_g_zero_T,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
