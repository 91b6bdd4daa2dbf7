"""Slow-light observables for harmonically trapped atomic gases.

Each public name is imported from its module: slowlight.gas (the trap, the
gas and its density profiles), slowlight.optics (the probe's response and
the observables), slowlight.numerics (special functions, quadrature, roots)
and slowlight.cli (the config language, the sweep and its output)."""

__version__ = "0.1.0"
