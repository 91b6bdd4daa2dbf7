"""Physical constants in SI units: the exact values of the 2019 SI.

hbar is derived as h / (2 pi), so every value here is bit-equal to the
CODATA values other libraries publish (scipy.constants among them).
"""

import math

h = 6.62607015e-34  # J s, Planck constant
hbar = h / (2.0 * math.pi)  # J s
k_B = 1.380649e-23  # J / K, Boltzmann constant
c = 299792458.0  # m / s, speed of light in vacuum
