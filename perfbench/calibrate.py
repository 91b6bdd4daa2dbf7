"""Calibration kernel: a fixed amount of work that runs none of the program's code.

    python3 perfbench/calibrate.py

``run.py`` times this script in a fresh interpreter before each timed run
of the program, and scales the reported times by its median (see
``end_to_end`` there).  It does what a ``slowlight run`` spends its time on:
imports numpy and scipy, then scipy quadrature of a pure-Python integrand
that sums a series.  So a change in the host's speed scales it and the
program alike, while a change to the program leaves it as it is.
"""

import math

import numpy  # noqa: F401  (imported for its start-up cost, as the program does)
import scipy.optimize  # noqa: F401
import scipy.special  # noqa: F401
from scipy.integrate import quad


def integrand(x: float) -> float:
    term, total = 1.0, 0.0
    for k in range(1, 25):
        term *= x
        total += term / k**1.5
    return total * math.exp(-x * x)


for i in range(1000):
    quad(integrand, 0.0, 3.0 + 0.25 * (i % 16), epsabs=0.0, epsrel=1e-12, limit=200)
