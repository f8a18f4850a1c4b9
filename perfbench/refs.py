"""Reference values the benchmark computes itself, without calling carnot.

Every gate of the workloads compares carnot's output with one of these (or
with an identity between two carnot outputs).  The exponent parameters are
those of the shipped specs: ``psi_cp`` is compound Poisson with rate 3 and
standard normal jumps, ``psi_stable`` is symmetric 1.5-stable with unit
scale, ``psi_gaussian`` has sigma = 1.  On the Heisenberg groups and the
quaternionic H-type group every symplectic eigenvalue equals ``|lam|``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1

EULER_GAMMA = 0.5772156649015329
CP_RATE = 3.0
STABLE_ALPHA = 1.5


def ein(x):
    """Entire exponential integral ``Ein(x) = int_0^x (1 - e^-u) / u du``."""
    if x <= 1.0:
        # alternating series; no cancellation against ln x for small x
        total, term, k = 0.0, 1.0, 1
        while True:
            term *= x / k
            add = term / k if k % 2 else -term / k
            total += add
            if abs(add) < 1e-17 * abs(total):
                return total
            k += 1
    return float(exp1(x)) + math.log(x) + EULER_GAMMA


# -- exponents, as functions of one real frequency ---------------------------

def psi_cp(lam):
    return CP_RATE * (math.exp(-lam * lam / 2.0) - 1.0)


def psi_cp_t(t, lam):
    """``int_0^t psi_cp(e^{2s} lam) ds``."""
    x = lam * lam / 2.0
    return 0.75 * (float(exp1(x)) - float(exp1(math.exp(4.0 * t) * x))) - CP_RATE * t


def psi_cp_limit(lam):
    """``int_0^inf psi_cp(e^{-2s} lam) ds``."""
    return -0.75 * ein(lam * lam / 2.0)


def psi_stable(lam):
    return -abs(lam) ** STABLE_ALPHA


def psi_stable_limit(lam):
    return psi_stable(lam) / (2.0 * STABLE_ALPHA)


def psi_gaussian_limit(lam, drift=0.0):
    """Stationary exponent of ``-lam^2 + i drift lam``."""
    return complex(-lam * lam / 4.0, drift * lam / 2.0)


# -- polynomial layers -------------------------------------------------------

def layer_dims(n, m, cap):
    """Dimension of each graded layer 0..cap of polynomials on ``R^n x R^m``

    (horizontal degree 1, vertical degree 2), by counting monomials.
    """
    dims = []
    for k in range(cap + 1):
        dims.append(sum(
            math.comb(k - 2 * g + n - 1, n - 1) * math.comb(g + m - 1, m - 1)
            for g in range(k // 2 + 1)
        ))
    return dims


# -- kernels -----------------------------------------------------------------

def heisenberg_hat(d, t, zsq, lam):
    """Heat-kernel hat on ``H_d`` at frequency ``lam``; ``zsq`` is the total

    squared radius over the ``d`` oscillator planes.
    """
    eta = abs(lam)
    pref = (eta / (2.0 * math.sinh(eta * t))) ** d / (2.0 * math.pi) ** d
    return pref * math.exp(-0.25 * eta * zsq / math.tanh(eta * t))


def sech_charfn(eta, t, planes):
    """Vertical characteristic function of the area: ``sech(eta t)^planes``."""
    return math.cosh(eta * t) ** -planes


def euclid_heat(xsq, n, t):
    """Heat kernel of ``Delta`` on ``R^n`` at time t, at squared radii xsq."""
    return (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-np.asarray(xsq) / (4.0 * t))
