"""Gauss-Legendre rules, the one half-line rule of every vertical inversion

and the one refinement self-check of the package's quadratures.
"""

import math

import numpy as np

from .errors import AccuracyError

_GL_CACHE = {}
NODES_PER_PANEL = 12
ORIGIN_GRADING = 10        # the first panel is graded by 4s down to 4^-10 of its width
CUTOFF_TOL = 1e-12


def _gl_nodes(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def gauss_legendre(a, b, n=64):
    """Nodes and weights for Gauss-Legendre on [a, b]."""
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_gl_edges(edges, nodes_per_panel=16):
    """Composite Gauss-Legendre rule over the panels between ``edges``."""
    rules = [gauss_legendre(lo, hi, nodes_per_panel) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def half_line_rule(bound, vmax):
    """:func:`oscillatory_rule` and its cutoff, ``(lam, w, cutoff)``, for an

    integrand of magnitude at most the vectorised ``bound(lam)``.  The cutoff
    is where ``bound`` falls to ``CUTOFF_TOL`` of its largest value at the
    points ``2^k``, ``k >= -20``: bracketed by them (AccuracyError past 2^30),
    then bisected.
    """
    at = lambda lam: float(bound(np.array([lam]))[0])
    lo, ref = 2.0 ** -20, at(2.0 ** -20)
    while not (val := at(2.0 * lo)) <= CUTOFF_TOL * ref:
        if lo >= 2.0 ** 30:
            raise AccuracyError(f"the lambda integrand's bound does not fall to "
                                f"{CUTOFF_TOL:.0e} of its maximum by lam = 2^30")
        lo, ref = 2.0 * lo, max(ref, val)
    hi = 2.0 * lo
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if at(mid) <= CUTOFF_TOL * ref else (mid, hi)
    return (*oscillatory_rule(hi, vmax), hi)


def oscillatory_rule(limit, vmax, halved=False):
    """Composite rule on ``[0, limit]`` for the half-line inversion of a

    Hermitian envelope against ``exp(-i lam v)``, ``|v| <= vmax``: panels one
    period ``2 pi / vmax`` of the fastest mode wide (at most 1), with
    ``NODES_PER_PANEL`` nodes, and the first panel graded toward 0 down to
    ``4^-ORIGIN_GRADING`` of its width for envelopes with a cusp there (the
    ``|lam|^alpha`` of stable exponents).  ``halved`` splits every panel in
    two: the refined rule of the self-checks.
    """
    width = min(1.0, 2.0 * math.pi / max(vmax, 1e-9))
    edges = np.linspace(0.0, limit, max(2, math.ceil(limit / width)) + 1)
    edges = np.concatenate([[0.0], edges[1] * 0.25 ** np.arange(ORIGIN_GRADING, 0, -1), edges[1:]])
    if halved:
        edges = np.insert(edges, np.arange(1, len(edges)), 0.5 * (edges[:-1] + edges[1:]))
    return composite_gl_edges(edges, NODES_PER_PANEL)


def refinement_error(coarse, fine, scale, tol, rule):
    """``max |coarse - fine| / scale``: the change of a value when ``rule`` (a

    description naming its size) is refined; AccuracyError unless <= tol.
    """
    err = float(np.max(np.abs(np.asarray(coarse) - fine) / scale))
    if not err <= tol:
        raise AccuracyError(f"{rule} did not converge: doubling its nodes moved the value "
                            f"by {err:.2e} > {tol:.0e}")
    return err


def trapezoid_nd(values, axes):
    """Trapezoidal integral of an n-d array over the given axis grids."""
    out = values
    for ax in reversed(range(len(axes))):
        out = np.trapezoid(out, axes[ax], axis=ax)
    return out
