"""Composite Gauss-Legendre helpers used by the kernel and exponent modules."""

import numpy as np

_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def gauss_legendre(a, b, n=64):
    """Nodes and weights for Gauss-Legendre on [a, b]."""
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_gl(a, b, panels, nodes_per_panel=16):
    """Composite Gauss-Legendre rule over equal panels of [a, b]."""
    return composite_gl_edges(np.linspace(a, b, panels + 1), nodes_per_panel)


def composite_gl_edges(edges, nodes_per_panel=16):
    """Composite Gauss-Legendre rule over the panels between ``edges``."""
    rules = [gauss_legendre(lo, hi, nodes_per_panel) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def oscillatory_rule(limit, vmax, nodes_per_panel=12, max_panel=1.0):
    """Rule for ``integral over [-limit, limit]`` of an envelope times
    ``exp(-i lam v)`` with ``|v| <= vmax``.

    Panel width is capped so each panel sees at most about half an
    oscillation period of the fastest mode; panels are graded toward the
    origin so that envelopes with a mild cusp there (fractional powers of
    |lam|) are still integrated accurately.
    """
    width = min(max_panel, np.pi / (2.0 * max(vmax, 1e-9)))
    half_panels = max(2, int(np.ceil(limit / width)))
    edges = np.linspace(0.0, limit, half_panels + 1)
    graded = [edges[1] / 64.0, edges[1] / 16.0, edges[1] / 4.0]
    pos = np.concatenate([[0.0], graded, edges[1:]])
    return composite_gl_edges(np.concatenate([-pos[::-1], pos[1:]]), nodes_per_panel)


def trapezoid_nd(values, axes):
    """Trapezoidal integral of an n-d array over the given axis grids."""
    out = values
    for ax in reversed(range(len(axes))):
        out = np.trapezoid(out, axes[ax], axis=ax)
    return out
