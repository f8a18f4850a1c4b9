"""Hermite and Laguerre special-function layer with the Weyl transform.

The orthonormal Hermite functions diagonalize the harmonic oscillator; the
scaled tensor products ``Phi^lam_beta`` diagonalize the oscillator with
frequencies ``eta_j(lam)``.  The Weyl transform sends functions on the
oscillator planes to operators on ``L^2(R^d)``; on radial Laguerre modes it
is diagonal, which is what makes the whole transform computable at desk
scale.  Laguerre polynomials are normalized so that the radial family is
orthonormal (the Rodrigues form divided by k!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_laguerre

from ._quadrature import extended_simpson, gauss_legendre, refinement_error
from .errors import UnsupportedOperationError
from .spectral import SpectralFrame, harmonic_eigenvalue

__all__ = [
    "hermite_phi",
    "laguerre_phi",
    "laguerre_transform",
    "WeylMatrix",
    "weyl_matrix",
    "oscillator_semigroup_diag",
    "hs_norm_closed_form",
]

N_CAP = 200


def hermite_phi(n, x):
    """Orthonormal Hermite function ``Phi_n(x)`` by the stable recurrence.

    ``Phi_0 = pi^{-1/4} exp(-x^2/2)`` and
    ``Phi_{n+1} = x sqrt(2/(n+1)) Phi_n - sqrt(n/(n+1)) Phi_{n-1}``.
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > N_CAP:
        raise ValueError(f"n exceeds the stability cap {N_CAP}")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(n):
        nxt = x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1)) * prev
        prev, cur = cur, nxt
    return cur


def hermite_phi_all(nmax, x):
    """Rows 0..nmax of the Hermite functions at the points ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = x * math.sqrt(2.0) * out[0]
    for k in range(1, nmax):
        out[k + 1] = x * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def laguerre_phi(frame: SpectralFrame, beta, z):
    """Radial Laguerre mode on the oscillator planes:

        Pf^{1/2} (2 pi)^{-d/2} prod_j L_{beta_j}(eta_j |z_j|^2 / 2)
                                        exp(-eta_j |z_j|^2 / 4),

    with ``z`` grouped as (x_1..x_d, y_1..y_d).  The family is orthonormal
    on ``L^2(R^{2d})``.
    """
    if frame.degenerate:
        frame.require_generic()
    beta = np.atleast_1d(np.asarray(beta, dtype=int))
    z = np.asarray(z, dtype=float)
    d = frame.d
    zsq = z[..., :d] ** 2 + z[..., d:] ** 2
    val = math.sqrt(frame.pf) * (2 * math.pi) ** (-d / 2.0)
    for j, b in enumerate(beta):
        u = 0.5 * frame.eta[j] * zsq[..., j]
        val = val * eval_laguerre(int(b), u) * np.exp(-0.5 * u)
    return val


def laguerre_transform(frame: SpectralFrame, profile, beta_max, quad_nodes=400, u_cap=None,
                       scale=None):
    """Radial Laguerre coefficients of a rotation-invariant profile (d = 1).

    ``profile(zsq)`` takes an ``(N, 1)`` array of squared radii.  Returns
    ``R[beta]``, ``beta <= beta_max``, at the frame's frequency.  With
    ``scale`` (ray factors ``c > 0``) it returns one row per frequency
    ``c lam`` of the frame's ray, where ``eta = c eta(lam)``: the Laguerre
    table on the shared u rule is computed once, for the largest cap, and
    every row is one product with it.  ``beta_max`` is then one cap or one
    per frequency, and each row is zero past its own cap.
    """
    if frame.d != 1:
        raise UnsupportedOperationError("radial transform implemented for d = 1")
    c = np.atleast_1d(np.asarray(1.0 if scale is None else scale, dtype=float))
    if c.ndim != 1 or not np.all(c > 0):
        raise ValueError("scale must be a vector of positive ray factors")
    caps = np.broadcast_to(np.asarray(beta_max, dtype=int), c.shape)
    eta = c * frame.eta[0]
    # integrate over u = eta |z|^2 / 2: dz = (2 pi / eta) du
    u, w = gauss_legendre(0.0, u_cap if u_cap is not None else 60.0, quad_nodes)
    vals = np.reshape(profile((2.0 * u / eta[:, None]).reshape(-1, 1)), (c.size, u.size))
    weights = w * np.exp(-0.5 * u) * (2 * math.pi / eta[:, None])
    pref = np.sqrt(c * frame.pf) * (2 * math.pi) ** -0.5
    R = pref[:, None] * ((weights * vals) @ _laguerre_all(int(caps.max()), u).T)
    R[np.arange(R.shape[1]) > caps[:, None]] = 0.0
    return R[0] if scale is None else R


def _laguerre_all(nmax, u):
    """Laguerre values L_0..L_nmax by the upward recurrence."""
    u = np.asarray(u, dtype=float)
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 1.0 - u
    for k in range(1, nmax):
        out[k + 1] = ((2 * k + 1 - u) * out[k] - k * out[k - 1]) / (k + 1)
    return out


# ---------------------------------------------------------------------------
# Weyl transform
# ---------------------------------------------------------------------------

@dataclass
class WeylMatrix:
    """Matrix elements ``<W(f) Phi_alpha, Phi_gamma>`` below a cap (d = 1),

    from the rule of ``2 quad_points`` lattice nodes per axis; ``quad_err`` is
    the largest change of an element from the rule of ``quad_points``.
    """

    frame: SpectralFrame
    size: int
    entries: np.ndarray  # (size+1, size+1), complex; [gamma, alpha]
    quad_points: int
    quad_err: float

    def hs_norm_sq(self):
        return float(np.sum(np.abs(self.entries) ** 2))


def weyl_matrix(frame: SpectralFrame, f, size, quad_points=90, extent=None, tol=1e-6):
    """Weyl transform matrix of ``f`` on the oscillator plane (d = 1).

    ``f(x, y)`` must decay like a Gaussian.  The operator acts by

        (W(f) phi)(xi) = int f(x, y) exp(i eta y (xi + x/2)) phi(xi + x) dx dy,

    with kernel ``K(xi, zeta) = int f(zeta - xi, y) e^{i eta y (xi + zeta)/2} dy``.
    Matrix elements against the scaled Hermite basis are sums by the
    extended Simpson rule (:func:`~carnot._quadrature.extended_simpson`) on
    the lattice ``linspace(-L, L, N)`` in xi, zeta and y, ``L = extent`` or
    ``8 / sqrt(min(eta, 1))``.  There ``zeta_b - xi_a = (b - a) h`` and
    ``xi_a + zeta_b = -2 L + (a + b) h``: each rule calls ``f`` once, on the
    ``(2N - 1) x N`` difference lattice, and the real and imaginary parts
    of K are one matmul each of that table against the cosine and the sine
    of the phase table in ``(y, a + b)``, split by the parity that ``b - a``
    and ``a + b`` share.  Doubling ``quad_points`` must move no
    element by more than ``tol`` (``refinement_error``).
    """
    _require_weyl_input(size, quad_points, extent, tol)
    if frame.d != 1:
        raise UnsupportedOperationError("Weyl matrices implemented for d = 1")
    frame.require_generic()
    eta = frame.eta[0]
    L = extent if extent is not None else 8.0 / math.sqrt(min(eta, 1.0))

    def assemble(npts):
        x, w = extended_simpson(-L, L, npts)
        h = 2.0 * L / (npts - 1)
        # f((b - a) h, y_j) w_j at row b - a + npts - 1, and the phase
        # eta y_j (xi_a + zeta_b) / 2 at column a + b
        fw = np.broadcast_to(f(h * np.arange(1 - npts, npts)[:, None], x[None, :]),
                             (2 * npts - 1, npts)) * w
        angle = 0.5 * eta * np.outer(x, h * np.arange(2 * npts - 1) - 2 * L)
        parities = ((0, (npts - 1) % 2), (1, npts % 2))      # of rows and of columns
        gather = _parity_gather(npts)
        # K = C + i S, each of C and S one matmul per parity block
        C, S = (np.concatenate([(fw[p::2] @ trig(angle[:, q::2])).ravel()
                                for p, q in parities])[gather]
                for trig in (np.cos, np.sin))
        # project onto the scaled Hermite basis: rows Phi^lam_n at the nodes
        BW = abs(frame.pf) ** 0.25 * hermite_phi_all(size, math.sqrt(eta) * x) * w
        # entries[gamma, alpha] = <W(f) Phi_alpha, Phi_gamma>
        return BW @ C @ BW.T + 1j * (BW @ S @ BW.T)

    second = assemble(2 * quad_points)
    err = refinement_error(assemble(quad_points), second, 1.0, tol,
                           f"Weyl quadrature of {quad_points}^2 nodes")
    return WeylMatrix(frame=frame, size=size, entries=second, quad_points=quad_points,
                      quad_err=err)


def _parity_gather(npts):
    """Flat position of ``K[a, b]`` in the two parity blocks of ``weyl_matrix``,

    stacked: rows ``b - a + npts - 1`` of parity p against columns ``a + b``
    of parity ``(p + npts - 1) % 2``, the one they share.
    """
    idx = np.arange(npts)
    row = npts - 1 - np.subtract.outer(idx, idx)
    col = np.add.outer(idx, idx)
    cols_even = npts - (npts - 1) % 2          # columns of the parity-0 block
    return np.where(row % 2 == 0, (row // 2) * cols_even + col // 2,
                    npts * cols_even + (row // 2) * (2 * npts - 1 - cols_even) + col // 2)


def _require_weyl_input(size, quad_points, extent, tol):
    """ValueError unless ``0 <= size <= N_CAP``, ``quad_points >= 3`` (integers)

    and ``extent`` (unless None) and ``tol`` are finite and positive.
    """
    for name, val, lo in (("size", size, 0), ("quad_points", quad_points, 3)):
        if not isinstance(val, (int, np.integer)) or val < lo:
            raise ValueError(f"{name} must be an integer >= {lo}, got {val!r}")
    if size > N_CAP:
        raise ValueError(f"size {size} exceeds the Hermite stability cap {N_CAP}")
    for name, val in (("extent", 1.0 if extent is None else extent), ("tol", tol)):
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be finite and positive, got {val!r}")


def oscillator_semigroup_diag(frame: SpectralFrame, nu, t, size):
    """Diagonal ``exp(-t n(beta, lam, nu))`` of the oscillator semigroup in

    the scaled Hermite basis, for ``beta_j <= size`` per coordinate.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    shape = tuple([size + 1] * frame.d)
    out = np.empty(shape)
    for beta in np.ndindex(shape):
        out[beta] = math.exp(-t * harmonic_eigenvalue(frame, beta, nu))
    return out


def hs_norm_closed_form(frame: SpectralFrame, nu, t):
    """Closed form of ``sum_beta exp(-2 t n(beta, lam, nu))``."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float)) if np.size(nu) else np.zeros(0)
    out = math.exp(-2 * t * float(np.dot(nu, nu)))
    for eta in frame.eta:
        out *= math.exp(-2 * t * eta) / (1.0 - math.exp(-4 * t * eta))
    return out
