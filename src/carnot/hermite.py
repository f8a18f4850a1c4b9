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

from ._quadrature import gauss_legendre
from .errors import AccuracyError, UnsupportedOperationError
from .spectral import SpectralFrame, harmonic_eigenvalue

__all__ = [
    "hermite_phi",
    "HermiteBasis",
    "laguerre_phi",
    "laguerre_transform",
    "WeylMatrix",
    "weyl_matrix",
    "gft_matrix",
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


@dataclass
class HermiteBasis:
    """Tensor Hermite basis bookkeeping for one frequency."""

    frame: SpectralFrame
    size: int  # per-coordinate cap

    def orthonormality_residual(self):
        """Max deviation from orthonormality under Gauss-Hermite quadrature

        with 2*size + 1 nodes per coordinate.  The quadrature is exact for
        the Hermite-polynomial part, so the residual isolates evaluation
        error of the recurrence.
        """
        nodes, weights = np.polynomial.hermite.hermgauss(2 * self.size + 1)
        vals = hermite_phi_all(self.size, nodes)
        # Phi_a Phi_b exp(nodes^2) is a polynomial: Gauss-Hermite is exact
        comp = weights * np.exp(nodes**2)
        mat = np.einsum("i,ai,bi->ab", comp, vals, vals)
        return float(np.max(np.abs(mat - np.eye(self.size + 1))))


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


def laguerre_transform(frame: SpectralFrame, profile, beta_max, quad_nodes=400, u_cap=None):
    """Radial Laguerre coefficients of a rotation-invariant profile.

    ``profile(zsq)`` takes the vector of per-plane squared radii.  Returns
    the array ``R[beta]`` over the tensor range ``beta_j <= beta_max`` for
    d = 1 (the only case needed at desk scale: higher d multiplies ranges).
    """
    if frame.d != 1:
        raise UnsupportedOperationError("radial transform implemented for d = 1")
    eta = frame.eta[0]
    cap = u_cap if u_cap is not None else 60.0
    # integrate over u = eta |z|^2 / 2: dz = (2 pi / eta) du
    u, w = gauss_legendre(0.0, cap, quad_nodes)
    vals = profile(2.0 * u[:, None] / eta)
    lag = _laguerre_all(beta_max, u)
    weights = w * np.exp(-0.5 * u) * (2 * math.pi / eta)
    pref = math.sqrt(frame.pf) * (2 * math.pi) ** -0.5
    return pref * lag @ (weights * vals[:, 0] if vals.ndim > 1 else weights * vals)


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
    """Matrix elements ``<W(f) Phi_alpha, Phi_gamma>`` below a cap (d = 1)."""

    frame: SpectralFrame
    size: int
    entries: np.ndarray  # (size+1, size+1), complex; [gamma, alpha]

    def hs_norm_sq(self):
        return float(np.sum(np.abs(self.entries) ** 2))

    def offdiag_mass(self):
        diag = np.abs(np.diag(self.entries)).sum()
        off = np.abs(self.entries).sum() - diag
        return off, diag


def weyl_matrix(frame: SpectralFrame, f, size, quad_points=90, extent=None,
                check=True, tol=1e-6):
    """Weyl transform matrix of ``f`` on the oscillator plane (d = 1).

    ``f(x, y)`` must decay like a Gaussian.  The operator acts by

        (W(f) phi)(xi) = int f(x, y) exp(i eta y (xi + x/2)) phi(xi + x) dx dy,

    and matrix elements are evaluated against the scaled Hermite basis by
    tensor Gauss-Legendre quadrature.  Doubling the node count must move no
    element by more than ``tol`` or an :class:`AccuracyError` is raised.
    """
    if frame.d != 1:
        raise UnsupportedOperationError("Weyl matrices implemented for d = 1")
    frame.require_generic()

    def assemble(npts):
        eta = frame.eta[0]
        L = extent if extent is not None else 8.0 / math.sqrt(min(eta, 1.0))
        xi, wxi = gauss_legendre(-L, L, npts)
        # kernel K(xi, zeta) = int f(zeta - xi, y) e^{i eta y (xi + zeta)/2} dy
        y, wy = gauss_legendre(-L, L, npts)
        XI, ZETA = np.meshgrid(xi, xi, indexing="ij")
        diff = ZETA - XI
        mid = 0.5 * eta * (XI + ZETA)
        fvals = f(diff[:, :, None], y[None, None, :])
        phases = np.exp(1j * mid[:, :, None] * y[None, None, :])
        K = np.einsum("aby,aby,y->ab", fvals, phases, wy)
        # project onto the scaled Hermite basis: rows Phi^lam_n at the nodes
        s = math.sqrt(eta)
        basis = abs(frame.pf) ** 0.25 * hermite_phi_all(size, s * xi)
        BW = basis * wxi[None, :]
        # entries[gamma, alpha] = <W(f) Phi_alpha, Phi_gamma>
        return np.einsum("gi,ij,aj->ga", BW, K, BW)

    first = assemble(quad_points)
    if check:
        second = assemble(2 * quad_points)
        drift = float(np.max(np.abs(second - first)))
        if drift > tol:
            raise AccuracyError(
                f"Weyl quadrature did not converge (node doubling moved an "
                f"element by {drift:.2e} > {tol:.0e})"
            )
        first = second
    return WeylMatrix(frame=frame, size=size, entries=first)


def gft_matrix(frame: SpectralFrame, f_plane, f_hat_vertical, lam, nu, size, **kw):
    """Group Fourier transform matrix of a separable function.

    ``f = f_plane(z) * f_vertical(r, v)`` with ``f_hat_vertical(lam, nu)``
    the Euclidean Fourier transform of the vertical profile; the result is
    the Weyl matrix of the partial transform ``f_hat_vertical(lam, nu) *
    f_plane``.
    """
    scalar = complex(f_hat_vertical(lam, nu))
    wm = weyl_matrix(frame, f_plane, size, **kw)
    return WeylMatrix(frame=frame, size=size, entries=scalar * wm.entries)


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
