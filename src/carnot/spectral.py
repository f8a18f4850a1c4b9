"""Per-frequency spectral data of the skew pencil ``Omega(lam)``.

For generic ``lam`` the pencil has eigenvalues ``+/- i eta_j(lam)`` with
``eta_j > 0`` plus a kernel (the radical).  The adapted orthonormal frame
``(X_1..X_d, Y_1..Y_d, R_1..R_k)`` brings the pencil to the block form

    frame^T Omega(lam) frame = [[0, diag(eta)], [-diag(eta), 0]] (+) 0_k.

These data drive every kernel formula: the oscillator eigenvalues are
``n(beta, lam, nu) = sum_j (2 beta_j + 1) eta_j(lam) + |nu|^2``.

The pencil is linear in ``lam``, so the frame depends only on the direction
``u = lam/|lam|`` and the spectrum is homogeneous: ``eta(c lam) = c eta(lam)``
for ``c > 0``.  :func:`frame_at` reads the frame of ``u`` from a bounded memo
per group instance and direction, and scales its spectrum by ``|lam|``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateFrameError
from .groups import RANK_RTOL, CarnotGroup


@dataclass(frozen=True)
class SpectralFrame:
    lam: np.ndarray
    eta: np.ndarray           # descending positive, length d
    pf: float                 # product of eta
    d: int
    k: int
    frame: np.ndarray         # columns X_1..X_d, Y_1..Y_d, R_1..R_k
    rank: int
    degenerate: bool
    generic_rank: int         # the group's, which ``rank`` falls short of when degenerate

    def require_generic(self):
        if self.degenerate:
            raise DegenerateFrameError(
                f"lambda={self.lam.tolist()} sits outside the generic stratum "
                f"(rank {self.rank} < generic {self.generic_rank})",
                rank=self.rank,
            )
        return self

    def coordinates(self, h):
        """Split ``h`` into oscillator-plane and radical coordinates.

        Returns ``(z, r)`` where ``z`` has layout (x_1..x_d, y_1..y_d).
        """
        u = self.frame.T @ np.asarray(h, dtype=float)
        return u[: 2 * self.d], u[2 * self.d:]


def frame_at(G: CarnotGroup, lam) -> SpectralFrame:
    """Spectral frame of ``Omega(lam)``; flags ``lam`` outside the generic stratum.

    The frame, rank and stratum are those of the direction ``u = lam/|lam|``
    (:func:`_unit_frame`, memoised and read-only); ``eta = |lam| eta(u)``.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (G.m,):
        raise ValueError(f"lambda must have length {G.m}")
    norm = math.hypot(*lam)             # no overflow before |lam| itself does
    if not math.isfinite(norm):
        raise ValueError(f"lambda must be finite, with a finite norm: {lam.tolist()}")
    if norm == 0.0:
        raise ValueError("lambda must be nonzero")
    unit = _unit_frame(G, tuple((lam / norm).tolist()))
    eta = norm * unit.eta
    pf = math.prod(eta.tolist()) if unit.d else 0.0
    return replace(unit, lam=lam, eta=eta, pf=pf)


@functools.lru_cache(maxsize=64)
def _unit_frame(G: CarnotGroup, direction) -> SpectralFrame:
    """Frame of ``Omega(u)`` at the unit direction ``u`` (the tuple ``direction``),

    with read-only arrays: every frame of the ray ``c u``, ``c > 0``, shares them.
    """
    lam = np.array(direction)
    omega = G.omega_matrix(lam)

    # Hermitian reduction: i*Omega has real eigenvalues -eta, 0, +eta.
    w, U = np.linalg.eigh(1j * omega)
    scale = np.max(np.abs(w))
    thr = RANK_RTOL * scale
    neg = np.where(w < -thr)[0]
    rank = 2 * len(neg)
    degenerate = rank < G.generic_rank

    eta = -w[neg]                      # positive
    order = np.argsort(-eta, kind="stable")
    eta = eta[order]
    cols_x, cols_y = [], []
    for idx in neg[order]:
        u = U[:, idx]                  # Omega u = i eta u
        p, q = np.sqrt(2.0) * u.real, np.sqrt(2.0) * u.imag
        # orient the pair so that X^T Omega Y = +eta
        if p @ omega @ q < 0:
            q = -q
        cols_x.append(p)
        cols_y.append(q)

    d = len(eta)
    k = G.n - rank
    if k > 0:
        s, _, vt = np.linalg.svd(omega)
        del s
        radical = vt[rank:].T if rank < G.n else np.zeros((G.n, 0))
    else:
        radical = np.zeros((G.n, 0))

    cols = cols_x + cols_y + [radical[:, j] for j in range(k)]
    frame = np.column_stack(cols) if cols else np.zeros((G.n, 0))
    frame = _pairwise_orthonormalize(frame)

    for arr in (lam, eta, frame):
        arr.flags.writeable = False
    pf = math.prod(eta.tolist()) if d else 0.0
    return SpectralFrame(lam=lam, eta=eta, pf=pf, d=d, k=k, frame=frame, rank=rank,
                         degenerate=degenerate, generic_rank=G.generic_rank)


def _pairwise_orthonormalize(frame):
    """Modified Gram-Schmidt pass preserving column order."""
    out = frame.copy()
    for j in range(out.shape[1]):
        for i in range(j):
            out[:, j] -= (out[:, i] @ out[:, j]) * out[:, i]
        nrm = np.linalg.norm(out[:, j])
        out[:, j] /= nrm
    return out


def harmonic_eigenvalue(frame: SpectralFrame, beta, nu=()) -> float:
    """Oscillator eigenvalue ``sum_j (2 beta_j + 1) eta_j + |nu|^2``."""
    beta = np.atleast_1d(np.asarray(beta, dtype=int))
    nu = np.atleast_1d(np.asarray(nu, dtype=float)) if np.size(nu) else np.zeros(0)
    if beta.shape != (frame.d,):
        raise ValueError(f"beta must have length d = {frame.d}")
    if np.any(beta < 0):
        raise ValueError("beta components must be nonnegative")
    if nu.shape != (frame.k,):
        raise ValueError(f"nu must have length k = {frame.k}")
    return float(np.dot(2 * beta + 1, frame.eta) + np.dot(nu, nu))


@dataclass
class SpectrumDescription:
    """Spectrum of the vertically perturbed sub-Laplacian on square-integrable

    functions.  Real exponents give the ray ``(-inf, psi(0)]``; complex
    exponents are described by the parametric family
    ``psi(lam) - n(beta, lam, nu)`` whose imaginary part ranges over
    ``Im psi``.
    """

    kind: str                                   # "interval" | "parametric-set"
    s0: Optional[float] = None                  # right endpoint when interval
    sample: Optional[Callable] = None           # (beta, lam, nu) -> complex
    im_range: str = ""

    def describe(self):
        if self.kind == "interval":
            return {"kind": "interval", "interval": ["-inf", self.s0]}
        return {"kind": "parametric-set", "im_range": self.im_range}


def spectrum_of_generator(G: CarnotGroup, psi=None) -> SpectrumDescription:
    """Describe the spectrum of the (perturbed) sub-Laplacian generator."""

    def value(beta, lam, nu=()):
        fr = frame_at(G, lam)
        base = -harmonic_eigenvalue(fr, beta, nu)
        if psi is None:
            return complex(base)
        return complex(psi.psi(np.atleast_1d(lam))) + base

    if psi is None or psi.is_real_valued:
        s0 = 0.0 if psi is None else float(np.real(psi.psi(np.zeros(G.m))))
        return SpectrumDescription(kind="interval", s0=s0, sample=value)
    return SpectrumDescription(
        kind="parametric-set",
        sample=value,
        im_range="range of Im(psi) over all frequencies",
    )
