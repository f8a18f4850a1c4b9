"""Step-2 Carnot group structure in exponential coordinates.

A group is a pair of layers ``R^n x R^m`` with product

    (h1, v1) * (h2, v2) = (h1 + h2, v1 + v2 + omega(h1, h2) / 2),

where the bilinear skew form is encoded by ``m`` skew-symmetric ``n x n``
matrices: ``omega_l(h1, h2) = h1 . A_l h2``.  The matrices are the single
source of truth for every operation in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GroupValidationError

SKEW_TOL = 1e-12
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class GroupElement:
    """Point (h, v) of the group, horizontal and vertical coordinates."""

    h: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", np.atleast_1d(np.asarray(self.h, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        if not (np.all(np.isfinite(self.h)) and np.all(np.isfinite(self.v))):
            raise GroupValidationError("group element has non-finite coordinates")


class CarnotGroup:
    """Step-2 Carnot group defined by its skew structure matrices.

    Parameters
    ----------
    n, m : int
        Horizontal and vertical dimensions, with ``n + m >= 3``.
    A : sequence of (n, n) arrays
        Skew-symmetric structure matrices.  Matrices are symmetrized via
        ``(A - A^T)/2`` when within ``1e-12`` of skew, rejected otherwise.
    label : str
        Free-form name used in reports.
    """

    def __init__(self, n, m, A, label=""):
        n, m = int(n), int(m)
        if n < 1 or m < 1:
            raise GroupValidationError("both layers must be nonempty")
        if n + m < 3:
            raise GroupValidationError(f"total dimension n + m = {n + m} < 3")
        mats = []
        for l, a in enumerate(A):
            a = np.asarray(a, dtype=float)
            if a.shape != (n, n):
                raise GroupValidationError(f"A[{l}] has shape {a.shape}, expected {(n, n)}")
            dev = np.max(np.abs(a + a.T))
            scale = max(1.0, np.max(np.abs(a)))
            if dev > SKEW_TOL * scale:
                raise GroupValidationError(
                    f"A[{l}] is not skew-symmetric (max |A + A^T| = {dev:.3e})"
                )
            mats.append(0.5 * (a - a.T))
        if len(mats) != m:
            raise GroupValidationError(f"expected {m} structure matrices, got {len(mats)}")
        self.n = n
        self.m = m
        self.A = np.array(mats)
        self.label = label or f"step2({n},{m})"
        self.generic_rank = self._probe_generic_rank()
        if self.generic_rank < 2:
            raise GroupValidationError("structure form is identically zero (abelian)")
        self.d = self.generic_rank // 2
        self.k = self.n - self.generic_rank

    def _probe_generic_rank(self):
        rng = np.random.default_rng(20240517)
        best = 0
        for _ in range(24):
            lam = rng.normal(size=self.m)
            lam /= np.linalg.norm(lam)
            omega = self.omega_matrix(lam)
            s = np.linalg.svd(omega, compute_uv=False)
            if s[0] == 0.0:
                continue
            best = max(best, int(np.sum(s > RANK_RTOL * s[0])))
        return best

    # -- group operations -------------------------------------------------

    def omega_matrix(self, lam):
        """Pencil ``Omega(lam) = sum_l lam_l A_l``."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.m,):
            raise ValueError(f"lambda must have length {self.m}")
        return np.tensordot(lam, self.A, axes=1)

    def omega(self, h1, h2):
        """Vertical-valued form ``omega(h1, h2)`` with components h1 . A_l h2."""
        h1 = np.asarray(h1, dtype=float)
        h2 = np.asarray(h2, dtype=float)
        # (h1 @ [A_1 | ... | A_m]) holds the rows h1 . A_l, one per l
        h1A = (h1 @ self.A.transpose(1, 0, 2).reshape(self.n, -1)).reshape(
            h1.shape[:-1] + (self.m, self.n)
        )
        return np.einsum("...lj,...j->...l", h1A, h2)

    def identity(self):
        return GroupElement(np.zeros(self.n), np.zeros(self.m))

    def mul(self, g1: GroupElement, g2: GroupElement) -> GroupElement:
        if g1.h.shape != (self.n,) or g2.h.shape != (self.n,):
            raise ValueError("horizontal dimension mismatch")
        if g1.v.shape != (self.m,) or g2.v.shape != (self.m,):
            raise ValueError("vertical dimension mismatch")
        return GroupElement(g1.h + g2.h, g1.v + g2.v + 0.5 * self.omega(g1.h, g2.h))

    def inverse(self, g: GroupElement) -> GroupElement:
        return GroupElement(-g.h, -g.v)

    def dilate(self, c, g: GroupElement) -> GroupElement:
        """Anisotropic dilation (h, v) -> (c h, c^2 v)."""
        c = float(c)
        if c <= 0.0:
            raise ValueError("dilation factor must be positive")
        return GroupElement(c * g.h, c * c * g.v)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(data["n"], data["m"], data["A"], data.get("label", ""))
        except KeyError as exc:
            raise GroupValidationError(f"group spec missing field {exc}") from exc

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def homogeneous_norm(g: GroupElement) -> float:
    """Homogeneous gauge ``sqrt(|h|^2 + sum_j |v_j|)``."""
    return float(np.sqrt(np.dot(g.h, g.h) + np.sum(np.abs(g.v))))


# -- named constructors ----------------------------------------------------

def heisenberg(d=1):
    """Heisenberg group H^d: n = 2d, m = 1, standard symplectic form.

    Coordinates are interleaved as (x_1, y_1, ..., x_d, y_d) and
    ``omega(h, h') = sum_i (x_i y_i' - y_i x_i')``.
    """
    return nonisotropic_heisenberg([1.0] * int(d), label=f"heisenberg({d})")


def nonisotropic_heisenberg(weights, label=""):
    """Heisenberg-type group with one vertical direction and plane weights.

    ``omega(h, h') = sum_i a_i (x_i y_i' - y_i x_i')`` for positive a_i.
    """
    weights = [float(a) for a in weights]
    if any(a <= 0 for a in weights):
        raise GroupValidationError("plane weights must be positive")
    d = len(weights)
    A = np.zeros((2 * d, 2 * d))
    for i, a in enumerate(weights):
        A[2 * i, 2 * i + 1] = a
        A[2 * i + 1, 2 * i] = -a
    return CarnotGroup(2 * d, 1, [A], label=label or f"nonisotropic({weights})")


def h_type(A, label="h-type"):
    """Group of Heisenberg type from user matrices, validated so that

    ``Omega(lam)^2 = -|lam|^2 I`` on the horizontal layer.
    """
    G = CarnotGroup(np.asarray(A[0]).shape[0], len(A), A, label=label)
    if not is_h_type(G):
        raise GroupValidationError("matrices do not satisfy the H-type identity")
    return G


def quaternionic_h_type():
    """The 7-dimensional H-type group with quaternionic structure (n=4, m=3)."""
    J1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    J2 = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]
    J3 = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    return h_type([J1, J2, J3], label="quaternionic")


def free_step2(n):
    """Free step-2 group on ``n`` generators: m = n(n-1)/2 vertical directions,

    one for each coordinate pair (i < j), with ``omega_(i,j)(h, h') =
    h_i h_j' - h_j h_i'``.
    """
    n = int(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for i, j in pairs:
        a = np.zeros((n, n))
        a[i, j] = 1.0
        a[j, i] = -1.0
        mats.append(a)
    return CarnotGroup(n, len(pairs), mats, label=f"free2({n})")


def is_h_type(G, trials=8):
    """Whether ``Omega(lam)^2 = -|lam|^2 I`` holds (numerically) for random lam."""
    rng = np.random.default_rng(11)
    for _ in range(trials):
        lam = rng.normal(size=G.m)
        omega = G.omega_matrix(lam)
        if np.max(np.abs(omega @ omega + np.dot(lam, lam) * np.eye(G.n))) > 1e-10 * max(
            1.0, float(np.dot(lam, lam))
        ):
            return False
    return True
