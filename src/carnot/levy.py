"""Levy-Khintchine exponents psi = (sigma, b, kappa): evaluation, the

time-deformed exponent ``psi_t(lam) = int_0^t psi(e^{2s} lam) ds``, the
stationary exponent ``int_0^inf psi(e^{-2s} lam) ds``, moment interfaces for
the exact polynomial calculus, and increment samplers.

Jump components are capability objects: an operation that needs moments,
exponential moments, or a sampler asks for them and fails loudly when the
component cannot provide them (stable jumps have no moments of order >=
alpha, for example).
"""

from __future__ import annotations

import json
import math
from math import erf, exp, pi, sqrt

import numpy as np

from ._quadrature import gauss_legendre
from .errors import UnsupportedOperationError

__all__ = [
    "LevyExponent",
    "NoJumps",
    "CompoundPoisson",
    "StableJumps",
    "AtomJumps",
    "NormalDist",
    "AtomDist",
]


# ---------------------------------------------------------------------------
# jump size distributions (used inside compound Poisson components)
# ---------------------------------------------------------------------------

class NormalDist:
    """Gaussian jump sizes N(mean, cov) on R^m."""

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self.m = self.mean.size
        if self.cov.shape != (self.m, self.m):
            raise ValueError("covariance shape mismatch")
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        self._chol = np.linalg.cholesky(self.cov + 1e-300 * np.eye(self.m))

    has_exp_moments = True

    @property
    def symmetric(self):
        return bool(np.all(self.mean == 0.0))

    def charfn(self, lam):
        lam = np.asarray(lam, dtype=float)
        quad = np.einsum("...i,ij,...j->...", lam, self.cov, lam)
        return np.exp(1j * lam @ self.mean - 0.5 * quad)

    def sample(self, rng, size):
        z = rng.standard_normal((size, self.m))
        return self.mean + z @ self._chol.T

    def moment(self, gamma):
        """Mixed moment E[J^gamma] by the Gaussian recursion."""
        gamma = tuple(int(g) for g in gamma)
        return _gaussian_moment(self.mean, self.cov, gamma)

    def truncated_mean(self):
        """E[J 1_{|J| <= 1}]."""
        if self.symmetric:
            return np.zeros(self.m)
        if self.m == 1:
            mu, s = self.mean[0], sqrt(self.cov[0, 0])
            a, b = (-1.0 - mu) / s, (1.0 - mu) / s
            phi = lambda x: exp(-0.5 * x * x) / sqrt(2 * pi)
            Phi = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
            val = mu * (Phi(b) - Phi(a)) - s * (phi(b) - phi(a))
            return np.array([val])
        raise UnsupportedOperationError(
            "truncated mean of a shifted multivariate normal jump is not implemented"
        )


def _gaussian_moment(mean, cov, gamma, _cache=None):
    if _cache is None:
        _cache = {}
    if gamma in _cache:
        return _cache[gamma]
    if all(g == 0 for g in gamma):
        return 1.0
    i = next(idx for idx, g in enumerate(gamma) if g > 0)
    reduced = tuple(g - (1 if idx == i else 0) for idx, g in enumerate(gamma))
    val = mean[i] * _gaussian_moment(mean, cov, reduced, _cache)
    for j, g in enumerate(reduced):
        if g > 0:
            lower = tuple(x - (1 if idx == j else 0) for idx, x in enumerate(reduced))
            val += cov[i, j] * g * _gaussian_moment(mean, cov, lower, _cache)
    _cache[gamma] = val
    return val


class AtomDist:
    """Discrete jump sizes: points with probabilities."""

    def __init__(self, points, probs):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.ndim != 1 or len(self.probs) != len(self.points):
            raise ValueError("points/probs length mismatch")
        if abs(self.probs.sum() - 1.0) > 1e-12 or np.any(self.probs < 0):
            raise ValueError("probs must be a probability vector")
        self.m = self.points.shape[1]

    has_exp_moments = True

    @property
    def symmetric(self):
        pts = {tuple(np.round(p, 12)): w for p, w in zip(self.points, self.probs)}
        return all(
            abs(pts.get(tuple(np.round(-np.asarray(p), 12)), 0.0) - w) < 1e-12
            for p, w in pts.items()
        )

    def charfn(self, lam):
        lam = np.asarray(lam, dtype=float)
        phases = np.exp(1j * lam @ self.points.T)
        return phases @ self.probs

    def sample(self, rng, size):
        idx = rng.choice(len(self.probs), size=size, p=self.probs)
        return self.points[idx]

    def moment(self, gamma):
        gamma = np.asarray(gamma, dtype=int)
        return float(np.sum(self.probs * np.prod(self.points**gamma, axis=1)))

    def truncated_mean(self):
        inside = np.linalg.norm(self.points, axis=1) <= 1.0
        return (self.probs[inside, None] * self.points[inside]).sum(axis=0)


# ---------------------------------------------------------------------------
# jump components of the exponent
# ---------------------------------------------------------------------------

class NoJumps:
    symmetric = True
    in_N_log = True
    in_N_exp = True

    def integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        return np.zeros(lam.shape[:-1], dtype=complex)

    def psi_t_part(self, t, lam):
        return 0.0

    def psi_limit_part(self, lam):
        return 0.0

    def moment(self, gamma):
        return 0.0

    def tail_mean(self, m):
        return np.zeros(m)

    def sample(self, t, rng, size, m):
        return np.zeros((size, m))

    def deformed_sample(self, t, rng, size, m):
        return np.zeros((size, m))

    def describe(self):
        return {"type": "none"}


class CompoundPoisson:
    """Compound Poisson component: intensity ``rate`` and a jump distribution."""

    def __init__(self, rate, dist):
        self.rate = float(rate)
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        self.dist = dist

    in_N_log = True

    @property
    def in_N_exp(self):
        return self.dist.has_exp_moments

    @property
    def symmetric(self):
        return self.dist.symmetric

    def integral(self, lam):
        tm = self.dist.truncated_mean()
        lam = np.asarray(lam, dtype=float)
        return self.rate * (self.dist.charfn(lam) - 1.0 - 1j * lam @ tm)

    def psi_t_part(self, t, lam):
        return _scaled_time_integral(self.integral, t, lam)

    def psi_limit_part(self, lam):
        return _stationary_integral(self.integral, lam)

    def moment(self, gamma):
        return self.rate * self.dist.moment(tuple(gamma))

    def tail_mean(self, m):
        full = np.array([self.moment(tuple(np.eye(m, dtype=int)[j])) for j in range(m)])
        return full - self.rate * self.dist.truncated_mean()

    def sample(self, t, rng, size, m):
        counts = rng.poisson(self.rate * t, size=size)
        total = int(counts.sum())
        out = np.zeros((size, m))
        if total:
            jumps = self.dist.sample(rng, total)
            idx = np.repeat(np.arange(size), counts)
            np.add.at(out, idx, jumps)
        return out - t * self.rate * self.dist.truncated_mean()

    def deformed_sample(self, t, rng, size, m):
        """Draw ``int_0^t e^{2s} dY(s)`` for the compound Poisson part."""
        counts = rng.poisson(self.rate * t, size=size)
        total = int(counts.sum())
        out = np.zeros((size, m))
        if total:
            jumps = self.dist.sample(rng, total)
            times = rng.uniform(0.0, t, size=total)
            idx = np.repeat(np.arange(size), counts)
            np.add.at(out, idx, np.exp(2.0 * times)[:, None] * jumps)
        shift = self.rate * self.dist.truncated_mean() * (math.exp(2 * t) - 1.0) / 2.0
        return out - shift

    def describe(self):
        return {"type": "compound_poisson", "rate": self.rate}


class StableJumps:
    """Symmetric alpha-stable component on R^1: exponent ``-scale |lam|^alpha``."""

    def __init__(self, alpha, scale=1.0):
        self.alpha = float(alpha)
        self.scale = float(scale)
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    symmetric = True
    in_N_log = True
    in_N_exp = False

    def integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        return -self.scale * np.abs(lam[..., 0]) ** self.alpha + 0j

    def psi_t_part(self, t, lam):
        a = self.alpha
        return self.integral(lam) * (math.exp(2 * a * t) - 1.0) / (2 * a)

    def psi_limit_part(self, lam):
        return self.integral(lam) / (2 * self.alpha)

    def moment(self, gamma):
        if sum(gamma) >= self.alpha:
            raise UnsupportedOperationError(
                f"stable jump component: moments of order >= alpha = {self.alpha} are infinite"
            )
        return 0.0

    def tail_mean(self, m):
        raise UnsupportedOperationError(
            "stable jump component: first absolute moment is infinite for alpha <= 1; "
            "polynomial calculus is not available"
        )

    def _standard(self, rng, size):
        """Chambers-Mallows-Stuck draw with char. function exp(-|lam|^alpha)."""
        a = self.alpha
        U = rng.uniform(-pi / 2, pi / 2, size=size)
        W = rng.exponential(1.0, size=size)
        if abs(a - 1.0) < 1e-12:
            return np.tan(U)
        return (
            np.sin(a * U)
            / np.cos(U) ** (1.0 / a)
            * (np.cos((1.0 - a) * U) / W) ** ((1.0 - a) / a)
        )

    def sample(self, t, rng, size, m):
        if m != 1:
            raise UnsupportedOperationError("stable component requires m = 1")
        return ((self.scale * t) ** (1.0 / self.alpha) * self._standard(rng, size))[:, None]

    def deformed_sample(self, t, rng, size, m):
        if m != 1:
            raise UnsupportedOperationError("stable component requires m = 1")
        scale_t = self.scale * (math.exp(2 * self.alpha * t) - 1.0) / (2 * self.alpha)
        return (scale_t ** (1.0 / self.alpha) * self._standard(rng, size))[:, None]

    def describe(self):
        return {"type": "stable", "alpha": self.alpha, "scale": self.scale}


class AtomJumps:
    """Finite-atom Levy measure ``sum_i w_i delta_{x_i}`` (w_i > 0)."""

    def __init__(self, points, weights):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("atom weights must be positive")
        self.total = float(self.weights.sum())
        self._dist = AtomDist(self.points, self.weights / self.total)

    in_N_log = True
    in_N_exp = True

    @property
    def symmetric(self):
        return self._dist.symmetric

    def _truncated_first(self):
        inside = np.linalg.norm(self.points, axis=1) <= 1.0
        return (self.weights[inside, None] * self.points[inside]).sum(axis=0)

    def integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        phases = np.exp(1j * lam @ self.points.T)
        return (phases - 1.0) @ self.weights - 1j * lam @ self._truncated_first()

    def psi_t_part(self, t, lam):
        return _scaled_time_integral(self.integral, t, lam)

    def psi_limit_part(self, lam):
        return _stationary_integral(self.integral, lam)

    def moment(self, gamma):
        gamma = np.asarray(gamma, dtype=int)
        return float(np.sum(self.weights * np.prod(self.points**gamma, axis=1)))

    def tail_mean(self, m):
        outside = np.linalg.norm(self.points, axis=1) > 1.0
        return (self.weights[outside, None] * self.points[outside]).sum(axis=0)

    def sample(self, t, rng, size, m):
        cp = CompoundPoisson(self.total, self._dist)
        draw = cp.sample(t, rng, size, m)
        # CompoundPoisson compensates with rate * truncated mean of the law,
        # which equals the truncated first moment of the measure; nothing to fix.
        return draw

    def deformed_sample(self, t, rng, size, m):
        cp = CompoundPoisson(self.total, self._dist)
        return cp.deformed_sample(t, rng, size, m)

    def describe(self):
        return {"type": "atoms", "count": len(self.weights)}


def _scaled_time_integral(fn, t, lam, nodes=32):
    """``int_0^t fn(e^{2s} lam) ds`` by composite Gauss-Legendre.

    Works for single frequencies of shape (m,) and batches of shape (N, m).
    """
    lam = np.asarray(lam, dtype=float)
    if t == 0.0:
        return np.zeros(lam.shape[:-1], dtype=complex)
    a, b = (0.0, t) if t > 0 else (t, 0.0)
    panels = max(2, int(math.ceil(abs(t) / 0.5)))
    total = np.zeros(lam.shape[:-1], dtype=complex)
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        s, w = gauss_legendre(lo, hi, nodes)
        vals = np.stack([fn(np.exp(2 * si) * lam) for si in s])
        total = total + np.tensordot(w, vals, axes=1)
    return total if t > 0 else -total


def _stationary_integral(fn, lam, tol=1e-14, max_s=60.0, nodes=32):
    """``int_0^inf fn(e^{-2s} lam) ds`` with tail truncation."""
    lam = np.asarray(lam, dtype=float)
    total = np.zeros(lam.shape[:-1], dtype=complex)
    lo = 0.0
    while lo < max_s:
        hi = lo + 1.0
        s, w = gauss_legendre(lo, hi, nodes)
        vals = np.stack([fn(np.exp(-2 * si) * lam) for si in s])
        part = np.tensordot(w, vals, axes=1)
        total = total + part
        if np.max(np.abs(part)) < tol and np.max(np.abs(vals)) < tol:
            break
        lo = hi
    return total


# ---------------------------------------------------------------------------
# the exponent
# ---------------------------------------------------------------------------

class LevyExponent:
    """Exponent ``psi(lam) = -<sigma lam, lam> + i <b, lam> + jump integral``.

    The generator acting on smooth vertical functions is

        A f = tr(sigma Hess f) + <b, grad f>
              + int [f(. + v) - f - <grad f, v> 1_{|v| <= 1}] kappa(dv),

    which satisfies ``A e_lam = psi(lam) e_lam`` for ``e_lam = exp(i<lam, .>)``.
    """

    def __init__(self, sigma=None, b=None, jumps=None, m=None):
        if m is None:
            if sigma is not None:
                m = np.atleast_2d(np.asarray(sigma)).shape[0]
            elif b is not None:
                m = np.atleast_1d(np.asarray(b)).size
            elif jumps is not None and hasattr(jumps, "points"):
                m = np.atleast_2d(jumps.points).shape[1]
            elif jumps is not None and hasattr(jumps, "dist"):
                m = jumps.dist.m
            else:
                m = 1
        self.m = int(m)
        self.sigma = (
            np.zeros((self.m, self.m))
            if sigma is None
            else np.atleast_2d(np.asarray(sigma, dtype=float))
        )
        self.b = np.zeros(self.m) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
        self.jumps = jumps if jumps is not None else NoJumps()
        if self.sigma.shape != (self.m, self.m) or self.b.shape != (self.m,):
            raise ValueError("sigma/b dimensions inconsistent")
        if np.max(np.abs(self.sigma - self.sigma.T)) > 1e-12:
            raise ValueError("sigma must be symmetric")
        w = np.linalg.eigvalsh(self.sigma)
        if w.min() < -1e-12:
            raise ValueError("sigma must be positive semidefinite")

    # -- classification ----------------------------------------------------

    @property
    def in_N_log(self):
        return self.jumps.in_N_log

    @property
    def in_N_exp(self):
        return self.jumps.in_N_exp

    @property
    def is_real_valued(self):
        return bool(np.all(self.b == 0.0)) and self.jumps.symmetric

    @property
    def is_trivial(self):
        return (
            isinstance(self.jumps, NoJumps)
            and np.all(self.sigma == 0.0)
            and np.all(self.b == 0.0)
        )

    # -- evaluation ----------------------------------------------------------

    def _coerce(self, lam):
        """Accept (m,), (N, m), and plain scalars / (N,) arrays when m = 1."""
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0:
            lam = lam.reshape(1)
        if lam.ndim == 1 and self.m == 1 and lam.shape != (1,):
            lam = lam[:, None]
        if lam.shape[-1] != self.m:
            raise ValueError(f"frequency must have last dimension {self.m}")
        return lam

    def psi(self, lam):
        lam = self._coerce(lam)
        quad = np.einsum("...i,ij,...j->...", lam, self.sigma, lam)
        return -quad + 1j * (lam @ self.b) + self.jumps.integral(lam)

    def psi_t(self, t, lam):
        """``int_0^t psi(e^{2s} lam) ds`` (closed form for the continuous part)."""
        lam = self._coerce(lam)
        quad = np.einsum("...i,ij,...j->...", lam, self.sigma, lam)
        out = (
            -(math.exp(4 * t) - 1.0) / 4.0 * quad
            + 1j * (math.exp(2 * t) - 1.0) / 2.0 * (lam @ self.b)
        )
        if not isinstance(self.jumps, NoJumps):
            out = out + self.jumps.psi_t_part(t, lam)
        return out

    def psi_limit(self, lam):
        """Stationary exponent ``int_0^inf psi(e^{-2s} lam) ds``.

        This is the logarithm of the characteristic function of the invariant
        law of the vertical Levy-Ornstein-Uhlenbeck process.
        """
        if not self.in_N_log:
            raise UnsupportedOperationError(
                "no stationary law: the jump measure lacks a logarithmic moment"
            )
        lam = self._coerce(lam)
        quad = np.einsum("...i,ij,...j->...", lam, self.sigma, lam)
        out = -quad / 4.0 + 1j * (lam @ self.b) / 2.0
        if not isinstance(self.jumps, NoJumps):
            out = out + self.jumps.psi_limit_part(lam)
        return out

    # -- moments (exact interfaces for the polynomial calculus) -------------

    def require_moments(self, order):
        try:
            self.jumps.moment(tuple([order] + [0] * (self.m - 1)))
            self.jumps.tail_mean(self.m)
        except UnsupportedOperationError:
            raise
        return self

    def levy_moment(self, gamma):
        """``int v^gamma kappa(dv)`` for |gamma| >= 2."""
        return self.jumps.moment(tuple(gamma))

    def effective_drift(self):
        """Drift plus tail mean: the coefficient of ``grad`` on polynomials."""
        return self.b + np.asarray(self.jumps.tail_mean(self.m), dtype=float)

    def stationary_moments(self, order):
        """Moments of the invariant vertical law up to total degree ``order``.

        Computed from the power series of ``psi_limit``: the cumulant of
        multi-index gamma is the corresponding psi coefficient divided by
        ``2 |gamma|``; the series exponential converts cumulants to moments.
        """
        if not self.in_N_log:
            raise UnsupportedOperationError("no stationary law for this exponent")
        cum = {}
        for j in range(self.m):
            e = tuple(1 if i == j else 0 for i in range(self.m))
            cum[e] = 1j * self.effective_drift()[j] / 2.0
        for j in range(self.m):
            for k in range(j, self.m):
                g = tuple(
                    (1 if i == j else 0) + (1 if i == k else 0) for i in range(self.m)
                )
                coeff = -(self.sigma[j, k] if j == k else 2.0 * self.sigma[j, k])
                jump = self.levy_moment(g) * (1j ** 2) / (_mi_factorial(g))
                cum[g] = cum.get(g, 0.0) + (coeff + jump) / (2.0 * 2)
        for g in _multi_indices(self.m, order, min_total=3):
            jump = self.levy_moment(g) * (1j ** sum(g)) / _mi_factorial(g)
            if jump != 0.0:
                cum[g] = cum.get(g, 0.0) + jump / (2.0 * sum(g))
        series = _series_exp(cum, self.m, order)
        moments = {}
        for g, c in series.items():
            if sum(g) == 0:
                continue
            val = c * _mi_factorial(g) / (1j ** sum(g))
            if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
                raise ArithmeticError("stationary moment came out non-real")
            moments[g] = val.real
        return moments

    # -- sampling ------------------------------------------------------------

    def sample_increments(self, t, rng, size):
        if t <= 0:
            raise ValueError("t must be positive")
        chol = _psd_sqrt(2.0 * t * self.sigma)
        out = rng.standard_normal((size, self.m)) @ chol.T
        out += self.b * t
        out += self.jumps.sample(t, rng, size, self.m)
        return out

    def sample_deformed(self, t, rng, size):
        """Draws with characteristic function ``exp(psi_t(lam))``.

        This is the law of ``int_0^t e^{2s} dY(s)`` for the Levy process Y.
        """
        var = (math.exp(4 * t) - 1.0) / 2.0 * self.sigma
        out = rng.standard_normal((size, self.m)) @ _psd_sqrt(var).T
        out += self.b * (math.exp(2 * t) - 1.0) / 2.0
        out += self.jumps.deformed_sample(t, rng, size, self.m)
        return out

    # -- serialization -------------------------------------------------------

    def describe(self):
        return {
            "m": self.m,
            "sigma": self.sigma.tolist(),
            "b": self.b.tolist(),
            "jumps": self.jumps.describe(),
            "in_N_log": self.in_N_log,
            "in_N_exp": self.in_N_exp,
            "real_valued": self.is_real_valued,
        }

    @classmethod
    def from_dict(cls, data):
        jumps = data.get("jumps", {"type": "none"})
        jtype = jumps.get("type", "none")
        if jtype == "none":
            jump_obj = NoJumps()
        elif jtype == "compound_poisson":
            dist = jumps.get("dist", {"kind": "normal"})
            kind = dist.get("kind", "normal")
            if kind == "normal":
                mean = dist.get("mean", [0.0])
                cov = dist.get("cov", np.eye(len(np.atleast_1d(mean))).tolist())
                jump_obj = CompoundPoisson(jumps["rate"], NormalDist(mean, cov))
            elif kind == "atoms":
                jump_obj = CompoundPoisson(
                    jumps["rate"], AtomDist(dist["points"], dist["probs"])
                )
            else:
                raise ValueError(f"unknown jump distribution kind {kind!r}")
        elif jtype == "stable":
            jump_obj = StableJumps(jumps["alpha"], jumps.get("scale", 1.0))
        elif jtype == "atoms":
            jump_obj = AtomJumps(jumps["points"], jumps["weights"])
        else:
            raise ValueError(f"unknown jump type {jtype!r}")
        return cls(sigma=data.get("sigma"), b=data.get("b"), jumps=jump_obj,
                   m=data.get("m"))

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _psd_sqrt(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    w, U = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return U @ np.diag(np.sqrt(w)) @ U.T


def _mi_factorial(g):
    out = 1
    for x in g:
        out *= math.factorial(x)
    return out


def _multi_indices(m, max_total, min_total=0):
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for x in range(remaining + 1):
            yield from rec(prefix + (x,), remaining - x, slots - 1)

    for total in range(min_total, max_total + 1):
        yield from rec((), total, m)


def _series_mul(a, b, m, cap):
    out = {}
    for ga, ca in a.items():
        for gb, cb in b.items():
            g = tuple(x + y for x, y in zip(ga, gb))
            if sum(g) > cap:
                continue
            out[g] = out.get(g, 0.0) + ca * cb
    return out


def _series_exp(series, m, cap):
    zero = tuple([0] * m)
    out = {zero: 1.0 + 0.0j}
    term = {zero: 1.0 + 0.0j}
    for j in range(1, cap + 1):
        term = _series_mul(term, series, m, cap)
        term = {g: c / j for g, c in term.items()}
        if not term:
            break
        for g, c in term.items():
            out[g] = out.get(g, 0.0) + c
    return out
