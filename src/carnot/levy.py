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

from ._quadrature import composite_gl_edges, refinement_error
from .errors import UnsupportedOperationError

__all__ = ["LevyExponent", "NoJumps", "CompoundPoisson", "StableJumps", "AtomJumps",
           "NormalDist", "AtomDist"]


def _finite(value, name):
    """``value`` as a float array; ValueError unless every entry is finite."""
    if not np.all(np.isfinite(arr := np.asarray(value, dtype=float))):
        raise ValueError(f"{name} must be finite")
    return arr


# ---------------------------------------------------------------------------
# jump size distributions (used inside compound Poisson components)
# ---------------------------------------------------------------------------

class NormalDist:
    """Gaussian jump sizes N(mean, cov) on R^m."""

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(_finite(mean, "the jump mean"))
        self.cov = np.atleast_2d(_finite(cov, "the jump covariance"))
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
            "truncated mean of a shifted multivariate normal jump is not implemented")


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
        self.points = np.atleast_2d(_finite(points, "atom points"))
        self.probs = _finite(probs, "atom probabilities")
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

    def psi_limit_part(self, lam):
        return 0.0

    def moment(self, gamma):
        return 0.0

    def tail_mean(self, m):
        return np.zeros(m)

    def sample(self, t, rng, size, m):
        return np.zeros((size, m))

    deformed_sample = sample

    def describe(self):
        return {"type": "none"}


class CompoundPoisson:
    """Compound Poisson component: intensity ``rate`` and a jump distribution."""

    def __init__(self, rate, dist):
        self.rate = float(rate)
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
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

    def psi_limit_part(self, lam):
        """``int_0^1 integral(u lam) du / (2u)``: closed forms for atoms and

        centred Normal jumps, a self-checking quadrature otherwise.
        """
        lam = np.asarray(lam, dtype=float)
        dist = self.dist
        if isinstance(dist, AtomDist):
            cin, si = _cin_si(lam @ dist.points.T)
            atoms = 0.5 * (-cin + 1j * si) @ (self.rate * dist.probs)
            return atoms - 0.5j * self.rate * (lam @ dist.truncated_mean())
        if isinstance(dist, NormalDist) and dist.symmetric:
            quad = np.einsum("...i,ij,...j->...", lam, dist.cov, lam)
            return -0.25 * self.rate * _ein(0.5 * quad) + 0j
        return _dilation_quadrature(self.integral, lam)

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
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")

    symmetric = True
    in_N_log = True
    in_N_exp = False

    def integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        return -self.scale * np.abs(lam[..., 0]) ** self.alpha + 0j

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

    def _draw(self, scale, rng, size, m):
        """Chambers-Mallows-Stuck draws with char. function exp(-scale |lam|^alpha)."""
        if m != 1:
            raise UnsupportedOperationError("stable component requires m = 1")
        a = self.alpha
        U = rng.uniform(-pi / 2, pi / 2, size=size)
        W = rng.exponential(1.0, size=size)
        if abs(a - 1.0) < 1e-12:
            std = np.tan(U)
        else:
            std = (np.sin(a * U) / np.cos(U) ** (1.0 / a)
                   * (np.cos((1.0 - a) * U) / W) ** ((1.0 - a) / a))
        return (scale ** (1.0 / a) * std)[:, None]

    def sample(self, t, rng, size, m):
        return self._draw(self.scale * t, rng, size, m)

    def deformed_sample(self, t, rng, size, m):
        a = self.alpha
        return self._draw(self.scale * (math.exp(2 * a * t) - 1.0) / (2 * a), rng, size, m)

    def describe(self):
        return {"type": "stable", "alpha": self.alpha, "scale": self.scale}


class AtomJumps(CompoundPoisson):
    """Finite-atom Levy measure ``sum_i w_i delta_{x_i}`` (w_i > 0): the

    compound Poisson component of rate ``sum_i w_i`` and law ``w / sum_i w_i``.
    """

    def __init__(self, points, weights):
        self.points = np.atleast_2d(_finite(points, "atom points"))
        self.weights = _finite(weights, "atom weights")
        if np.any(self.weights <= 0):
            raise ValueError("atom weights must be positive")
        total = float(self.weights.sum())
        super().__init__(total, AtomDist(self.points, self.weights / total))

    def describe(self):
        return {"type": "atoms", "count": len(self.weights)}


# ---------------------------------------------------------------------------
# special functions and the quadrature of the stationary jump exponent
# ---------------------------------------------------------------------------

# Ein(x) = sum_k (-1)^(k+1) x^k / (k k!) and Cin(z) = sum_k (-1)^(k+1) z^2k / (2k (2k)!),
# the second in powers of z^2; both series are used on [0, 1] only
_EIN_SERIES = [0.0] + [(-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21)]
_CIN_SERIES = [0.0] + [(-1) ** (k + 1) / (2 * k * math.factorial(2 * k)) for k in range(1, 13)]
_QUAD_TOL = 1e-10


def _ein(x):
    """``Ein(x) = int_0^x (1 - e^{-u}) du / u`` for x >= 0: the power series

    up to 1, ``E_1(x) + ln x + gamma`` above (Abramowitz-Stegun 5.1.39).
    """
    from scipy.special import exp1

    x = np.asarray(x, dtype=float)
    big = x > 1.0
    xb = np.where(big, x, 2.0)
    return np.where(big, exp1(xb) + np.log(xb) + np.euler_gamma,
                    np.polynomial.polynomial.polyval(x, _EIN_SERIES))


def _cin_si(z):
    """``Cin(z) = int_0^z (1 - cos u) du / u`` and ``Si(z)``: the power series

    of Cin for |z| <= 1, ``gamma + ln|z| - Ci(|z|)`` above (A-S 5.2.2).
    """
    from scipy.special import sici

    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    big = a > 1.0
    si, ci = sici(z)   # Ci is even: scipy returns Ci(|z|) for real z < 0
    cin = np.where(big, np.euler_gamma + np.log(np.where(big, a, 1.0)) - ci,
                   np.polynomial.polynomial.polyval(a * a, _CIN_SERIES))
    return cin, si


def _dilation_quadrature(fn, lam):
    """``int_0^1 fn(u lam) du / (2u)`` by composite Gauss-Legendre on dyadic

    panels ``[2^-k-1, 2^-k]`` (k < 12) and ``[0, 2^-12]``, every node in one
    call of ``fn``.  Doubling the nodes must move no value by more than
    ``_QUAD_TOL`` relative to ``max(1, |value|)`` (``refinement_error``).
    """
    edges = np.concatenate([[0.0], 2.0 ** np.arange(-12, 1)])

    def rule(k):
        u, w = composite_gl_edges(edges, k)
        vals = fn(u.reshape((-1,) + (1,) * lam.ndim) * lam)
        return np.tensordot(w / (2.0 * u), vals, axes=1)

    fine = rule(32)
    refinement_error(rule(16), fine, np.maximum(1.0, np.abs(fine)), _QUAD_TOL,
                     f"stationary jump exponent rule of {16 * (len(edges) - 1)} nodes")
    return fine


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
            elif jumps is not None and hasattr(jumps, "dist"):
                m = jumps.dist.m
            else:
                m = 1
        self.m = int(m)
        if self.m < 1:
            raise ValueError(f"the vertical dimension must be at least 1, got m = {self.m}")
        if isinstance(jumps, StableJumps) and self.m != 1:
            raise ValueError(f"stable jumps are a component on R^1, not on R^m with m = {self.m}")
        self.sigma = np.zeros((self.m, self.m)) if sigma is None else np.atleast_2d(
            _finite(sigma, "sigma"))
        self.b = np.zeros(self.m) if b is None else np.atleast_1d(_finite(b, "b"))
        self.jumps = jumps if jumps is not None else NoJumps()
        self._moments = {}      # stationary_moments by order
        if self.sigma.shape != (self.m, self.m) or self.b.shape != (self.m,):
            raise ValueError("sigma/b dimensions inconsistent")
        if getattr(getattr(self.jumps, "dist", None), "m", self.m) != self.m:
            raise ValueError(f"the jump law has dimension {self.jumps.dist.m}, not m = {self.m}")
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
        return (isinstance(self.jumps, NoJumps) and np.all(self.sigma == 0.0)
                and np.all(self.b == 0.0))

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
        out = (-(math.exp(4 * t) - 1.0) / 4.0 * quad
               + 1j * (math.exp(2 * t) - 1.0) / 2.0 * (lam @ self.b))
        # the jump part by the dilation identity psi_t(lam) = psi_inf(e^{2t} lam) - psi_inf(lam)
        jumps = self.jumps
        return out + jumps.psi_limit_part(math.exp(2 * t) * lam) - jumps.psi_limit_part(lam)

    def psi_limit(self, lam):
        """Stationary exponent ``int_0^inf psi(e^{-2s} lam) ds``.

        This is the logarithm of the characteristic function of the invariant
        law of the vertical Levy-Ornstein-Uhlenbeck process.
        """
        if not self.in_N_log:
            raise UnsupportedOperationError(
                "no stationary law: the jump measure lacks a logarithmic moment")
        lam = self._coerce(lam)
        quad = np.einsum("...i,ij,...j->...", lam, self.sigma, lam)
        return -quad / 4.0 + 1j * (lam @ self.b) / 2.0 + self.jumps.psi_limit_part(lam)

    # -- moments (exact interfaces for the polynomial calculus) -------------

    def require_moments(self, order):
        """``self``, or UnsupportedOperationError when the jumps lack moments."""
        self.jumps.moment(tuple([order] + [0] * (self.m - 1)))
        self.jumps.tail_mean(self.m)
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
        Computed once per order; each call returns a fresh dict.
        """
        if order not in self._moments:
            self._moments[order] = self._stationary_moments(order)
        return dict(self._moments[order])

    def _stationary_moments(self, order):
        if not self.in_N_log:
            raise UnsupportedOperationError("no stationary law for this exponent")
        cum = {}
        for j in range(self.m):
            e = tuple(1 if i == j else 0 for i in range(self.m))
            cum[e] = 1j * self.effective_drift()[j] / 2.0
        for j in range(self.m):
            for k in range(j, self.m):
                g = tuple((1 if i == j else 0) + (1 if i == k else 0) for i in range(self.m))
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
        """The exponent of a spec ``{"m", "sigma", "b", "jumps"}`` (all optional).

        A spec that is not an object of this form, at any level (a missing
        or unknown field, a value of the wrong type), raises ValueError.
        """
        _spec_kind(data, "exponent spec", None, "", {"": ((), _SPEC_FIELDS)})
        jumps = data.get("jumps", {"type": "none"})
        jtype = _spec_kind(jumps, "jumps", "type", "none", _JUMP_FIELDS)
        try:
            if jtype == "none":
                jump_obj = NoJumps()
            elif jtype == "compound_poisson":
                dist = jumps.get("dist", {"kind": "normal"})
                if _spec_kind(dist, "jump dist", "kind", "normal", _DIST_FIELDS) == "normal":
                    mean = dist.get("mean", [0.0])
                    cov = dist.get("cov", np.eye(len(np.atleast_1d(mean))).tolist())
                    jump_obj = CompoundPoisson(jumps["rate"], NormalDist(mean, cov))
                else:
                    jump_obj = CompoundPoisson(jumps["rate"],
                                               AtomDist(dist["points"], dist["probs"]))
            elif jtype == "stable":
                jump_obj = StableJumps(jumps["alpha"], jumps.get("scale", 1.0))
            else:
                jump_obj = AtomJumps(jumps["points"], jumps["weights"])
            return cls(sigma=data.get("sigma"), b=data.get("b"), jumps=jump_obj,
                       m=data.get("m"))
        except TypeError as exc:
            raise ValueError(f"malformed exponent spec: {exc}") from exc

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


_SPEC_FIELDS = ("m", "sigma", "b", "jumps")
_JUMP_FIELDS = {  # type: (required, optional) fields besides "type"
    "none": ((), ()),
    "compound_poisson": (("rate",), ("dist",)),
    "stable": (("alpha",), ("scale",)),
    "atoms": (("points", "weights"), ()),
}
_DIST_FIELDS = {"normal": ((), ("mean", "cov")), "atoms": (("points", "probs"), ())}


def _spec_kind(obj, where, tag, default, kinds):
    """The kind of the spec object ``obj``, one of ``kinds``: its field

    ``tag`` (``default`` when absent or when ``tag`` is None).  ``obj`` must
    hold the kind's required fields and none outside its optional ones and
    ``tag``; otherwise ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    kind = obj.get(tag, default) if tag else default
    if kind not in kinds:
        raise ValueError(f"{where}: unknown {tag} {kind!r}, expected one of {sorted(kinds)}")
    required, optional = kinds[kind]
    missing = [k for k in required if k not in obj]
    unknown = sorted(set(obj) - set(required) - set(optional) - {tag})
    if missing or unknown:
        raise ValueError(f"{where}{f' {kind!r}' if tag else ''}: "
                         + (f"lacks {missing}" if missing else f"has unknown fields {unknown}"))
    return kind


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
