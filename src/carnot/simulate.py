"""Monte Carlo simulation of horizontal Brownian motion with its stochastic

area, vertical Levy perturbations, and the group-valued Ornstein-Uhlenbeck
process, plus characteristic-function estimators.

Conventions (checked against the kernel module in the tests): Brownian
coordinates have variance ``2 t`` apiece, matching the sum-of-squares
generator; the vertical area is the Ito integral ``int omega(B, dB) / 2``,
whose variance at time t is exactly ``t^2`` on the first Heisenberg group; jumps ride
along the vertical coordinate and never feed back into the area.

The area is sampled at the terminal time only, with no time steps: the
Fourier (Karhunen-Loeve) series of the Levy area given the endpoint
(Kloeden, Platen and Wright, Stoch. Anal. Appl. 10, 1992), truncated after
``K = ceil(sqrt(steps))`` modes, plus the remaining tail as a Gaussian with
its exact covariance given the endpoint (Wiktorsson, Ann. Appl. Probab. 11,
2001).  ``steps_per_unit`` stays the accuracy setting: K modes match the
strong error of that many Euler steps.  Antithetic pairs are reflected
paths ``B -> -B`` that share their area.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .groups import CarnotGroup

__all__ = [
    "PathConfig",
    "CharFnEstimate",
    "simulate_levy_on_group",
    "simulate_levy_ou",
    "estimate_charfn",
    "worker_count",
]

CHUNK = 20_000


def worker_count():
    """Worker cap from the CARNOT_THREADS environment variable (default 1)."""
    try:
        return max(1, int(os.environ.get("CARNOT_THREADS", "1")))
    except ValueError:
        return 1


@dataclass
class PathConfig:
    horizon: float
    steps_per_unit: int = 4096
    paths: int = 10_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        k = self.steps_per_unit
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError("steps per unit time must be a power of two")
        if self.paths < 100:
            raise ValueError("need at least 100 paths")

    @property
    def steps(self):
        return max(1, int(round(self.steps_per_unit * self.horizon)))


def _chunks(total):
    out = []
    lo = 0
    while lo < total:
        out.append(min(CHUNK, total - lo))
        lo += CHUNK
    return out


def _map_chunks(fn, sizes, streams):
    workers = worker_count()
    if workers == 1:
        return [fn(size, rng) for size, rng in zip(sizes, streams)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, sizes, streams))


def _brownian_with_area(G, t, steps, size, rng, antithetic=False):
    """Terminal (B_t, area_t) with area = int omega(B, dB) / 2, sampled

    without time steps from the Fourier (Karhunen-Loeve) series of the Levy
    area (Kloeden, Platen and Wright, Stoch. Anal. Appl. 10, 1992).  With
    ``B = sqrt(2) W``, ``u = sqrt(2 / t) W_t`` and iid standard normal
    ``X_k, Y_k`` in R^n,

        area = (t / pi) [ sum_{k <= K} omega(X_k, Y_k + u) / k + tail ],

    where ``K = ceil(sqrt(steps))`` modes are drawn in the order k = 1, 2, ...,
    so a larger K extends the same path.  The tail sum over k > K is replaced
    by the Gaussian with its exact covariance given the endpoint (Wiktorsson,
    Ann. Appl. Probab. 11, 2001),

        s_K [tr(A_l A_l'^T) + (A_l u) . (A_l' u)],   s_K = sum_{k > K} k^-2,

    drawn as ``sqrt(s_K) (M0^{1/2} z1 + omega(z2, u))`` with
    ``M0[l, l'] = tr(A_l A_l'^T)``.  The strong error is O(1/K), matching
    Euler's O(steps^-1/2).

    Antithetic pairs are the reflected paths W -> -W; the area is even under
    the reflection, so a pair shares its area and antithetics only help the
    horizontal moments.
    """
    K = math.ceil(math.sqrt(steps))
    half = (size + 1) // 2 if antithetic else size
    W = rng.standard_normal((half, G.n)) * math.sqrt(t)
    u = math.sqrt(2.0 / t) * W
    S = np.zeros((half, G.m))
    for k in range(1, K + 1):
        X = rng.standard_normal((half, G.n))
        S += G.omega(X, rng.standard_normal((half, G.n)) + u) / k
    s_K = math.pi**2 / 6.0 - sum(1.0 / (k * k) for k in range(1, K + 1))
    w, Q = np.linalg.eigh(np.einsum("lij,pij->lp", G.A, G.A))
    root = (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
    z1 = rng.standard_normal((half, G.m))
    S += math.sqrt(s_K) * (z1 @ root + G.omega(rng.standard_normal((half, G.n)), u))
    B, V = math.sqrt(2.0) * W, (t / math.pi) * S
    if antithetic:
        B, V = np.concatenate([B, -B])[:size], np.concatenate([V, V])[:size]
    return B, V


def simulate_levy_on_group(G: CarnotGroup, psi, cfg: PathConfig):
    """Terminal samples of the group-valued Levy process

        X(t) = (B(t), area(t) + Y(t)),

    horizontal Brownian motion with its stochastic area plus an independent
    vertical Levy increment.  Returns arrays (h, v) with one row per path.
    """
    t = cfg.horizon
    master = np.random.default_rng(cfg.seed)
    sizes = _chunks(cfg.paths)
    streams = master.spawn(len(sizes))

    def work(size, rng):
        B, V = _brownian_with_area(G, t, cfg.steps, size, rng, cfg.antithetic)
        if psi is not None and not psi.is_trivial:
            V = V + psi.sample_increments(t, rng, size)
        return B, V

    parts = _map_chunks(work, sizes, streams)
    H = np.concatenate([p[0] for p in parts], axis=0)
    V = np.concatenate([p[1] for p in parts], axis=0)
    return H, V


def simulate_levy_ou(G: CarnotGroup, psi, cfg: PathConfig, x0=None):
    """Terminal samples of the group Ornstein-Uhlenbeck process driven by

    the perturbed Levy process, via the exact-in-distribution update

        X(T) = dilate(e^{-T}) (h0, v0 - V_T)  *  (B_s, area_s),

    with ``V_T`` drawn from the time-deformed vertical law (characteristic
    function ``exp(psi_T)``) and ``s = (1 - e^{-2T}) / 2``.  Long horizons
    sample the stationary density.
    """
    T = cfg.horizon
    if psi is not None and not psi.is_trivial and not psi.in_N_log and T > 5.0:
        warnings.warn(
            "exponent lacks a logarithmic moment: no stationary law exists, "
            "long-horizon samples will not settle",
            stacklevel=2,
        )
    h0 = np.zeros(G.n) if x0 is None else np.asarray(x0[0], dtype=float)
    v0 = np.zeros(G.m) if x0 is None else np.asarray(x0[1], dtype=float)
    s = (1.0 - math.exp(-2.0 * T)) / 2.0
    steps = max(1, int(round(cfg.steps_per_unit * s)))
    master = np.random.default_rng(cfg.seed)
    sizes = _chunks(cfg.paths)
    streams = master.spawn(len(sizes))
    decay_h, decay_v = math.exp(-T), math.exp(-2.0 * T)

    def work(size, rng):
        B, A = _brownian_with_area(G, s, steps, size, rng, cfg.antithetic)
        vstart = np.broadcast_to(v0, (size, G.m)).copy()
        if psi is not None and not psi.is_trivial:
            vstart = vstart - psi.sample_deformed(T, rng, size)
        h = decay_h * h0 + B
        v = decay_v * vstart + A + 0.5 * G.omega(np.broadcast_to(decay_h * h0, B.shape), B)
        return h, v

    parts = _map_chunks(work, sizes, streams)
    H = np.concatenate([p[0] for p in parts], axis=0)
    V = np.concatenate([p[1] for p in parts], axis=0)
    return H, V


@dataclass
class CharFnEstimate:
    lam: np.ndarray          # (K, m) evaluation frequencies
    values: np.ndarray       # complex estimates
    stderr: np.ndarray       # combined standard errors
    paths: int

    def check_modulus(self):
        return bool(np.all(np.abs(self.values) <= 1.0 + 3.0 * self.stderr))


def estimate_charfn(samples, lam_panel):
    """Empirical characteristic function of sample rows at the given panel."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    lam = np.atleast_2d(np.asarray(lam_panel, dtype=float))
    if lam.shape[1] != samples.shape[1]:
        lam = lam.reshape(-1, samples.shape[1])
    n = samples.shape[0]
    if n == 0:
        raise ValueError("no samples")
    phases = np.exp(1j * samples @ lam.T)
    values = phases.mean(axis=0)
    se = np.sqrt(phases.real.var(axis=0) / n) + np.sqrt(phases.imag.var(axis=0) / n)
    return CharFnEstimate(lam=lam, values=values, stderr=se, paths=n)
