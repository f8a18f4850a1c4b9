"""Closed-form partial-Fourier kernels and their real-space inversion.

The horizontal heat kernel ``q_t`` on a step-2 group has the partial
Fourier transform (in the radical and vertical variables)

    q^_t(z, nu; lam) = (2 pi)^{-d} e^{-t |nu|^2}
        prod_j  eta_j / (2 sinh(eta_j t))
        exp( - sum_j (eta_j / 4) |z_j|^2 coth(eta_j t) ),

where ``eta_j = eta_j(lam)`` is the symplectic spectrum and ``z`` collects
the oscillator-plane coordinates of the horizontal point.  The quarter in
the Gaussian exponent is pinned by three independent checks implemented in
the test suite: the Euclidean marginal at ``lam -> 0``, the Weyl/Hilbert-
Schmidt isometry, and the Mehler expansion of the hat in Laguerre modes.

Vertical Levy perturbations multiply the hat by ``exp(t psi(lam))``; the
stationary density of the Ornstein-Uhlenbeck semigroup is the ``t = 1/2``
heat hat times ``exp(int_0^inf psi(-e^{-2s} lam) ds)`` with the radical
factor ``exp(-|nu|^2 / 2)``.

Everything partial-Fourier is computed in one place each: the Mehler
(sinh/coth) hat in :func:`mehler_hat`, its area (sech/tanh) counterpart in
:func:`mehler_area`, and the vertical inversion ``(2 pi)^{-1} int F(lam)
e^{-i lam v} dlam`` in :func:`fourier_invert`.  Every integrand inverted is
Hermitian, ``F(-lam) = conj F(lam)``: psi is the exponent of a real Levy
process, the hats depend on lam through ``|lam|`` and the test functions
are real; so the inversion is real arithmetic on lam > 0.  Hats and vertical
characteristic functions are available on every step-2 group; real-space
inversion (grids, point values) needs m = 1, where the oscillator planes
do not move with ``lam``.

The hat sees a horizontal point only through its per-plane squared radii
and radical norm, so grids are inverted once per radius class of their
points (408 classes for the 3721 points of the 61 x 61 co-eigen grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import oscillatory_rule, trapezoid_nd
from .errors import AccuracyError, UnsupportedOperationError
from .groups import CarnotGroup
from .spectral import frame_at

__all__ = [
    "mehler_hat",
    "mehler_area",
    "fourier_invert",
    "heat_hat",
    "perturbed_hat",
    "invariant_hat",
    "KernelSlice",
    "heat_slice",
    "perturbed_slice",
    "invariant_slice",
    "DensityGrid",
    "invert_to_grid",
    "co_eigenfunction",
    "vertical_charfn",
]


def mehler_hat(eta, t):
    """The Mehler (sinh/coth) hat of one horizontal heat time ``t``.

    Returns ``(log amplitude, coef)`` with the log of
    ``prod_j eta_j / (2 pi * 2 sinh(eta_j t))`` (stable for large
    ``eta t``) and the per-plane Gaussian coefficients
    ``eta_j coth(eta_j t) / 4``; the last axis of ``eta`` runs over planes.
    """
    x = eta * t
    log_amp = -eta.shape[-1] * math.log(2.0 * math.pi) + np.sum(
        np.log(eta) - (x + np.log1p(-np.exp(-2.0 * x))), axis=-1
    )
    return log_amp, 0.25 * eta * (1.0 / np.tanh(x))


def mehler_area(eta, s):
    """The area (sech/tanh) counterpart of :func:`mehler_hat` at horizon ``s``.

    Returns ``(prod_j sech(eta_j s), eta_j tanh(eta_j s) / 4)``: the hat
    integrated over the planes, and the per-plane coefficients of the area
    characteristic function ``E exp(i lam (area_s + omega(a, B_s)/2))``.
    """
    x = eta * s
    return np.prod(1.0 / np.cosh(x), axis=-1), 0.25 * eta * np.tanh(x)


def fourier_invert(envelope, rows, lam, w, v):
    """Vertical inversion ``(2 pi)^{-1} int F(lam) e^{-i lam v} dlam`` of a

    Hermitian integrand, ``F(-lam) = conj F(lam)``, from a rule ``(lam, w)``
    on lam > 0: the real ``pi^{-1} sum_k w_k [Re F(lam_k) cos(lam_k v) +
    Im F(lam_k) sin(lam_k v)]``, one real matmul of the interleaved (Re, Im)
    pairs of ``F`` against the interleaved (cos, sin) rows.  ``F = rows[i] *
    envelope``; ``rows`` is None (a single row of ones; the result has shape
    ``(len(v),)``) or a pair ``(n, block)`` where ``block(lo, hi)`` returns
    rows ``lo:hi`` of the ``(n, len(lam))`` factor; the rows are taken about
    4e6 entries at a time.
    """
    arg = np.outer(lam, v)
    trig = np.stack([np.cos(arg), np.sin(arg)], axis=1).reshape(2 * len(lam), len(v))
    env = np.asarray(envelope, dtype=complex) * (w / math.pi)
    n, block = rows if rows is not None else (1, lambda lo, hi: 1.0)
    out = np.empty((n, len(v)))
    chunk = max(1, int(4e6 / max(len(lam), 1)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = (block(lo, hi) * env).view(float) @ trig
    return out if rows is not None else out[0]


def heat_hat(G: CarnotGroup, t, z, lam, nu=()):
    """Partial Fourier transform of the heat kernel at frequency ``(lam, nu)``.

    ``z`` holds oscillator-plane coordinates grouped as (x_1..x_d, y_1..y_d)
    in the frame of ``lam``.  Degenerate frequencies are rejected.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    fr = frame_at(G, lam).require_generic()
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * fr.d,):
        raise ValueError(f"z must have length {2 * fr.d}")
    zsq = z[: fr.d] ** 2 + z[fr.d:] ** 2
    nu = np.atleast_1d(np.asarray(nu, dtype=float)) if np.size(nu) else np.zeros(0)
    if nu.shape != (fr.k,):
        raise ValueError(f"nu must have length k = {fr.k}")
    log_amp, coef = mehler_hat(fr.eta, t)
    return float(np.exp(log_amp - zsq @ coef - t * (nu @ nu)))


def perturbed_hat(G: CarnotGroup, psi, t, z, lam, nu=()):
    """Heat hat times ``exp(t psi(lam))``."""
    base = heat_hat(G, t, z, lam, nu)
    if psi is None or psi.is_trivial:
        return complex(base)
    return base * np.exp(t * complex(psi.psi(np.atleast_1d(lam))))


def invariant_hat(G: CarnotGroup, psi, z, lam, nu=()):
    """Hat of the stationary Ornstein-Uhlenbeck density: the ``t = 1/2`` heat

    hat times ``exp(int_0^inf psi(-e^{-2s} lam) ds)`` (the reflected
    stationary vertical law).
    """
    base = heat_hat(G, 0.5, z, lam, nu)
    if psi is None or psi.is_trivial:
        return complex(base)
    if not psi.in_N_log:
        raise UnsupportedOperationError(
            "no stationary density: jump measure lacks a logarithmic moment"
        )
    return base * np.exp(complex(psi.psi_limit(-np.atleast_1d(lam))))


def vertical_charfn(G: CarnotGroup, psi, t, lam, invariant=False):
    """Characteristic function of the vertical marginal: the hat integrated

    over the horizontal layer,

        E exp(i <lam, v(t)>) = exp(t psi(lam)) prod_j sech(eta_j(lam) t).

    With ``invariant=True`` the stationary version (t = 1/2 heat part and
    the reflected stationary exponent) is returned.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    fr = frame_at(G, lam).require_generic()
    tt = 0.5 if invariant else float(t)
    base = float(mehler_area(fr.eta, tt)[0])
    if psi is None or psi.is_trivial:
        return complex(base)
    if invariant:
        return base * np.exp(complex(psi.psi_limit(-lam)))
    return base * np.exp(t * complex(psi.psi(lam)))


# ---------------------------------------------------------------------------
# kernel slices and grid inversion
# ---------------------------------------------------------------------------

@dataclass
class KernelSlice:
    """Evaluator package for one kernel: heat, perturbed, or stationary."""

    group: CarnotGroup
    kind: str                      # "heat" | "perturbed" | "invariant"
    t: float                       # effective Gaussian time (1/2 for invariant)
    psi: object = None
    c_norm: float = 1.0

    def multiplier(self, lam_batch):
        """Vertical multiplier on a batch of frequencies (shape (N, m))."""
        if self.kind == "heat" or self.psi is None or self.psi.is_trivial:
            return np.ones(len(lam_batch), dtype=complex)
        if self.kind == "perturbed":
            return np.exp(self.t * np.asarray(self.psi.psi(lam_batch), dtype=complex))
        return np.exp(np.asarray(self.psi.psi_limit(-lam_batch), dtype=complex))


def heat_slice(G, t):
    return KernelSlice(group=G, kind="heat", t=float(t))


def perturbed_slice(G, psi, t):
    return KernelSlice(group=G, kind="perturbed", t=float(t), psi=psi)


def invariant_slice(G, psi):
    if psi is not None and not psi.is_trivial and not psi.in_N_log:
        raise UnsupportedOperationError("no stationary density for this exponent")
    return KernelSlice(group=G, kind="invariant", t=0.5, psi=psi)


CLASS_DECIMALS = 12


@dataclass
class DensityGrid:
    """Sampled density on a tensor grid over (h, v)."""

    axes: list
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def mass(self):
        return float(trapezoid_nd(self.values, self.axes))


class _HatProfile:
    """Vectorized evaluator of the scalar hat ``W(h; lam)``: the partial

    Fourier transform in the vertical variables only, with the radical
    frequency integrated out in closed form.

    Restricted to m = 1, where the oscillator planes do not move with
    ``lam`` and ``eta(lam) = |lam| eta(1)``.
    """

    def __init__(self, slice_: KernelSlice):
        G = slice_.group
        if G.m != 1:
            raise UnsupportedOperationError(
                "real-space inversion is implemented for m = 1; groups with "
                "m >= 2 support hat-side evaluation only"
            )
        self.slice = slice_
        self.G = G
        self.frame = frame_at(G, np.ones(1))
        self.eta_unit = self.frame.eta

    def planes(self, H):
        """Per-plane squared radii (N_h, d) and radical squared norms (N_h,)

        of the horizontal points in the rows of ``H``.
        """
        d, F = self.G.d, self.frame.frame
        z, r = F.T[: 2 * d] @ H.T, F.T[2 * d:] @ H.T
        return (z[:d] ** 2 + z[d:] ** 2).T, np.sum(r**2, axis=0)

    def classes(self, H):
        """``(zsq, rsq, inverse)``: :meth:`planes` of one row of ``H`` per class

        of keys equal to ``CLASS_DECIMALS`` decimals, and each row's class."""
        zsq, rsq = self.planes(H)
        keys = np.round(np.column_stack([zsq, rsq]), CLASS_DECIMALS)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        return zsq[first], rsq[first], inverse.reshape(-1)

    def eta(self, lam):
        """Symplectic spectra (N_l, d) at the scalar frequencies ``lam``."""
        return np.abs(lam)[:, None] * self.eta_unit[None, :]

    def values(self, zsq, rsq, lam_batch):
        """Heat hats (len(zsq), len(lam_batch)), without the slice multiplier."""
        t = self.slice.t
        log_amp, coef = mehler_hat(self.eta(lam_batch[:, 0]), t)
        out = np.exp(log_amp[None, :] - np.einsum("hd,ld->hl", zsq, coef))
        if self.G.k > 0:
            out = out * (
                (4 * math.pi * t) ** (-self.G.k / 2)
                * np.exp(-rsq / (4 * t))
            )[:, None]
        return out

    def lambda_rule(self, vmax, tol=1e-12):
        """Half-line oscillatory rule for ``|v| <= vmax`` and its frequency

        cutoff, where the zero-point envelope drops below ``tol``.
        """
        G, t = self.G, self.slice.t
        eta_sum = float(np.sum(self.eta_unit))
        # prefactor decays like exp(-eta_sum * t * |lam|); add slack for psi
        lam = 1.0
        for _ in range(60):
            if eta_sum * t * lam - G.d * math.log(max(lam, 1.0)) > -math.log(tol):
                break
            lam *= 1.5
        return (*oscillatory_rule(lam, vmax, nodes_per_panel=12), lam)


def invert_to_grid(slice_: KernelSlice, axes, calibrate=True, vertical_multiplier=None):
    """Invert the partial Fourier transform onto a tensor grid over (h, v).

    ``axes`` is a list of 1-d grids, one per horizontal coordinate and then
    the vertical one; only m = 1 is supported.  Returns a
    :class:`DensityGrid`; when ``calibrate`` is true the values are scaled
    to unit trapezoidal mass and the constant stored in ``meta``.

    Hat and inversion run once per radius class of the points, copied to the
    class: keys within 1e-12 move a hat by < 1e-12 * max coef relative, 2e-11
    at the co-eigen cutoff |lam| = 86 (coef <= 22); 1.4e-15 of the max measured.

    The lambda rule checks itself by node doubling: the class nearest the origin
    (the largest hat) is inverted at ``v[0]``, ``v[-1]`` and the node nearest 0
    again on the same cutoff with every panel halved; the change relative to that
    row's max |value| is ``meta["lam_err"]``; ``AccuracyError`` above 1e-10.
    """
    G = slice_.group
    profile = _HatProfile(slice_)
    if len(axes) != G.n + 1:
        raise ValueError(f"need {G.n + 1} axes, got {len(axes)}")
    H = np.stack([c.ravel() for c in np.meshgrid(*axes[: G.n], indexing="ij")], axis=1)
    V = axes[G.n]
    vmax = float(np.max(np.abs(V)))
    zsq, rsq, inverse = profile.classes(H)

    def invert(lam, w, zs, rs, v):
        lam_batch = lam[:, None]
        env = slice_.multiplier(lam_batch)
        if vertical_multiplier is not None:
            env = env * vertical_multiplier(lam_batch)
        return fourier_invert(env, (len(zs), lambda lo, hi: profile.values(
            zs[lo:hi], rs[lo:hi], lam_batch)), lam, w, v)

    lam, w, cutoff = profile.lambda_rule(vmax)
    vals = invert(lam, w, zsq, rsq, V)
    probe, cols = np.argmin(np.sum(zsq, axis=1) + rsq), [0, len(V) - 1, np.argmin(np.abs(V))]
    fine = invert(*oscillatory_rule(cutoff, 2.0 * vmax, max_panel=0.5), zsq[[probe]],
                  rsq[[probe]], V[cols])[0]
    lam_err = float(np.max(np.abs(vals[probe, cols] - fine)) / np.max(np.abs(vals[probe])))
    if not lam_err <= 1e-10:
        raise AccuracyError(f"lambda rule of {len(lam)} nodes on [0, {cutoff:.3g}]: halving "
                            f"its panels moved the inversion by {lam_err:.2e} > 1e-10")
    values = vals[inverse].reshape(tuple(len(ax) for ax in axes))
    grid = DensityGrid(axes=list(axes), values=values, meta={
        "kind": slice_.kind, "t": slice_.t, "lam_nodes": len(lam), "lam_cutoff": cutoff,
        "lam_err": lam_err})
    if calibrate:
        mass = grid.mass()
        grid.meta["c_norm"] = 1.0 / mass
        slice_.c_norm = 1.0 / mass
        grid.values = grid.values / mass
    return grid


def invert_at(slice_: KernelSlice, h, v, tol=1e-12):
    """Point value of the inverted kernel (m = 1 only)."""
    profile = _HatProfile(slice_)
    v = np.atleast_1d(np.asarray(v, dtype=float))[:1]
    lam, w, _ = profile.lambda_rule(abs(float(v[0])) + 1.0, tol)
    zsq, rsq = profile.planes(np.asarray(h, dtype=float)[None, :])
    W = profile.values(zsq, rsq, lam[:, None])[0] * slice_.multiplier(lam[:, None])
    return float(fourier_invert(W, None, lam, w, v)[0]) * slice_.c_norm


def co_eigenfunction(G: CarnotGroup, psi, beta, axes, floor=1e-300):
    """Adjoint eigenfunction grid ``J_beta = (-1)^{|beta|} d^beta_v p / p``.

    The vertical derivative is taken on the Fourier side (multiplier
    ``(-i lam)^beta``); nodes where the density underflows are masked and
    reported in the grid metadata.
    """
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    if len(beta) != G.m:
        raise ValueError(f"beta must have length m = {G.m}")
    slice_ = invariant_slice(G, psi)
    dens = invert_to_grid(slice_, axes, calibrate=True)
    if all(b == 0 for b in beta):
        values = np.ones_like(dens.values)
        return DensityGrid(axes=list(axes), values=values,
                           meta={"beta": beta, "masked": 0})

    def mult(lam_batch):
        out = np.ones(len(lam_batch), dtype=complex)
        for j, b in enumerate(beta):
            if b:
                out = out * (-1j * lam_batch[:, j]) ** b
        return out

    deriv = invert_to_grid(slice_, axes, calibrate=False, vertical_multiplier=mult)
    deriv.values = deriv.values * dens.meta["c_norm"]
    mask = np.abs(dens.values) < floor
    safe = np.where(mask, 1.0, dens.values)
    values = (-1.0) ** sum(beta) * deriv.values / safe
    values[mask] = np.nan
    return DensityGrid(
        axes=list(axes),
        values=values,
        meta={"beta": beta, "masked": int(mask.sum()), "density": dens},
    )


def group_convolve(G: CarnotGroup, grid_f: DensityGrid, grid_g: DensityGrid):
    """Group convolution ``(f * g)(x) = int f(y) g(y^{-1} x) dy`` of two grids

    on the same uniform axes, the two horizontal ones with a node at 0
    (``ValueError`` otherwise): a Simpson sum over y of the vertical linear
    convolutions ``f(y, .) * g(x_h - y_h, .)``, sampled at ``x_v - c`` with
    ``c = omega(y_h, x_h)/2`` by band-limited interpolation of period ``Lp``.

    On the rfft side in v the shift is the phase ``exp(-i mu c)``, and with
    ``omega(y, x) = a (y_1 x_2 - y_2 x_1)`` the horizontal sum at each
    frequency is a twisted convolution: per x_2 row, an FFT convolution over
    y_1 of f times ``exp(-i mu a y_1 x_2/2)``, then the phase
    ``exp(i mu a y_2 x_1/2)`` and a sum over y_2; one inverse DFT per x at the end.
    ``Lp = 2 n_v - 1 + 2 ceil(c_max / dv)``, where ``c_max`` is the largest
    |c| over the pairs that occur (x, y and x - y on the grid), so the
    shifted blocks do not wrap; ``Lp`` is odd, so the rfft side has no
    Nyquist term to break the real shift.  It is recorded in ``meta``.  The v
    transforms are DFT matmuls (``Lp`` is often prime, where FFTs fall back to
    Bluestein); the inverse is :func:`fourier_invert` at ``-2 pi kappa / (Lp dv)``.
    """
    if G.n != 2 or G.m != 1:
        raise UnsupportedOperationError("grid convolution implemented for n=2, m=1")
    ax = grid_f.axes
    if any(len(a) != len(b) or np.max(np.abs(a - b)) > 0 for a, b in zip(ax, grid_g.axes)):
        raise ValueError("grids must share axes")
    x1, x2, xv = ax
    (_, mid1), (_, mid2), (dv, _) = (_uniform_axis(a, i < 2) for i, a in enumerate(ax))
    n1, n2, nv = len(x1), len(x2), len(xv)
    w1, w2, wv = (_simpson_weights(a) for a in ax)
    a = float(G.omega(np.eye(2)[0], np.eye(2)[1])[0])
    # |y_1 x_2 - y_2 x_1| is linear in x on the box of the x with x - y on the
    # grid, so its largest value is at a corner: ends_i[k] are the lowest and
    # highest x_i for y_i = x_i[k]
    k1, k2 = np.arange(n1) - mid1, np.arange(n2) - mid2
    ends1 = x1[np.stack([np.maximum(k1, 0), np.minimum(k1, 0) + n1 - 1], axis=-1)]
    ends2 = x2[np.stack([np.maximum(k2, 0), np.minimum(k2, 0) + n2 - 1], axis=-1)]
    cross = (x1[:, None, None, None] * ends2[None, :, None, :]
             - x2[None, :, None, None] * ends1[:, None, :, None])
    Lp = 2 * nv - 1 + 2 * math.ceil(0.5 * abs(a) * np.max(np.abs(cross)) / dv)
    kappa = np.arange(Lp // 2 + 1)
    theta = math.pi * a * kappa / (dv * Lp)          # c = (a/2) cross -> phase theta cross
    # kappa first, the y_1 (z_1) axis last and contiguous; g reversed in z_2,
    # so that the z_2 = x_2 - y_2 rows of one x_2 row are a slice
    dft = np.exp(-2j * math.pi * (np.outer(np.arange(nv), kappa) % Lp) / Lp)
    F = (grid_f.values * wv) @ dft * np.outer(w1, w2)[..., None]
    F = np.ascontiguousarray(F.transpose(2, 1, 0))
    G_fft = np.fft.fft((grid_g.values[:, ::-1] @ dft).transpose(2, 1, 0), 2 * n1 - 1)
    phase_y2x1 = np.exp(1j * theta[:, None, None] * np.multiply.outer(x2, x1))
    spec = np.empty((n1, n2, len(kappa)), dtype=complex)
    for i2 in range(n2):
        lo, hi = max(0, i2 + mid2 - n2 + 1), min(n2, i2 + mid2 + 1)   # y_2 with z_2 on the grid
        f_row = F[:, lo:hi] * np.exp(-1j * theta[:, None] * (x1 * x2[i2]))[:, None, :]
        rev = n2 - 1 - i2 - mid2
        conv = np.fft.fft(f_row, 2 * n1 - 1) * G_fft[:, rev + lo:rev + hi]
        conv = np.fft.ifft(conv)[..., mid1:mid1 + n1]
        spec[:, i2] = np.einsum("kji,kji->ik", conv, phase_y2x1[:, lo:hi])
    # block cell k holds v = 2 x_v[0] + k dv: output node j is read at x_v[j] - 2 x_v[0]
    rows, w_k = spec.reshape(n1 * n2, -1), np.where(kappa == 0, math.pi, 2.0 * math.pi) / Lp
    values = fourier_invert(np.ones(len(kappa)), (n1 * n2, lambda lo, hi: rows[lo:hi]),
                            -2.0 * math.pi * kappa / (Lp * dv), w_k, xv - 2.0 * xv[0])
    return DensityGrid(axes=list(ax), values=values.reshape(n1, n2, nv),
                       meta={"kind": "convolution", "Lp": Lp})


def _uniform_axis(axis, origin):
    """Step of a uniform increasing axis and the index of its node at 0."""
    step = (axis[-1] - axis[0]) / max(len(axis) - 1, 1)
    if not step > 0 or np.max(np.abs(np.diff(axis) - step)) > 1e-9 * step:
        raise ValueError("convolution axes must be uniform and increasing")
    mid = int(round(-axis[0] / step))
    if origin and not (0 <= mid < len(axis) and abs(axis[mid]) <= 1e-9 * step):
        raise ValueError("horizontal convolution axes need a node at the origin")
    return step, mid


def _simpson_weights(axis):
    n = len(axis)
    h = axis[1] - axis[0]
    if n % 2 == 0:
        w = np.full(n, h)  # fall back to trapezoid on even counts
        w[0] = w[-1] = h / 2
        return w
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0
