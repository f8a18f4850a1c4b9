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

from ._quadrature import half_line_rule, oscillatory_rule, refinement_error, trapezoid_nd
from .errors import UnsupportedOperationError
from .groups import CarnotGroup
from .spectral import frame_at

__all__ = [
    "mehler_hat",
    "mehler_area",
    "fourier_invert",
    "invert_checked",
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
    4e6 entries at a time.  The (cos, sin) table is written in place, one
    ``(len(lam), 2, len(v))`` array viewed as ``2 len(lam)`` rows.
    """
    arg = np.outer(lam, v)
    trig = np.empty((len(lam), 2, len(v)))
    np.cos(arg, out=trig[:, 0])
    np.sin(arg, out=trig[:, 1])
    trig = trig.reshape(2 * len(lam), len(v))
    env = np.asarray(envelope, dtype=complex) * (w / math.pi)
    n, block = rows if rows is not None else (1, lambda lo, hi: 1.0)
    out = np.empty((n, len(v)))
    chunk = max(1, int(4e6 / max(len(lam), 1)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = (block(lo, hi) * env).view(float) @ trig
    return out if rows is not None else out[0]


def invert_checked(integrand, bound, v, probe=0):
    """:func:`fourier_invert` of ``integrand(lam) = (envelope, rows)`` on the

    half-line rule for the magnitude ``bound``, and its self-check: row
    ``probe`` again at ``v[0]``, ``v[-1]`` and the node nearest 0 with every
    panel halved, relative to that row's max, <= 1e-10.  Returns the values
    and ``{"lam_nodes", "lam_cutoff", "lam_err"}``.
    """
    v = np.asarray(v, dtype=float)
    vmax = float(np.max(np.abs(v)))
    lam, w, cutoff = half_line_rule(bound, vmax)
    values = fourier_invert(*integrand(lam), lam, w, v)
    row, cols = np.atleast_2d(values)[probe], [0, len(v) - 1, int(np.argmin(np.abs(v)))]
    fine_lam, fine_w = oscillatory_rule(cutoff, vmax, halved=True)
    env, rows = integrand(fine_lam)
    if rows is not None:
        rows = (1, lambda lo, hi, block=rows[1]: block(probe, probe + 1))
    fine = fourier_invert(env, rows, fine_lam, fine_w, v[cols]).reshape(-1)
    err = refinement_error(row[cols], fine, np.max(np.abs(row)), 1e-10,
                           f"lambda rule of {len(lam)} nodes on [0, {cutoff:.3g}]")
    return values, {"lam_nodes": len(lam), "lam_cutoff": cutoff, "lam_err": err}


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

    def bound(self, lam):
        """The zero-point heat amplitude, a bound on every (perturbed) hat

        up to the radical factor: ``exp(-zsq coef)`` and ``|exp(t psi)|`` are <= 1.
        """
        return np.exp(mehler_hat(self.eta(lam), self.slice.t)[0])


def invert_to_grid(slice_: KernelSlice, axes, calibrate=True, vertical_multiplier=None):
    """Invert the partial Fourier transform onto a tensor grid over (h, v).

    ``axes`` is a list of 1-d grids, one per horizontal coordinate and then
    the vertical one; only m = 1 is supported.  Returns a
    :class:`DensityGrid`; when ``calibrate`` is true the values are scaled
    to unit trapezoidal mass, and ``meta`` keeps the mass before, as
    ``grid_mass`` (the share of the law the grid holds, up to quadrature
    error), and the constant ``c_norm = 1 / grid_mass``.

    Hat and inversion run once per radius class of the points, copied to the
    class: keys within 1e-12 move a hat by < 1e-12 * max coef relative, 1.6e-11
    at the co-eigen cutoff |lam| = 64 (coef <= 16); 1.4e-15 of the max measured.

    The lambda rule and its self-check are :func:`invert_checked`'s, with the
    class nearest the origin (the largest hat) as the probe row; ``meta``
    records ``lam_nodes``, ``lam_cutoff`` and ``lam_err``.
    """
    G = slice_.group
    profile = _HatProfile(slice_)
    if len(axes) != G.n + 1:
        raise ValueError(f"need {G.n + 1} axes, got {len(axes)}")
    H = np.stack([c.ravel() for c in np.meshgrid(*axes[: G.n], indexing="ij")], axis=1)
    zsq, rsq, inverse = profile.classes(H)

    def integrand(lam):
        lam_batch = lam[:, None]
        env = slice_.multiplier(lam_batch)
        if vertical_multiplier is not None:
            env = env * vertical_multiplier(lam_batch)
        return env, (len(zsq), lambda lo, hi: profile.values(zsq[lo:hi], rsq[lo:hi], lam_batch))

    vals, rule = invert_checked(integrand, profile.bound, axes[G.n],
                                np.argmin(np.sum(zsq, axis=1) + rsq))
    values = vals[inverse].reshape(tuple(len(ax) for ax in axes))
    grid = DensityGrid(axes=list(axes), values=values,
                       meta={"kind": slice_.kind, "t": slice_.t, **rule})
    if calibrate:
        mass = grid.mass()
        grid.meta["grid_mass"] = mass
        grid.meta["c_norm"] = 1.0 / mass
        grid.values = grid.values / mass
    return grid


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
    Nyquist term to break the real shift.  The v transforms are DFT matmuls
    (``Lp`` is often prime, where FFTs fall back to Bluestein); the inverse is
    :func:`fourier_invert` at ``-2 pi kappa / (Lp dv)``.

    The y_1 convolutions are circular of length ``fft_len``, the smallest
    2^a 3^b 5^c >= ``max(2 n_1 - 1 - mid_1, mid_1 + n_1)`` (``mid_1`` the
    index of x_1 = 0): the linear convolution lives on ``0 .. 2 n_1 - 2`` and
    only its entries ``mid_1 .. mid_1 + n_1 - 1`` are read, which the wrapped
    terms at ``+-fft_len`` then miss.  ``Lp`` and ``fft_len`` are recorded in
    ``meta``.
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
    N = _fast_length(max(2 * n1 - 1 - mid1, mid1 + n1))
    G_fft = np.fft.fft((grid_g.values[:, ::-1] @ dft).transpose(2, 1, 0), N)
    phase_y2x1 = np.exp(1j * theta[:, None, None] * np.multiply.outer(x2, x1))
    spec = np.empty((n1, n2, len(kappa)), dtype=complex)
    buf = np.empty(len(kappa) * n2 * N, dtype=complex)   # each row's zero-padded FFTs, in place
    for i2 in range(n2):
        lo, hi = max(0, i2 + mid2 - n2 + 1), min(n2, i2 + mid2 + 1)   # y_2 with z_2 on the grid
        conv = buf[:len(kappa) * (hi - lo) * N].reshape(len(kappa), hi - lo, N)
        np.multiply(F[:, lo:hi], np.exp(-1j * theta[:, None] * (x1 * x2[i2]))[:, None, :],
                    out=conv[..., :n1])
        conv[..., n1:] = 0.0
        rev = n2 - 1 - i2 - mid2
        np.fft.fft(conv, out=conv)
        conv *= G_fft[:, rev + lo:rev + hi]
        np.fft.ifft(conv, out=conv)
        spec[:, i2] = np.einsum("kji,kji->ik", conv[..., mid1:mid1 + n1], phase_y2x1[:, lo:hi])
    # block cell k holds v = 2 x_v[0] + k dv: output node j is read at x_v[j] - 2 x_v[0]
    rows, w_k = spec.reshape(n1 * n2, -1), np.where(kappa == 0, math.pi, 2.0 * math.pi) / Lp
    values = fourier_invert(np.ones(len(kappa)), (n1 * n2, lambda lo, hi: rows[lo:hi]),
                            -2.0 * math.pi * kappa / (Lp * dv), w_k, xv - 2.0 * xv[0])
    return DensityGrid(axes=list(ax), values=values.reshape(n1, n2, nv),
                       meta={"kind": "convolution", "Lp": Lp, "fft_len": N})


def _fast_length(n):
    """The smallest 2^a 3^b 5^c >= n: each odd part q times the least 2^a."""
    odd = [3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length())]
    return min(q << ((n - 1) // q).bit_length() for q in odd)


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
