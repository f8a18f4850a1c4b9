"""Semigroup operators on polynomials (exact) and on grids (numeric),

with the intertwining machinery that transports spectral data between the
group semigroups and Euclidean Ornstein-Uhlenbeck semigroups:

* the lift of horizontal functions, intertwining with the Mehler semigroup;
* the vertical-convolution operator built from the stationary vertical law;
* the projection onto the vertical layer;
* the Euclidean convolution operator built from the drift-and-jump part.

All polynomial paths are exact finite computations; integral operators are
evaluated by quadrature against inverted kernels or one-dimensional Fourier
representations.  The m = 1 Fourier paths share the kernels' area profile and
self-checked inversion (:func:`~carnot.kernels.invert_checked`) with the bound
``|f_hat|``, as ``exp(psi_t)`` and ``sech * exp(-hsq coef)`` are <= 1 in modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UnsupportedOperationError
from .groups import CarnotGroup
from .kernels import (
    _HatProfile,
    heat_slice,
    invariant_slice,
    invert_checked,
    invert_to_grid,
    mehler_area,
)
from .levy import LevyExponent
from .polynomials import (
    GradedPolynomial,
    monomial_basis,
    operator_matrix,
    ou_generator,
    sub_laplacian,
    vertical_operator,
)
from .spectral import frame_at

__all__ = [
    "SemigroupOperator",
    "gamma_shift",
    "stationary_expectation",
    "eigenfunction",
    "eigen_decomposition",
    "IntertwinerReport",
    "intertwine_residual",
    "coeigen_residual",
    "mehler_apply",
    "euclidean_levy_ou_apply",
    "ou_apply_vertical",
    "weighted_gram",
    "nonnormality_witness",
]


# ---------------------------------------------------------------------------
# semigroups on polynomials
# ---------------------------------------------------------------------------

@dataclass
class SemigroupOperator:
    """One of the four semigroups acting on polynomials.

    kind: "heat" (horizontal heat), "levy-heat" (heat plus vertical jumps),
    "ou" (Ornstein-Uhlenbeck), "levy-ou" (perturbed Ornstein-Uhlenbeck).
    Every kind runs the one terminating series of :func:`_exp_series`.
    """

    kind: str
    group: CarnotGroup
    psi: LevyExponent = None
    t: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if self.kind not in ("heat", "levy-heat", "ou", "levy-ou"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind in ("levy-heat", "levy-ou") and self.psi is None:
            raise ValueError(f"kind {self.kind!r} requires an exponent")

    def apply_to_polynomial(self, p: GradedPolynomial) -> GradedPolynomial:
        psi = self.psi if self.kind in ("levy-heat", "levy-ou") else None
        if psi is not None:
            psi.require_moments(p.graded_degree())
        return _exp_series(self.group, psi, self.t, p, ou=self.kind in ("ou", "levy-ou"))


def _exp_series(G, psi, t, p, ou):
    """``exp(t L) p = sum_k a^k / k! q_k``: one terminating series with

    ``q_0 = p`` and exact (Fraction) steps, for every semigroup on
    polynomials.  Heat kinds (``L = Delta_H + A``) take the Taylor series:
    ``a = t`` and ``q_{k+1} = L q_k``; L strictly lowers the graded degree.
    OU kinds (L adds the dilation generator ``-deg``) take the Newton form
    of ``e^{tz}`` at the nodes 0, -1, -2, ...: ``a = 1 - e^{-t}`` and
    ``q_{k+1} = (L + k) q_k``; L is diagonalisable with eigenvalues
    ``0, -1, ..., -deg p`` (``GeneratorMatrix.ladder``), so the product of
    the ``L + k`` vanishes.  Either way q reaches an exact zero within
    ``deg p + 1`` steps, or ArithmeticError is raised.

    ``a`` is ``1 - e^{-t}`` in Fractions from the rounded ``e^{-t}``, so the
    level-j eigencomponent decays by that float's j-th power (j roundings);
    a rounded ``a`` would err there by about ``j e^t`` roundings.
    """
    vertical = vertical_operator(psi, p.mv, max((sum(g) for _, g in p.terms), default=0))
    a = 1 - Fraction(math.exp(-t)) if ou else t
    out = q = GradedPolynomial(p.nh, p.mv, {key: Fraction(c) for key, c in p.terms.items()})
    for k in range(p.graded_degree() + 1):
        shift = {(al, ga): (k - sum(al) - 2 * sum(ga)) * c        # (k - deg) q
                 for (al, ga), c in q.terms.items()} if ou else {}
        q = sub_laplacian(G, q) + vertical(q) + GradedPolynomial(q.nh, q.mv, shift)
        if q.is_zero():
            return out
        out = out + q.scale(a ** (k + 1) / math.factorial(k + 1))
    raise ArithmeticError(f"the semigroup series of a degree-{p.graded_degree()} polynomial "
                          "did not terminate")


def gamma_shift(psi, p: GradedPolynomial) -> GradedPolynomial:
    """Vertical shift by the stationary law: ``p -> E[p(h, v + V)]`` with V

    distributed by the invariant vertical law of the exponent.  Exact on
    polynomials through the stationary moments.
    """
    if psi is None or psi.is_trivial:
        return p
    moments = psi.stationary_moments(p.graded_degree())
    moments[tuple([0] * p.mv)] = 1.0
    return p.shift_v_by_moments(moments)


def _q_half_gamma(G, psi, p):
    """``Q_{1/2} Gamma p``: the stationary vertical shift, then heat to time 1/2."""
    return _exp_series(G, None, 0.5, gamma_shift(psi, p), ou=False)


def stationary_expectation(G, psi, p: GradedPolynomial):
    """``E_mu[p]`` under the stationary law mu of the perturbed

    Ornstein-Uhlenbeck semigroup: ``(Q_{1/2} Gamma p)(e)``.  The
    intertwining ``Q_{1/2} Gamma P_t = d_{e^{-t}} Q_{1/2} Gamma`` fixes the
    identity, so this functional is invariant for ``generator_matrix``.
    Exact (Fractions) when ``p`` and the stationary moments are rational.
    """
    return _q_half_gamma(G, psi, p).terms.get(((0,) * G.n, (0,) * G.m), 0)


def eigenfunction(G, psi, alpha, gamma):
    """``Gamma^{-1} Q_{-1/2}(x^alpha v^gamma)``: an eigenfunction of the
    perturbed Ornstein-Uhlenbeck generator at level ``|alpha| + 2|gamma|``.

    Both factors of the inverted intertwiner are terminating series: the
    heat series at t = -1/2, and ``sum_j (I - Gamma)^j`` because
    ``Gamma - I`` lowers the vertical degree.  Exact (Fractions) when the
    stationary moments are.
    """
    mono = GradedPolynomial.monomial(G.n, G.m, alpha, gamma)
    out = term = _exp_series(G, None, Fraction(-1, 2), mono, ou=False)
    while True:
        term = term - gamma_shift(psi, term)
        if term.is_zero():
            return out
        out = out + term


def eigen_decomposition(G, psi, cap, t=1.0):
    """Eigenvalues ``exp(-k t)`` and eigenspaces of the perturbed

    Ornstein-Uhlenbeck semigroup on polynomials of degree <= cap.

    Level k holds the :func:`eigenfunction` of each degree-k monomial, in
    the order of ``monomial_basis``, with float coefficients; every returned
    polynomial is verified to satisfy the generator equation.
    """
    if psi is not None and not psi.is_trivial:
        psi.require_moments(cap)
    basis = monomial_basis(G.n, G.m, cap)
    out = []
    for k in range(cap + 1):
        polys = []
        for alpha, gamma in basis:
            if sum(alpha) + 2 * sum(gamma) != k:
                continue
            exact = eigenfunction(G, psi, alpha, gamma).terms
            p = GradedPolynomial(G.n, G.m,
                                 {key: float(exact[key]) for key in basis if key in exact})
            residual = ou_generator(G, psi, p) + p.scale(k)
            if residual.max_abs_coeff() > 1e-9 * max(1.0, p.max_abs_coeff()):
                raise ArithmeticError(
                    f"eigen candidate at level {k} fails the generator equation"
                )
            polys.append(p)
        out.append((math.exp(-k * t), polys))
    return out


# ---------------------------------------------------------------------------
# Euclidean comparison semigroups
# ---------------------------------------------------------------------------

def mehler_apply(f, t, points, nodes):
    """Ornstein-Uhlenbeck semigroup on R^n with generator

    ``Laplacian - <x, grad>`` via the Mehler representation

        P f(x) = E f(e^{-t} x + sqrt(1 - e^{-2t}) xi),  xi standard normal,

    by the tensor Gauss-Hermite rule with ``nodes`` nodes per axis, exact
    for polynomials of degree < 2 nodes.  n is ``points.shape[1]``; f takes
    an array whose last axis holds the coordinates.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    idx = np.stack(np.meshgrid(*[np.arange(nodes)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    xi, weights = x[idx], np.prod(w[idx], axis=1) / math.pi ** (n / 2)
    scale = math.sqrt(1.0 - math.exp(-2.0 * t)) * math.sqrt(2.0)
    return f(math.exp(-t) * pts[:, None, :] + scale * xi[None, :, :]) @ weights


def _deformed(psi, t, lam):
    """``exp(psi_t(lam))``, 1 for a trivial exponent."""
    if psi is None or psi.is_trivial:
        return 1.0
    return np.exp(np.asarray(psi.psi_t(t, lam), dtype=complex))


def euclidean_levy_ou_apply(psi, t, f_hat, v_points, reflected=False):
    """Vertical Levy-Ornstein-Uhlenbeck semigroup on the real line through

    its Fourier representation:

        P f(v) = (2 pi)^{-1} int f_hat(lam) e^{-i lam e^{-2t} v}
                                 exp(psi_t(s e^{-2t} lam)) d lam,

    with ``s = -1`` for the forward-driven process (dX = -2X dt + dY) and
    ``s = +1`` for the reflected drive (matching the stationary density
    convention of the kernel module).  For symmetric exponents the two
    coincide.
    """
    if psi is not None and psi.m != 1:
        raise UnsupportedOperationError("vertical transport implemented for m = 1")
    scale = (1.0 if reflected else -1.0) * math.exp(-2 * t)
    v = math.exp(-2 * t) * np.asarray(v_points, dtype=float)
    return invert_checked(lambda lam: (f_hat(lam) * _deformed(psi, t, scale * lam), None),
                          lambda lam: np.abs(f_hat(lam)), v)[0]


def convolve_fourier(f_hat, mult, v_points):
    """Evaluate ``f * kernel`` for a kernel with Fourier transform ``|mult| <= 1``."""
    return invert_checked(lambda lam: (f_hat(lam) * mult(lam), None),
                          lambda lam: np.abs(f_hat(lam)), v_points)[0]


# ---------------------------------------------------------------------------
# group Ornstein-Uhlenbeck semigroup on vertical test functions
# ---------------------------------------------------------------------------

def ou_apply_vertical(G, psi, t, f_hat, H, V):
    """Perturbed group Ornstein-Uhlenbeck semigroup applied to a vertical

    test function ``f(h, v) = phi(v)`` with known Fourier transform, on a
    set of horizontal points H (rows) and vertical points V:

        (P f)(h, v) = (2 pi)^{-1} int phi_hat(lam) e^{-i lam e^{-2t} v}
                      exp(psi_t(e^{-2t} lam)) Xi(e^{-t} h; lam) d lam,

    where Xi is the area characteristic function at horizon
    ``s = (1 - e^{-2t}) / 2`` (:func:`~carnot.kernels.mehler_area`).
    Matches the reflected-drive convention of the stationary density.
    Rows are computed once per radius class of H, as in ``invert_to_grid``,
    and the class nearest the origin is the self-check's probe row.
    """
    s = (1.0 - math.exp(-2.0 * t)) / 2.0
    profile = _HatProfile(heat_slice(G, s))
    zsq, _, inverse = profile.classes(np.atleast_2d(H))
    hsq = zsq * math.exp(-2.0 * t)

    def integrand(lam):
        sech, coef = mehler_area(profile.eta(lam), s)            # (L,), (L, d)
        rows = lambda lo, hi: sech[None, :] * np.exp(-np.einsum("nd,ld->nl", hsq[lo:hi], coef))
        return f_hat(lam) * _deformed(psi, t, math.exp(-2 * t) * lam), (len(hsq), rows)

    v = math.exp(-2 * t) * np.asarray(V, dtype=float)
    return invert_checked(integrand, lambda lam: np.abs(f_hat(lam)), v,
                          np.argmin(np.sum(hsq, axis=1)))[0][inverse]


# ---------------------------------------------------------------------------
# intertwining reports
# ---------------------------------------------------------------------------

@dataclass
class IntertwinerReport:
    pair: str
    test_id: str
    t: float
    residual: float
    tol: float
    grid_meta: dict = None      # DensityGrid.meta of the grid behind a grid residual

    @property
    def passed(self):
        return self.residual < self.tol

    def as_dict(self):
        return {
            "pair": self.pair,
            "test": self.test_id,
            "t": self.t,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
        }


def _poly_sup(p, q, nodes):
    vals = [abs(p.evaluate(h, v) - q.evaluate(h, v)) for h, v in nodes]
    return max(vals) if vals else 0.0


def _standard_nodes(G, rng, count=40):
    return [
        (rng.normal(scale=1.2, size=G.n), rng.normal(scale=1.2, size=G.m))
        for _ in range(count)
    ]


def intertwine_residual(pair, G, psi, t, test=None, seed=123, tol=None):
    """Evaluate both sides of one intertwining relation and report the

    sup residual over evaluation nodes.

    pair: "pi" (lift of the Mehler semigroup), "gamma" (vertical shift),
    "lp" (shift composed with the half-time heat operator against the
    dilation), "lambda" (projection onto the vertical layer), "tbk"
    (Euclidean drift-and-jump convolution), "mbeta" (hat-side oscillator
    multiplier).
    """
    rng = np.random.default_rng(seed)
    if pair == "pi":
        return _pi_residual(G, psi, t, test, rng, tol)
    if pair == "gamma":
        return _gamma_residual(G, psi, t, test, rng, tol)
    if pair == "lp":
        return _lp_residual(G, psi, t, test, rng, tol)
    if pair == "lambda":
        return _lambda_residual(G, psi, t, test, tol)
    if pair == "tbk":
        return _tbk_residual(psi, t, test, tol)
    if pair == "mbeta":
        return _mbeta_residual(G, psi, t, rng, tol)
    raise ValueError(f"unknown intertwiner pair {pair!r}")


def _pi_residual(G, psi, t, test, rng, tol):
    """Lifted horizontal functions: the group semigroup acts as the Mehler

    semigroup on them.  Polynomials run exactly on any n: the Mehler side
    takes ``ceil((deg + 1) / 2)`` Gauss-Hermite nodes per axis.  A Gaussian
    test function on R^2 runs through two quadratures.
    """
    test = test or "h1"
    if test in ("const", "h1", "hermite2"):
        if test == "const":
            p = GradedPolynomial.constant(G.n, G.m, 1)
        elif test == "h1":
            p = GradedPolynomial.h_var(G.n, G.m, 0)
        else:
            h1 = GradedPolynomial.h_var(G.n, G.m, 0)
            p = h1 * h1 - GradedPolynomial.constant(G.n, G.m, 1)
        op = SemigroupOperator("levy-ou" if psi is not None else "ou", G, psi, t)
        lhs = op.apply_to_polynomial(p)
        pts = np.array([rng.normal(size=G.n) for _ in range(30)])
        rhs_vals = mehler_apply(lambda x: p.evaluate(x, np.zeros(x.shape[:-1] + (G.m,))),
                                t, pts, (p.graded_degree() + 2) // 2)
        lhs_vals = np.array([lhs.evaluate(h, np.zeros(G.m)) for h in pts])
        res = float(np.max(np.abs(lhs_vals - rhs_vals)))
        return IntertwinerReport("pi", test, t, res, tol if tol else 1e-12)
    if test == "gaussian":
        a = 0.4
        f2 = lambda x, y: np.exp(-a * (x**2 + y**2))
        pts = np.array([rng.normal(size=2) for _ in range(20)])
        rhs = mehler_apply(lambda x: f2(x[..., 0], x[..., 1]), t, pts, 48)
        # kernel-side path: horizontal marginal of the group semigroup is the
        # heat flow at s = (1 - e^{-2t})/2 with per-coordinate variance 2s
        s = (1.0 - math.exp(-2 * t)) / 2.0
        nodes, weights = np.polynomial.hermite.hermgauss(60)
        shift = 2.0 * math.sqrt(s) * nodes      # sqrt(2 var) u with var = 2s
        w2 = np.outer(weights, weights).ravel() / math.pi
        s1, s2 = np.meshgrid(shift, shift, indexing="ij")
        vals = f2(
            math.exp(-t) * pts[:, 0][:, None] + s1.ravel()[None, :],
            math.exp(-t) * pts[:, 1][:, None] + s2.ravel()[None, :],
        )
        lhs = vals @ w2
        res = float(np.max(np.abs(lhs - rhs)))
        return IntertwinerReport("pi", test, t, res, tol if tol else 1e-4)
    raise ValueError(f"unsupported pi test {test!r}")


def _gamma_residual(G, psi, t, test, rng, tol):
    """``P_t Gamma = Gamma P^psi_t`` on polynomials, exactly."""
    p = _poly_test(G, test, rng)
    lhs = SemigroupOperator("ou", G, None, t).apply_to_polynomial(gamma_shift(psi, p))
    rhs = gamma_shift(psi, SemigroupOperator("levy-ou", G, psi, t).apply_to_polynomial(p))
    res = _poly_sup(lhs, rhs, _standard_nodes(G, rng))
    return IntertwinerReport("gamma", test or "poly", t, res, tol if tol else 1e-12)


def _lp_residual(G, psi, t, test, rng, tol):
    """``Q_{1/2} Gamma P^psi_t = (dilation pullback) Q_{1/2} Gamma`` on

    polynomials, exactly.
    """
    p = _poly_test(G, test, rng)
    evolved = SemigroupOperator("levy-ou", G, psi, t).apply_to_polynomial(p)
    lhs = _q_half_gamma(G, psi, evolved)
    rhs = _q_half_gamma(G, psi, p).dilate(math.exp(-t))
    res = _poly_sup(lhs, rhs, _standard_nodes(G, rng))
    return IntertwinerReport("lp", test or "poly", t, res, tol if tol else 1e-12)


def _poly_test(G, test, rng):
    if test == "v" or test is None:
        return GradedPolynomial.v_var(G.n, G.m, 0)
    if test == "v2":
        vv = GradedPolynomial.v_var(G.n, G.m, 0)
        return vv * vv
    if test == "mixed":
        h1 = GradedPolynomial.h_var(G.n, G.m, 0)
        vv = GradedPolynomial.v_var(G.n, G.m, 0)
        return h1 * h1 * vv + vv + h1
    if test == "random":
        terms = {}
        for _ in range(4):
            alpha = tuple(int(x) for x in rng.integers(0, 2, size=G.n))
            gamma = tuple(int(x) for x in rng.integers(0, 2, size=G.m))
            terms[(alpha, gamma)] = float(rng.integers(-3, 4))
        return GradedPolynomial(G.n, G.m, terms)
    raise ValueError(f"unsupported polynomial test {test!r}")


def _lambda_residual(G, psi, t, test, tol):
    """Projection onto the vertical layer against the vertical semigroup.

    Both sides are computed for a vertical Gaussian test function: the left
    side goes through the closed vertical marginal of the stationary heat
    kernel; the right side applies the group semigroup (area charfn route)
    and projects by quadrature against the inverted kernel grid.
    """
    if G.m != 1 or G.n != 2:
        raise UnsupportedOperationError(
            "lambda residual implemented on the first Heisenberg group"
        )
    a = 0.5 if test is None else float(test)
    f_hat = lambda lam: np.sqrt(2 * math.pi / (2 * a)) * np.exp(-(lam**2) / (4 * a))
    v_targets = np.linspace(-1.5, 1.5, 7)

    # left side: P^psi_t (Lambda f), with (Lambda f)^hat = f_hat * sech(lam/2)
    eta = _HatProfile(heat_slice(G, 0.5)).eta
    lhs = euclidean_levy_ou_apply(
        psi, t,
        lambda lam: f_hat(lam) * mehler_area(eta(lam), 0.5)[0],
        v_targets, reflected=True,
    )

    # right side: Lambda (P^psi_t f) by quadrature against the heat grid
    hx = np.linspace(-4.2, 4.2, 43)
    vx = np.linspace(-3.6, 3.6, 49)
    qgrid = invert_to_grid(heat_slice(G, 0.5), [hx, hx, vx], calibrate=False)
    H = np.stack([c.ravel() for c in np.meshgrid(hx, hx, indexing="ij")], axis=1)
    pf = ou_apply_vertical(G, psi, t, f_hat, H, (v_targets[:, None] + vx).ravel())
    pf = pf.reshape(len(hx), len(hx), len(v_targets), len(vx)) * qgrid.values[:, :, None, :]
    rhs = np.trapezoid(np.trapezoid(np.trapezoid(pf, vx), hx, axis=0), hx, axis=0)
    res = float(np.max(np.abs(lhs - rhs)))
    return IntertwinerReport("lambda", f"gaussian(a={a})", t, res, tol if tol else 1e-4)


def _tbk_residual(psi, t, test, tol):
    """Euclidean relation: the Gaussian-part semigroup after the

    drift-and-jump convolution equals the convolution after the full
    vertical semigroup.  All four operators run on the Fourier side.
    """
    if psi is None or psi.m != 1:
        raise UnsupportedOperationError("tbk residual needs a one-dimensional exponent")
    a = 0.5 if test is None else float(test)
    f_hat = lambda lam: np.sqrt(2 * math.pi / (2 * a)) * np.exp(-(lam**2) / (4 * a))
    psi_gauss = LevyExponent(sigma=psi.sigma.copy())
    psi_jump = LevyExponent(b=psi.b.copy(), jumps=psi.jumps, m=1)
    h_mult = lambda lam: np.exp(np.asarray(psi_jump.psi_limit(-lam), dtype=complex))
    v_targets = np.linspace(-2.0, 2.0, 9)
    # lhs: P^sigma_t (T f) -- convolution first, Gaussian flow second
    lhs = euclidean_levy_ou_apply(
        psi_gauss, t,
        lambda lam: f_hat(lam) * h_mult(lam),
        v_targets, reflected=False,
    )
    # rhs: T (P^psi_t f) -- full vertical flow in real space, then convolution
    def pf_hat(lam):
        # Fourier transform of P^psi_t f: e^{2t} f_hat(e^{2t} lam) e^{psi_t(-lam)}
        return (
            math.exp(2 * t)
            * f_hat(math.exp(2 * t) * lam)
            * np.exp(np.asarray(psi.psi_t(t, -lam), dtype=complex))
        )

    rhs = convolve_fourier(pf_hat, h_mult, v_targets)
    res = float(np.max(np.abs(lhs - rhs)))
    return IntertwinerReport("tbk", f"gaussian(a={a})", t, res, tol if tol else 1e-4)


def _mbeta_residual(G, psi, t, rng, tol):
    """Hat-side oscillator multiplier: the heat flow restricted to the

    beta-th Hermite layer acts on coefficient functions as multiplication
    by ``exp(-t n(beta, lam, nu))`` (times the vertical exponent factor
    when present).  The oscillator-diagonal path and the direct eigenvalue
    formula must agree on random frequencies and coefficients.
    """
    from .hermite import oscillator_semigroup_diag

    worst = 0.0
    for _ in range(25):
        lam = rng.normal(size=G.m) * 1.5
        fr = frame_at(G, lam)
        if fr.degenerate:
            continue
        nu = rng.normal(size=fr.k)
        beta = tuple(int(b) for b in rng.integers(0, 4, size=fr.d))
        coeff = complex(rng.normal(), rng.normal())
        scale = 1.0
        if psi is not None and not psi.is_trivial:
            scale = np.exp(t * complex(psi.psi(lam)))
        diag = oscillator_semigroup_diag(fr, nu, t, int(max(beta)) if beta else 0)
        lhs = coeff * scale * diag[beta]
        rhs = coeff * scale * math.exp(
            -t * (float(np.dot(2 * np.asarray(beta) + 1, fr.eta)) + float(np.dot(nu, nu)))
        )
        worst = max(worst, abs(lhs - rhs))
    return IntertwinerReport("mbeta", "multiplier", t, worst, tol if tol else 1e-12)


# ---------------------------------------------------------------------------
# adjoint eigenfunctions of the stationary semigroup
# ---------------------------------------------------------------------------

def coeigen_residual(G, psi, beta, t, test="v", axes=None, tol=1e-3):
    """Weak-form check of the adjoint eigenfunction relation: for the

    stationary density p and J = (-1)^{|beta|} d^beta_v p / p,

        int (P^psi_t f) J p = e^{-2 |beta| t} int f J p

    for test functions f.  ``J p`` is used directly as ``(-1)^{|beta|}
    d^beta_v p`` so no pointwise division is involved.
    """
    if G.m != 1 or G.n != 2:
        raise UnsupportedOperationError(
            "co-eigen residual implemented on the first Heisenberg group"
        )
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    if axes is None:
        axes = [np.linspace(-5.0, 5.0, 61), np.linspace(-5.0, 5.0, 61),
                np.linspace(-6.0, 6.0, 73)]
    hx, hy, vx = axes
    sl = invariant_slice(G, psi)

    def mult(lam_batch):
        return (-1j * lam_batch[:, 0]) ** beta[0]

    dgrid = invert_to_grid(sl, axes, calibrate=False, vertical_multiplier=mult)
    jp = (-1.0) ** beta[0] * dgrid.values     # J * p = (-1)^{|b|} d^b p

    H = np.stack([c.ravel() for c in np.meshgrid(hx, hy, indexing="ij")], axis=1)

    if test == "v":
        if beta[0] != 1:
            raise ValueError("polynomial test implemented for beta = (1,)")
        drift = psi.effective_drift()[0] if psi is not None and not psi.is_trivial else 0.0
        shift = -math.exp(-2 * t) * drift * (math.exp(2 * t) - 1.0) / 2.0
        pf_vals = (math.exp(-2 * t) * vx[None, None, :] + shift) * np.ones(
            (len(hx), len(hy), 1)
        )
        f_vals = vx[None, None, :] * np.ones((len(hx), len(hy), 1))
    else:
        if test == "bump":
            # off-center so the pairing with the odd co-eigenfunction is nonzero
            c = 0.8
            phi = lambda u: np.exp(-((u - c) ** 2))
            phi_hat = lambda lam: np.sqrt(math.pi) * np.exp(1j * lam * c - (lam**2) / 4.0)
        elif test == "antisymmetric":
            phi = lambda u: u * np.exp(-(u**2) / 2.0)
            phi_hat = lambda lam: 1j * lam * np.sqrt(2 * math.pi) * np.exp(-(lam**2) / 2.0)
        else:
            raise ValueError(f"unsupported co-eigen test {test!r}")
        pf_vals = ou_apply_vertical(G, psi, t, phi_hat, H, vx).reshape(len(hx), len(hy), len(vx))
        f_vals = (phi(vx)[None, None, :]) * np.ones((len(hx), len(hy), 1))

    def integ(arr):
        return float(np.trapezoid(np.trapezoid(np.trapezoid(arr * jp, vx), hy), hx))

    lhs = integ(pf_vals)
    rhs = integ(f_vals)
    ratio = lhs / rhs
    res = abs(ratio - math.exp(-2 * sum(beta) * t)) / math.exp(-2 * sum(beta) * t)
    return IntertwinerReport("coeigen", f"{test},beta={beta}", t, res, tol, grid_meta=dgrid.meta)


# ---------------------------------------------------------------------------
# stationary-measure linear algebra
# ---------------------------------------------------------------------------

def weighted_gram(G, psi, cap=2):
    """Gram matrix ``E_mu[b_i b_j]`` of the graded monomial basis under the

    stationary law, exact through :func:`stationary_expectation`; each
    distinct product monomial is integrated once.
    """
    basis = monomial_basis(G.n, G.m, cap)
    monos = [GradedPolynomial.monomial(G.n, G.m, a, g) for a, g in basis]
    moments = {}
    gram = np.empty((len(basis), len(basis)))
    for i in range(len(basis)):
        for j in range(i + 1):
            prod = monos[i] * monos[j]
            (key,) = prod.terms
            if key not in moments:
                moments[key] = float(stationary_expectation(G, psi, prod))
            gram[i, j] = gram[j, i] = moments[key]
    return basis, gram


def nonnormality_witness(G, psi, t=1.0, cap=3):
    """Commutator norm ``|M* M - M M*|`` of the semigroup matrix on the

    polynomials of degree <= cap with the stationary inner product.

    The degree-2 compression is exactly normal (its eigenfunctions are
    mutually orthogonal under the stationary law), so the witness is taken
    on degree 3, where eigenfunctions with distinct eigenvalues overlap:
    e.g. ``<h2 v - h1/2, h1> = -1/2`` on the first Heisenberg group.
    """
    basis, gram = weighted_gram(G, psi, cap=cap)
    _, M = operator_matrix(lambda p: _exp_series(G, psi, t, p, ou=True), G.n, G.m, cap)
    gram_inv = np.linalg.inv(gram)
    M_adj = gram_inv @ M.T @ gram
    comm = M_adj @ M - M @ M_adj
    return float(np.linalg.norm(comm))
