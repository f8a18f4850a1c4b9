import math

import numpy as np
import pytest

from carnot.errors import AccuracyError, DegenerateFrameError, UnsupportedOperationError
from carnot._quadrature import (composite_gl_edges, gauss_legendre, half_line_rule,
                                oscillatory_rule)
from carnot.groups import CarnotGroup, free_step2, h_type, heisenberg
from carnot import kernels, semigroups
from carnot.kernels import (
    DensityGrid,
    _HatProfile,
    _simpson_weights,
    co_eigenfunction,
    fourier_invert,
    group_convolve,
    heat_hat,
    heat_slice,
    invariant_hat,
    invariant_slice,
    invert_to_grid,
    mehler_area,
    mehler_hat,
    perturbed_hat,
    perturbed_slice,
    vertical_charfn,
)
from carnot.levy import AtomJumps, CompoundPoisson, LevyExponent, NormalDist, StableJumps

H1 = heisenberg(1)
PSI_GAUSS = LevyExponent(sigma=[[1.0]])
PSI_CP = LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1)


def test_heat_hat_value():
    # 1 / (2 sinh 0.5) with sinh 0.5 = 0.5210953...
    got = heat_hat(H1, 0.5, [0.0, 0.0], [1.0])
    assert got == pytest.approx(1.0 / (2 * math.pi) / (2 * math.sinh(0.5)), rel=1e-12)
    assert 1.0 / (2 * math.sinh(0.5)) == pytest.approx(0.9595174, abs=1e-6)


def test_heat_hat_small_lambda_limit():
    t = 0.7
    got = heat_hat(H1, t, [0.0, 0.0], [1e-9])
    assert got == pytest.approx((2 * math.pi) ** (-1) * (2 * t) ** (-1), rel=1e-7)


def test_heat_hat_scaling():
    # hat(t, z, lam, nu) = c^{2d} hat(c^2 t, c z, lam / c^2, nu / c)
    rng = np.random.default_rng(30)
    for G in (H1, free_step2(3)):
        for _ in range(10):
            t = float(rng.uniform(0.2, 2.0))
            c = float(rng.uniform(0.5, 2.0))
            lam = rng.normal(size=G.m)
            z = rng.normal(size=2 * G.d)
            nu = rng.normal(size=G.k)
            lhs = heat_hat(G, t, z, lam, nu)
            rhs = c ** (2 * G.d) * heat_hat(G, c * c * t, c * z, lam / c**2, nu / c)
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_heat_hat_rejects_degenerate():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
    A2 = np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), J]])
    G = CarnotGroup(4, 2, [A1, A2])
    with pytest.raises(DegenerateFrameError):
        heat_hat(G, 0.5, np.zeros(4), [1.0, 0.0])


def test_perturbed_hat_factor():
    z, lam, t = [0.3, -0.2], [1.0], 1.0
    base = heat_hat(H1, t, z, lam)
    assert perturbed_hat(H1, None, t, z, lam) == pytest.approx(base)
    got = perturbed_hat(H1, PSI_GAUSS, t, z, lam)
    assert got == pytest.approx(base * math.exp(-1.0), rel=1e-12)


def test_invariant_hat_factor():
    z, lam = [0.1, 0.4], [1.3]
    base = heat_hat(H1, 0.5, z, lam)
    assert invariant_hat(H1, None, z, lam) == pytest.approx(base)
    got = invariant_hat(H1, PSI_GAUSS, z, lam)
    assert got == pytest.approx(base * math.exp(-(1.3**2) / 4.0), rel=1e-12)
    # symmetric exponent keeps the hat real and positive
    got_cp = invariant_hat(H1, PSI_CP, z, lam)
    assert got_cp.imag == pytest.approx(0.0, abs=1e-14) and got_cp.real > 0


def test_invariant_hat_requires_log_moment():
    class HeavyTail(CompoundPoisson):
        in_N_log = False

    psi = LevyExponent(jumps=HeavyTail(1.0, NormalDist([0.0], [[1.0]])), m=1)
    with pytest.raises(UnsupportedOperationError):
        invariant_slice(H1, psi)
    with pytest.raises(UnsupportedOperationError):
        invariant_hat(H1, psi, [0.0, 0.0], [1.0])


@pytest.mark.parametrize("psi", [None, PSI_GAUSS])
def test_marginal_identity(psi):
    # integrate the inverted kernel over v and compare with the Euclidean
    # heat kernel of the horizontal Laplacian
    t = 0.5
    sl = heat_slice(H1, t) if psi is None else perturbed_slice(H1, psi, t)
    hx = np.linspace(-2.0, 2.0, 5)
    hy = np.linspace(-1.5, 1.5, 4)
    v = np.linspace(-9.0, 9.0, 241)
    grid = invert_to_grid(sl, [hx, hy, v], calibrate=False)
    marg = np.trapezoid(grid.values, v, axis=2)
    X, Y = np.meshgrid(hx, hy, indexing="ij")
    euclid = (4 * math.pi * t) ** (-1) * np.exp(-(X**2 + Y**2) / (4 * t))
    assert np.max(np.abs(marg - euclid)) < 1e-5


def test_mass_and_positivity_and_symmetry():
    sl = heat_slice(H1, 0.5)
    ax = [np.linspace(-4.5, 4.5, 41), np.linspace(-4.5, 4.5, 41), np.linspace(-5, 5, 41)]
    grid = invert_to_grid(sl, ax)
    assert abs(grid.mass() - 1.0) < 1e-3
    assert abs(1.0 / grid.meta["c_norm"] - 1.0) < 5e-3  # convention check
    assert grid.values.min() > -1e-8
    # even in v
    assert np.max(np.abs(grid.values - grid.values[:, :, ::-1])) < 1e-10


def test_charfn_consistency():
    sl = heat_slice(H1, 0.5)
    ax = [np.linspace(-6.5, 6.5, 66), np.linspace(-6.5, 6.5, 66), np.linspace(-8, 8, 81)]
    grid = invert_to_grid(sl, ax, calibrate=False)
    for lam in (0.5, 1.0):
        phases = np.exp(1j * lam * ax[2])[None, None, :]
        got = np.trapezoid(
            np.trapezoid(np.trapezoid(grid.values * phases, ax[2]), ax[1]), ax[0]
        )
        exact = vertical_charfn(H1, None, 0.5, lam)
        assert abs(got - exact) / abs(exact) < 1e-5


def _point_value(slice_, h, v):
    # the kernel at one point (h, v): a one-point grid
    axes = [np.array([c]) for c in h] + [np.array([v])]
    return float(invert_to_grid(slice_, axes, calibrate=False).values.ravel()[0])


def test_space_time_scaling_realspace():
    rng = np.random.default_rng(31)
    sl1 = heat_slice(H1, 1.0)
    for _ in range(5):
        t = float(rng.uniform(0.3, 2.0))
        h = rng.normal(size=2)
        v = float(rng.normal())
        lhs = _point_value(heat_slice(H1, t), h, v)
        rhs = t ** (-(H1.n + 2 * H1.m) / 2) * _point_value(sl1, h / math.sqrt(t), v / t)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_vertical_convolution_identity():
    # hat of (f *_v mu) = charfn(mu)(lam) * hat(f) for an atomic mu, with the
    # convolution executed in real space on the grid
    sl = heat_slice(H1, 0.5)
    v = np.linspace(-10, 10, 201)
    hx = np.array([0.0, 0.5])
    hy = np.array([0.0])
    grid = invert_to_grid(sl, [hx, hy, v], calibrate=False)
    shift = 0.5  # multiple of the v step (0.1)
    w1, w2 = 0.7, 0.3
    steps = int(round(shift / (v[1] - v[0])))
    conv = np.zeros_like(grid.values)
    conv[:, :, steps:] += w1 * grid.values[:, :, :-steps]
    conv[:, :, :-steps] += w2 * grid.values[:, :, steps:]
    for lam in (0.4, 1.1):
        phases = np.exp(1j * lam * v)[None, None, :]
        lhs = np.trapezoid(conv * phases, v, axis=2)
        charfn = w1 * np.exp(1j * lam * shift) + w2 * np.exp(-1j * lam * shift)
        rhs = charfn * np.trapezoid(grid.values * phases, v, axis=2)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_vertical_charfn_perturbed():
    lam, t = 1.0, 1.0
    got = vertical_charfn(H1, PSI_CP, t, lam)
    expected = math.exp(3.0 * (math.exp(-0.5) - 1.0)) / math.cosh(1.0)
    assert got.real == pytest.approx(expected, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-14)


def test_mehler_hat_integrates_to_area_profile():
    # int hat dz over the planes = exp(log amp) prod_j pi / coef_j = prod_j sech(eta_j t)
    rng = np.random.default_rng(33)
    for d in (1, 2, 3):
        eta = rng.uniform(0.05, 8.0, size=(50, d))
        t = rng.uniform(0.01, 5.0, size=(50, 1))
        log_amp, coef = mehler_hat(eta, t)
        sech, _ = mehler_area(eta, t)
        assert np.max(eta * t) > 20.0
        integral = np.exp(log_amp + np.sum(np.log(math.pi / coef), axis=-1))
        assert np.allclose(integral, sech, rtol=1e-12, atol=0.0)
    # closed forms where the direct sinh/cosh expressions do not overflow
    eta, t = rng.uniform(0.1, 4.0, size=(20, 2)), 1.3
    log_amp, coef = mehler_hat(eta, t)
    direct = np.prod(eta / (2 * math.pi * 2 * np.sinh(eta * t)), axis=-1)
    assert np.allclose(np.exp(log_amp), direct, rtol=1e-12, atol=0.0)
    assert np.allclose(coef, eta / np.tanh(eta * t) / 4, rtol=1e-14, atol=0.0)
    sech, area_coef = mehler_area(eta, t)
    assert np.allclose(sech, np.prod(1 / np.cosh(eta * t), axis=-1), rtol=1e-14, atol=0.0)
    assert np.allclose(area_coef, eta * np.tanh(eta * t) / 4, rtol=1e-14, atol=0.0)
    # eta t = 40 exactly: the hat amplitude stays finite
    log_amp, coef = mehler_hat(np.array([40.0]), 1.0)
    sech, _ = mehler_area(np.array([40.0]), 1.0)
    assert math.exp(log_amp + math.log(math.pi / coef[0])) == pytest.approx(sech, rel=1e-12)


def test_fourier_invert_gaussian_closed_form():
    # (2 pi)^{-1} int e^{-a lam^2} e^{-i lam v} dlam = (4 pi a)^{-1/2} e^{-v^2 / (4 a)},
    # from the half line lam > 0 of the even integrand
    lam, w = composite_gl_edges(np.linspace(0.0, 40.0, 101), 8)
    v = np.linspace(-6.0, 6.0, 13)
    one = fourier_invert(np.exp(-0.25 * lam**2), None, lam, w, v)
    assert one.shape == v.shape
    assert np.max(np.abs(one - np.exp(-(v**2)) / math.sqrt(math.pi))) < 1e-12
    # 5200 rows run in two chunks of the 4e6-entry budget
    a = np.linspace(0.0, 1.0, 5200)
    rows = (len(a), lambda lo, hi: np.exp(-a[lo:hi, None] * lam[None, :] ** 2))
    got = fourier_invert(np.exp(-0.25 * lam**2), rows, lam, w, v)
    aa = 0.25 + a[:, None]
    exact = np.exp(-(v[None, :] ** 2) / (4 * aa)) / np.sqrt(4 * math.pi * aa)
    assert got.shape == (len(a), len(v))
    assert np.max(np.abs(got - exact)) < 1e-12


# a drifted, asymmetric exponent: psi is complex, so the envelopes have an
# imaginary part and the sine half of the inversion is exercised
PSI_SKEW = LevyExponent(sigma=[[0.5]], b=[0.5],
                        jumps=CompoundPoisson(2.0, NormalDist([0.7], [[1.0]])), m=1)


def _mirror(lam, w):
    return np.concatenate([-lam[::-1], lam]), np.concatenate([w[::-1], w])


def _use_two_sided(monkeypatch):
    """Swap the half-line inversion for the two-sided complex formula

    ``(2 pi)^{-1} sum_k w_k F(lam_k) e^{-i lam_k v}`` on the mirrored rules,
    so that the callers evaluate their integrands at -lam as well.  Records
    the largest imaginary part of the result relative to its real part.
    """
    imag = []

    def complex_invert(envelope, rows, lam, w, v):
        phase = np.exp(-1j * np.outer(lam, v))
        factor = 1.0 if rows is None else rows[1](0, rows[0])
        out = (factor * envelope * w) @ phase / (2 * math.pi)
        imag.append(np.max(np.abs(out.imag)) / np.max(np.abs(out.real)))
        return out.real

    def mirrored(bound, vmax):
        lam, w, cutoff = half_line_rule(bound, vmax)
        return (*_mirror(lam, w), cutoff)

    # the one rule and its halved refinement, both mirrored to lam < 0
    monkeypatch.setattr(kernels, "half_line_rule", mirrored)
    monkeypatch.setattr(kernels, "oscillatory_rule", lambda *a, **kw: _mirror(
        *oscillatory_rule(*a, **kw)))
    monkeypatch.setattr(kernels, "fourier_invert", complex_invert)
    return imag


def _grid_axes():
    return [np.linspace(-2.0, 2.0, 7), np.linspace(-1.5, 2.5, 6), np.linspace(-3.0, 2.0, 11)]


def _bump_hat(lam):
    # off-centre bump exp(-(u - 0.8)^2): a complex, Hermitian transform
    return np.sqrt(math.pi) * np.exp(1j * 0.8 * lam - lam**2 / 4.0)


def _callers():
    x = np.linspace(-1.5, 1.5, 5)
    H = np.stack([c.ravel() for c in np.meshgrid(x, x, indexing="ij")], axis=1)
    V = np.linspace(-2.0, 2.5, 9)
    gauss_hat = lambda lam: np.sqrt(math.pi) * np.exp(-(lam**2) / 4.0)
    jump_mult = lambda lam: np.exp(np.asarray(PSI_SKEW.psi_limit(-lam), dtype=complex))
    return {
        "grid-heat": lambda: invert_to_grid(heat_slice(H1, 0.6), _grid_axes()).values,
        "grid-perturbed": lambda: invert_to_grid(perturbed_slice(H1, PSI_SKEW, 0.6),
                                                 _grid_axes()).values,
        "grid-atoms": lambda: invert_to_grid(
            perturbed_slice(H1, LevyExponent(jumps=AtomJumps([[1.5], [-0.4]], [0.8, 2.0]), m=1),
                            0.4), _grid_axes()).values,
        "grid-invariant": lambda: invert_to_grid(invariant_slice(H1, PSI_SKEW),
                                                 _grid_axes()).values,
        "grid-coeigen": lambda: invert_to_grid(
            invariant_slice(H1, PSI_SKEW), _grid_axes(), calibrate=False,
            vertical_multiplier=lambda lb: -1j * lb[:, 0]).values,   # (-i lam)^beta, beta = 1
        "grid-one-point": lambda: [_point_value(perturbed_slice(H1, PSI_SKEW, 0.6),
                                                [0.3, -0.5], v) for v in (-1.2, 0.0, 0.7)],
        "ou-apply-vertical": lambda: semigroups.ou_apply_vertical(
            H1, PSI_SKEW, 0.4, _bump_hat, H, V),
        "euclidean-ou": lambda: np.concatenate([
            semigroups.euclidean_levy_ou_apply(PSI_SKEW, 0.4, _bump_hat, V, reflected=r)
            for r in (False, True)]),
        "convolve-fourier": lambda: semigroups.convolve_fourier(gauss_hat, jump_mult, V),
    }


@pytest.mark.parametrize("caller", sorted(_callers()))
def test_half_line_inversion_matches_two_sided_complex(caller, monkeypatch):
    # the half-line result of every caller against the two-sided complex
    # formula on the mirrored rule, with the integrand evaluated at -lam
    half = np.asarray(_callers()[caller]())
    imag = _use_two_sided(monkeypatch)
    full = np.asarray(_callers()[caller]())
    assert half.dtype == np.float64 and half.shape == full.shape
    assert np.max(np.abs(half - full)) <= 1e-13 * np.max(np.abs(full))
    # the two-sided result is real: the integrand is Hermitian
    assert imag and max(imag) < 1e-13


def test_invert_to_grid_records_lambda_rule():
    grid = invert_to_grid(heat_slice(H1, 0.6), _grid_axes())
    lam, w, cutoff = half_line_rule(_HatProfile(heat_slice(H1, 0.6)).bound, 3.0)
    assert grid.meta["lam_nodes"] == len(lam) and grid.meta["lam_cutoff"] == cutoff
    # the half rule: nodes inside (0, cutoff), weights summing to its length
    assert 0.0 < lam.min() and lam.max() < cutoff
    assert math.isclose(w.sum(), cutoff, rel_tol=1e-13)


def _quarter_period_rule(limit, vmax):
    # panels a quarter period pi/(2 vmax) wide, with the same origin grading
    width = min(1.0, math.pi / (2.0 * vmax))
    edges = np.linspace(0.0, limit, max(2, math.ceil(limit / width)) + 1)
    graded = edges[1] * 4.0 ** -np.arange(10, 0, -1)
    return composite_gl_edges(np.concatenate([[0.0], graded, edges[1:]]), 12)


def _grid_cases():
    cp_psi = LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1)
    h2_axes = [np.linspace(-2.0, 2.0, 5)] * 4 + [np.linspace(-4.0, 3.0, 15)]
    return {
        "heat": lambda: invert_to_grid(heat_slice(H1, 0.6), _grid_axes()),
        "cp": lambda: invert_to_grid(perturbed_slice(H1, cp_psi, 0.5), _grid_axes()),
        "skew": lambda: invert_to_grid(perturbed_slice(H1, PSI_SKEW, 0.6), _grid_axes()),
        "invariant": lambda: invert_to_grid(invariant_slice(H1, PSI_SKEW), _grid_axes()),
        "coeigen": lambda: invert_to_grid(invariant_slice(H1, PSI_SKEW), _grid_axes(),
                                          calibrate=False,
                                          vertical_multiplier=lambda lb: -1j * lb[:, 0]),
        "h2": lambda: invert_to_grid(heat_slice(heisenberg(2), 0.5), h2_axes),
    }


@pytest.mark.parametrize("case", sorted(_grid_cases()))
def test_full_period_rule_matches_quarter_period_rule(case, monkeypatch):
    # panels one period 2 pi / vmax wide against the former quarter-period
    # panels on the same cutoff; the node-doubling estimate reads roundoff
    grid = _grid_cases()[case]()
    assert grid.meta["lam_err"] <= 1e-12
    def quarter(bound, vmax):
        cutoff = half_line_rule(bound, vmax)[2]
        return (*_quarter_period_rule(cutoff, vmax), cutoff)

    monkeypatch.setattr(kernels, "half_line_rule", quarter)
    ref = _grid_cases()[case]()
    assert ref.meta["lam_nodes"] > grid.meta["lam_nodes"]
    assert np.max(np.abs(grid.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))


def test_lambda_rule_self_check_raises():
    # cos(40 lam) oscillates ~13 times faster than the v <= 3 rule resolves
    with pytest.raises(AccuracyError, match="doubling its nodes"):
        invert_to_grid(heat_slice(H1, 0.5), _grid_axes()[:2] + [np.linspace(-3.0, 3.0, 31)],
                       vertical_multiplier=lambda lb: np.cos(40.0 * lb[:, 0]))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_stable_exponents_pass_the_self_check(alpha):
    # the |lam|^alpha cusp at lam = 0 is resolved by the origin grading
    psi = LevyExponent(jumps=StableJumps(alpha), m=1)
    axes = _grid_axes()[:2] + [np.linspace(-2.0, 2.0, 21)]
    grid = invert_to_grid(perturbed_slice(H1, psi, 0.5), axes, calibrate=False)
    assert grid.meta["lam_err"] <= 1e-10


@pytest.mark.parametrize("bound", ["heat-0.5", "heat-1", "gaussian"])
def test_cutoff_is_the_bisection_root(bound):
    # the cutoff solves bound(lam) = 1e-12 bound(0+) for these decreasing bounds
    from scipy.optimize import brentq

    fn = {"heat-0.5": _HatProfile(heat_slice(H1, 0.5)).bound,
          "heat-1": _HatProfile(heat_slice(H1, 1.0)).bound,
          "gaussian": lambda lam: np.sqrt(math.pi) * np.exp(-lam**2 / 4)}[bound]
    level = 1e-12 * fn(np.array([2.0**-20]))[0]
    root = brentq(lambda x: fn(np.array([x]))[0] - level, 1.0, 1e3, xtol=1e-12)
    assert abs(half_line_rule(fn, 3.0)[2] - root) <= 1e-6


@pytest.mark.parametrize("edges, n", [
    (np.concatenate([[0.0], 0.25 ** np.arange(10, 0, -1), np.linspace(1.0, 63.7, 12)]), 12),
    (np.concatenate([[0.0], 2.0 ** np.arange(-12, 1)]), 16),
    ([-3.0, -2.9, 0.1, 0.125, 7.0], 5),
])
def test_composite_rule_is_the_concatenated_panel_rules(edges, n):
    # the one broadcast over panels is each panel's gauss_legendre, bit for bit
    lam, w = composite_gl_edges(edges, n)
    panels = [gauss_legendre(lo, hi, n) for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.array_equal(lam, np.concatenate([x for x, _ in panels]))
    assert np.array_equal(w, np.concatenate([wt for _, wt in panels]))


def test_inversion_rejects_m2_h_type_group():
    # two anticommuting complex structures on R^4: an H-type group with m = 2
    J1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    J2 = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]
    G = h_type([J1, J2])
    with pytest.raises(UnsupportedOperationError, match="m = 1"):
        invert_to_grid(heat_slice(G, 0.5), [np.linspace(-1, 1, 3)] * 6)
    assert vertical_charfn(G, None, 0.5, [0.6, 0.8]) == pytest.approx(1 / math.cosh(0.5) ** 2)


def test_inversion_rejects_general_group():
    G = free_step2(3)  # m = 3, lam-dependent frames
    with pytest.raises(UnsupportedOperationError):
        invert_to_grid(heat_slice(G, 0.5), [np.linspace(-1, 1, 3)] * 6)


RADICAL = CarnotGroup(3, 1, [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]])


def _sample_rows(shape, rng, count=10):
    # random points and their mirror images, which share a radius class
    idx = [tuple(int(rng.integers(0, n)) for n in shape) for _ in range(count)]
    return idx + [tuple(n - 1 - i for n, i in zip(shape, ix)) for ix in idx]


@pytest.mark.parametrize("case", ["heat-h1", "invariant-multiplier-h1", "radical", "h2"])
def test_grid_rows_equal_one_point_grids(case):
    # the hat is inverted once per radius class and copied to every point of
    # the class; each copied row must be the row of its own one-point grid
    v = np.linspace(-3.0, 3.0, 21)
    vm = None

    def axis(*base):
        # symmetric, with near-duplicate nodes whose radii differ by 1e-5 and
        # 1e-10: those points share a class only if the keys are too coarse
        base = np.array((0.0,) + base)
        return np.concatenate([-base[:0:-1], base])

    h1_axes = [axis(0.4, 1.1, 1.1 + 1e-5, 1.8, 1.8 + 1e-10, 2.6)] * 2
    if case == "heat-h1":
        sl, h_axes = heat_slice(H1, 0.5), h1_axes
    elif case == "invariant-multiplier-h1":
        sl, h_axes = invariant_slice(H1, PSI_GAUSS), h1_axes
        vm = lambda lam_batch: -1j * lam_batch[:, 0]
    elif case == "radical":
        sl, h_axes = heat_slice(RADICAL, 0.7), [axis(1.1, 1.1 + 1e-5, 1.1 + 1e-10)] * 3
    else:
        sl, h_axes = heat_slice(heisenberg(2), 0.5), [axis(1.1, 1.1 + 1e-10)] * 4
    grid = invert_to_grid(sl, h_axes + [v], calibrate=False, vertical_multiplier=vm)
    scale = np.max(np.abs(grid.values))
    rng = np.random.default_rng(33)
    for ix in _sample_rows(grid.values.shape[:-1], rng):
        point = [[ax[i]] for ax, i in zip(h_axes, ix)]
        one = invert_to_grid(sl, point + [v], calibrate=False, vertical_multiplier=vm)
        assert np.max(np.abs(grid.values[ix] - one.values.ravel())) <= 1e-13 * scale


def test_co_eigenfunction_beta_zero():
    ax = [np.linspace(-3, 3, 9), np.linspace(-3, 3, 9), np.linspace(-3, 3, 11)]
    J = co_eigenfunction(H1, None, [0], ax)
    assert np.allclose(J.values, 1.0)


def test_co_eigenfunction_antisymmetry():
    ax = [np.linspace(-3, 3, 13), np.linspace(-3, 3, 13), np.linspace(-3, 3, 25)]
    J = co_eigenfunction(H1, None, [1], ax)
    assert J.meta["masked"] == 0
    flipped = J.values[:, :, ::-1]
    assert np.max(np.abs(J.values + flipped)) < 1e-8


def test_co_eigenfunction_finite_difference():
    # Fourier-side vertical derivative against a centered finite difference
    ax = [np.linspace(-2, 2, 5), np.linspace(-2, 2, 5), np.linspace(-2, 2, 9)]
    psi = PSI_GAUSS
    J = co_eigenfunction(H1, psi, [1], ax)
    dens = J.meta["density"]
    sl = invariant_slice(H1, psi)
    eps = 1e-4
    rng = np.random.default_rng(32)
    for _ in range(10):
        i = rng.integers(0, 5)
        j = rng.integers(0, 5)
        k = rng.integers(2, 7)
        h = np.array([ax[0][i], ax[1][j]])
        v0 = ax[2][k]
        fd = (_point_value(sl, h, v0 + eps) - _point_value(sl, h, v0 - eps)) / (2 * eps)
        fd *= dens.meta["c_norm"]
        fourier_side = -J.values[i, j, k] * dens.values[i, j, k]
        assert fd == pytest.approx(fourier_side, rel=1e-5, abs=1e-12)


def test_group_convolution_semigroup_smoke():
    # coarse version of the kernel semigroup identity
    ax = [np.linspace(-4, 4, 27), np.linspace(-4, 4, 27), np.linspace(-3.5, 3.5, 29)]
    q1 = invert_to_grid(heat_slice(H1, 0.5), ax, calibrate=False)
    q2 = invert_to_grid(heat_slice(H1, 1.0), ax, calibrate=False)
    conv = group_convolve(H1, q1, q1)
    assert conv.meta["fft_len"] == 40           # 2 n_1 - 1 = 53 is prime
    assert np.max(np.abs(conv.values - q2.values)) < 2e-3


def _reference_group_convolve(G, grid_f, grid_g):
    # a direct sum over the pairs (x, y) with x, y and x - y on the grid: the
    # vertical linear convolution of each pair, sampled at x_v - omega(y, x)/2
    # by the Dirichlet kernel D(u) = sin(pi u)/(Lp sin(pi u/Lp)) of period Lp,
    # with Lp by the rule of group_convolve and max |c| over all the pairs
    ax = grid_f.axes
    f, g = grid_f.values, grid_g.values
    (n1, n2, nv), L = f.shape, 2 * f.shape[2] - 1
    w1, w2, wv = (_simpson_weights(a) for a in ax)
    dv = ax[2][1] - ax[2][0]
    idx = np.array(list(np.ndindex(n1, n2)))
    pts = np.column_stack([ax[0][idx[:, 0]], ax[1][idx[:, 1]]])
    z = idx[None, :] - idx[:, None] + [int(round(-a[0] / (a[1] - a[0]))) for a in ax[:2]]
    occurs = np.all((z >= 0) & (z < [n1, n2]), axis=-1)            # [y, x]
    c = 0.5 * G.omega(pts[:, None, :], pts[None, :, :])[..., 0]
    Lp = L + 2 * math.ceil(np.max(np.abs(c[occurs])) / dv)
    # block cell k read at x_v[j] - c sits at j - k + (-x_v[0] - c)/dv
    j_minus_k = np.arange(nv)[:, None] - np.arange(L)[None, :] + L - 1
    out = np.zeros((n1 * n2, nv))
    for (i1, i2), zy, cy, ok in zip(idx, z, c, occurs):
        blocks = np.array([np.convolve(wv * f[i1, i2], g[k1, k2]) for k1, k2 in zy[ok]])
        u = np.arange(1 - L, nv)[None, :] + (-ax[2][0] - cy[ok, None]) / dv
        with np.errstate(invalid="ignore"):
            kernel = np.where(u == 0, 1.0, np.sin(np.pi * u) / (Lp * np.sin(np.pi * u / Lp)))
        out[ok] += w1[i1] * w2[i2] * np.einsum("pk,pjk->pj", blocks, kernel[:, j_minus_k])
    return out.reshape(f.shape), Lp


@pytest.mark.parametrize("h_axes, v", [
    # f != g, odd vertical count
    ((np.linspace(-4, 4, 17), np.linspace(-4, 4, 17)), np.linspace(-1.95, 1.95, 23)),
    # even vertical count (trapezoid weights), off-centre origin nodes
    ((np.linspace(-3, 4.5, 16), np.linspace(-4, 3, 15)), np.linspace(-1.95, 1.95, 20)),
    # the origin at an end of each horizontal axis: the y_1 FFT length bound
    # max(2 n_1 - 1 - mid_1, mid_1 + n_1) reaches 2 n_1 - 1 = 25, a fast length
    ((np.linspace(0, 3, 13), np.linspace(-3, 0, 13)), np.linspace(-1.4, 1.4, 15)),
    ((np.linspace(-3, 0, 13), np.linspace(0, 3, 13)), np.linspace(-1.4, 1.4, 14)),
])
def test_group_convolve_matches_direct_pair_sum(h_axes, v):
    # max |c| = max |omega(y, x)|/2 > 3 max|v|: most shifted samples leave the
    # vertical axis, and the period Lp must hold them without wrapping.  The
    # even vertical count puts x_v[0] half a cell off the convolution nodes.
    # The reference sums the pairs directly, so a y_1 FFT length too short to
    # keep the read entries clean of wrapped terms shows here
    ax = list(h_axes) + [v]
    f = invert_to_grid(heat_slice(H1, 0.5), ax, calibrate=False)
    g = invert_to_grid(perturbed_slice(H1, PSI_GAUSS, 0.5), ax, calibrate=False)
    pts = np.stack([c.ravel() for c in np.meshgrid(*h_axes, indexing="ij")], axis=1)
    y, x = pts[:, None, :], pts[None, :, :]
    inside = np.all((x - y >= pts.min(axis=0) - 1e-9) & (x - y <= pts.max(axis=0) + 1e-9), axis=-1)
    c = 0.5 * np.abs(y[..., 0] * x[..., 1] - y[..., 1] * x[..., 0])
    assert np.max(c[inside]) > 3 * np.max(np.abs(v))
    conv = group_convolve(H1, f, g)
    ref, Lp = _reference_group_convolve(H1, f, g)
    assert conv.meta["Lp"] == Lp
    assert np.max(np.abs(conv.values - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(conv.values - group_convolve(H1, g, f).values)) > 1e-6 * np.max(np.abs(ref))


def _fft_group_convolve(G, grid_f, grid_g, Lp):
    # group_convolve with its v transforms as numpy rfft/irfft of length Lp
    x1, x2, xv = grid_f.axes
    (n1, n2, nv), dv = grid_f.values.shape, xv[1] - xv[0]
    mid1, mid2 = (int(round(-a[0] / (a[1] - a[0]))) for a in (x1, x2))
    w1, w2, wv = (_simpson_weights(a) for a in grid_f.axes)
    a = float(G.omega(np.eye(2)[0], np.eye(2)[1])[0])
    kappa = np.arange(Lp // 2 + 1)
    theta = math.pi * a * kappa / (dv * Lp)
    F = np.fft.rfft(grid_f.values * wv, Lp, axis=2) * np.outer(w1, w2)[..., None]
    F = np.ascontiguousarray(F.transpose(2, 1, 0))
    G_fft = np.fft.fft(np.fft.rfft(grid_g.values[:, ::-1], Lp, axis=2).transpose(2, 1, 0),
                       2 * n1 - 1)
    phase_y2x1 = np.exp(1j * theta[:, None, None] * np.multiply.outer(x2, x1))
    spec = np.empty((n1, n2, len(kappa)), dtype=complex)
    for i2 in range(n2):
        lo, hi = max(0, i2 + mid2 - n2 + 1), min(n2, i2 + mid2 + 1)
        f_row = F[:, lo:hi] * np.exp(-1j * theta[:, None] * (x1 * x2[i2]))[:, None, :]
        rev = n2 - 1 - i2 - mid2
        conv = np.fft.fft(f_row, 2 * n1 - 1) * G_fft[:, rev + lo:rev + hi]
        conv = np.fft.ifft(conv)[..., mid1:mid1 + n1]
        spec[:, i2] = np.einsum("kji,kji->ik", conv, phase_y2x1[:, lo:hi])
    spec *= np.exp(2j * math.pi * kappa * (-xv[0] / dv) / Lp)
    return np.fft.irfft(spec, Lp)[..., :nv]


@pytest.mark.parametrize("ax, fft_len", [
    # criterion 4: Lp = 197, and the y_1 FFTs at 64 in place of 2 n_1 - 1 = 81
    ([np.linspace(-4.5, 4.5, 41)] * 2 + [np.linspace(-3.5, 3.5, 41)], 64),
    ([np.linspace(-3, 4.5, 16), np.linspace(-4, 3, 15), np.linspace(-1.95, 1.95, 20)], 25),
], ids=["ax0", "ax1"])
def test_group_convolve_dft_matches_fft(ax, fft_len):
    # the DFT matmuls, the half-line inverse and the alias-free y_1 FFT length
    # against rfft/irfft at the same Lp and y_1 FFTs at 2 n_1 - 1
    f = invert_to_grid(heat_slice(H1, 0.5), ax, calibrate=False)
    g = invert_to_grid(perturbed_slice(H1, PSI_GAUSS, 0.5), ax, calibrate=False)
    conv = group_convolve(H1, f, g)
    assert conv.meta["fft_len"] == fft_len
    ref = _fft_group_convolve(H1, f, g, conv.meta["Lp"])
    assert np.max(np.abs(conv.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("which, axis, message", [
    (0, np.linspace(-4, 4, 26), "origin"),              # no node at 0
    (0, np.linspace(-3, 5, 27), "origin"),              # shifted off the grid nodes
    (1, np.linspace(-2, 2, 27) ** 3 / 2, "uniform"),
    (2, np.geomspace(1, 8, 29) - 4, "uniform"),
])
def test_group_convolve_rejects_axes(which, axis, message):
    ax = [np.linspace(-4, 4, 27), np.linspace(-4, 4, 27), np.linspace(-3.5, 3.5, 29)]
    ax[which] = axis
    q = DensityGrid(ax, np.ones(tuple(len(a) for a in ax)))
    with pytest.raises(ValueError, match=message):
        group_convolve(H1, q, q)
