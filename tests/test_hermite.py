import math

import numpy as np
import pytest

from carnot._quadrature import gauss_legendre
from carnot.errors import AccuracyError
from carnot.groups import heisenberg
from carnot.hermite import (
    hermite_phi,
    hermite_phi_all,
    hs_norm_closed_form,
    laguerre_phi,
    laguerre_transform,
    oscillator_semigroup_diag,
    weyl_matrix,
)
from carnot.kernels import heat_hat
from carnot.spectral import frame_at

G = heisenberg(1)
FR = frame_at(G, [1.0])


def test_hermite_values():
    assert hermite_phi(0, 0.0) == pytest.approx(math.pi ** (-0.25), rel=1e-12)
    assert math.pi ** (-0.25) == pytest.approx(0.751126, abs=1e-6)
    assert hermite_phi(1, 0.0) == 0.0


def test_hermite_cap():
    with pytest.raises(ValueError):
        hermite_phi(201, 0.0)


def test_hermite_orthonormality_quadrature():
    # Phi_a Phi_b exp(x^2) is a polynomial of degree <= 100: Gauss-Hermite with
    # 101 nodes is exact on it, so the residual isolates the recurrence's error
    nodes, weights = np.polynomial.hermite.hermgauss(101)
    vals = hermite_phi_all(50, nodes)
    gram = np.einsum("i,ai,bi->ab", weights * np.exp(nodes**2), vals, vals)
    assert np.max(np.abs(gram - np.eye(51))) < 1e-10


def test_hermite_sup_bound():
    x = np.linspace(-10, 10, 2001)
    vals = hermite_phi_all(200, x)
    assert np.max(np.abs(vals[1:])) <= 0.816


def test_laguerre_values():
    assert laguerre_phi(FR, [0], [0.0, 0.0]) == pytest.approx((2 * math.pi) ** -0.5)
    # normalized Laguerre: L_1(x) = 1 - x vanishes where eta |z|^2 / 2 = 1
    z = math.sqrt(2.0)
    assert laguerre_phi(FR, [1], [z, 0.0]) == pytest.approx(0.0, abs=1e-14)


def test_laguerre_norm_polar_quadrature():
    # L2 norm over the plane via the radial substitution u = eta |z|^2 / 2
    for beta in (0, 1, 3, 7):
        u, w = gauss_legendre(0.0, 80.0, 400)
        from scipy.special import eval_laguerre

        integrand = (eval_laguerre(beta, u) ** 2) * np.exp(-u)
        # |phi|^2 dz = pf/(2pi) L^2 e^{-u} (2pi/eta) du = L^2 e^{-u} du
        norm = float(np.sum(w * integrand))
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_laguerre_transform_closed_form():
    # profile exp(-a |z|^2): R_beta = sqrt(2 pi / eta) (c-1)^beta / c^(beta+1),
    # with c = 1/2 + 2 a / eta (closed form by the Laguerre generating series)
    a, eta = 0.37, 1.0
    R = laguerre_transform(FR, lambda zsq: np.exp(-a * zsq[:, 0]), 12)
    c = 0.5 + 2 * a / eta
    expect = np.sqrt(2 * math.pi / eta) * (c - 1.0) ** np.arange(13) / c ** (np.arange(13) + 1.0)
    assert np.max(np.abs(R - expect)) < 1e-10


def test_weyl_of_ground_laguerre_mode():
    f0 = lambda x, y: laguerre_phi(FR, [0], np.stack(np.broadcast_arrays(x, y), axis=-1))
    wm = weyl_matrix(FR, f0, 6)
    expect = np.zeros((7, 7))
    expect[0, 0] = math.sqrt(2 * math.pi / FR.pf)
    assert np.max(np.abs(wm.entries - expect)) < 1e-6


def test_weyl_rank_one_position():
    # the transform of the beta-th radial mode hits exactly position beta
    for beta in (1, 2):
        fb = lambda x, y: laguerre_phi(FR, [beta], np.stack(np.broadcast_arrays(x, y), axis=-1))
        wm = weyl_matrix(FR, fb, 5)
        mat = np.abs(wm.entries)
        idx = np.unravel_index(mat.argmax(), mat.shape)
        assert idx == (beta, beta)
        off = mat.sum() - mat[beta, beta]
        assert off < 1e-6 * mat[beta, beta]


def test_weyl_zero_function():
    wm = weyl_matrix(FR, lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))), 4)
    assert np.max(np.abs(wm.entries)) < 1e-12


def test_weyl_isometry_random_gaussians():
    rng = np.random.default_rng(40)
    for _ in range(3):
        a = float(rng.uniform(0.35, 0.8))
        b = float(rng.uniform(0.35, 0.8))
        f = lambda x, y: np.exp(-a * x**2 - b * y**2)
        wm = weyl_matrix(FR, f, 32)
        hs = wm.hs_norm_sq()
        l2 = math.pi / (2.0 * math.sqrt(a * b))
        assert FR.pf * hs / (2 * math.pi) == pytest.approx(l2, rel=1e-5)


def _einsum_weyl(frame, f, size, npts):
    """The Weyl entries by the N^3 phase array and three-operand einsum that

    the row-wise assembly replaced (same nodes and extent).
    """
    eta = frame.eta[0]
    L = 8.0 / math.sqrt(min(eta, 1.0))
    xi, wxi = gauss_legendre(-L, L, npts)
    y, wy = gauss_legendre(-L, L, npts)
    XI, ZETA = np.meshgrid(xi, xi, indexing="ij")
    fvals = f((ZETA - XI)[:, :, None], y[None, None, :])
    phases = np.exp(1j * (0.5 * eta * (XI + ZETA))[:, :, None] * y[None, None, :])
    K = np.einsum("aby,aby,y->ab", fvals, phases, wy)
    BW = abs(frame.pf) ** 0.25 * hermite_phi_all(size, math.sqrt(eta) * xi) * wxi[None, :]
    return np.einsum("gi,ij,aj->ga", BW, K, BW)


@pytest.mark.parametrize("lam", [0.7, 1.0])
def test_weyl_entries_match_the_einsum_assembly(lam):
    fr = frame_at(G, [lam])
    f = lambda x, y: np.exp(-0.5 * x**2 - 0.6 * y**2) * (1.0 + 0.3 * x - 0.2 * y)
    got = weyl_matrix(fr, f, 16, quad_points=60).entries
    ref = _einsum_weyl(fr, f, 16, 120)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_weyl_diagonality_on_invariant_input():
    f = lambda x, y: np.exp(-0.6 * (x**2 + y**2))
    mass = np.abs(weyl_matrix(FR, f, 16).entries)
    diag = np.trace(mass)
    assert mass.sum() - diag < 1e-6 * diag


def test_weyl_accuracy_error_path():
    # an extent far too small cannot converge under node doubling
    f = lambda x, y: np.exp(-0.05 * (x**2 + y**2))
    with pytest.raises(AccuracyError):
        weyl_matrix(FR, f, 10, quad_points=12, extent=2.0, tol=1e-12)


def test_gft_heat_kernel_is_oscillator_semigroup():
    # Weyl transform of the closed-form heat hat must be diagonal with the
    # oscillator semigroup eigenvalues; ties kernels to the Hermite layer
    t = 0.7
    eta = FR.eta[0]
    pref = (2 * math.pi) ** -1 * eta / (2 * math.sinh(eta * t))
    coth = 1.0 / math.tanh(eta * t)
    fh = lambda x, y: pref * np.exp(-0.25 * eta * coth * (x**2 + y**2))
    # cross-check the profile against the scalar evaluator once
    assert fh(0.3, -0.4) == pytest.approx(heat_hat(G, t, [0.3, -0.4], [1.0]), rel=1e-12)
    wm = weyl_matrix(FR, fh, 8)
    diag = np.real(np.diag(wm.entries))
    expect = np.exp(-t * (2 * np.arange(9) + 1.0) * eta)
    assert np.max(np.abs(diag - expect) / expect) < 1e-5
    assert np.max(np.abs(wm.entries - np.diag(np.diag(wm.entries)))) < 1e-10


def test_gft_dilation_covariance():
    # matrix of the dilated function at lam equals c^{-(n+2m)} times the
    # matrix of the original at lam / c^2 (in its own scaled basis)
    c = 1.4
    a = 0.5
    f = lambda x, y: np.exp(-a * (x**2 + y**2)) * (1.0 + 0.3 * x)
    fc = lambda x, y: f(c * x, c * y)
    lam = 1.0
    fr1 = frame_at(G, [lam])
    fr2 = frame_at(G, [lam / c**2])
    m_dil = weyl_matrix(fr1, fc, 8).entries
    m_ref = weyl_matrix(fr2, f, 8).entries
    # vertical profile is a delta here, so only the plane factor scales:
    # f(c z) integrates to c^{-n} under the Weyl kernel at lam / c^2
    assert np.max(np.abs(m_dil - c ** (-G.n) * m_ref)) < 1e-6


def test_gft_matrix_separable():
    # product function: the matrix is the vertical transform scalar times
    # the plane Weyl matrix
    from carnot.hermite import gft_matrix

    f_plane = lambda x, y: np.exp(-0.5 * (x**2 + y**2))
    f_hat_v = lambda lam, nu: math.sqrt(2 * math.pi) * math.exp(-(lam**2) / 2.0)
    gm = gft_matrix(FR, f_plane, f_hat_v, 1.0, (), 6)
    wm = weyl_matrix(FR, f_plane, 6)
    scalar = math.sqrt(2 * math.pi) * math.exp(-0.5)
    assert np.max(np.abs(gm.entries - scalar * wm.entries)) < 1e-12


def test_oscillator_diag():
    assert np.all(oscillator_semigroup_diag(FR, (), 0.0, 5) == 1.0)
    d = oscillator_semigroup_diag(FR, (), 1.0, 3)
    assert d[0] == pytest.approx(math.exp(-1.0))
    total = float(np.sum(oscillator_semigroup_diag(FR, (), 0.5, 60) ** 2))
    assert total == pytest.approx(hs_norm_closed_form(FR, (), 0.5), rel=1e-10)


def test_oscillator_diag_with_radical():
    from carnot.groups import free_step2

    fr = frame_at(free_step2(3), [1.0, 0.0, 0.0])
    d = oscillator_semigroup_diag(fr, [2.0], 0.5, 2)
    assert d[0] == pytest.approx(math.exp(-0.5 * (1.0 + 4.0)))
