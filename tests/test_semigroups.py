import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from carnot._quadrature import composite_gl_edges
from carnot.errors import AccuracyError
from carnot.groups import free_step2, heisenberg, quaternionic_h_type
from carnot.kernels import fourier_invert
from carnot.levy import CompoundPoisson, LevyExponent, NormalDist
from carnot.polynomials import (
    GradedPolynomial,
    generator_matrix,
    monomial_basis,
    operator_matrix,
    ou_generator,
)
from carnot.semigroups import (
    SemigroupOperator,
    _exp_series,
    coeigen_residual,
    convolve_fourier,
    eigen_decomposition,
    eigenfunction,
    euclidean_levy_ou_apply,
    gamma_shift,
    intertwine_residual,
    nonnormality_witness,
    ou_apply_vertical,
    weighted_gram,
)
from carnot.verify import default_exponents, run_check

G = heisenberg(1)
PSI_GAUSS = LevyExponent(sigma=[[1.0]])
PSI_CP = LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1)


def h(i):
    return GradedPolynomial.h_var(2, 1, i)


def v():
    return GradedPolynomial.v_var(2, 1, 0)


def one():
    return GradedPolynomial.constant(2, 1, 1)


def test_ou_on_coordinates():
    op = SemigroupOperator("ou", G, None, 0.7)
    out = op.apply_to_polynomial(h(0))
    assert (out - h(0).scale(math.exp(-0.7))).max_abs_coeff() < 1e-14
    out_v = op.apply_to_polynomial(v())
    assert (out_v - v().scale(math.exp(-1.4))).max_abs_coeff() < 1e-14
    # P_t(c h1) = c e^{-t} h1 at every scale: no coefficient is dropped as small
    for kind, psi in (("ou", None), ("levy-ou", PSI_CP)):
        for c in (1e-14, 1.0, 1e14):
            out = SemigroupOperator(kind, G, psi, 0.7).apply_to_polynomial(h(0).scale(c))
            assert set(out.terms) == set(h(0).terms), (kind, c)
            assert abs(float(out.terms[((1, 0), (0,))]) / (c * math.exp(-0.7)) - 1) <= 1e-15


def _random_poly(group, degree, rng, count=8):
    basis = monomial_basis(group.n, group.m, degree)
    top = [i for i, (a, g) in enumerate(basis) if sum(a) + 2 * sum(g) == degree]
    picks = set(rng.choice(len(basis), size=min(count, len(basis)) - 1, replace=False))
    picks.add(int(rng.choice(top)))
    return GradedPolynomial(group.n, group.m,
                            {basis[i]: Fraction(int(rng.integers(1, 6)) * int(rng.choice([-1, 1])))
                             for i in picks})


def test_ou_series_matches_exact_rational_answer():
    # at t = ln 2, e^{-jt} = 2^{-j}: the exact answer is sum_j 2^{-j} Pi_j p, with
    # the spectral projectors Pi_j = prod_{i != j} (L + i) / (i - j) in Fractions
    group = quaternionic_h_type()
    psi = default_exponents(group.m)["cp"]
    p = _random_poly(group, 6, np.random.default_rng(27))
    exact = GradedPolynomial.zero(group.n, group.m)
    for j in range(7):
        part = p
        for i in range(7):
            if i != j:
                part = (ou_generator(group, psi, part) + part.scale(i)).scale(Fraction(1, i - j))
        exact = exact + part.scale(Fraction(1, 2**j))
    got = SemigroupOperator("levy-ou", group, psi, math.log(2)).apply_to_polynomial(p)
    assert set(got.terms) == set(exact.terms)
    err = max(abs(float(got.terms[key] - c)) for key, c in exact.terms.items())
    assert err <= 1e-15 * exact.max_abs_coeff()


def _expm_apply(group, psi, t, p):
    # the dense reference: expm of the generator matrix on the coefficient vector
    gm = generator_matrix(group, psi, p.graded_degree())
    vec = np.array([float(p.terms.get(key, 0)) for key in gm.basis])
    return dict(zip(gm.basis, expm(t * gm.entries) @ vec))


@pytest.mark.parametrize("group", [G, heisenberg(2), quaternionic_h_type(), free_step2(3)],
                         ids=["h1", "h2", "quaternionic", "free_step2(3)"])
def test_ou_series_matches_expm(group):
    rng = np.random.default_rng(28)
    for psi in default_exponents(group.m).values():
        kind = "ou" if psi is None else "levy-ou"
        for t in (0.5, 3.0):
            p = _random_poly(group, 4, rng)
            ref = _expm_apply(group, psi, t, p)
            got = SemigroupOperator(kind, group, psi, t).apply_to_polynomial(p)
            assert set(got.terms) <= set(ref)
            err = max(abs(float(got.terms.get(key, 0)) - c) for key, c in ref.items())
            assert err <= 1e-13 * max(abs(c) for c in ref.values()), (kind, t, err)


def test_heat_on_square():
    op = SemigroupOperator("heat", G, None, 0.5)
    out = op.apply_to_polynomial(h(0) * h(0))
    assert (out - (h(0) * h(0) + one())).max_abs_coeff() < 1e-14


def test_semigroup_law_exact():
    rng = np.random.default_rng(50)
    p = h(0) * h(0) * v() + h(1).scale(2) + v() * v()
    for _ in range(5):
        t, s = rng.uniform(0.1, 1.5, size=2)
        one_step = SemigroupOperator("levy-ou", G, PSI_CP, t + s).apply_to_polynomial(p)
        two_step = SemigroupOperator("levy-ou", G, PSI_CP, s).apply_to_polynomial(
            SemigroupOperator("levy-ou", G, PSI_CP, t).apply_to_polynomial(p)
        )
        assert (one_step - two_step).max_abs_coeff() < 1e-12


def test_ergodic_limit_matches_moments():
    # long-time limit of the semigroup on polynomials is the stationary mean
    op = SemigroupOperator("levy-ou", G, PSI_CP, 40.0)
    lim2 = op.apply_to_polynomial(v() * v())
    # E[v^2] = quarter (area at half time) + stationary jump variance 3/4
    assert lim2.terms[((0, 0), (0,))] == pytest.approx(1.0, abs=1e-12)
    lim4 = op.apply_to_polynomial(v() * v() * v() * v())
    m4_area, m2_area = 5 * 0.5**4, 0.25
    m2_jump = PSI_CP.stationary_moments(2)[(2,)]
    m4_jump = PSI_CP.stationary_moments(4)[(4,)]
    oracle = m4_area + 6 * m2_area * m2_jump + m4_jump
    assert lim4.terms[((0, 0), (0,))] == pytest.approx(oracle, rel=1e-10)
    limh = op.apply_to_polynomial(h(0) * h(0))
    assert limh.terms[((0, 0), (0,))] == pytest.approx(1.0, abs=1e-12)


def test_gamma_shift_examples():
    # symmetric law: v -> v, v^2 -> v^2 + variance
    out = gamma_shift(PSI_CP, v())
    assert (out - v()).max_abs_coeff() < 1e-14
    out2 = gamma_shift(PSI_CP, v() * v())
    assert out2.terms[((0, 0), (0,))] == pytest.approx(0.75, rel=1e-12)


def test_eigen_decomposition_levels():
    eig = eigen_decomposition(G, PSI_CP, 3)
    dims = [len(polys) for _, polys in eig]
    assert dims == [1, 2, 4, 6]
    level1 = eig[1][1]
    for p in level1:
        assert set(k for k, c in p.terms.items()) <= {((1, 0), (0,)), ((0, 1), (0,))}
    # level 2 contains v itself for a centered symmetric exponent
    reprs = {str(p) for p in eig[2][1]}
    assert "1.0*v1" in reprs
    assert any("h1^2" in r for r in reprs)


def test_eigen_functions_satisfy_generator_equation():
    # validated internally; also check one case explicitly: h1^2 - 1
    from carnot.polynomials import ou_generator

    p = h(0) * h(0) - one()
    out = ou_generator(G, None, p)
    assert (out + p.scale(2)).max_abs_coeff() == 0


def test_eigen_ladder_completeness():
    cap = 4
    eig = eigen_decomposition(G, PSI_GAUSS, cap)
    total = sum(len(polys) for _, polys in eig)
    from carnot.polynomials import monomial_basis

    assert total == len(monomial_basis(2, 1, cap))


@pytest.mark.parametrize("group", [G, heisenberg(2), quaternionic_h_type(), free_step2(3)],
                         ids=["h1", "h2", "quaternionic", "free_step2(3)"])
def test_eigenfunctions_are_exact(group):
    # Gamma^{-1} Q_{-1/2} of every monomial solves the generator equation in
    # exact arithmetic, for each exponent of the checks
    for psi in default_exponents(group.m).values():
        for alpha, gamma in monomial_basis(group.n, group.m, 4):
            p = eigenfunction(group, psi, alpha, gamma)
            assert all(isinstance(c, Fraction) for c in p.terms.values())
            level = sum(alpha) + 2 * sum(gamma)
            assert (ou_generator(group, psi, p) + p.scale(level)).is_zero()


@pytest.mark.parametrize("group,name", [(G, "cp"), (G, "gaussian-drift"),
                                        (quaternionic_h_type(), "cp")],
                         ids=["h1-cp", "h1-gaussian-drift", "quaternionic-cp"])
def test_eigen_decomposition_matches_dense_solve(group, name):
    # reference: the preimages of the monomials under the dense matrix of
    # Q_{1/2} Gamma, one column per monomial
    psi = default_exponents(group.m)[name]
    basis, mat = operator_matrix(
        lambda p: _exp_series(group, None, 0.5, gamma_shift(psi, p), ou=False),
        group.n, group.m, 4)
    ref = np.linalg.solve(mat, np.eye(len(basis)))
    polys = [p for _, level in eigen_decomposition(group, psi, 4) for p in level]
    got = np.zeros_like(ref)
    for j, p in enumerate(polys):
        for key, c in p.terms.items():
            got[basis.index(key), j] = c
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=1e-12)


@pytest.mark.parametrize("psi", [None, PSI_GAUSS, PSI_CP])
def test_intertwine_pi_polynomials(psi):
    for test in ("const", "h1", "hermite2"):
        rep = intertwine_residual("pi", G, psi, 0.7, test)
        assert rep.passed, (test, rep.residual)
        if test == "h1":
            assert rep.residual < 1e-12


def test_intertwine_pi_gaussian_quadrature():
    rep = intertwine_residual("pi", G, None, 0.4, "gaussian")
    assert rep.residual < 1e-4


@pytest.mark.parametrize("psi", [PSI_GAUSS, PSI_CP])
@pytest.mark.parametrize("test", ["v", "v2", "mixed", "random"])
def test_intertwine_gamma_exact(psi, test):
    rep = intertwine_residual("gamma", G, psi, 0.6, test)
    assert rep.residual < 1e-12


@pytest.mark.parametrize("psi", [PSI_GAUSS, PSI_CP])
def test_intertwine_lp_exact(psi):
    for test in ("v", "mixed"):
        rep = intertwine_residual("lp", G, psi, 0.3, test)
        assert rep.residual < 1e-12


@pytest.mark.parametrize("psi", [None, PSI_GAUSS, PSI_CP])
def test_intertwine_lambda_quadrature(psi):
    rep = intertwine_residual("lambda", G, psi, 0.3)
    assert rep.residual < 1e-4


def test_ou_apply_vertical_follows_row_permutation():
    # rows are computed once per radius class; permuting the horizontal
    # points (and so the class representatives) permutes the output rows
    x = np.linspace(-2.0, 2.0, 9)
    H = np.stack([c.ravel() for c in np.meshgrid(x, x, indexing="ij")], axis=1)
    f_hat = lambda lam: np.sqrt(math.pi) * np.exp(1j * 0.8 * lam - lam**2 / 4)
    V = np.linspace(-2.0, 2.0, 11)
    perm = np.random.default_rng(34).permutation(len(H))
    base = ou_apply_vertical(G, PSI_CP, 0.4, f_hat, H, V)
    moved = ou_apply_vertical(G, PSI_CP, 0.4, f_hat, H[perm], V)
    assert base.shape == (len(H), len(V))
    assert np.max(np.abs(moved - base[perm])) <= 1e-13 * np.max(np.abs(base))


def test_transports_match_a_dense_fixed_rule():
    # the transports' rule is cut where |f_hat| falls to 1e-12 of its maximum;
    # a fixed 800-node rule on [0, 40] gives the same values
    lam, w = composite_gl_edges(np.linspace(0.0, 40.0, 101), 8)
    f_hat = lambda lam: np.sqrt(math.pi) * np.exp(1j * 0.8 * lam - lam**2 / 4)
    V, t = np.linspace(-2.0, 2.5, 9), 0.4
    for sign in (-1.0, 1.0):
        mult = np.exp(np.asarray(PSI_CP.psi_t(t, sign * math.exp(-2 * t) * lam), dtype=complex))
        ref = fourier_invert(f_hat(lam) * mult, None, lam, w, math.exp(-2 * t) * V)
        got = euclidean_levy_ou_apply(PSI_CP, t, f_hat, V, reflected=sign > 0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    h_mult = lambda lam: np.exp(np.asarray(PSI_CP.psi_limit(-lam), dtype=complex))
    ref = fourier_invert(f_hat(lam) * h_mult(lam), None, lam, w, V)
    got = convolve_fourier(f_hat, h_mult, V)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_transports_self_check_raises_on_an_unresolved_integrand():
    # cos(40 lam) oscillates ~6 times per panel of the |v| <= 2.5 rule
    f_hat = lambda lam: np.sqrt(math.pi) * np.exp(-lam**2 / 4) * np.cos(40.0 * lam)
    V = np.linspace(-2.0, 2.5, 9)
    with pytest.raises(AccuracyError, match="doubling its nodes"):
        ou_apply_vertical(G, PSI_CP, 0.4, f_hat, np.zeros((3, 2)), V)
    with pytest.raises(AccuracyError, match="doubling its nodes"):
        euclidean_levy_ou_apply(PSI_CP, 0.4, f_hat, V)


def test_intertwine_tbk_with_drift():
    psi = LevyExponent(
        sigma=[[1.0]], b=[0.4],
        jumps=CompoundPoisson(2.0, NormalDist([0.0], [[1.0]])),
    )
    rep = intertwine_residual("tbk", G, psi, 0.5)
    assert rep.residual < 1e-10


def test_intertwine_mbeta_multiplier():
    rep = intertwine_residual("mbeta", G, PSI_GAUSS, 0.4)
    assert rep.residual < 1e-12


def test_intertwine_unknown_pair():
    with pytest.raises(ValueError):
        intertwine_residual("nope", G, None, 0.1)


def test_coeigen_beta_zero_trivial():
    rep = coeigen_residual(G, None, [0], 0.5, test="bump",
                           axes=[np.linspace(-4, 4, 31)] * 2 + [np.linspace(-4, 4, 31)])
    # beta = 0: both sides are the stationary integral of f; ratio 1 vs 1
    # (coarse grid, so only quadrature noise remains)
    assert rep.residual < 1e-5


def test_coeigen_polynomial_ratio():
    for t in (0.25, 0.5):
        rep = coeigen_residual(G, None, [1], t, test="v")
        assert rep.residual < 1e-10


@pytest.mark.parametrize("psi", [None, PSI_GAUSS])
def test_coeigen_bump_and_antisymmetric(psi):
    for test in ("bump", "antisymmetric"):
        rep = coeigen_residual(G, psi, [1], 0.5, test=test)
        assert rep.residual < 1e-3, (test, rep.residual)


def test_weighted_gram_moments():
    basis, gram = weighted_gram(G, None, cap=2)
    idx = {key: i for i, key in enumerate(basis)}
    one_i = idx[((0, 0), (0,))]
    v_i = idx[((0, 0), (1,))]
    h1sq_i = idx[((2, 0), (0,))]
    assert gram[one_i, one_i] == pytest.approx(1.0, abs=1e-12)
    assert gram[v_i, v_i] == pytest.approx(0.25, abs=1e-12)  # squared area at t=1/2
    assert gram[h1sq_i, one_i] == pytest.approx(1.0, abs=1e-12)
    assert gram[h1sq_i, h1sq_i] == pytest.approx(3.0, abs=1e-12)
    assert abs(gram[v_i, one_i]) < 1e-12


@pytest.mark.parametrize("name", ["none", "gaussian", "cp", "gaussian-drift"])
def test_stationary_row_is_invariant(name):
    # the constant row of the Gram is the stationary law on the basis; the
    # polynomial semigroup preserves it (drift convention: E[v] = +b/2)
    psi = default_exponents()[name]
    basis, gram = weighted_gram(G, psi, cap=3)
    gm = generator_matrix(G, psi, 3)
    assert gm.basis == basis
    row = gram[basis.index(((0, 0), (0,)))]
    for t in (0.3, 1.0, 5.0):
        assert np.max(np.abs(row @ expm(t * gm.entries) - row)) < 1e-12
    drift = psi.b[0] if psi is not None else 0.0
    assert row[basis.index(((0, 0), (1,)))] == pytest.approx(drift / 2, abs=1e-12)


def test_nonnormality_witness():
    # the degree-2 compression is exactly normal; degree 3 is not
    basis, gram = weighted_gram(G, None, cap=2)
    gm = generator_matrix(G, None, 2)
    M = expm(1.0 * gm.entries)
    M_adj = np.linalg.inv(gram) @ M.T @ gram
    assert np.linalg.norm(M_adj @ M - M @ M_adj) < 1e-12
    w = nonnormality_witness(G, None, 1.0)
    assert w > 1e-6
    assert w > 0.1  # degree-3 overlap <h2 v - h1/2, h1> = -1/2 makes it large


def test_nonnormality_on_free_step2():
    res = run_check("nonnormal", G=free_step2(3))
    assert res.passed and not res.skipped
    assert res.detail["commutator_norm"] > 1e-6
