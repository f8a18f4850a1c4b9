from fractions import Fraction

import numpy as np
import pytest

from carnot.errors import UnsupportedOperationError
from carnot.groups import free_step2, heisenberg, nonisotropic_heisenberg, quaternionic_h_type
from carnot.levy import CompoundPoisson, LevyExponent, NormalDist, StableJumps
from carnot.polynomials import (
    GeneratorMatrix,
    GradedPolynomial,
    apply_Z,
    dilation_generator,
    generator_matrix,
    homogeneous_dimension_counts,
    monomial_basis,
    operator_matrix,
    ou_generator,
    sub_laplacian,
    svd_nullity,
    vertical_generator,
)
from carnot.verify import default_exponents

H1 = heisenberg(1)


def P(nh=2, mv=1):
    return GradedPolynomial


def h(i):
    return GradedPolynomial.h_var(2, 1, i)


def v():
    return GradedPolynomial.v_var(2, 1, 0)


def one():
    return GradedPolynomial.constant(2, 1, 1)


def test_Z_on_constant_and_coordinates():
    for i in range(2):
        assert apply_Z(H1, i, one()).is_zero()
        for j in range(2):
            out = apply_Z(H1, i, h(j))
            expect = one() if i == j else GradedPolynomial.zero(2, 1)
            assert (out - expect).is_zero()


def test_Z_on_vertical_coordinate():
    # omega(h, e_1) = -h_2 for the standard symplectic matrix, so Z_1 v = -h_2/2
    out1 = apply_Z(H1, 0, v())
    assert (out1 - h(1).scale(Fraction(-1, 2))).is_zero()
    out2 = apply_Z(H1, 1, v())
    assert (out2 - h(0).scale(Fraction(1, 2))).is_zero()


def test_sub_laplacian_examples():
    assert (sub_laplacian(H1, h(0) * h(0)) - one().scale(2)).is_zero()
    assert sub_laplacian(H1, v()).is_zero()
    assert sub_laplacian(H1, h(0)).is_zero()


def test_dilation_generator_examples():
    assert dilation_generator(one()).is_zero()
    assert (dilation_generator(h(0)) + h(0)).is_zero()
    assert (dilation_generator(v()) + v().scale(2)).is_zero()


def test_grading_invariant():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a1, a2, g1 = rng.integers(0, 3, size=3)
        p = GradedPolynomial.monomial(2, 1, [a1, a2], [g1])
        k = a1 + a2 + 2 * g1
        dp = dilation_generator(p)
        assert (dp + p.scale(k)).is_zero()
        lp = sub_laplacian(H1, p)
        if not lp.is_zero():
            degrees = {sum(a) + 2 * sum(g) for a, g in lp.terms}
            assert degrees == {k - 2}


def test_leibniz_exact():
    rng = np.random.default_rng(21)
    for _ in range(10):
        def rand_poly():
            terms = {}
            for _ in range(3):
                a = tuple(int(x) for x in rng.integers(0, 3, size=2))
                g = (int(rng.integers(0, 2)),)
                terms[(a, g)] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
            return GradedPolynomial(2, 1, terms)

        p, q = rand_poly(), rand_poly()
        for i in range(2):
            lhs = apply_Z(H1, i, p * q)
            rhs = apply_Z(H1, i, p) * q + p * apply_Z(H1, i, q)
            diff = lhs - rhs
            assert diff.is_zero(), f"Leibniz failed: {diff}"


def test_monomial_counts_h1():
    # enumeration oracle: a1 + a2 + 2c = k
    def brute(k):
        return sum(
            1
            for a1 in range(k + 1)
            for a2 in range(k + 1)
            for c in range(k + 1)
            if a1 + a2 + 2 * c == k
        )

    counts = homogeneous_dimension_counts(2, 1, 4)
    assert counts == [brute(k) for k in range(5)]
    assert counts == [1, 2, 4, 6, 9]


def test_generator_matrix_degree_one():
    gm = generator_matrix(H1, None, 1)
    assert gm.basis == [((0, 0), (0,)), ((0, 1), (0,)), ((1, 0), (0,))]
    assert np.allclose(gm.entries, np.diag([0.0, -1.0, -1.0]))


def test_generator_matrix_degree_two_eigenvalues():
    gm = generator_matrix(H1, None, 2)
    eigs = np.sort(gm.eigenvalues().real)
    expect = np.sort([0.0] + [-1.0] * 2 + [-2.0] * 4)
    assert np.allclose(eigs, expect, atol=1e-12)


def test_generator_triangular_structure():
    gm = generator_matrix(H1, None, 4)
    degs = [sum(a) + 2 * sum(g) for a, g in gm.basis]
    n = len(gm.basis)
    for i in range(n):
        for j in range(n):
            if degs[i] > degs[j]:
                assert gm.entries[i, j] == 0.0
            if degs[i] == degs[j]:
                expect = -degs[i] if i == j else 0.0
                assert gm.entries[i, j] == expect


def test_gaussian_perturbation_same_spectrum():
    gm0 = generator_matrix(H1, None, 4)
    psi = LevyExponent(sigma=[[1.0]])
    gm1 = generator_matrix(H1, psi, 4)
    # rows touching second vertical derivatives change, spectrum does not
    assert not np.allclose(gm0.entries, gm1.entries)
    e0 = np.sort(gm0.eigenvalues().real)
    e1 = np.sort(gm1.eigenvalues().real)
    assert np.allclose(e0, e1, atol=1e-10)


def test_isospectrality_with_multiplicities():
    psis = [
        None,
        LevyExponent(sigma=[[1.0]]),
        LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1),
        LevyExponent(sigma=[[1.0]], b=[0.5]),
    ]
    cap = 4
    expect = {0: 1, -1: 2, -2: 4, -3: 6, -4: 9}
    for psi in psis:
        gm = generator_matrix(H1, psi, cap)
        eigs = np.linalg.eigvals(gm.entries)
        counted = {-j: int(np.sum(np.abs(eigs + j) < 1e-8)) for j in range(cap + 1)}
        alg = {-j: gm.algebraic_multiplicity(-float(j)) for j in range(cap + 1)}
        geo = {-j: gm.geometric_multiplicity(-float(j)) for j in range(cap + 1)}
        svd = {-j: svd_nullity(gm.entries, -float(j)) for j in range(cap + 1)}
        assert alg == counted == expect
        assert geo == svd == expect


def _reference_sub_laplacian(G, p):
    out = GradedPolynomial.zero(p.nh, p.mv)
    for i in range(G.n):
        out = out + apply_Z(G, i, apply_Z(G, i, p))
    return out


def _random_poly(rng, nh, mv, terms=6, max_deg=3):
    out = {}
    for _ in range(terms):
        a = tuple(int(x) for x in rng.integers(0, max_deg + 1, size=nh))
        g = tuple(int(x) for x in rng.integers(0, max_deg, size=mv))
        out[(a, g)] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
    return GradedPolynomial(nh, mv, out)


def _non_skew_group():
    # the group stores A as given after validation; replacing it with a
    # matrix that has a diagonal exercises the [d_i, B_i] term
    G = heisenberg(1)
    G.A = np.array([[[0.75, 1.0], [-0.5, 1.0 / 3.0]]])
    return G


@pytest.mark.parametrize("G", [
    H1,
    heisenberg(2),
    quaternionic_h_type(),
    free_step2(3),
    nonisotropic_heisenberg([0.3, 1.7]),
    _non_skew_group(),
], ids=["h1", "h2", "quaternionic", "free2(3)", "nonisotropic(0.3,1.7)", "non-skew"])
def test_sub_laplacian_equals_sum_of_squared_fields(G):
    rng = np.random.default_rng(2217)
    for _ in range(12):
        p = _random_poly(rng, G.n, G.m)
        assert sub_laplacian(G, p).terms == _reference_sub_laplacian(G, p).terms


GROUPS = {"h1": H1, "h2": heisenberg(2), "free2(3)": free_step2(3),
          "quaternionic": quaternionic_h_type()}
LADDER_CASES = (
    [("h1", name, 8) for name in ("none", "gaussian", "cp", "gaussian-drift")]
    + [(g, "none", 6) for g in ("h2", "free2(3)", "quaternionic")]
    + [("h2", "gaussian-drift", 6), ("h2", "cp", 6)]
)


@pytest.mark.parametrize("gname,psi_name,cap", LADDER_CASES)
def test_generator_matrix_matches_field_square_assembly(gname, psi_name, cap):
    # entries bitwise equal to the assembly through sum_i Z_i(Z_i p)
    G = GROUPS[gname]
    psi = default_exponents(G.m)[psi_name]

    def reference_generator(p):
        out = _reference_sub_laplacian(G, p) + dilation_generator(p)
        if psi is not None:
            out = out + vertical_generator(psi, p)
        return out

    basis, ref = operator_matrix(reference_generator, G.n, G.m, cap)
    gm = generator_matrix(G, psi, cap)
    assert gm.basis == basis
    assert gm.entries.tobytes() == ref.tobytes()


@pytest.mark.parametrize("gname,psi_name,cap", LADDER_CASES)
def test_ladder_certificate_matches_svd(gname, psi_name, cap):
    G = GROUPS[gname]
    gm = generator_matrix(G, default_exponents(G.m)[psi_name], cap)
    assert gm.ladder == homogeneous_dimension_counts(G.n, G.m, cap)
    for k in range(cap + 1):
        assert gm.geometric_multiplicity(-float(k)) == svd_nullity(gm.entries, -float(k))
    assert gm.geometric_multiplicity(0.5) == gm.algebraic_multiplicity(-float(cap + 1)) == 0


def test_ladder_certificate_raises_without_structure():
    # h1 d/dh2 maps h2 to h1 inside the degree-1 block: a Jordan block at -1,
    # where layer dimensions are not the multiplicities (geometric 1 of 2)
    def op(p):
        return dilation_generator(p) + p.diff_h(1).mul_h(0)

    basis, mat = operator_matrix(op, 2, 1, 2)
    gm = GeneratorMatrix(basis=basis, entries=mat, degree_cap=2, nh=2, mv=1)
    assert svd_nullity(mat, -1.0) == 1
    for read in (lambda: gm.ladder, gm.eigenvalues,
                 lambda: gm.algebraic_multiplicity(-1.0),
                 lambda: gm.geometric_multiplicity(-1.0)):
        with pytest.raises(ArithmeticError, match="ladder structure"):
            read()


def test_stable_jumps_rejected():
    psi = LevyExponent(jumps=StableJumps(1.5), m=1)
    with pytest.raises(UnsupportedOperationError, match="stable"):
        generator_matrix(H1, psi, 2)


def test_vertical_generator_on_v_squared():
    psi = LevyExponent(
        sigma=[[0.5]], jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1
    )
    out = vertical_generator(psi, v() * v())
    # tr(sigma d^2) v^2 = 2 sigma, jump part m2(kappa) = 3
    assert (out - one().scale(4.0)).is_zero()


def test_ou_generator_eigenfunction():
    # h1^2 - 1 is an eigenfunction with eigenvalue -2
    p = h(0) * h(0) - one()
    out = ou_generator(H1, None, p)
    assert (out + p.scale(2)).is_zero()


def test_operator_matrix_rejects_escaping_ops():
    with pytest.raises(ValueError):
        operator_matrix(lambda p: p.mul_h(0), 2, 1, 2)


def test_evaluate():
    p = h(0) * h(0) + v().scale(3)
    assert p.evaluate([2.0, 0.0], [1.0]) == pytest.approx(7.0)
