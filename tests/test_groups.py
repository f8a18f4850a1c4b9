import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot.errors import GroupValidationError
from carnot.groups import (
    CarnotGroup,
    GroupElement,
    free_step2,
    heisenberg,
    homogeneous_norm,
    nonisotropic_heisenberg,
    quaternionic_h_type,
)


@pytest.fixture
def h1():
    return heisenberg(1)


def test_heisenberg_product(h1):
    # omega((1,0),(0,1)) = 1 for the standard symplectic form
    g = h1.mul(GroupElement([1.0, 0.0], [0.0]), GroupElement([0.0, 1.0], [0.0]))
    assert np.allclose(g.h, [1.0, 1.0])
    assert np.allclose(g.v, [0.5])


def test_identity_and_inverse(h1):
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = GroupElement(rng.normal(size=2), rng.normal(size=1))
        e = h1.mul(g, h1.identity())
        assert np.allclose(e.h, g.h) and np.allclose(e.v, g.v)
        z = h1.mul(g, h1.inverse(g))
        assert np.max(np.abs(z.h)) < 1e-12 and np.max(np.abs(z.v)) < 1e-12


def test_associativity_random(h1):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b, c = (GroupElement(rng.normal(size=2), rng.normal(size=1)) for _ in range(3))
        lhs = h1.mul(h1.mul(a, b), c)
        rhs = h1.mul(a, h1.mul(b, c))
        assert np.max(np.abs(lhs.h - rhs.h)) < 1e-12 and np.max(np.abs(lhs.v - rhs.v)) < 1e-12


def test_associativity_free_group():
    G = free_step2(3)
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (GroupElement(rng.normal(size=3), rng.normal(size=3)) for _ in range(3))
        lhs = G.mul(G.mul(a, b), c)
        rhs = G.mul(a, G.mul(b, c))
        assert np.max(np.abs(lhs.h - rhs.h)) < 1e-12 and np.max(np.abs(lhs.v - rhs.v)) < 1e-12


def test_dilation(h1):
    g = GroupElement([1.0, 1.0], [1.0])
    d = h1.dilate(2.0, g)
    assert np.allclose(d.h, [2.0, 2.0]) and np.allclose(d.v, [4.0])
    same = h1.dilate(1.0, g)
    assert np.allclose(same.h, g.h) and np.allclose(same.v, g.v)
    with pytest.raises(ValueError):
        h1.dilate(0.0, g)


@settings(max_examples=50, deadline=None)
@given(
    c=st.floats(0.1, 10.0),
    cp=st.floats(0.1, 10.0),
    coords=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
)
def test_dilation_homomorphism_and_semigroup(c, cp, coords):
    G = heisenberg(1)
    g1 = GroupElement(coords[:2], coords[2:3])
    g2 = GroupElement(coords[3:5], coords[5:6])
    lhs = G.dilate(c, G.mul(g1, g2))
    rhs = G.mul(G.dilate(c, g1), G.dilate(c, g2))
    assert np.max(np.abs(lhs.h - rhs.h)) < 1e-9 and np.max(np.abs(lhs.v - rhs.v)) < 1e-9
    two = G.dilate(c, G.dilate(cp, g1))
    one = G.dilate(c * cp, g1)
    assert np.max(np.abs(two.h - one.h)) < 1e-9 and np.max(np.abs(two.v - one.v)) < 1e-9


def test_homogeneous_norm(h1):
    assert homogeneous_norm(h1.identity()) == 0.0
    assert homogeneous_norm(GroupElement([3.0, 4.0], [0.0])) == pytest.approx(5.0)
    assert homogeneous_norm(GroupElement([0.0, 0.0], [-4.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = GroupElement(rng.normal(size=2), rng.normal(size=1))
        c = float(rng.uniform(0.1, 5.0))
        assert homogeneous_norm(h1.dilate(c, g)) == pytest.approx(
            c * homogeneous_norm(g), rel=1e-12
        )


def test_validation_rejects_non_skew():
    with pytest.raises(GroupValidationError, match=r"A\[0\]"):
        CarnotGroup(2, 1, [np.array([[0.0, 1.0], [1.0, 0.0]])])


def test_validation_symmetrizes_near_skew():
    a = np.array([[0.0, 1.0], [-1.0 + 1e-13, 0.0]])
    G = CarnotGroup(2, 1, [a])
    assert np.max(np.abs(G.A[0] + G.A[0].T)) == 0.0


def test_validation_dimension_and_rank():
    with pytest.raises(GroupValidationError):
        CarnotGroup(1, 1, [np.zeros((1, 1))])  # n + m < 3
    with pytest.raises(GroupValidationError):
        CarnotGroup(2, 1, [np.zeros((2, 2))])  # abelian


def test_constructors_report_dims():
    G = nonisotropic_heisenberg([2.0, 0.5])
    assert (G.n, G.m, G.d, G.k) == (4, 1, 2, 0)
    Q = quaternionic_h_type()
    assert (Q.n, Q.m, Q.d, Q.k) == (4, 3, 2, 0)
    F = free_step2(3)
    assert (F.n, F.m, F.d, F.k) == (3, 3, 1, 1)


def test_json_roundtrip(tmp_path, h1):
    p = tmp_path / "g.json"
    spec = {"n": h1.n, "m": h1.m, "A": h1.A.tolist(), "label": h1.label}
    p.write_text(__import__("json").dumps(spec))
    G = CarnotGroup.from_json(p)
    assert G.n == h1.n and G.m == h1.m
    assert np.allclose(G.A, h1.A)


def test_element_rejects_nonfinite():
    with pytest.raises(GroupValidationError):
        GroupElement([np.nan, 0.0], [0.0])


def test_omega_matches_bilinear_form():
    rng = np.random.default_rng(12)
    for G in (quaternionic_h_type(), free_step2(4), heisenberg(2)):
        h1, h2 = rng.normal(size=(7, G.n)), rng.normal(size=(7, G.n))
        direct = np.array([[a @ A @ b for A in G.A] for a, b in zip(h1, h2)])
        assert np.allclose(G.omega(h1, h2), direct, rtol=0, atol=1e-13)
        assert np.allclose(G.omega(h1[0], h2[0]), direct[0], rtol=0, atol=1e-13)
        # one point against many broadcasts over the rows
        assert np.allclose(G.omega(h1[0], h2), [[h1[0] @ A @ b for A in G.A] for b in h2],
                           rtol=0, atol=1e-13)
