import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from carnot.errors import AccuracyError, UnsupportedOperationError
from carnot.levy import (
    AtomDist,
    AtomJumps,
    CompoundPoisson,
    LevyExponent,
    NoJumps,
    NormalDist,
    StableJumps,
)


@pytest.fixture
def psi_gauss():
    return LevyExponent(sigma=[[1.0]])


@pytest.fixture
def psi_cp():
    return LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1)


@pytest.fixture
def psi_stable():
    return LevyExponent(jumps=StableJumps(1.5, 1.0), m=1)


def test_psi_gaussian(psi_gauss):
    assert complex(psi_gauss.psi(2.0)) == pytest.approx(-4.0)
    assert complex(psi_gauss.psi(0.0)) == 0.0


def test_psi_compound_poisson_value(psi_cp):
    # rate * (normal charfn - 1); the compensator vanishes by symmetry
    expected = 3.0 * (math.exp(-0.5) - 1.0)
    assert complex(psi_cp.psi(1.0)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-1.18040802, abs=1e-7)


def test_psi_cp_against_direct_quadrature(psi_cp):
    # independent oracle: numerically integrate the defining jump integral
    lam = 1.3

    def re_part(v):
        return (math.cos(lam * v) - 1.0) * 3.0 * norm.pdf(v)

    def im_part(v):
        return (math.sin(lam * v) - lam * v * (abs(v) <= 1.0)) * 3.0 * norm.pdf(v)

    re, _ = quad(re_part, -12, 12, limit=200)
    im, _ = quad(im_part, -12, 12, limit=200)
    got = complex(psi_cp.psi(lam))
    assert got.real == pytest.approx(re, abs=1e-8)
    assert got.imag == pytest.approx(im, abs=1e-8)


def test_psi_zero_for_all_variants(psi_gauss, psi_cp, psi_stable):
    atoms = LevyExponent(jumps=AtomJumps([[0.5], [-0.5], [2.0]], [1.0, 1.0, 0.3]), m=1)
    for psi in (psi_gauss, psi_cp, psi_stable, atoms):
        assert abs(complex(psi.psi(np.zeros(1)))) < 1e-14


def test_psi_t_closed_form(psi_gauss):
    assert abs(complex(psi_gauss.psi_t(0.0, 1.0))) == 0.0
    expected = -(math.e**2 - 1.0) / 4.0
    assert complex(psi_gauss.psi_t(0.5, 1.0)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-1.59726402, abs=1e-7)


@pytest.mark.parametrize("fixture", ["psi_gauss", "psi_cp", "psi_stable"])
def test_psi_t_cocycle(fixture, request):
    psi = request.getfixturevalue(fixture)
    rng = np.random.default_rng(10)
    tol = 1e-10 if fixture != "psi_cp" else 1e-7
    for _ in range(10):
        t, s = rng.uniform(-0.8, 0.8, size=2)
        lam = rng.normal(scale=1.5, size=1)
        lhs = psi.psi_t(t + s, lam) - psi.psi_t(t, lam)
        rhs = psi.psi_t(s, math.exp(2 * t) * lam)
        assert abs(complex(lhs - rhs)) < tol


def test_psi_limit_gaussian(psi_gauss):
    lam = 1.7
    assert complex(psi_gauss.psi_limit(lam)) == pytest.approx(-(lam**2) / 4.0, rel=1e-12)


def test_psi_limit_stable():
    alpha, scale = 1.5, 0.7
    psi = LevyExponent(jumps=StableJumps(alpha, scale), m=1)
    lam = 2.0
    expected = -scale * lam**alpha / (2 * alpha)
    assert complex(psi.psi_limit(lam)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("fixture", ["psi_gauss", "psi_cp", "psi_stable"])
def test_psi_limit_dilation_identity(fixture, request):
    # int_0^inf psi(e^{-2s} e^{2t} lam) ds = psi_limit(lam) + psi_t(lam)
    psi = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    tol = 1e-10 if fixture != "psi_cp" else 1e-7
    for _ in range(8):
        t = rng.uniform(-0.7, 0.7)
        lam = rng.normal(scale=1.2, size=1)
        lhs = psi.psi_limit(math.exp(2 * t) * lam)
        rhs = psi.psi_limit(lam) + psi.psi_t(t, lam)
        assert abs(complex(lhs - rhs)) < tol


def test_negative_definiteness_and_conjugation(psi_cp):
    psi_drift = LevyExponent(sigma=[[0.5]], b=[0.7],
                             jumps=CompoundPoisson(1.0, NormalDist([0.2], [[1.0]])))
    rng = np.random.default_rng(12)
    for psi in (psi_cp, psi_drift):
        for _ in range(50):
            lam = rng.normal(scale=3.0, size=1)
            val = complex(psi.psi(lam))
            assert val.real <= 1e-12
            assert complex(psi.psi(-lam)) == pytest.approx(val.conjugate(), abs=1e-12)


def test_membership_flags(psi_gauss, psi_cp, psi_stable):
    assert psi_gauss.in_N_log and psi_gauss.in_N_exp and psi_gauss.is_real_valued
    assert psi_cp.in_N_log and psi_cp.in_N_exp and psi_cp.is_real_valued
    assert psi_stable.in_N_log and not psi_stable.in_N_exp
    drift = LevyExponent(b=[1.0])
    assert not drift.is_real_valued


def test_no_stationary_law_gate():
    class NoLogJumps(NoJumps):
        in_N_log = False

    psi = LevyExponent(jumps=NoLogJumps(), m=1)
    with pytest.raises(UnsupportedOperationError):
        psi.psi_limit(1.0)


def test_moment_gate_for_stable(psi_stable):
    with pytest.raises(UnsupportedOperationError, match="stable"):
        psi_stable.require_moments(4)


def test_levy_moments_against_quadrature(psi_cp):
    got = psi_cp.levy_moment((4,))

    def integrand(v):
        return v**4 * 3.0 * norm.pdf(v)

    expected, _ = quad(integrand, -12, 12, limit=200)
    assert got == pytest.approx(expected, rel=1e-9)
    atoms = AtomJumps([[0.5], [2.0]], [1.0, 0.25])
    assert atoms.moment((3,)) == pytest.approx(1.0 * 0.125 + 0.25 * 8.0)


def test_stationary_moments_gaussian(psi_gauss):
    mom = psi_gauss.stationary_moments(6)
    # invariant law is N(0, 1/2)
    assert mom[(2,)] == pytest.approx(0.5, rel=1e-12)
    assert mom[(4,)] == pytest.approx(3 * 0.25, rel=1e-12)
    assert abs(mom[(1,)]) < 1e-14 and abs(mom[(3,)]) < 1e-14


def test_stationary_moments_cp(psi_cp):
    mom = psi_cp.stationary_moments(2)
    # variance = (2 sigma + m2(kappa)) / 4 with sigma = 0, m2 = 3
    assert mom[(2,)] == pytest.approx(0.75, rel=1e-12)


def test_sampler_gaussian_mean_and_variance(psi_gauss):
    rng = np.random.default_rng(13)
    x = psi_gauss.sample_increments(1.0, rng, 100_000)[:, 0]
    assert abs(x.mean()) < 3 * math.sqrt(2.0 / 100_000)
    assert x.var() == pytest.approx(2.0, rel=0.02)


def test_sampler_pure_drift():
    psi = LevyExponent(b=[1.0])
    rng = np.random.default_rng(14)
    x = psi.sample_increments(2.0, rng, 5)
    assert np.allclose(x, 2.0)


def test_sampler_cp_jump_count():
    rng = np.random.default_rng(15)
    cp = CompoundPoisson(3.0, AtomDist([[1.0]], [1.0]))
    draws = cp.sample(1.0, rng, 100_000, 1)[:, 0]
    # all jumps equal 1, compensated by rate * truncated mean = 3
    counts = draws + 3.0
    assert counts.mean() == pytest.approx(3.0, abs=3 * math.sqrt(3.0 / 100_000))


@pytest.mark.parametrize("fixture", ["psi_gauss", "psi_cp", "psi_stable"])
def test_empirical_charfn_matches_exponent(fixture, request):
    psi = request.getfixturevalue(fixture)
    rng = np.random.default_rng(16)
    t = 0.8
    x = psi.sample_increments(t, rng, 200_000)[:, 0]
    for lam in (0.5, 1.0, 2.0):
        emp = np.exp(1j * lam * x)
        se = math.sqrt(emp.real.var() / x.size) + math.sqrt(emp.imag.var() / x.size)
        target = np.exp(t * complex(psi.psi(lam)))
        assert abs(emp.mean() - target) < 3 * se + 1e-12


def test_deformed_sampler_matches_psi_t(psi_cp):
    rng = np.random.default_rng(17)
    t = 0.6
    x = psi_cp.sample_deformed(t, rng, 200_000)[:, 0]
    for lam in (0.4, 1.1):
        emp = np.exp(1j * lam * x)
        se = math.sqrt(emp.real.var() / x.size) + math.sqrt(emp.imag.var() / x.size)
        target = np.exp(complex(psi_cp.psi_t(t, lam)))
        assert abs(emp.mean() - target) < 3 * se + 1e-12


def test_seed_determinism(psi_cp):
    a = psi_cp.sample_increments(1.0, np.random.default_rng(42), 1000)
    b = psi_cp.sample_increments(1.0, np.random.default_rng(42), 1000)
    assert np.array_equal(a, b)


def test_json_roundtrip(tmp_path):
    spec = {
        "sigma": [[0.5]],
        "b": [0.0],
        "jumps": {"type": "compound_poisson", "rate": 2.0,
                  "dist": {"kind": "normal", "mean": [0.0], "cov": [[1.0]]}},
    }
    p = tmp_path / "psi.json"
    p.write_text(__import__("json").dumps(spec))
    psi = LevyExponent.from_json(p)
    assert psi.describe()["jumps"]["type"] == "compound_poisson"
    assert psi.in_N_exp


# -- the closed forms of psi_inf and psi_t, and the quadrature for the rest --

CLOSED_FORM_CASES = {
    "cp-m1": LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1),
    "cp-m2": LevyExponent(
        jumps=CompoundPoisson(2.0, NormalDist([0.0, 0.0], [[1.0, 0.3], [0.3, 0.5]])), m=2),
    "atoms": LevyExponent(jumps=AtomJumps([[0.5], [-0.5], [2.0]], [1.0, 1.0, 0.3]), m=1),
    "cp-atoms": LevyExponent(
        jumps=CompoundPoisson(2.0, AtomDist([[0.3], [1.5], [-0.8]], [0.5, 0.2, 0.3])), m=1),
    "shifted-normal-0.2": LevyExponent(
        sigma=[[0.5]], b=[0.7], jumps=CompoundPoisson(1.0, NormalDist([0.2], [[1.0]]))),
    "shifted-normal-1.0": LevyExponent(jumps=CompoundPoisson(1.5, NormalDist([1.0], [[0.5]]))),
}


def _adaptive(fn, a, b):
    """``int_a^b fn(s) ds`` of a complex integrand by adaptive quadrature."""
    kw = dict(limit=1000, epsabs=1e-14, epsrel=1e-13)
    return complex(quad(lambda s: fn(s).real, a, b, **kw)[0],
                   quad(lambda s: fn(s).imag, a, b, **kw)[0])


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_psi_limit_and_psi_t_against_adaptive_quadrature(name):
    # the defining integrals in s, up to |lam| = 40; e^{-80} |lam| is below
    # every jump scale, so the s-range [0, 40] loses nothing
    psi = CLOSED_FORM_CASES[name]
    rng = np.random.default_rng(18)
    t = 0.6
    for mag in (0.3, 1.0, 5.0, 17.0, 40.0):
        direction = rng.normal(size=psi.m)
        lam = rng.choice([-1.0, 1.0]) * mag * direction / np.linalg.norm(direction)
        ref = _adaptive(lambda s: complex(psi.psi(math.exp(-2 * s) * lam)), 0.0, 40.0)
        assert abs(complex(psi.psi_limit(lam)) - ref) < 1e-12 * max(1.0, abs(ref))
        ref = _adaptive(lambda s: complex(psi.psi(math.exp(2 * s) * lam)), 0.0, t)
        assert abs(complex(psi.psi_t(t, lam)) - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_psi_limit_dilation_identity_exact(name):
    psi = CLOSED_FORM_CASES[name]
    rng = np.random.default_rng(19)
    for _ in range(8):
        t = rng.uniform(-0.7, 0.7)
        lam = rng.normal(scale=3.0, size=psi.m)
        lhs = psi.psi_limit(math.exp(2 * t) * lam)
        rhs = psi.psi_limit(lam) + psi.psi_t(t, lam)
        assert abs(complex(lhs - rhs)) < 1e-12


def test_psi_limit_batch_matches_single_frequencies():
    psi = CLOSED_FORM_CASES["shifted-normal-0.2"]
    lam = np.linspace(-6.0, 6.0, 7)
    batch = psi.psi_limit(lam)
    single = [complex(psi.psi_limit(x)) for x in lam]
    assert np.max(np.abs(batch - single)) < 1e-14


def test_stationary_quadrature_raises_rather_than_truncates():
    # narrow jumps far from the origin: e^{i u lam 50} turns about 300 times
    # over u in (0, 1] at lam = 40, which the fixed rule cannot resolve
    psi = LevyExponent(jumps=CompoundPoisson(1.0, NormalDist([50.0], [[1e-4]])), m=1)
    with pytest.raises(AccuracyError, match="did not converge"):
        psi.psi_limit(40.0)
    with pytest.raises(AccuracyError, match="did not converge"):
        psi.psi_t(0.5, 40.0)
    assert np.isfinite(complex(psi.psi_limit(0.01)))


@pytest.mark.parametrize("spec", [
    {"jumps": {"type": "compound_poisson"}},
    [1, 2],
    {"n": 2, "m": 1, "A": [[[0.0, 1.0], [-1.0, 0.0]]]},
    {"sigma": [[1.0]], "drift": [0.5]},
    {"jumps": {"type": "stable", "alpha": [1.5]}},
    {"jumps": {"type": "compound_poisson", "rate": 1.0, "dist": {"kind": "normal", "sd": 1}}},
    {"jumps": {"type": "compound_poisson", "rate": 1.0, "dist": {"kind": "gamma"}}},
    {"jumps": {"type": "atoms", "points": [[1.0]]}},
    {"jumps": "none"},
    {"m": 1, "jumps": {"type": "compound_poisson", "rate": 1.0,
                       "dist": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}},
], ids=["no-rate", "list", "group-spec", "unknown-key", "alpha-list", "unknown-dist-key",
        "unknown-kind", "no-weights", "jumps-string", "dist-dimension"])
def test_malformed_spec_is_a_value_error(spec):
    with pytest.raises(ValueError):
        LevyExponent.from_dict(spec)


# every jump kind, drifted and asymmetric ones included: the exponents whose
# vertical inversions run on the half line lam > 0
HERMITIAN_CASES = {
    "none": LevyExponent(m=1),
    "gaussian": LevyExponent(sigma=[[1.0]]),
    "gaussian-drift": LevyExponent(sigma=[[1.0]], b=[0.5]),
    "cp-normal-mean": LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.7], [[1.0]])), m=1),
    "atoms-asymmetric": LevyExponent(jumps=AtomJumps([[1.5], [-0.4]], [0.8, 2.0]), m=1),
    "stable": LevyExponent(jumps=StableJumps(1.5, 1.0), m=1),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lam=st.floats(0.0, 60.0), t=st.floats(0.01, 3.0))
def test_exponents_are_hermitian(lam, t):
    # psi(-lam) = conj psi(lam) for psi, psi_t and psi_limit: the exponent of
    # a real Levy process, so every envelope inverted is Hermitian
    for name, psi in HERMITIAN_CASES.items():
        for fn in (psi.psi, lambda x: psi.psi_t(t, x), psi.psi_limit):
            got, ref = complex(fn(-lam)), complex(fn(lam)).conjugate()
            assert abs(got - ref) <= 1e-15 * abs(ref), (name, lam, t, got, ref)
