import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carnot.errors import DegenerateFrameError
from carnot.groups import (
    CarnotGroup,
    free_step2,
    heisenberg,
    nonisotropic_heisenberg,
    quaternionic_h_type,
)
from carnot.kernels import _HatProfile
from carnot.spectral import _unit_frame, frame_at, harmonic_eigenvalue, spectrum_of_generator

# m = 1: every lambda has the direction +1 or -1 exactly
ONE_VERTICAL = {
    "h1": heisenberg(1),
    "h2": heisenberg(2),
    "nonisotropic": nonisotropic_heisenberg([1.0, 2.5]),
}
THREE_VERTICAL = {"quaternionic": quaternionic_h_type(), "free2(3)": free_step2(3)}
# the unit-direction spectrum from eigh is within 2.2e-15 relative of exact
# (5000 random directions on quaternionic, where eta = |lam|), at lambda and at c lambda
ETA_RTOL = 5e-15


def block_form(fr):
    d = fr.d
    expected = np.zeros((2 * d + fr.k, 2 * d + fr.k))
    expected[:d, d:2 * d] = np.diag(fr.eta)
    expected[d:2 * d, :d] = -np.diag(fr.eta)
    return expected


def test_heisenberg_eta():
    G = heisenberg(1)
    fr = frame_at(G, [3.0])
    assert np.allclose(fr.eta, [3.0])
    assert fr.pf == pytest.approx(3.0)
    assert (fr.d, fr.k) == (1, 0)
    fr2 = frame_at(G, [-2.0])
    assert np.allclose(fr2.eta, [2.0])


def test_nonisotropic_weights():
    G = nonisotropic_heisenberg([2.0, 0.5])
    fr = frame_at(G, [1.0])
    assert np.allclose(fr.eta, [2.0, 0.5])


def test_frame_invariants_random():
    rng = np.random.default_rng(5)
    for G in (heisenberg(2), free_step2(3)):
        for _ in range(25):
            lam = rng.normal(size=G.m)
            fr = frame_at(G, lam)
            omega = G.omega_matrix(lam)
            # orthonormality
            gram = fr.frame.T @ fr.frame
            assert np.max(np.abs(gram - np.eye(G.n))) < 1e-12
            # canonical block form
            got = fr.frame.T @ omega @ fr.frame
            assert np.max(np.abs(got - block_form(fr))) < 1e-10 * max(1.0, fr.eta[0])
            # pfaffian vs determinant of the nondegenerate block
            blk = got[: 2 * fr.d, : 2 * fr.d]
            assert np.linalg.det(blk) == pytest.approx(fr.pf**2, rel=1e-10)


def test_generic_rank_constancy():
    rng = np.random.default_rng(7)
    for G in (heisenberg(2), free_step2(3)):
        flagged = 0
        for _ in range(100):
            lam = rng.normal(size=G.m)
            lam /= np.linalg.norm(lam)
            if frame_at(G, lam).degenerate:
                flagged += 1
        assert flagged == 0


def test_degenerate_stratum_flagged():
    # two independent planes: rank drops when one coefficient vanishes
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]])
    A2 = np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), J]])
    G = CarnotGroup(4, 2, [A1, A2])
    assert G.generic_rank == 4
    fr = frame_at(G, [1.0, 0.0])
    assert fr.degenerate and fr.rank == 2
    with pytest.raises(DegenerateFrameError, match=r"rank 2 < generic 4"):
        fr.require_generic()


def test_lambda_zero_rejected():
    with pytest.raises(ValueError):
        frame_at(heisenberg(1), [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_lambda_rejected_before_linear_algebra(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for G, lam in ((heisenberg(1), [bad]), (quaternionic_h_type(), [0.5, bad, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                frame_at(G, lam)


def test_extreme_lambda_magnitudes():
    G = quaternionic_h_type()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # H-type: eta_j(lam) = |lam|, finite although |lam|^2 overflows
        fr = frame_at(G, [1e300, -1e300, 1e300])
        np.testing.assert_allclose(fr.eta, math.hypot(1e300, 1e300, 1e300), rtol=ETA_RTOL)
        # subnormal
        assert frame_at(G, [1e-320, 0.0, 0.0]).eta.tolist() == [1e-320, 1e-320]
        assert frame_at(heisenberg(1), [1e-320]).eta.tolist() == [1e-320]
        with pytest.raises(ValueError, match="finite norm"):
            frame_at(G, [1.5e308, 1.5e308, 0.0])


_magnitudes = st.floats(1e-100, 1e100)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(ONE_VERTICAL)), lam=_magnitudes,
       sign=st.sampled_from([1.0, -1.0]), c=_magnitudes)
def test_one_frame_per_direction(name, lam, sign, c):
    G, lam = ONE_VERTICAL[name], sign * lam
    fr = frame_at(G, [lam])
    assert np.array_equal(frame_at(G, [c * lam]).frame, fr.frame)
    # the grid path's spectrum is the single-frequency one
    assert np.array_equal(_HatProfile(G, 0.5).eta(np.array([lam]))[0], fr.eta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(THREE_VERTICAL)),
       lam=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), c=st.floats(1e-3, 1e3))
def test_eta_homogeneity(name, lam, c):
    # the frames of lam and c lam may differ where eta has a multiple value (quaternionic)
    G = THREE_VERTICAL[name]
    assume(np.linalg.norm(lam) > 1e-3)
    lam = np.array(lam)
    fr = frame_at(G, c * lam)
    np.testing.assert_allclose(fr.eta, c * frame_at(G, lam).eta, rtol=ETA_RTOL, atol=0.0)
    assert np.max(np.abs(fr.frame.T @ fr.frame - np.eye(G.n))) < 1e-14
    got = fr.frame.T @ G.omega_matrix(c * lam) @ fr.frame
    assert np.max(np.abs(got - block_form(fr))) < 1e-14 * fr.eta[0]


def test_unit_frame_memo_is_bounded_and_read_only():
    G = quaternionic_h_type()
    for lam in np.random.default_rng(12).normal(size=(1000, G.m)):
        frame_at(G, lam)
    info = _unit_frame.cache_info()
    assert info.currsize <= info.maxsize == 64
    lam = [0.4, -1.1, 0.7]
    fr = frame_at(G, lam)
    before = fr.frame.copy()
    with pytest.raises(ValueError):
        fr.frame[0, 0] = 1.0
    assert np.array_equal(frame_at(G, lam).frame, before)


def test_free_group_radical():
    fr = frame_at(free_step2(3), [0.3, -1.2, 0.7])
    assert (fr.d, fr.k) == (1, 1)
    assert fr.eta[0] == pytest.approx(np.linalg.norm([0.3, -1.2, 0.7]), rel=1e-12)


def test_harmonic_eigenvalue():
    G = heisenberg(1)
    assert harmonic_eigenvalue(frame_at(G, [1.0]), [0]) == pytest.approx(1.0)
    assert harmonic_eigenvalue(frame_at(G, [3.0]), [2]) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        harmonic_eigenvalue(frame_at(G, [1.0]), [0], [1.0])  # k = 0, nu must be empty
    # scaling limit: n -> 0 along rays
    vals = [harmonic_eigenvalue(frame_at(G, [eps]), [0]) for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[-1] < 1e-5


def test_spectrum_description_interval():
    G = heisenberg(1)
    desc = spectrum_of_generator(G, None)
    assert desc.kind == "interval" and desc.s0 == 0.0
    rng = np.random.default_rng(8)
    for _ in range(20):
        val = desc.sample([rng.integers(0, 4)], [rng.normal()])
        assert val.real <= 0.0 and abs(val.imag) < 1e-12


def test_spectrum_description_full_laplacian_and_drift():
    from carnot.levy import LevyExponent

    G = heisenberg(1)
    full = spectrum_of_generator(G, LevyExponent(sigma=[[1.0]]))
    assert full.kind == "interval" and full.s0 == 0.0
    drift = spectrum_of_generator(G, LevyExponent(b=[1.0]))
    assert drift.kind == "parametric-set"
    rng = np.random.default_rng(9)
    for _ in range(100):
        val = drift.sample([int(rng.integers(0, 5))], [rng.normal() * 3])
        assert val.real <= 1e-12
