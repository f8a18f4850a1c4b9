import math

import numpy as np
import pytest
from scipy.stats import kstest

from carnot.cli import _load_group
from carnot.groups import heisenberg
from carnot.kernels import vertical_charfn
from carnot.levy import CompoundPoisson, LevyExponent, NormalDist
from carnot.simulate import (
    CharFnEstimate,
    PathConfig,
    estimate_charfn,
    simulate_levy_on_group,
    simulate_levy_ou,
)

G = heisenberg(1)
PSI_CP = LevyExponent(jumps=CompoundPoisson(3.0, NormalDist([0.0], [[1.0]])), m=1)


def cfg(paths=10_000, t=1.0, seed=7, steps=1024, antithetic=False):
    return PathConfig(horizon=t, steps_per_unit=steps, paths=paths, seed=seed,
                      antithetic=antithetic)


def test_config_validation():
    with pytest.raises(ValueError):
        PathConfig(horizon=1.0, steps_per_unit=1000)  # not a power of two
    with pytest.raises(ValueError):
        PathConfig(horizon=1.0, paths=10)
    with pytest.raises(ValueError):
        PathConfig(horizon=0.0)


def test_seed_determinism():
    a = simulate_levy_on_group(G, PSI_CP, cfg(paths=500))
    b = simulate_levy_on_group(G, PSI_CP, cfg(paths=500))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_area_mean_and_variance():
    H, V = simulate_levy_on_group(G, None, cfg(paths=40_000))
    v = V[:, 0]
    assert abs(v.mean()) < 3 * v.std() / math.sqrt(len(v))
    # Var v(t) = t^2; estimator error ~ sqrt(Var(v^2)/n) with E v^4 = 5 t^4
    se = math.sqrt((5.0 - 1.0) / len(v))
    assert abs(v.var() - 1.0) < 3 * se
    # horizontal coordinates have variance 2t
    assert H[:, 0].var() == pytest.approx(2.0, rel=0.05)


def test_step_halving_stability():
    v1 = simulate_levy_on_group(G, None, cfg(paths=20_000, steps=512))[1][:, 0]
    v2 = simulate_levy_on_group(G, None, cfg(paths=20_000, steps=1024))[1][:, 0]
    se = math.sqrt(4.0 / len(v1))
    assert abs(v1.var() - v2.var()) < se


@pytest.mark.parametrize("spec, psi, paths", [
    pytest.param("h1", None, 60_000, id="None"),
    pytest.param("h1", PSI_CP, 60_000, id="psi1"),
    pytest.param("h2", None, 40_000, id="h2"),
    pytest.param("quaternionic", None, 40_000, id="quaternionic"),
])
def test_charfn_vs_kernel(spec, psi, paths):
    # m > 1 exercises the tail covariance across vertical directions
    t = 1.0
    grp, _ = _load_group(f"builtin:{spec}")
    H, V = simulate_levy_on_group(grp, psi, cfg(paths=paths, t=t))
    panel = [np.full(grp.m, lam / math.sqrt(grp.m)) for lam in (0.5, 1.0, 2.0)]
    est = estimate_charfn(V, panel)
    for k, lam in enumerate(panel):
        exact = vertical_charfn(grp, psi, t, lam)
        assert abs(est.values[k] - exact) < 3 * est.stderr[k] + 2e-3


def test_thread_count_determinism(monkeypatch):
    # 45k paths make three chunks, so two workers really share the work
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CARNOT_THREADS", threads)
        runs.append(simulate_levy_on_group(G, PSI_CP, cfg(paths=45_000, steps=256))
                    + simulate_levy_ou(G, PSI_CP, cfg(paths=45_000, t=2.0, steps=256)))
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_group_law_consistency():
    # simulate [0, s] then [s, t] with left-increment composition
    s, t = 0.4, 1.0
    H1s, V1s = simulate_levy_on_group(G, PSI_CP, cfg(paths=40_000, t=s, seed=11))
    H2s, V2s = simulate_levy_on_group(G, PSI_CP, cfg(paths=40_000, t=t - s, seed=12))
    Hc, Vc = G.mul_arrays(H1s, V1s, H2s, V2s)
    Ho, Vo = simulate_levy_on_group(G, PSI_CP, cfg(paths=40_000, t=t, seed=13))
    for lam in (0.5, 1.0):
        e1 = estimate_charfn(Vc, [[lam]])
        e2 = estimate_charfn(Vo, [[lam]])
        assert abs(e1.values[0] - e2.values[0]) < 3 * (e1.stderr[0] + e2.stderr[0])


def test_estimator_basics():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=math.sqrt(0.5), size=(50_000, 1))
    est = estimate_charfn(x, [[0.0], [1.0]])
    assert est.values[0] == pytest.approx(1.0) and est.stderr[0] == 0.0
    assert abs(est.values[1] - math.exp(-0.25)) < 3 * est.stderr[1]
    assert est.check_modulus()


def test_antithetic_agreement():
    a = simulate_levy_on_group(G, None, cfg(paths=30_000, seed=3))
    b = simulate_levy_on_group(G, None, cfg(paths=30_000, seed=4, antithetic=True))
    ea = estimate_charfn(a[1], [[1.0]])
    eb = estimate_charfn(b[1], [[1.0]])
    assert abs(ea.values[0] - eb.values[0]) < 3 * (ea.stderr[0] + eb.stderr[0])


def test_ou_horizontal_marginal_gaussian():
    H, V = simulate_levy_ou(G, None, cfg(paths=10_000, t=10.0, seed=21))
    # stationary horizontal marginal is standard normal per coordinate
    assert kstest(H[:, 0], "norm").pvalue > 0.01
    assert kstest(H[:, 1], "norm").pvalue > 0.01


def test_ou_mean_decay_from_far_start():
    x0 = (np.array([10.0, 0.0]), np.array([0.0]))
    means = []
    for t in (1.0, 2.0, 3.0):
        H, _ = simulate_levy_ou(G, None, cfg(paths=10_000, t=t, seed=30), x0=x0)
        means.append(H[:, 0].mean())
    slope = np.polyfit([1.0, 2.0, 3.0], np.log(means), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


@pytest.mark.parametrize("psi", [None, PSI_CP])
def test_ou_stationary_charfn(psi):
    H, V = simulate_levy_ou(G, psi, cfg(paths=60_000, t=6.0, seed=41))
    est = estimate_charfn(V, [[0.25], [0.5], [1.0]])
    for k, lam in enumerate((0.25, 0.5, 1.0)):
        exact = vertical_charfn(G, psi, None, lam, invariant=True)
        assert abs(est.values[k] - exact) < 3 * est.stderr[k] + 2e-3


def test_ou_warns_without_log_moment():
    class HeavyTail(CompoundPoisson):
        in_N_log = False

    psi = LevyExponent(jumps=HeavyTail(1.0, NormalDist([0.0], [[1.0]])), m=1)
    with pytest.warns(UserWarning, match="logarithmic"):
        simulate_levy_ou(G, psi, cfg(paths=200, t=6.0))
