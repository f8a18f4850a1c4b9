import json

import numpy as np
import pytest
from click.testing import CliRunner

from carnot.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


def test_group_describe_golden(runner):
    res = invoke(runner, ["group", "describe", "--spec", "builtin:h1"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert (data["n"], data["m"], data["d"], data["k"]) == (2, 1, 1, 0)
    assert data["generic_rank"] == 2
    for sample in data["eta_samples"]:
        assert sample["eta"][0] == pytest.approx(abs(sample["lambda"][0]), rel=1e-10)


def test_group_describe_rejects_bad_matrix(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "m": 1, "A": [[[0.0, 1.0], [1.0, 0.0]]]}))
    res = runner.invoke(main, ["group", "describe", "--spec", str(bad)])
    assert res.exit_code == 2
    assert "A[0]" in res.output


def test_psi_commands(runner):
    res = invoke(runner, ["psi", "eval", "--psi", "builtin:psi_cp", "--lam", "1.0"])
    data = json.loads(res.output)
    assert data["psi"][0] == pytest.approx(3 * (np.exp(-0.5) - 1), rel=1e-10)
    res = invoke(runner, ["psi", "psit", "--psi", "builtin:psi_gaussian",
                          "--lam", "1.0", "--t", "0.5"])
    data = json.loads(res.output)
    assert data["psi_t"][0] == pytest.approx(-(np.e**2 - 1) / 4, rel=1e-10)
    res = invoke(runner, ["psi", "limit", "--psi", "builtin:psi_gaussian", "--lam", "2.0"])
    data = json.loads(res.output)
    assert data["psi_limit"][0] == pytest.approx(-1.0, rel=1e-10)


def test_spectrum_delta(runner):
    res = invoke(runner, ["spectrum", "delta", "--psi", "builtin:psi_gaussian"])
    data = json.loads(res.output)
    assert data == {"kind": "interval", "interval": ["-inf", 0.0]}
    res = invoke(runner, ["spectrum", "delta", "--psi", "builtin:psi_stable"])
    assert json.loads(res.output)["kind"] == "interval"


def test_spectrum_ou(runner):
    res = invoke(runner, ["spectrum", "ou", "--degree", "2"])
    data = json.loads(res.output)
    mults = [lvl["algebraic_multiplicity"] for lvl in data["levels"]]
    assert mults == [1, 2, 4]
    geos = [lvl["geometric_multiplicity"] for lvl in data["levels"]]
    assert geos == [1, 2, 4]


def test_spectrum_ou_stable_rejected(runner):
    res = runner.invoke(main, ["spectrum", "ou", "--psi", "builtin:psi_stable"])
    assert res.exit_code == 2
    assert "stable" in res.output


def test_kernel_hat(runner):
    res = invoke(runner, ["kernel", "hat", "--lam", "1.0", "--t", "0.5"])
    val = json.loads(res.output)["value"][0]
    assert val == pytest.approx(1 / (2 * np.pi) / (2 * np.sinh(0.5)), rel=1e-10)


def test_kernel_invert_and_estimate(runner, tmp_path):
    out = tmp_path / "q.csv"
    res = invoke(runner, [
        "kernel", "invert", "--grid", "h:-3:3:13,v:-3:3:17",
        "--out", str(out), "--gnuplot",
    ])
    data = json.loads(res.output)
    assert data["mass"] == pytest.approx(1.0, abs=1e-9)
    assert out.exists() and (tmp_path / "q.csv.dat").exists()
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (13 * 13 * 17, 4)


def test_simulate_estimate_roundtrip(runner, tmp_path):
    out = tmp_path / "s.csv"
    invoke(runner, ["simulate", "levy", "--t", "1.0", "--paths", "2000",
                    "--steps", "512", "--seed", "5", "--out", str(out)])
    res = invoke(runner, ["estimate", "charfn", "--samples", str(out),
                          "--lam", "0.5;1.0"])
    data = json.loads(res.output)
    assert data["modulus_ok"] and data["paths"] == 2000
    # loose agreement with the closed-form vertical charfn
    assert data["values"][1][0] == pytest.approx(1 / np.cosh(1.0), abs=0.08)


def test_simulate_determinism_bytes(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "ou", "--t", "2.0", "--paths", "500", "--steps", "256",
            "--seed", "9"]
    invoke(runner, args + ["--out", str(a)])
    invoke(runner, args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_simulate_rejects_nonfinite_horizon(runner, tmp_path, t):
    res = runner.invoke(main, ["simulate", "levy", "--t", t, "--paths", "200",
                               "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 2
    assert "finite" in res.output


@pytest.mark.parametrize("lam", ["nan", "1.0,inf"])
def test_psi_eval_rejects_nonfinite_lam(runner, lam):
    res = runner.invoke(main, ["psi", "eval", "--psi", "builtin:psi_cp", "--lam", lam])
    assert res.exit_code == 2
    assert "finite" in res.output


def test_verify_seed_reaches_mc_check(runner, tmp_path):
    manifest = tmp_path / "runs.jsonl"
    for extra in ([], ["--seed", "123"]):
        runner.invoke(main, ["verify", "mc-kernel", "--quick", "--manifest", str(manifest)]
                      + extra)
    default, seeded = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert default["seed"] is None and default["results"][0]["seed"] == 7
    assert seeded["seed"] == 123 and seeded["results"][0]["seed"] == 123
    assert seeded["results"][0]["none"] != default["results"][0]["none"]


def test_verify_quick_and_manifest(runner, tmp_path):
    manifest = tmp_path / "runs.jsonl"
    res = invoke(runner, ["verify", "eigen", "isospectral", "spectrum",
                          "--manifest", str(manifest)])
    assert res.exit_code == 0
    assert res.output.count("PASS") == 3
    record = json.loads(manifest.read_text().splitlines()[0])
    assert [r["check"] for r in record["results"]] == [
        "eigenvalue-ladder", "isospectrality", "spectrum-description"
    ]
    assert all(r["passed"] for r in record["results"])
    # manifests append
    invoke(runner, ["verify", "eigen", "--manifest", str(manifest)])
    assert len(manifest.read_text().splitlines()) == 2


def test_verify_failure_exit_code(runner, tmp_path, monkeypatch):
    # force a failing check through an impossible tolerance
    from carnot import verify as V

    monkeypatch.setitem(V.CHECKS, "eigen", lambda G=None: V.check_eigenvalue_ladder(G, tol=0.0))
    res = runner.invoke(main, ["verify", "eigen", "--manifest", str(tmp_path / "m.jsonl")])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_unknown_check(runner):
    res = runner.invoke(main, ["verify", "nonsense"])
    assert res.exit_code == 2


def test_stable_skips_polynomial_checks(runner, tmp_path):
    # capability gating: stable jumps cannot feed the polynomial calculus
    from carnot.levy import LevyExponent, StableJumps
    from carnot.verify import check_isospectrality

    res = check_isospectrality(exponents={
        "stable": LevyExponent(jumps=StableJumps(1.5), m=1),
        "none": None,
    })
    assert res.passed
    assert "skipped_stable" in res.detail
