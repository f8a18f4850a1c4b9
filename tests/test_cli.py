import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carnot.cli import main
from carnot.verify import QUICK, run_check


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


def test_group_describe_eta_is_norm_on_h_type(runner):
    # H-type groups: eta_j(lam) = |lam|, exactly on h1
    for spec, rtol in (("h1", 0.0), ("quaternionic", 1e-12)):
        data = json.loads(invoke(runner, ["group", "describe", "--spec", f"builtin:{spec}"]).output)
        for sample in data["eta_samples"]:
            norm = float(np.linalg.norm(sample["lambda"]))
            np.testing.assert_allclose(sample["eta"], norm, rtol=rtol, atol=0.0)


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
    # the explicit eigenfunction of h1^2 is Q_{-1/2} h1^2 = h1^2 - 1
    assert {"h1^2": 1.0, "1": -1.0} in data["levels"][2]["eigenfunctions"]


def test_spectrum_ou_quaternionic_ladder(runner):
    res = invoke(runner, ["spectrum", "ou", "--spec", "builtin:quaternionic", "--degree", "6"])
    levels = json.loads(res.output)["levels"]
    expect = [1, 4, 13, 32, 71, 140, 259]
    assert [lvl["geometric_multiplicity"] for lvl in levels] == expect
    assert [lvl["algebraic_multiplicity"] for lvl in levels] == expect


def test_cli_import_leaves_scipy_linalg_out(tmp_path):
    # the package never imports scipy.linalg: neither at start-up nor in the
    # checks that run the polynomial semigroups
    import carnot

    src = str(Path(carnot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, carnot.cli; loaded = 'scipy.linalg' in sys.modules; "
         "carnot.cli.main(['verify', 'nonnormal', 'intertwine', '--manifest', sys.argv[1]], "
         "standalone_mode=False); print(loaded, 'scipy.linalg' in sys.modules)",
         str(tmp_path / "runs.jsonl")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.splitlines()[-1] == "False False"


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


def test_kernel_invert_reports_the_mass_the_grid_holds(runner, tmp_path):
    # the output is scaled to unit mass on the grid either way; grid_mass is
    # the share of the law before that, so a truncated law shows
    res = invoke(runner, ["kernel", "invert", "--out", str(tmp_path / "heat.csv")])
    data = json.loads(res.output)
    assert data["grid_mass"] == pytest.approx(1.0, abs=0.01)
    assert data["c_norm"] == pytest.approx(1.0 / data["grid_mass"], rel=1e-12)
    path = tmp_path / "psi.json"     # stationary Var v = 2.5e5 against v in [-3, 3]
    path.write_text(json.dumps({"m": 1, "jumps": {
        "type": "compound_poisson", "rate": 1e6,
        "dist": {"kind": "normal", "mean": [0.0], "cov": [[1.0]]}}}))
    res = invoke(runner, ["kernel", "invert", "--kind", "invariant", "--psi", str(path),
                          "--grid", "h:-3:3:7,v:-3:3:13", "--out", str(tmp_path / "cp.csv")])
    data = json.loads(res.output)
    assert data["mass"] == pytest.approx(1.0) and data["grid_mass"] < 0.01


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


@pytest.mark.parametrize("args", [
    ["kernel", "hat", "--lam", "1.0", "--t", "nan"],
    ["kernel", "hat", "--lam", "1.0", "--t", "-inf"],
    ["psi", "psit", "--psi", "builtin:psi_gaussian", "--lam", "1.0", "--t", "nan"],
    ["kernel", "invert", "--t", "inf", "--out", "q.csv"],
    ["kernel", "invert", "--grid", "h:nan:3:5,v:-3:3:5", "--out", "q.csv"],
    ["kernel", "invert", "--grid", "h:-3:3:5,v:-3:inf:5", "--out", "q.csv"],
    ["verify", "--pair", "pi", "--t", "nan"],
])
def test_nonfinite_floats_are_usage_errors(runner, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "finite" in res.output
    assert "NaN" not in res.output and not (tmp_path / "q.csv").exists()


@pytest.mark.parametrize("kind", ["perturbed", "invariant"])
def test_kernel_invert_kind_needs_psi(runner, kind, tmp_path):
    out = tmp_path / "q.csv"
    res = runner.invoke(main, ["kernel", "invert", "--kind", kind, "--out", str(out)])
    assert res.exit_code == 2
    assert "--psi" in res.output and not out.exists()
    res = runner.invoke(main, ["kernel", "invert", "--kind", kind, "--psi", "builtin:psi_gaussian",
                               "--grid", "h:-3:3:5,v:-3:3:7", "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(res.output)["mass"] == pytest.approx(1.0)


def _skip_reasons(result):
    if result.skipped:
        return [result.detail["skipped"]]
    return [v for v in result.detail.values() if isinstance(v, str) and v.startswith("skipped:")]


def _builtin_group(spec):
    from importlib import resources

    from carnot.groups import CarnotGroup

    text = resources.files("carnot.specs").joinpath(f"{spec}.json").read_text()
    return CarnotGroup.from_dict(json.loads(text))


@pytest.mark.parametrize("spec", ["h2", "quaternionic"])
@pytest.mark.parametrize("check", ["intertwine", "coeigen", "weyl", "plancherel"])
def test_unsupported_parts_are_skipped_with_reason(spec, check):
    # each run answers without a traceback and names what it could not run;
    # the intertwining check still runs the relations that do not hard-code
    # the first Heisenberg group (the exact polynomial shifts among them, on
    # exponents of the group's vertical dimension) and skips the others pair
    # by pair
    result = run_check(check, G=_builtin_group(spec))
    assert result.passed
    assert result.skipped == (check != "intertwine")
    reasons = _skip_reasons(result)
    assert reasons and all(len(r) > len("skipped: ") for r in reasons)
    if check == "intertwine":
        assert {f"{name}:{rel}:mixed" for name in ("gaussian", "cp")
                for rel in ("gamma", "lp")} <= set(result.detail)
        # the lift runs on every n: the Mehler side is a tensor rule
        assert {f"{name}:pi:h1" for name in ("none", "gaussian", "cp")} <= set(result.detail)


def test_intertwinings_keep_each_exponents_residual():
    # one key per exponent and relation: cp does not overwrite gaussian
    result = run_check("intertwine", G=_builtin_group("h1"))
    assert result.passed
    for name in ("gaussian", "cp"):
        for rel in ("gamma:mixed", "lp:mixed"):
            assert isinstance(result.detail[f"{name}:{rel}"], float)


@pytest.mark.parametrize("check", ["marginal", "semigroup", "nonnormal"])
def test_h2_grid_checks_answer_or_skip(check):
    # the marginal cycles its two horizontal axes over the four coordinates;
    # the witness uses the exact stationary Gram; the grid convolution is
    # first-Heisenberg only
    result = run_check(check, G=_builtin_group("h2"))
    assert result.passed
    assert result.skipped == (check == "semigroup")
    if check == "marginal":
        assert result.detail["max_abs_err"] < result.detail["tol"]
    elif check == "nonnormal":
        assert result.detail["commutator_norm"] > 1e-6
    else:
        reasons = _skip_reasons(result)
        assert reasons and "n = 2, m = 1" in reasons[0]


@pytest.mark.parametrize("spec", ["h2", "quaternionic"])
@pytest.mark.parametrize("check", list(QUICK) + ["nonnormal", "mc-kernel", "stationary"])
def test_quick_checks_pass_or_skip(spec, check):
    # the Monte Carlo checks at the path count of `carnot verify --quick`
    kw = {"paths": 20_000} if check in ("mc-kernel", "stationary") else {}
    result = run_check(check, G=_builtin_group(spec), **kw)
    assert result.passed
    if result.skipped:
        reasons = _skip_reasons(result)
        assert reasons and all(len(r) > len("skipped: ") for r in reasons)


@pytest.mark.parametrize("spec", ["h1", "h2", "quaternionic", "free2(3)"])
@pytest.mark.parametrize("check", ["eigen", "isospectral"])
def test_ladder_checks_are_exact(spec, check):
    from carnot.groups import free_step2

    G = free_step2(3) if spec == "free2(3)" else _builtin_group(spec)
    result = run_check(check, G=G)
    assert result.passed and not result.skipped
    residual = "max_eig_err" if check == "eigen" else "residual"
    assert result.detail[residual] == 0.0


def test_spectrum_description_with_a_radical():
    from carnot.groups import free_step2

    result = run_check("spectrum", G=free_step2(3))
    assert result.passed and not result.skipped


def test_crashed_check_is_a_recorded_failure(runner, tmp_path, monkeypatch):
    # a check's own exception is a failure with its record, not a usage error
    from carnot import verify as V

    def crash(G=None):
        raise ValueError("boom")

    monkeypatch.setitem(V.CHECKS, "eigen", crash)
    manifest = tmp_path / "m.jsonl"
    res = runner.invoke(main, ["verify", "eigen", "spectrum", "--manifest", str(manifest)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "ValueError: boom" in res.output
    eigen, spectrum = json.loads(manifest.read_text())["results"]
    assert eigen["passed"] is False and eigen["error"] == "ValueError: boom"
    assert spectrum["passed"] is True


def test_manifest_record_keys(runner, tmp_path, monkeypatch):
    import scipy

    from carnot import verify as V

    manifest = tmp_path / "m.jsonl"
    monkeypatch.setenv("CARNOT_THREADS", "3")
    for psi in ([], ["--psi", "builtin:psi_gaussian"]):
        runner.invoke(main, ["verify", "eigen", "--manifest", str(manifest)] + psi)

    def crash(G=None):
        raise ValueError("boom")

    monkeypatch.setitem(V.CHECKS, "eigen", crash)
    runner.invoke(main, ["verify", "eigen", "--manifest", str(manifest)])
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    for record in records:
        assert set(record) == {"command", "argv", "version", "numpy", "scipy", "threads",
                               "spec_sha256", "psi_sha256", "seed", "timestamp",
                               "wall_time_s", "results"}
        assert (record["numpy"], record["scipy"]) == (np.__version__, scipy.__version__)
        assert record["threads"] == 3
    plain, with_psi, crashed = records
    assert plain["psi_sha256"] is None and len(with_psi["psi_sha256"]) == 16
    assert with_psi["psi_sha256"] != with_psi["spec_sha256"]
    assert set(plain["results"][0]) >= {"check", "passed", "elapsed_s"}
    assert set(crashed["results"][0]) == {"check", "passed", "elapsed_s", "error"}


def test_manifest_carries_lambda_rule(runner, tmp_path):
    # each grid check records the largest lambda rule and its self-check error
    manifest = tmp_path / "m.jsonl"
    res = runner.invoke(main, ["verify", "marginal", "semigroup", "coeigen", "--manifest",
                               str(manifest)])
    assert res.exit_code == 0, res.output
    for result in json.loads(manifest.read_text())["results"]:
        assert result["passed"] and result["lam_nodes"] > 0
        assert 0.0 <= result["lam_err"] <= 1e-10


def test_marginal_window_follows_drifted_law():
    # drift 0.5 and jumps of mean 0.7 at rate 2: on [-9, 9] the law's mass
    # past the edge read 1.03e-5 against the 1e-5 tolerance
    from carnot.levy import CompoundPoisson, LevyExponent, NormalDist
    from carnot.verify import _vertical_window, check_marginal

    psi = LevyExponent(b=[0.5], jumps=CompoundPoisson(2.0, NormalDist([0.7], [[1.0]])), m=1)
    v = _vertical_window(psi, 0.5)
    assert v[0] < -9.0 and v[-1] > 9.0 and v[-1] + v[0] > 0
    assert np.allclose(np.diff(v), 18.0 / 240, rtol=1e-12, atol=0.0)
    res = check_marginal(_builtin_group("h1"), exponents={"skew": psi})
    assert res.passed and res.detail["skew_err"] < 1e-5


def _answers(res):
    # an answer (0), a failed check (1) or a usage error (2); never a traceback
    return res.exit_code in (0, 1, 2) and (res.exception is None
                                           or isinstance(res.exception, SystemExit))


@pytest.mark.parametrize("spec", ["h1", "h2", "quaternionic"])
def test_every_command_answers_on_every_builtin_spec(runner, tmp_path, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    G = _builtin_group(spec)
    lam = ",".join(["1"] * G.m)
    for psi in ("none", "builtin:psi_gaussian", "builtin:psi_cp", "builtin:psi_stable"):
        common = ["--spec", f"builtin:{spec}", "--psi", psi]
        sim = common + ["--paths", "200", "--steps", "64", "--t", "0.5"]
        commands = [
            ["group", "describe", "--spec", f"builtin:{spec}"],
            ["psi", "eval", "--psi", psi, "--lam", lam],
            ["psi", "psit", "--psi", psi, "--lam", lam, "--t", "0.5"],
            ["psi", "limit", "--psi", psi, "--lam", lam],
            ["spectrum", "delta"] + common,
            ["spectrum", "ou", "--degree", "2"] + common,
            ["kernel", "hat", "--kind", "perturbed", "--lam", lam] + common,
            ["kernel", "invert", "--kind", "invariant", "--grid", "h:-2:2:5,v:-2:2:5",
             "--out", "q.csv"] + common,
            ["simulate", "levy", "--out", "levy.csv"] + sim,
            ["simulate", "ou", "--out", "ou.csv"] + sim,
            ["estimate", "charfn", "--samples", "levy.csv", "--lam", lam],
            ["verify", "eigen", "spectrum", "--manifest", "m.jsonl"] + common,
        ]
        for args in commands:
            res = runner.invoke(main, args)
            assert _answers(res), (args, res.output, res.exception)


@pytest.mark.parametrize("args", [
    ["verify", "all", "--quick", "--spec", "builtin:quaternionic", "--psi", "builtin:psi_cp"],
    ["spectrum", "ou", "--spec", "builtin:quaternionic", "--psi", "builtin:psi_cp"],
    ["kernel", "hat", "--spec", "builtin:quaternionic", "--psi", "builtin:psi_cp",
     "--kind", "perturbed", "--t", "1", "--lam", "1,1,1"],
    ["psi", "eval", "--psi", "builtin:psi_cp", "--lam", "1,2"],
    ["psi", "limit", "--psi", "builtin:psi_cp", "--lam", "1,2"],
    ["estimate", "charfn", "--samples", "two_v.csv", "--lam", "1"],
    ["estimate", "charfn", "--samples", "no_rows.csv", "--lam", "1"],
    ["kernel", "invert", "--grid", "h:-1:1:1,v:-1:1:3", "--out", "q.csv"],
], ids=["verify-psi-dim", "spectrum-psi-dim", "hat-psi-dim", "eval-lam-dim", "limit-lam-dim",
        "charfn-lam-dim", "charfn-no-rows", "grid-one-node"])
@pytest.mark.filterwarnings("error")
def test_mismatched_input_is_a_usage_error(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two_v.csv").write_text("h1,h2,v1,v2\n1,2,3,4\n5,6,7,8\n")
    (tmp_path / "no_rows.csv").write_text("h1,h2,v1\n")
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1
    assert not (tmp_path / "q.csv").exists() and not (tmp_path / "carnot-runs.jsonl").exists()


@pytest.mark.parametrize("spec", [
    {"jumps": {"type": "compound_poisson"}},
    [1, 2],
    {"jumps": {"type": "stable", "alpha": [1.5]}},
    {"sigma": [[1.0]], "drift": [0.5]},
    # json.dumps writes NaN/Infinity, which the spec reader accepts as floats
    {"m": 1, "b": [float("nan")]},
    {"sigma": [[float("inf")]]},
    {"jumps": {"type": "compound_poisson", "rate": float("nan")}},
    {"jumps": {"type": "compound_poisson", "rate": 1.0,
               "dist": {"kind": "normal", "mean": [0.0], "cov": [[float("-inf")]]}}},
    {"jumps": {"type": "stable", "alpha": 0.5, "scale": float("inf")}},
    {"jumps": {"type": "atoms", "points": [[float("nan")]], "weights": [1.0]}},
], ids=["no-rate", "list", "alpha-list", "unknown-key",
        "b-nan", "sigma-inf", "rate-nan", "cov-inf", "scale-inf", "atom-nan"])
def test_malformed_psi_spec_is_a_usage_error(runner, tmp_path, spec):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["psi", "eval", "--psi", str(path), "--lam", "1"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1


def test_unresolvable_input_is_a_usage_error(runner, tmp_path):
    # b = 1e300 makes the stationary multiplier oscillate far beyond any rule:
    # the lambda self-check's AccuracyError is one Error: line with exit 2
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"m": 1, "b": [1e300]}))
    out = tmp_path / "q.csv"
    res = runner.invoke(main, ["kernel", "invert", "--kind", "invariant", "--psi", str(path),
                               "--grid", "h:-2:2:5,v:-2:2:9", "--out", str(out)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    lines = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(lines) == 1 and "nodes" in lines[0] and "did not converge" in lines[0]
    assert not out.exists()


def test_kernel_invert_with_a_small_stable_alpha(runner, tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"m": 1, "jumps": {"type": "stable", "alpha": 0.3}}))
    res = invoke(runner, ["kernel", "invert", "--kind", "perturbed", "--psi", str(path),
                          "--grid", "h:-2:2:5,v:-2:2:9", "--out", str(tmp_path / "q.csv")])
    assert res.exit_code == 0 and json.loads(res.output)["mass"] == pytest.approx(1.0)


@pytest.mark.parametrize("spec, lam, message", [
    # a stable component lives on R^1; on m = 2 it used to ignore lam_2
    ({"m": 2, "jumps": {"type": "stable", "alpha": 1.5}}, "1,2", "m = 2"),
    # m = 0 used to fail inside numpy with a message that did not name m
    ({"m": 0}, "1", "m = 0"),
], ids=["stable-m2", "m0"])
def test_exponent_dimension_is_a_usage_error(runner, tmp_path, spec, lam, message):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["psi", "eval", "--psi", str(path), "--lam", lam])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert message in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["psi", "eval", "--psi", "builtin:h1", "--lam", "1"],
    ["spectrum", "ou", "--spec", "builtin:h1", "--psi", "builtin:h1", "--degree", "2"],
], ids=["psi-eval", "spectrum-ou"])
def test_group_spec_as_psi_is_a_usage_error(runner, args):
    # a group spec is not the trivial exponent: its fields are unknown to psi
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "unknown fields" in res.output


_AXES = ["h", "-1", "1", "5", "v", "-1", "1", "5"]


def _grid(fields):
    return ":".join(fields[:4]) + "," + ":".join(fields[4:])


_malformed_grids = st.one_of(
    # a node count below two
    st.integers(-3, 1).map(lambda n: _grid(_AXES[:7] + [str(n)])),
    # bounds that are not increasing
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ab: _grid(_AXES[:1] + [str(max(ab)), str(min(ab))] + _AXES[3:])),
    # a field that is not a number
    st.tuples(st.sampled_from([1, 2, 3, 5, 6, 7]), st.sampled_from(["", "x", "1e", "--1"])).map(
        lambda ix: _grid(_AXES[:ix[0]] + [ix[1]] + _AXES[ix[0] + 1:])),
    # a field too few or too many
    st.tuples(st.integers(0, 7), st.booleans()).map(
        lambda ix: ":".join(_AXES[:4]) + "," + ":".join(
            _AXES[4:][:ix[0] % 4] + (["0", "0"] if ix[1] else []) + _AXES[4:][ix[0] % 4 + 1:])),
    # an axis missing, repeated or unknown
    st.sampled_from(["", "h:-1:1:5", "v:-1:1:5", "h:-1:1:5,h:-1:1:5", "w:-1:1:5,v:-1:1:5",
                     "h:-1:1:5,v:-1:1:5,v:-1:1:5", "h:-1:1:5;v:-1:1:5"]),
)


@settings(max_examples=60, deadline=None)
@given(grid=_malformed_grids)
def test_malformed_grid_is_a_usage_error(grid):
    res = CliRunner().invoke(main, ["kernel", "invert", "--grid", grid, "--out", "unused.csv"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), (grid, res.output)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(["h1", "quaternionic"]), option=st.sampled_from(["--lam", "--z"]),
       values=st.lists(st.floats(-3, 3), max_size=5))
def test_wrong_vector_length_is_a_usage_error(spec, option, values):
    G = _builtin_group(spec)
    length = G.m if option == "--lam" else 2 * G.d
    assume(len(values) != length and (values or option == "--lam"))
    args = {"--lam": ",".join(["1"] * G.m), option: ",".join(map(str, values))}
    res = CliRunner().invoke(main, ["kernel", "hat", "--spec", f"builtin:{spec}"]
                             + [x for kv in args.items() for x in kv])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), (values, res.output)
    assert "length" in res.output
