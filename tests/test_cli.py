import json
import math
import os
import pkgutil
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracreg
from fracreg.cli import _experiment_config, build_parser, main
from fracreg.experiments import ExperimentConfig

from test_acceptance import CONVERGE_CFG, ILLPOSED_CFG


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ml_eval_exponential(capsys):
    code, out, _ = run_cli(capsys, "ml-eval", "--beta", "1", "--gamma", "1", "--z", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,est_abs_err"
    value = float(lines[1].split(",")[0])
    assert value == pytest.approx(math.e, rel=1e-12)


def test_ml_eval_series_tol(capsys):
    code, out, _ = run_cli(capsys, "ml-eval", "--beta", "1.5", "--gamma", "1.5",
                           "--z", "2", "--tol", "1e-12")
    assert code == 0
    value, err = (float(x) for x in out.splitlines()[1].split(","))
    assert value == pytest.approx(2.5483367190728557, rel=1e-12)
    assert err <= 1e-12


def test_ml_eval_domain_error(capsys):
    code, _, err = run_cli(capsys, "ml-eval", "--beta", "1.5", "--gamma", "1",
                           "--z", "-3")
    assert code == 1
    assert "error:" in err


def _child_env():
    # child processes import the fracreg this test imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(fracreg.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run_module(tmp_path, *argv, preexec_fn=None, flags=()):
    # a separate interpreter, so numpy warnings and tracebacks reach stderr
    return subprocess.run([sys.executable, *flags, "-m", "fracreg", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env(), preexec_fn=preexec_fn)


def _limit_address_space():
    # 1 GiB: a child that allocates what the host cannot give fails as a
    # MemoryError instead of exhausting the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["ml-eval", "--beta", "1.5", "--gamma", "1", "--z", "1e5"],
    ["converge", "--norm", "hq", "--q", "300", "--replicates", "8", "--out", "x.json"],
    ["converge", "--gamma", "400", "--replicates", "8", "--out", "x.json"],
    ["converge", "--lipschitz-k", "-1", "--replicates", "8", "--out", "x.json"],
    ["converge", "--lipschitz-k", "nan", "--replicates", "8", "--out", "x.json"],
    ["converge", "--lipschitz-k", "inf", "--replicates", "8", "--out", "x.json"],
    ["illposed", "--a", "inf", "--out", "x.csv"],
    ["converge", "--a", "inf", "--replicates", "8", "--out", "x.json"],
    ["illposed", "--a", "nan", "--out", "x.csv"],
    ["illposed", "--seed", "-5", "--out", "x.csv"],
    ["converge", "--b", "inf", "--replicates", "8", "--out", "x.json"],
    ["converge", "--t-eval", "nan", "--replicates", "8", "--out", "x.json"],
    ["converge", "--k", "1e-300", "--replicates", "8", "--out", "x.json"],
    ["converge", "--b", "1e308", "--replicates", "8", "--out", "x.json"],
    ["illposed", "--a", "1e-310", "--out", "x.csv"],
    # no numpy overflow warning may precede the error line
    ["converge", "--mu", "1e308", "--replicates", "8", "--out", "x.json"],
    ["converge", "--norm", "hq", "--r", "1e308", "--replicates", "8", "--out", "x.json"],
    # a bad command line is an error too, not argparse's usage block and exit 2
    ["converge", "--replicates", "abc"],
    ["mise-check", "--bogus"],
    [],
    ["mise-check", "--beta", "1.5"],  # mise-check reads no problem flags
    # a list flag is non-empty comma-separated floats, an empty item is no float
    ["converge", "--eps-grid", "", "--replicates", "8", "--out", "x.json"],
    ["converge", "--t-eval", "", "--replicates", "8", "--out", "x.json"],
    ["converge", "--t-eval", ",", "--replicates", "8", "--out", "x.json"],
    ["converge", "--eps-grid", "1e-4,,1e-5", "--replicates", "8", "--out", "x.json"],
    # log Gamma(gamma) itself overflows
    ["ml-eval", "--beta", "1.5", "--gamma", "1e308", "--z", "2"],
    # gamma + beta rounds to gamma: successive series terms cannot be told apart
    ["ml-eval", "--beta", "1.5", "--gamma", "1e305", "--z", "2"],
    ["ml-eval", "--beta", "1.5", "--gamma", "1e17", "--z", "2"],
    # gamma + beta rounds to gamma again, at a z whose x = z**(1/beta) overflows:
    # the error comes before any arithmetic on z, so no numpy warning precedes it
    ["ml-eval", "--beta", "1e-300", "--gamma", "1e300", "--z", "1.999999"],
    # x = z**(1/beta) = 500 at beta 0.05 needs more series terms than the cap
    ["ml-eval", "--beta", "0.05", "--gamma", "1", "--z", repr(500**0.05)],
    # a repeated evaluation time would report every row twice
    ["converge", "--t-eval", "0.25,0.25", "--replicates", "8", "--out", "x.json"],
    # the solver's tables overflow: no numpy warning may precede the error,
    # which names the source's constant (checked below)
    ["converge", "--lipschitz-k", "1e300", "--replicates", "8", "--out", "x.json"],
    # a power-law truth p**-decay beyond floating-point range
    ["converge", "--config", {"truth_decay": -1000}, "--replicates", "8", "--out", "x.json"],
    ["mise-check", "--config", {"mise_configs": [[-1000, 64, 8, 0.05, 0.5]]}, "--out", "x.json"],
    # eps^2 N overflows: an infinite analytic MISE is no invariant to check
    ["mise-check", "--config", {"mise_configs": [[2, 64, 8, 1e300, 0.5]]}, "--out", "x.json"],
    # the replicates' variance overflows: an infinite standard error is no agreement
    ["mise-check", "--config", {"mise_configs": [[2, 64, 8, 1e100, 0.5]]}, "--out", "x.json"],
    # a grid beyond the desk-scale limit is refused before any allocation;
    # its 2*10^8-step truth would need gigabytes per array (run under a
    # 1 GiB address-space limit, so a grid that is not refused fails here)
    ["converge", "--m-steps", "100000000", "--replicates", "8", "--out", "x.json"],
    # converge solves its truth at 2M, but the message names the M given
    ["converge", "--m-steps", "40000", "--replicates", "8", "--out", "x.json"],
    ["converge", "--m-steps", "-3", "--replicates", "8", "--out", "x.json"],
    # a replicate count beyond the desk-scale limit is refused before its draw
    ["converge", "--replicates", "100000000", "--out", "x.json"],
])
def test_overflow_is_one_line_error(tmp_path, argv):
    stderr = _one_line_error(tmp_path, argv)
    if "--m-steps" in argv or "100000000" in argv:  # the message names the value given
        flag = "--m-steps" if "--m-steps" in argv else "--replicates"
        assert re.search(rf"got {argv[argv.index(flag) + 1]}\b", stderr), stderr
    if argv[1:3] == ["--lipschitz-k", "1e300"]:
        assert "not finite" in stderr and "K=1e+300" in stderr, stderr


def _one_line_error(tmp_path, argv, flags=()):
    """stderr of a child run of ``argv`` (a dict stands for a config file with
    that content) under the 1 GiB address-space limit, with the interpreter
    options ``flags``, after checking that the run exits 1 with one
    ``error:`` line."""
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            (tmp_path / "c.json").write_text(json.dumps(arg))
            arg = "c.json"
        args.append(arg)
    run = _run_module(tmp_path, *args, preexec_fn=_limit_address_space, flags=flags)
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error:"), run.stderr
    return run.stderr


@pytest.mark.parametrize("argv, named", [
    # a**beta past floating-point range is refused where beta meets the
    # horizon, before numpy can warn: the child turns RuntimeWarnings into errors
    (["illposed", "--a", "1e300", "--out", "x.csv"], r"horizon a .* got 1e\+300$"),
    (["converge", "--a", "1e300", "--replicates", "8", "--out", "x.json"],
     r"horizon a .* got 1e\+300$"),
    # a truth needs as many stored eigenvalues as it has modes: the message
    # names both keys, before a 10^10-mode truth's profile is sized
    (["converge", "--eig-count", "3", "--replicates", "8", "--out", "x.json"],
     r"truth_modes 4 and eig_count 3$"),
    (["converge", "--config", {"truth_modes": 10**10}, "--replicates", "8", "--out", "x.json"],
     r"truth_modes 10000000000 and eig_count 64$"),
])
def test_bad_horizon_or_truth_size_is_one_line_error(tmp_path, argv, named):
    stderr = _one_line_error(tmp_path, argv, flags=("-W", "error::RuntimeWarning"))
    assert re.search(named, stderr.strip()), stderr


@pytest.mark.parametrize("argv, given", [
    # the spectrum: 7.45 GiB of eigenvalues
    (["converge", "--eig-count", "1000000000", "--replicates", "8", "--out", "x.json"],
     "1000000000"),
    # a 10^10-mode truth needs as many stored eigenvalues: 74.5 GiB, refused
    # at the spectrum, before the truth's profile
    (["converge", "--config", {"truth_modes": 10**10, "eig_count": 10**10}, "--replicates", "8",
      "--out", "x.json"], "10000000000"),
    # a mise-check setting's spectrum and profile: 74.5 GiB
    (["mise-check", "--config", {"mise_configs": [[2, 10**10, 8, 0.05, 0.5]]}, "--out", "x.json"],
     "10000000000"),
    # the rule observes N = 10^7 modes at eps 1e-7: 4.17 GiB of Philox words
    (["converge", "--config", {"eig_count": 10**7, "replicates": 8, "rate": {
        "b": 1, "m": 0.5, "k": 1, "gamma": 3.5, "d": 1, "mu": 2}}, "--out", "x.json"],
     "10000000"),
    # the rule keeps all 15,000 modes: their solver tables are charged 2.5 GiB
    (["converge", "--eig-kind", "linear", "--eig-count", "15000", "--k", "1e-9", "--m-steps",
      "1024", "--replicates", "8", "--out", "x.json"], "15000"),
])
def test_input_past_the_memory_budget_is_one_line_error(tmp_path, argv, given):
    # each asks for gigabytes; a run that is not refused fails under the
    # address-space limit as a MemoryError traceback
    stderr = _one_line_error(tmp_path, argv)
    assert re.search(rf"\b{given}\b", stderr) and "desk-scale limit" in stderr, stderr


@pytest.mark.parametrize("argv", [["--help"], ["mise-check", "--help"]])
def test_help_exits_0(tmp_path, argv):
    run = _run_module(tmp_path, *argv)
    assert run.returncode == 0 and run.stdout.startswith("usage:") and run.stderr == ""


@pytest.mark.parametrize("kind, content", [
    ("converge", {"seed": 1.5}),
    ("converge", {"seed": True}),
    ("converge", {"M": 64.5}),
    ("converge", {"M": "64"}),
    ("converge", {"truth_modes": 4.5}),
    ("converge", {"eig_count": 64.5}),
    ("converge", {"shared_noise": "yes"}),
    ("mise-check", {"mise_configs": [[2.0, 64, 8.5, 0.05, 0.5]]}),
    ("mise-check", {"mise_configs": []}),
    ("converge", {"q": math.nan, "norm": "hq"}),
    ("converge", {"q": math.inf}),
    ("converge", {"r": math.nan, "norm": "hq"}),
    ("converge", {"truth_decay": math.nan}),
    ("converge", {"truth_u1_scale": math.inf}),
    ("converge", {"pilot_safety": 1.5}),  # an unknown key
    ("converge", {"rate": 5}),
    ("converge", {"lipschitz_K": "x"}),
    ("converge", {"lipschitz_K": None}),
    ("mise-check", {"mise_configs": [[2, 64, 8, 0.05, None]]}),
    ("converge", {"beta": "1.5"}),
    ("converge", {"a": None}),
    ("converge", {"rate": {"b": "x", "m": 6.0, "k": 1.0, "gamma": 3.5, "d": 1, "mu": 2.0}}),
    ("converge", {"eps_grid": [None, 1e-5]}),
    ("converge", {"eps_grid": 5}),
    ("converge", {"t_eval": [None]}),
    ("mise-check", {"mise_configs": 5}),
    ("converge", {"seed": 2**64}),  # two seeds past 2^64 would share a Philox key
])
def test_config_type_fault_is_one_line_error(tmp_path, kind, content, flags=()):
    (tmp_path / "c.json").write_text(json.dumps(content))
    run = _run_module(tmp_path, kind, "--config", "c.json", "--replicates", "8", "--out", "x.json",
                      *flags)
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error:"), run.stderr
    assert re.search(rf"\b{next(iter(content))}\b", run.stderr)  # the message names the field
    assert not (tmp_path / "x.json").exists()


def test_rate_flag_over_a_bad_config_rate_is_one_line_error(tmp_path):
    # a rate flag is merged into the config's rate only where that is a mapping
    test_config_type_fault_is_one_line_error(tmp_path, "converge", {"rate": 5}, ["--b", "1"])


def test_truth_without_modes_is_one_line_error(tmp_path):
    # a zero-mode solve is legal, a zero truth is not: the message names the field
    test_config_type_fault_is_one_line_error(tmp_path, "converge", {"truth_modes": 0})


@pytest.mark.parametrize("kind, pinned", [("converge", CONVERGE_CFG),
                                          ("illposed", ILLPOSED_CFG)])
def test_cli_defaults_are_the_acceptance_configs(kind, pinned):
    args = build_parser().parse_args([kind])
    assert _experiment_config(args, kind) == ExperimentConfig(**pinned)


def test_illposed_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code, _, _ = run_cli(
        capsys, "illposed",
        "--eps-grid", "1e-1,1e-2,1e-3",
        "--replicates", "12",
        "--seed", "9",
        "--m-steps", "32",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,t,mise,std_err,theory_bound,loglog_slope"
    assert len(lines) == 4


def test_illposed_cli_rerun_bit_identical(tmp_path, capsys):
    args = ["illposed", "--eps-grid", "1e-1,1e-2,1e-3", "--replicates", "12",
            "--seed", "9", "--m-steps", "32"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("beta, a", [("1.05", "3"), ("1.1", "4")])
def test_illposed_cli_calibrates_c3_at_long_horizons(tmp_path, capsys, beta, a):
    # C3 is one Mittag-Leffler value at (lam = 1, t = a); a sweep up to
    # lam = 400 overflowed the series at these horizons and exited 1
    out = tmp_path / "long.json"
    code, _, _ = run_cli(capsys, "illposed", "--beta", beta, "--a", a, "--out", str(out))
    assert code in (0, 2)
    assert math.isfinite(json.loads(out.read_text())["meta"]["growth_constant_C3"])


def test_converge_cli_with_config_file(tmp_path, capsys):
    cfg = {
        "eps_grid": [1e-4, 3e-5, 1e-5, 3e-6],
        "replicates": 10,
        "seed": 31,
        "M": 32,
        "t_eval": [0.25],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "converge", "--config", str(cfg_path),
                         "--out", str(out), "--format", "json")
    payload = json.loads(out.read_text())
    assert payload["meta"]["experiment"] == "converge"
    assert payload["meta"]["config"]["replicates"] == 10
    assert len(payload["rows"]) == 4
    assert code in (0, 2)  # tiny replicate counts may miss the slope window


def test_mise_check_cli_stdout(capsys):
    code, out, _ = run_cli(capsys, "mise-check", "--replicates", "500", "--seed", "3")
    assert code == 0
    assert out.splitlines()[0] == "eps,t,mise,std_err,theory_bound,loglog_slope"


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"replicates": 10, "seed": 1}))
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "illposed", "--config", str(cfg_path),
                         "--eps-grid", "1e-1,1e-2,1e-3", "--m-steps", "32",
                         "--replicates", "14", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["meta"]["config"]["replicates"] == 14


def test_bad_config_path_is_error(capsys):
    code, _, err = run_cli(capsys, "illposed", "--config", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("content", ["[1]", '{"rate": 5}'])
def test_bad_config_shape_is_one_line_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content)
    code, _, err = run_cli(capsys, "converge", "--config", str(cfg_path))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_unrepresentable_bound_is_one_line_error(tmp_path, capsys):
    # k = 0.005 pushes the cutoff so high that exp(2 B^(1/beta) t) overflows
    code, _, err = run_cli(capsys, "converge", "--k", "0.005", "--eps-grid", "1e-4,1e-5",
                           "--replicates", "8", "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_single_observation_noise_level_is_one_line_error(tmp_path, capsys):
    # eps = 0.9 gives N = 1, so B_N = (m/(k a) ln 1)^beta = 0 and no mode is kept
    code, _, err = run_cli(capsys, "converge", "--eps-grid", "0.9,0.5", "--replicates", "8",
                           "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "eps=0.9" in err


def test_short_spectrum_is_one_error_for_every_eig_kind(capsys):
    # eps = 1e-7 gives N = 11 under the rule, past the 8 stored eigenvalues;
    # the fault and its message do not depend on the spectrum's kind
    errs = []
    for kind in ("dirichlet", "linear"):
        code, out, err = run_cli(capsys, "converge", "--eig-count", "8", "--replicates", "8",
                                 "--m-steps", "32", "--eps-grid", "1e-4,1e-7",
                                 "--eig-kind", kind)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "eig_count" in err
        errs.append(err)
    assert errs[0] == errs[1]


def test_empty_spectrum_names_eig_count_for_every_eig_kind(capsys):
    for kind in ("dirichlet", "linear"):
        code, out, err = run_cli(capsys, "converge", "--eig-count", "0", "--replicates", "8",
                                 "--eig-kind", kind)
        assert (code, out, err) == (1, "", "error: eig_count must be >= 1, got 0\n")


def test_converge_cli_bound_holds_at_a_high_mise_seed(tmp_path, capsys):
    # this seed's eps = 3e-7 row exceeds a bound whose constants are fitted
    # to another 64-replicate sweep (mise/bound 1.048); constants fitted to
    # the exact expected error cover it
    code, _, err = run_cli(capsys, "converge", "--norm", "l2", "--seed", "3347278117",
                           "--out", str(tmp_path / "r.csv"))
    assert code == 0, err


def test_mise_check_config_block_reproduces_the_report(tmp_path, capsys):
    first = tmp_path / "a.json"
    assert run_cli(capsys, "mise-check", "--replicates", "200", "--seed", "5",
                   "--out", str(first))[0] == 0
    block = json.loads(first.read_text())["meta"]["config"]
    assert set(block) == {"kind", "replicates", "seed", "mise_configs"}
    (tmp_path / "c.json").write_text(json.dumps(block))
    again = tmp_path / "b.json"
    assert run_cli(capsys, "mise-check", "--config", str(tmp_path / "c.json"),
                   "--out", str(again))[0] == 0
    assert again.read_bytes() == first.read_bytes()


def test_converge_cli_invariant_failure_exits_2(tmp_path, capsys):
    # a rate configuration whose predicted order is far from the observed
    # slope must surface as exit status 2, not as silent success.  The
    # predicted order is 1.2 and the exact-MISE slope about 1.6; at the
    # acceptance count of 64 replicates the observed slope sits near the
    # latter, where 10 replicates can stray to within a quarter of 1.2.
    out = tmp_path / "bad.csv"
    code, _, err = run_cli(
        capsys, "converge",
        "--eps-grid", "1e-4,3e-5,1e-5,3e-6",
        "--replicates", "64",
        "--seed", "2",
        "--m-steps", "32",
        "--m", "2.0", "--gamma", "1.5", "--mu", "1.0",
        "--eig-count", "256",
        "--out", str(out),
    )
    assert code == 2
    assert "invariants FAILED" in err


def _run_twice_and_compare(tmp_path, command):
    # two separate processes must write byte-identical reports for the same
    # configuration and seed
    env = _child_env()
    # no pinned hash seed: each child draws its own, so a report that
    # depended on str-hash order (say, iterating a set of names) would
    # differ between them
    env.pop("PYTHONHASHSEED", None)
    args = command + ["illposed", "--eps-grid", "1e-1,1e-2,1e-3",
                      "--replicates", "10", "--seed", "77", "--m-steps", "32"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    r1 = subprocess.run(args + ["--out", str(a)], capture_output=True,
                        cwd=tmp_path, env=env)
    r2 = subprocess.run(args + ["--out", str(b)], capture_output=True,
                        cwd=tmp_path, env=env)
    assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
    assert a.read_bytes() == b.read_bytes()


def _declared_console_script():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10, where pytest requires tomli
        import tomli as tomllib
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"].get("fracreg")


def test_console_script_subprocess_determinism(tmp_path):
    # `python -m fracreg` runs the callable that the `fracreg` console
    # script is declared to run ...
    import fracreg.__main__

    target = _declared_console_script()
    assert target == "fracreg.cli:main"
    assert pkgutil.resolve_name(target) is fracreg.__main__.main
    # ... and reproduces files byte for byte across separate processes
    _run_twice_and_compare(tmp_path, [sys.executable, "-m", "fracreg"])


@pytest.mark.skipif(shutil.which("fracreg") is None,
                    reason="fracreg console script not installed")
def test_installed_console_script_subprocess_determinism(tmp_path):
    # the setuptools-generated wrapper, where an install has put one on PATH
    _run_twice_and_compare(tmp_path, ["fracreg"])
