import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from fracreg import experiments, noise_model
from fracreg.cli import main
from fracreg.errors import DomainError
from fracreg.experiments import (
    ErrorReport,
    ExperimentConfig,
    ReportRow,
    convergence_table,
    emit,
    illposed_demo,
    illposed_mode_count,
    least_squares_slope,
    mise_check,
    remark_rate_exponent,
)
from fracreg.noise_model import replicate_seed, standard_normals
from fracreg.regularizer import RateParams

from test_acceptance import CONVERGE_CFG

RATE = RateParams(b=1.0, m=6.0, k=1.0, gamma=3.5, d=1, mu=2.0)


def small_converge_cfg(**kw):
    base = dict(
        kind="converge",
        eps_grid=(1e-4, 3e-5, 1e-5, 3e-6),
        replicates=12,
        seed=4242,
        beta=1.5,
        a=1.0,
        M=32,
        t_eval=(0.25,),
        lipschitz_K=0.02,
        rate=RATE,
        eig_kind="dirichlet",
        eig_count=32,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def small_illposed_cfg(**kw):
    base = dict(
        kind="illposed",
        eps_grid=(1e-1, 1e-2, 1e-3),
        replicates=12,
        seed=555,
        beta=1.8,
        a=1.0,
        M=32,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_illposed_mode_count_rule():
    # floor((2 ln 10)^0.75) + 1 = 4
    assert illposed_mode_count(0.1, 1.0, 1.5) == 4
    assert illposed_mode_count(0.01, 1.0, 1.8) == 8
    with pytest.raises(DomainError):
        illposed_mode_count(1.0, 1.0, 1.5)


def test_illposed_input_analytic_column_decreasing():
    # analytic eps^2 N(eps) decreases once eps < 1/e on the standard grid
    a, beta = 1.0, 1.8
    grid = [1e-1, 1e-2, 1e-3, 1e-4]
    vals = [e * e * illposed_mode_count(e, a, beta) for e in grid]
    assert all(y < x for x, y in zip(vals, vals[1:]))


def test_illposed_demo_small_run():
    rep = illposed_demo(small_illposed_cfg())
    assert len(rep.rows) == 3
    assert rep.meta["checks"]["input_strictly_decreasing"]
    assert rep.meta["checks"]["input_matches_analytic_4se"]
    assert rep.meta["checks"]["output_strictly_increasing"]
    # rows: mise carries output, theory_bound carries input expectation
    assert rep.rows[0].theory_bound == pytest.approx(0.01 * 4)
    assert rep.rows[0].mise > 0


def test_illposed_demo_determinism():
    cfg = small_illposed_cfg()
    a = illposed_demo(cfg)
    b = illposed_demo(cfg)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_remark_rate_exponent_values():
    # b=1 collapses the max to the eps^0 term; prefactor drives the order
    rp = RateParams(b=1.0, m=6.0, k=1.0, gamma=3.5, d=1, mu=2.0)
    got = remark_rate_exponent(rp, a=1.0, t=0.25)
    want = 4 * 6 * 0.75 / 13 + 0.0
    assert got == pytest.approx(want, rel=1e-14)
    # away from b=1 the smallest exponent wins
    rp2 = RateParams(b=0.5, m=1.0, k=1.0, gamma=1.0, d=1, mu=0.25)
    got2 = remark_rate_exponent(rp2, a=1.0, t=1.0)
    assert got2 == pytest.approx(min(1.0, 2 * 0.5 * 2 / 3, 4 * 0.5 * 0.25 / 3), rel=1e-14)


def test_convergence_table_small_run():
    rep = convergence_table(small_converge_cfg())
    checks = rep.meta["per_t"]["0.25"]
    assert checks["monotone_decreasing"]
    assert checks["bound_satisfied"]
    assert len(rep.rows) == 4
    # window slopes defined from the third row on
    assert rep.rows[0].loglog_slope is None
    assert rep.rows[2].loglog_slope is not None


def test_convergence_hq_q0_bitwise_equals_l2():
    l2 = convergence_table(small_converge_cfg(norm="l2"))
    h0 = convergence_table(small_converge_cfg(norm="hq", q=0.0))
    for a, b in zip(l2.rows, h0.rows):
        assert a.mise == b.mise  # bitwise: same accumulation path
        assert a.std_err == b.std_err


def test_convergence_requires_rate():
    with pytest.raises(DomainError):
        convergence_table(small_converge_cfg(rate=None))


def test_evaluation_time_off_the_grid_names_t():
    # M = 32 on [0, 1]: 0.3 falls between grid points; nan, inf and 1.5 are not in [0, a]
    for t in (math.nan, math.inf, 1.5, 0.3):
        with pytest.raises(DomainError, match=f"t={t}"):
            convergence_table(small_converge_cfg(t_eval=(t,)))


def test_evaluation_times_on_one_grid_row_are_one_line_error(tmp_path, capsys):
    # 1e-13 apart is inside the grid tolerance of 1e-9 a: both times would
    # map to one row and the report would hold every row twice
    code = main(["converge", "--t-eval", "0.25,0.2500000000001", "--replicates", "8",
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("error: evaluation times t=0.25 and t=0.2500000000001"
                   " fall on one row of the M=128 grid\n")
    assert not (tmp_path / "x.csv").exists()


def test_mise_check_experiment():
    cfg = ExperimentConfig(
        kind="mise-check",
        eps_grid=(0.05,),
        replicates=2000,
        seed=77,
        beta=1.5,
        a=1.0,
    )
    rep = mise_check(cfg)
    assert rep.meta["invariants_ok"]
    assert len(rep.rows) == 3
    for d in rep.meta["settings"]:
        assert d["agrees_4se"] and d["bound_holds"]


def test_config_validation():
    with pytest.raises(DomainError):
        small_converge_cfg(replicates=4)
    with pytest.raises(DomainError):
        small_converge_cfg(eps_grid=(1e-3, 1e-2))  # increasing
    with pytest.raises(DomainError):
        small_converge_cfg(norm="hq", r=0.0)
    for a in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            small_converge_cfg(a=a)
    with pytest.raises(DomainError, match="seed"):
        small_converge_cfg(seed=-5)
    for name, value in (("replicates", 12.0), ("seed", 1.5), ("seed", True), ("M", 64.5),
                        ("M", "64"), ("p_cap", 32.0), ("eig_count", 64.5), ("truth_modes", 4.5),
                        ("shared_noise", "yes"), ("shared_noise", 1)):
        with pytest.raises(DomainError, match=name):
            small_converge_cfg(**{name: value})
    for settings in ((), ((2.0, 64, 8.5, 0.05, 0.5),), ((2.0, 64.0, 8, 0.05, 0.5),),
                     ((2.0, 64, 0, 0.05, 0.5),), ((2.0, 64, 8, 0.05),)):
        with pytest.raises(DomainError, match="mise_configs"):
            small_converge_cfg(mise_configs=settings)
    with pytest.raises(DomainError):
        ExperimentConfig(kind="nope", eps_grid=(0.1, 0.01), replicates=8,
                         seed=1, beta=1.5, a=1.0)


@pytest.mark.parametrize("name", ["q", "r", "truth_decay", "truth_u1_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5", None])
def test_config_rejects_non_finite_floats_by_name(name, value):
    with pytest.raises(DomainError, match=name):
        small_converge_cfg(norm="hq", **{name: value})


def test_config_json_round_trip():
    cfg = small_converge_cfg()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_config_takes_rate_as_a_mapping():
    cfg = small_converge_cfg(rate=asdict(RATE), eps_grid=[1e-4, 3e-5], t_eval=[0.25])
    assert cfg == small_converge_cfg(eps_grid=(1e-4, 3e-5))
    assert isinstance(cfg.rate, RateParams)
    assert convergence_table(cfg).to_csv() == convergence_table(small_converge_cfg(
        eps_grid=(1e-4, 3e-5))).to_csv()


@pytest.mark.parametrize("rate", [5, "b=1", [1.0, 6.0, 1.0, 3.5, 1, 2.0]])
def test_config_rejects_a_rate_that_is_no_mapping(rate):
    with pytest.raises(DomainError, match="rate"):
        small_converge_cfg(rate=rate)


def test_report_csv_schema_and_order():
    rows = [
        ReportRow(eps=0.1, t=0.5, mise=1.0, std_err=0.1, theory_bound=2.0, loglog_slope=None),
        ReportRow(eps=0.01, t=0.5, mise=0.5, std_err=0.05, theory_bound=None, loglog_slope=1.5),
    ]
    rep = ErrorReport(rows=rows, meta={"x": 1})
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == "eps,t,mise,std_err,theory_bound,loglog_slope"
    assert lines[1] == "0.1,0.5,1.0,0.1,2.0,"
    assert lines[2] == "0.01,0.5,0.5,0.05,,1.5"
    # eps-descending order is preserved
    eps_col = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps_col == sorted(eps_col, reverse=True)


def test_report_empty_is_header_only():
    assert ErrorReport().to_csv() == "eps,t,mise,std_err,theory_bound,loglog_slope\n"


def test_report_json_round_trip():
    rows = [ReportRow(eps=0.1, t=0.0, mise=1.0, std_err=0.1, theory_bound=None,
                      loglog_slope=None)]
    rep = ErrorReport(rows=rows, meta={"experiment": "t"})
    text = rep.to_json()
    payload = json.loads(text)
    back = ErrorReport(rows=[ReportRow(**r) for r in payload["rows"]], meta=payload["meta"])
    assert back.to_json() == text


def test_emit_bit_stable(tmp_path):
    rep = illposed_demo(small_illposed_cfg())
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit(rep, str(p1), "csv")
    emit(rep, str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()
    j1 = tmp_path / "a.json"
    emit(rep, str(j1), "json")
    assert json.loads(j1.read_text())["meta"]["experiment"] == "illposed"
    with pytest.raises(DomainError):
        emit(rep, str(tmp_path / "c.xml"), "xml")


def test_least_squares_slope_exact_line():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [1.0, 3.0, 5.0, 7.0]
    assert least_squares_slope(xs, ys) == pytest.approx(2.0, rel=1e-14)


def test_illposed_two_decade_rise_check_present():
    rep = illposed_demo(small_illposed_cfg())
    assert "output_rises_two_decades" in rep.meta["checks"]
    assert rep.meta["checks"]["output_rises_two_decades"]


def test_shared_noise_config_changes_results_deterministically():
    base = small_converge_cfg()
    shared = small_converge_cfg(shared_noise=True)
    r_ind = convergence_table(base)
    r_sh1 = convergence_table(shared)
    r_sh2 = convergence_table(shared)
    assert r_sh1.to_csv() == r_sh2.to_csv()
    assert r_ind.rows[0].mise != r_sh1.rows[0].mise


def test_convergence_two_eval_times():
    rep = convergence_table(small_converge_cfg(t_eval=(0.25, 0.5), replicates=10))
    assert set(rep.meta["per_t"]) == {"0.25", "0.5"}
    # rows stay eps-descending with both times present per eps
    eps_col = [r.eps for r in rep.rows]
    assert eps_col == sorted(eps_col, reverse=True)
    assert {r.t for r in rep.rows} == {0.25, 0.5}


def test_config_rejects_unknown_keys():
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"kind": "illposed", "eps_grid": [0.1, 0.01],
                                    "replicates": 8, "seed": 1, "beta": 1.5,
                                    "a": 1.0, "no_such_knob": 3})


def test_report_renders_rows_eps_descending_even_if_built_unordered():
    rows = [
        ReportRow(eps=0.05, t=0.0, mise=1.0, std_err=0.1, theory_bound=None, loglog_slope=None),
        ReportRow(eps=0.2, t=0.0, mise=2.0, std_err=0.1, theory_bound=None, loglog_slope=None),
        ReportRow(eps=0.01, t=0.0, mise=0.5, std_err=0.1, theory_bound=None, loglog_slope=None),
    ]
    rep = ErrorReport(rows=rows, meta={})
    eps_col = [float(l.split(",")[0]) for l in rep.to_csv().splitlines()[1:]]
    assert eps_col == [0.2, 0.05, 0.01]
    parsed = json.loads(rep.to_json())
    assert [r["eps"] for r in parsed["rows"]] == [0.2, 0.05, 0.01]


def per_replicate_monte_carlo(sample, replicates, seed):
    """Reference driver: ``sample`` called with one seed per replicate, in
    order, and each quantity reduced as its own contiguous column."""
    values = np.array([sample(replicate_seed(seed, r)) for r in range(replicates)], dtype=float)
    root = math.sqrt(replicates)
    return [(float(np.mean(v)), float(np.std(v, ddof=1) / root)) for v in values.T.copy()]


def assert_batch_equals_per_replicate(monkeypatch, run, cfg):
    batched = run(cfg)
    monkeypatch.setattr(experiments, "monte_carlo", per_replicate_monte_carlo)
    reference = run(cfg)
    assert batched.meta == reference.meta
    assert batched.to_json() == reference.to_json()
    assert batched.to_csv() == reference.to_csv()


@pytest.mark.parametrize("shared_noise", [False, True])
@pytest.mark.parametrize("norm, q", [("l2", 0.0), ("hq", 0.5)])
def test_converge_batch_equals_per_replicate_loop(monkeypatch, norm, q, shared_noise):
    cfg = small_converge_cfg(norm=norm, q=q, t_eval=(0.25, 0.5), shared_noise=shared_noise)
    assert_batch_equals_per_replicate(monkeypatch, convergence_table, cfg)


def test_converge_batch_equals_per_replicate_loop_when_every_mode_is_dropped(monkeypatch):
    # at eps = 0.4 the rule gives N = 2 and B_N = (0.5 ln 2)^1.5 < lam_1 = 1:
    # no mode is retained, so the estimate is the zero field
    cfg = small_converge_cfg(eps_grid=(0.4, 0.1, 0.03), t_eval=(0.25, 0.5), eig_count=64,
                             rate=RateParams(b=1.0, m=0.5, k=1.0, gamma=3.5, d=1, mu=2.0))
    rows = convergence_table(cfg).meta["rows_detail"]
    assert rows[0]["P_retained"] == 0 and rows[-1]["P_retained"] > 0
    assert_batch_equals_per_replicate(monkeypatch, convergence_table, cfg)


def test_illposed_batch_equals_per_replicate_loop(monkeypatch):
    assert_batch_equals_per_replicate(monkeypatch, illposed_demo, small_illposed_cfg())


@pytest.mark.parametrize("shared_noise", [False, True])
def test_mise_check_batch_equals_per_replicate_loop(monkeypatch, shared_noise):
    cfg = ExperimentConfig(kind="mise-check", eps_grid=(0.05,), replicates=300, seed=12,
                           beta=1.5, a=1.0, shared_noise=shared_noise)
    assert_batch_equals_per_replicate(monkeypatch, mise_check, cfg)


@pytest.mark.parametrize("run, cfg, streams", [
    (illposed_demo, small_illposed_cfg(), {0}),
    (mise_check, ExperimentConfig(kind="mise-check", eps_grid=(0.05,), replicates=8, seed=12,
                                  beta=1.5, a=1.0), {0}),
    (convergence_table, small_converge_cfg(), {0, 1}),
    (convergence_table, small_converge_cfg(shared_noise=True), {0}),
])
def test_each_experiment_draws_only_the_streams_it_reads(monkeypatch, run, cfg, streams):
    # illposed and mise-check read obs0 alone, which is stream 0 under
    # either noise model; converge reads both fields
    drawn = set()

    def spy(seed, stream, n):
        drawn.add(stream)
        return standard_normals(seed, stream, n)

    monkeypatch.setattr(noise_model, "standard_normals", spy)
    run(cfg)
    assert drawn == streams


@pytest.mark.parametrize("shared_noise", [False, True])
@pytest.mark.parametrize("norm, q", [("l2", 0.0), ("hq", 0.5)])
def test_exact_mise_matches_brute_force_monte_carlo(norm, q, shared_noise):
    # the closed form against an independent estimate: thousands of noisy
    # solves on a tiny problem
    cfg = small_converge_cfg(M=16, eps_grid=(1e-4, 1e-5, 1e-6), replicates=4000,
                             norm=norm, q=q, t_eval=(0.25, 0.5), shared_noise=shared_noise)
    for row in convergence_table(cfg).meta["rows_detail"]:
        assert abs(row["mise"] - row["exact_mise"]) <= 4.0 * row["se"], row


@pytest.mark.parametrize("norm, q", [("l2", 0.0), ("hq", 0.5)])
def test_exact_mise_within_4se_at_the_acceptance_configs(norm, q):
    rep = convergence_table(ExperimentConfig(**{**CONVERGE_CFG, "norm": norm, "q": q}))
    for row in rep.meta["rows_detail"]:
        assert abs(row["mise"] - row["exact_mise"]) <= 4.0 * row["se"], row


def test_convergence_table_makes_one_monte_carlo_sweep(monkeypatch):
    calls = []

    def spy(sample, replicates, seed):
        calls.append(seed)
        return noise_model.monte_carlo(sample, replicates, seed)

    monkeypatch.setattr(experiments, "monte_carlo", spy)
    cfg = small_converge_cfg()
    convergence_table(cfg)
    assert calls == [replicate_seed(cfg.seed, idx) for idx in range(len(cfg.eps_grid))]


def test_bound_check_fails_below_the_fitted_constants(monkeypatch):
    # the l2 bound is linear in C1 = D1, so at half the safety factor the row
    # that fixes the constants has a bound of 0.75 times its exact error
    monkeypatch.setattr(experiments, "_BOUND_SAFETY", 0.75)
    rep = convergence_table(ExperimentConfig(**CONVERGE_CFG))
    assert rep.meta["per_t"]["0.25"]["bound_satisfied"] is False
    assert not rep.meta["invariants_ok"]
