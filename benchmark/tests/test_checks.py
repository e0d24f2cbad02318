"""Each output check passes on a real fracreg output and rejects a perturbed one.

Run from the root of the tree: python3 -m pytest benchmark/tests
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import worker  # noqa: E402


def _reports(workload, tmp_path):
    """(config, reports) of one tiny round of a report-writing workload."""
    w = worker.build(workload, 1, True, tmp_path)
    w.run()
    assert w.errors == [None] * len(w.ops)
    return w.cfg, [json.loads(out.read_text()) for _, out, _ in w.ops]


@pytest.fixture(scope="module")
def converge(tmp_path_factory):
    return _reports("converge", tmp_path_factory.mktemp("converge"))


@pytest.fixture(scope="module")
def mise(tmp_path_factory):
    return _reports("mise-check", tmp_path_factory.mktemp("mise"))


@pytest.fixture(scope="module")
def illposed(tmp_path_factory):
    return _reports("illposed", tmp_path_factory.mktemp("illposed"))


@pytest.fixture(scope="module")
def fine_grid():
    w = worker.build("fine-grid", 1, True, None)
    w.run()
    assert not w.errors
    return w


def _by_eps(report):
    return sorted(report["rows"], key=lambda row: -row["eps"])


def test_rate_exponent_of_the_acceptance_config():
    assert checks.rate_exponent(worker.CONVERGE["rate"], 1.0, 0.25) == pytest.approx(18 / 13)


def test_converge_passes_on_both_norms(converge):
    cfg, reports = converge
    assert len(reports) == 2
    for report in reports:
        assert checks.check_converge(report, cfg) == []


@pytest.mark.parametrize("perturb, expect", [
    # tilt the rate: every MISE times eps^0.5
    (lambda rows: [r.update(mise=r["mise"] * r["eps"] ** 0.5) for r in rows], "slope"),
    # swap two neighbouring MISE values
    (lambda rows: rows[1].update(mise=rows[2]["mise"], _=rows[2].update(mise=rows[1]["mise"])),
     "strictly decrease"),
    (lambda rows: rows[0].update(theory_bound=rows[0]["mise"] / 2), "above its bound"),
    (lambda rows: rows.pop(), "rows cover"),
])
def test_converge_rejects(converge, perturb, expect):
    cfg, reports = converge
    report = copy.deepcopy(reports[0])
    report["rows"] = _by_eps(report)
    perturb(report["rows"])
    fails = checks.check_converge(report, cfg)
    assert any(expect in f for f in fails), fails


def test_mise_expected_values():
    analytic, bound = checks.mise_expected(2.0, 64, 8, 0.05, 0.5)
    assert analytic == pytest.approx(0.05**2 * 8 + sum(p**-4.0 for p in range(9, 65)))
    assert bound == pytest.approx(0.05**2 * 8 + 8**-2.0 * sum(p**-2.0 for p in range(1, 65)))


def test_mise_passes(mise):
    cfg, (report,) = mise
    assert checks.check_mise(report, cfg) == []


@pytest.mark.parametrize("perturb, expect", [
    (lambda row: row.update(mise=row["mise"] * 1.5), "standard errors"),
    (lambda row: row.update(theory_bound=row["theory_bound"] * (1 + 1e-6)), "reported bound"),
    (lambda row: row.update(std_err=0.0), "standard error"),
])
def test_mise_rejects(mise, perturb, expect):
    cfg, (report,) = mise
    report = copy.deepcopy(report)
    perturb(report["rows"][1])
    fails = checks.check_mise(report, cfg)
    assert any(expect in f for f in fails), fails


def test_mise_rejects_a_bound_below_the_identity(mise):
    cfg, (report,) = mise
    report = copy.deepcopy(report)
    row = report["rows"][0]
    setting = next(s for s in cfg["mise_configs"] if s[3] == row["eps"])
    row["theory_bound"] = 0.9 * checks.mise_expected(*setting)[0]
    fails = checks.check_mise(report, cfg)
    assert any("below the analytic" in f for f in fails), fails


def test_illposed_mode_count():
    # (2 ln 10)^0.9 = 3.50..., (8 ln 10)^0.9 = 11.4...
    assert checks.illposed_mode_count(0.1, 1.0, 1.8) == 4
    assert checks.illposed_mode_count(1e-4, 1.0, 1.8) == 14
    assert checks.illposed_mode_count(0.1, 1.0, 1.5) == math.floor((2 * math.log(10)) ** 0.75) + 1


def test_illposed_passes(illposed):
    cfg, reports = illposed
    for report in reports:
        assert checks.check_illposed(report, cfg) == []


@pytest.mark.parametrize("perturb, expect", [
    (lambda rep: rep["meta"]["per_eps"][2].update(N=rep["meta"]["per_eps"][2]["N"] + 1),
     "reported N"),
    (lambda rep: rep["rows"][1].update(theory_bound=rep["rows"][1]["theory_bound"] * 1.5),
     "input energy"),
    (lambda rep: rep["rows"][-1].update(mise=rep["rows"][-2]["mise"] / 2), "strictly increase"),
    (lambda rep: [r.update(mise=r["mise"] * r["eps"] ** 0.5) for r in rep["rows"]], "slope"),
])
def test_illposed_rejects(illposed, perturb, expect):
    cfg, reports = illposed
    report = copy.deepcopy(reports[0])
    report["rows"] = _by_eps(report)
    perturb(report)
    fails = checks.check_illposed(report, cfg)
    assert any(expect in f for f in fails), fails


def test_fine_grid_passes(fine_grid):
    assert checks.check_fine_grid(fine_grid.fields, fine_grid.ladder, fine_grid.vectors) == {}


def _interpolate_from_half(field):
    """A field on 2M steps made by linear interpolation of the M-step field."""
    m = field.shape[0] - 1
    fine = np.linspace(0.0, 1.0, 2 * m + 1)
    coarse = np.linspace(0.0, 1.0, m + 1)
    return np.stack([np.interp(fine, coarse, field[:, p]) for p in range(field.shape[1])], 1)


def test_fine_grid_rejects_a_field_taken_from_half_the_steps(fine_grid):
    fields = dict(fine_grid.fields)
    top, below = fine_grid.ladder[-1], fine_grid.ladder[-2]
    fields[("x", top)] = _interpolate_from_half(fields[("x", below)])
    fails = checks.check_fine_grid(fields, fine_grid.ladder, fine_grid.vectors)
    assert "order" in " ".join(fails[("x", top)])


def test_fine_grid_rejects_broken_superposition(fine_grid):
    fields = dict(fine_grid.fields)
    M = fine_grid.ladder[0]
    fields[("x+y", M)] = fields[("x+y", M)] * (1 + 1e-8)
    fails = checks.check_fine_grid(fields, fine_grid.ladder, fine_grid.vectors)
    assert "superposition" in " ".join(fails[("x+y", M)])


def test_fine_grid_rejects_a_nonfinite_coefficient(fine_grid):
    fields = dict(fine_grid.fields)
    M = fine_grid.ladder[1]
    bad = fields[("y", M)].copy()
    bad[-1, 0] = np.nan
    fields[("y", M)] = bad
    fails = checks.check_fine_grid(fields, fine_grid.ladder, fine_grid.vectors)
    assert "not finite" in " ".join(fails[("y", M)])
