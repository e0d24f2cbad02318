"""Frozen report bytes: short runs of each experiment against recorded digests.

The other tests check rates, bounds and run-to-run determinism, so a change
to a report's numbers could pass all of them.  These digests pin the bytes
of four short CLI runs, in JSON and CSV, and of two converge runs at the
command's defaults whose declared invariants fail (exit 2), with several
evaluation times out of grid order.  They were first recorded with
numpy 2.4.6 and scipy 1.17.1, when the package still took its special
functions from scipy, which is now a test oracle only.  A deliberate change
of the numbers (a new Mittag-Leffler or noise kernel, say) updates them and
says so in CHANGES.md.

The converge and illposed digests were re-recorded four times; the
mise-check digests moved only the third and fourth times.
- When the solver's forward substitution became block-wise: its rounding
  moved at the 1e-16 level, and the largest relative change of any JSON
  value was 9.2e-11 (the short converge-l2 run), 1.1e-11 (converge-hq) and
  3.8e-16 (illposed).
- When the Mittag-Leffler series took every log Gamma from ``math.lgamma``
  in place of a port of Cephes ``lgam``: the largest relative change was
  8.6e-13 (converge-l2), 2.7e-13 (converge-hq) and 3.9e-15 (illposed).
- When the normals became Box-Muller pairs of Philox words in place of the
  inverse normal CDF of each word: every run drew new noise, so every
  digest moved.  A key-by-key walk of the JSON found only Monte-Carlo
  values moved (``mise``, ``std_err``/``se``, ``loglog_slope``,
  ``observed_slope``, ``input_mc``/``_se``, ``output_mc``/``_se``,
  ``output_loglog_slope`` and ``mc``); every exact MISE, bound, constant
  and admissibility value kept its bits.
- When the replicate and the noise level moved from hashed seeds into the
  Philox counter, and the illposed report gained ``input_exact_se``: every
  run drew new noise again, and the same walk found the same Monte-Carlo
  values moved, that one key added, and every other value kept its bits.
"""

import hashlib
import json

import pytest

from fracreg.cli import main

CONVERGE_SHORT = ["--replicates", "8", "--m-steps", "32", "--eps-grid", "1e-4,1e-5,1e-6,1e-7"]

RUNS = {
    "converge-l2": (
        ["converge", "--norm", "l2", *CONVERGE_SHORT],
        "f9576fc72d59869176cd4b704a3e23c144c16d7ed0a675ae350bd7a3198ef5d9",
        "14bbbdd22f4331348c9b52a67d9ff3718629e0e89e707e5b4be49265b4948832",
    ),
    "converge-hq": (
        ["converge", "--norm", "hq", "--q", "0.5", *CONVERGE_SHORT],
        "523227d07c497af0a6f4674fbe73d22db87085765861c23975e770126847cd5e",
        "7fbdeda24325cc98eb3ea2d8aabcf1f6955e6157c9528e00402c649c789959c4",
    ),
    "illposed": (
        ["illposed", "--replicates", "8", "--m-steps", "16"],
        "5affe1bf6d7a249a345746b1a266a50de5ff80e3ee8f7897d199b073dd2354b5",
        "d46430b253b7d20c166c6c8135f29dc99e3eb56eb61edc06998fe20f549686f1",
    ),
    "mise-check": (
        ["mise-check", "--replicates", "200"],
        "5ae551c2caf28b87084cc4603c9cf432e68abc29aa4c36089256bdda13ae1234",
        "1d8f8bc077eeb64e99eae4c8e64c3758ca7ca5907efc9ef51f6431b6eb3312ce",
    ),
}


# A mise-check setting with N = 8 observations past its modes = 4: the only
# run path whose bound reads an eigenvalue, lam_8, past the truth's modes.
PAST_MODES = (
    {"mise_configs": [[2.0, 4, 8, 0.05, 0.5]]},
    "4b7d60e4ba6bf9a6f182d66253e18ac2fe3d6f6432fadb6920b6c3e7c10e988d",
    "0ee8ceffc576d2f062deacbe3873b9fc8b895543ec124e56422a40e466244062",
)


# Converge at the command's defaults with late evaluation times: t = 0.75 is
# not monotone in eps, and t = 0.875 misses its predicted slope too.  Each
# run reads several grid rows, in an order that is not the grid's.  Recorded
# when every solve still returned the whole field.
FAILED_INVARIANTS = {
    "converge-t-0.75,0.25": (
        ["converge", "--t-eval", "0.75,0.25"],
        "f8002b6a796efbe95cf8b3b1d12cce5592f75d1a926d29c3e6b808cb08fd3fe0",
        "11db73402cd8ed07bf29508ab6b6502d3d7643562c3af37d3d80ce797911f7bd",
    ),
    "converge-t-0.25,0.375,0.875": (
        ["converge", "--t-eval", "0.25,0.375,0.875"],
        "8efe6eda64ef45262ddbf2c1213fe76de38941c5f2991faefecb2dc36c257f2c",
        "cfd06ace1a1bbd773416a5de7860ccfd2c2b7de63f5ebc4e907826095715872d",
    ),
}


def assert_frozen(tmp_path, name, argv, json_digest, csv_digest, status=0):
    for fmt, want in (("json", json_digest), ("csv", csv_digest)):
        out = tmp_path / f"{name}.{fmt}"
        assert main([*argv, "--out", str(out)]) == status
        got = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == want, f"{name} {fmt} report changed: sha256 {got}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_frozen(tmp_path, name):
    assert_frozen(tmp_path, name, *RUNS[name])


def test_mise_check_past_its_modes_is_frozen(tmp_path):
    config, json_digest, csv_digest = PAST_MODES
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = ["mise-check", "--replicates", "200", "--config", str(path)]
    assert_frozen(tmp_path, "mise-past-modes", argv, json_digest, csv_digest)


@pytest.mark.parametrize("name", sorted(FAILED_INVARIANTS))
def test_reports_of_failed_invariants_are_frozen(tmp_path, name):
    assert_frozen(tmp_path, name, *FAILED_INVARIANTS[name], status=2)
