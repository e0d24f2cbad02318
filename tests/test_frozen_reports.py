"""Frozen report bytes: short runs of each experiment against recorded digests.

The other tests check rates, bounds and run-to-run determinism, so a change
to a report's numbers could pass all of them.  These digests pin the bytes
of four short CLI runs, in JSON and CSV.  They were first recorded with
numpy 2.4.6 and scipy 1.17.1, when the package still took its special
functions from scipy, which is now a test oracle only.  A deliberate change
of the numbers (a new Mittag-Leffler or noise kernel, say) updates them and
says so in CHANGES.md.

The converge and illposed digests were re-recorded three times; the
mise-check digests moved only the third time.
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
"""

import hashlib
import json

import pytest

from fracreg.cli import main

CONVERGE_SHORT = ["--replicates", "8", "--m-steps", "32", "--eps-grid", "1e-4,1e-5,1e-6,1e-7"]

RUNS = {
    "converge-l2": (
        ["converge", "--norm", "l2", *CONVERGE_SHORT],
        "23001abf0ea17597687b21c79bc4815fe560b25830aac5fe5919c0f0ebe149b4",
        "9db05c026946e2399c5d3dd4b554133c3bbe75b1aa0a41e985d01a9c72ea6b7c",
    ),
    "converge-hq": (
        ["converge", "--norm", "hq", "--q", "0.5", *CONVERGE_SHORT],
        "9066b7d7061ca8ae1a18dececb8f50546b3311d2ae36f8093fdcd89aba8fb09e",
        "64c77a186d1b2a55f937aba9c0526eb700365bbe74cf2c27602809919709ff14",
    ),
    "illposed": (
        ["illposed", "--replicates", "8", "--m-steps", "16"],
        "5bddf3c73dcfbfa39d1f4790faa3c93a2f271df9eed5e3df6d60a9b79ccd0181",
        "bf8d3d49e5a27f05c41b7e3ab125c22efe1a503e02df06ed1b56e759a484f01a",
    ),
    "mise-check": (
        ["mise-check", "--replicates", "200"],
        "a00bf1e9e65aeb3bfd2cc980c566738fce4a6e25ff6aedfc96216247cf81daa0",
        "b4f7867e628550a76749fd61b24d43320c7e0a8dda568eaddf4f681e375ed6f0",
    ),
}


# A mise-check setting with N = 8 observations past its modes = 4: the only
# run path whose bound reads an eigenvalue, lam_8, past the truth's modes.
PAST_MODES = (
    {"mise_configs": [[2.0, 4, 8, 0.05, 0.5]]},
    "ef10f45f119cd40a7f0c2d224ff119a0a1a444ba968e1dc8405115d42d0919c0",
    "ed9cfe177deba14bcd97b74bb5df462b3117a8144fe97dc84111a20a1ab9c8c1",
)


def assert_frozen(tmp_path, name, argv, json_digest, csv_digest):
    for fmt, want in (("json", json_digest), ("csv", csv_digest)):
        out = tmp_path / f"{name}.{fmt}"
        assert main([*argv, "--out", str(out)]) == 0
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
