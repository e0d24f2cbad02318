"""Frozen report bytes: short runs of each experiment against recorded digests.

The other tests check rates, bounds and run-to-run determinism, so a change
to a report's numbers could pass all of them.  These digests pin the bytes
of four short CLI runs, in JSON and CSV.  They were recorded with numpy
2.4.6 and scipy 1.17.1, when the package still took its special functions
from scipy, which is now a test oracle only; the package's own ports keep
these bits.  A deliberate change of the numbers (a new Mittag-Leffler or
noise kernel, say) updates them and says so in CHANGES.md.

The converge and illposed digests were re-recorded once when the solver's
forward substitution became block-wise: its rounding moved at the 1e-16
level, and the largest relative change of any JSON value was 9.2e-11 (the
short converge-l2 run), 1.1e-11 (converge-hq) and 3.8e-16 (illposed).  The
mise-check digests did not move.
"""

import hashlib
import json

import pytest

from fracreg.cli import main

CONVERGE_SHORT = ["--replicates", "8", "--m-steps", "32", "--eps-grid", "1e-4,1e-5,1e-6,1e-7"]

RUNS = {
    "converge-l2": (
        ["converge", "--norm", "l2", *CONVERGE_SHORT],
        "31974577c65cbf429e0a019148d4212ee916a6c00074e0a12a448abb98ada880",
        "2f2b084f144151d84ec220bcb913889820f628922588e28fb019608473247841",
    ),
    "converge-hq": (
        ["converge", "--norm", "hq", "--q", "0.5", *CONVERGE_SHORT],
        "41ddbe91428fe09e5aca78b9b8070aece168263b85c607ba568f48e1f6fc71a4",
        "e4875677bdfecad1ab7c9beea266051aabe1469992f30f2d6bfcc09756ba8444",
    ),
    "illposed": (
        ["illposed", "--replicates", "8", "--m-steps", "16"],
        "18b325ae8126b0e421dc34d3ff2b2c9da2b2bcc9bcc95b0e4c3df6c6cb610f07",
        "2d382b2ec63d48d74a69d6757a4938b59d0aa25f108b178adee1cb5bce8530fe",
    ),
    "mise-check": (
        ["mise-check", "--replicates", "200"],
        "bdb2a959854936078b764939fbf663acc6dcda126a3f23f0ac7df0a0ea5f77d8",
        "3c0b47795ccf92fe0d0a0598807ddb1b2707ec810ef8b782163071cf3ead27b7",
    ),
}


# A mise-check setting with N = 8 observations past its modes = 4: the only
# run path whose bound reads an eigenvalue, lam_8, past the truth's modes.
PAST_MODES = (
    {"mise_configs": [[2.0, 4, 8, 0.05, 0.5]]},
    "663308dfcceb00d56be5f54242fda06f8f71b2cdbeae61acd4c5501a3b872b09",
    "e897a6fb6cc3f45d8edd9f07dc794c5ca0f52b7a793cf39cd5d45488af99dcf0",
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
