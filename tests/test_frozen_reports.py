"""Frozen report bytes: short runs of each experiment against recorded digests.

The other tests check rates, bounds and run-to-run determinism, so a change
to a report's numbers could pass all of them.  These digests pin the bytes
of four short CLI runs, in JSON and CSV.  They were first recorded with
numpy 2.4.6 and scipy 1.17.1, when the package still took its special
functions from scipy, which is now a test oracle only; the package's port
of ``ndtri`` keeps those bits.  A deliberate change of the numbers (a new Mittag-Leffler or
noise kernel, say) updates them and says so in CHANGES.md.

The converge and illposed digests were re-recorded twice; the mise-check
digests moved neither time.
- When the solver's forward substitution became block-wise: its rounding
  moved at the 1e-16 level, and the largest relative change of any JSON
  value was 9.2e-11 (the short converge-l2 run), 1.1e-11 (converge-hq) and
  3.8e-16 (illposed).
- When the Mittag-Leffler series took every log Gamma from ``math.lgamma``
  in place of a port of Cephes ``lgam``: the largest relative change was
  8.6e-13 (converge-l2), 2.7e-13 (converge-hq) and 3.9e-15 (illposed).
"""

import hashlib
import json

import pytest

from fracreg.cli import main

CONVERGE_SHORT = ["--replicates", "8", "--m-steps", "32", "--eps-grid", "1e-4,1e-5,1e-6,1e-7"]

RUNS = {
    "converge-l2": (
        ["converge", "--norm", "l2", *CONVERGE_SHORT],
        "911712ea8b56e8d0b7250067af23256e461a654abe9ab1d7821c2bc2f7b37ac2",
        "f21180b91baa9b42dcac5f19f669335e3b6a8fdf613558319f2e155818c55589",
    ),
    "converge-hq": (
        ["converge", "--norm", "hq", "--q", "0.5", *CONVERGE_SHORT],
        "d5e5c86a9836577eadd929f9319002b3b2bf376d5579d48defbe6e09a5305440",
        "f138fb0aaeebbe6ca43cc5daa38efb4ebe39ec3f93d0025ed06d8b1f3c7a0d93",
    ),
    "illposed": (
        ["illposed", "--replicates", "8", "--m-steps", "16"],
        "96edfef5c84c37971ef18a76a1bca7e12a736d2f94a85d84e96b7713c995d608",
        "5fe0ef8eefe60e788a1b477cf2e6c9b5d764e81264c7e91ed6fbc84ab3630d07",
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
