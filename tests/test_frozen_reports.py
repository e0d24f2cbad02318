"""Frozen report bytes: short runs of each experiment against recorded digests.

The other tests check rates, bounds and run-to-run determinism, so a change
to a report's numbers could pass all of them.  These digests pin the bytes
of four short CLI runs, in JSON and CSV.  They were recorded with numpy
2.4.6 and scipy 1.17.1, when the package still took its special functions
from scipy, which is now a test oracle only; the package's own ports keep
these bits.  A deliberate change of the numbers (a new Mittag-Leffler or
noise kernel, say) updates them and says so in CHANGES.md.
"""

import hashlib

import pytest

from fracreg.cli import main

CONVERGE_SHORT = ["--replicates", "8", "--m-steps", "32", "--eps-grid", "1e-4,1e-5,1e-6,1e-7"]

RUNS = {
    "converge-l2": (
        ["converge", "--norm", "l2", *CONVERGE_SHORT],
        "c8938b80e3697adf24d4db6296ef6e2329df49d03c352733a4810468c4a3ce27",
        "8ae20a920e0022abd2eac9405cc9c069ae3a1d4b850efe694bafd9509f3178d9",
    ),
    "converge-hq": (
        ["converge", "--norm", "hq", "--q", "0.5", *CONVERGE_SHORT],
        "bffb252dccfa4184a7aba32816eba98d341497e748d0e06133af72c3983eeecc",
        "f140728ab22e0ded109faa87dad5e71f29089f3d58d7f1b5779afe6003b78955",
    ),
    "illposed": (
        ["illposed", "--replicates", "8", "--m-steps", "16"],
        "856e35ffc570f47bed2a3ad8d0e5a4a99c8da353bcca097efd9a64d9394280e6",
        "11df912a201a8ac1fd78ae2d9efe7f159101e7f71af93f3d4da8d74af6ff3274",
    ),
    "mise-check": (
        ["mise-check", "--replicates", "200"],
        "bdb2a959854936078b764939fbf663acc6dcda126a3f23f0ac7df0a0ea5f77d8",
        "3c0b47795ccf92fe0d0a0598807ddb1b2707ec810ef8b782163071cf3ead27b7",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_frozen(tmp_path, name):
    argv, json_digest, csv_digest = RUNS[name]
    for fmt, want in (("json", json_digest), ("csv", csv_digest)):
        out = tmp_path / f"{name}.{fmt}"
        assert main([*argv, "--out", str(out)]) == 0
        got = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == want, f"{name} {fmt} report changed: sha256 {got}"
