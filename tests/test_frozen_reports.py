"""Frozen report bytes: short runs of each experiment against recorded digests.

The other tests check rates, bounds and run-to-run determinism, so a change
to a report's numbers could pass all of them.  These digests pin the bytes
of four short CLI runs, in JSON and CSV.  They were recorded with numpy
2.4.6 and scipy 1.17.1; a deliberate change of the numbers (a new
Mittag-Leffler or noise kernel, say) updates them and says so in
CHANGES.md.
"""

import hashlib

import pytest

from fracreg.cli import main

CONVERGE_SHORT = ["--replicates", "8", "--m-steps", "32", "--eps-grid", "1e-4,1e-5,1e-6,1e-7"]

RUNS = {
    "converge-l2": (
        ["converge", "--norm", "l2", *CONVERGE_SHORT],
        "390528209e03fe51788f5d62a0cd77b046c582fcedf45dbc7fb90d2f3d8d719b",
        "d7215f114ea77b2295bb8fd16eb62e1199c2ffd1f55fbdf6f08ac01147c4f5c5",
    ),
    "converge-hq": (
        ["converge", "--norm", "hq", "--q", "0.5", *CONVERGE_SHORT],
        "69e5d5d4acab95fce838af838b569437b70637a89054c81879189a160610ae3d",
        "dd99a2f36c0e80cb7acd01da000a87a6969f92e01731bdaac86ca226d01e00cb",
    ),
    "illposed": (
        ["illposed", "--replicates", "8", "--m-steps", "16"],
        "c1134a47276841db99e6616aa7ba7d46a82cced3e8f4288d38a443c44175e77d",
        "11df912a201a8ac1fd78ae2d9efe7f159101e7f71af93f3d4da8d74af6ff3274",
    ),
    "mise-check": (
        ["mise-check", "--replicates", "200"],
        "9daaa636d9aab01365472cb72c7e90c3d91f1b17eee54b0744e10b0adf8fc6b2",
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
