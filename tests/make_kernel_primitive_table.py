"""Write ``kernel_primitive_table.json``, the mpmath values behind
``test_kernel_primitive_matches_quadrature``.

The 100 ``(beta, lam, s)`` points are the ``np.random.default_rng(3)`` draws
the test repeats; each value is ``oracles.kernel_primitive_reference`` at
25 digits.  Run from the repository root (it takes about half a minute):

    python tests/make_kernel_primitive_table.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from oracles import kernel_primitive_reference

TABLE = Path(__file__).with_name("kernel_primitive_table.json")


def draws(count: int = 100) -> list[list[float]]:
    """The test's points: beta in (1.05, 1.95), lam in (0, 30), s in (0.05, 2)."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(count):
        beta = rng.uniform(1.05, 1.95)
        lam = rng.uniform(0.0, 30.0)
        s = rng.uniform(0.05, 2.0)
        out.append([beta, lam, s])
    return out


def main() -> None:
    rows = [[b, lam, s, kernel_primitive_reference(b, lam, s, dps=25)] for b, lam, s in draws()]
    head = '{"dps": 25, "columns": ["beta", "lam", "s", "value"], "rows": [\n'
    TABLE.write_text(head + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")


if __name__ == "__main__":
    main()
