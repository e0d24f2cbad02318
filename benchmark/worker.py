"""One round of one workload, run by ``run.py`` in a fresh interpreter.

Usage: python3 benchmark/worker.py --workload W --seed N --trace 0|1
           --spawn-t T --out RESULT.json [--tiny]

The round imports fracreg from ``src/`` of the tree this file sits in, builds
the workload's inputs from the benchmark seed, calls fracreg through its
public entry points, checks every output against ``checks.py`` and writes
one JSON object to ``--out``:

    setup_s      from the start of the interpreter (``--spawn-t``, a
                 ``time.monotonic`` reading taken by the parent just before it
                 started this process) until fracreg is imported and the
                 inputs are built
    run_s        wall time of the calls into fracreg
    peak_rss_mb  peak resident memory of this process at the end of the calls
    attempted, failed, check_failures, layers (traced rounds only)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent

# The acceptance configurations of the three experiments, passed to the CLI
# in full through --config so the checks know every value the program used.
CONVERGE = {
    "kind": "converge",
    "eps_grid": [1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7],
    "replicates": 64,
    "beta": 1.5,
    "a": 1.0,
    "M": 128,
    "r": 0.1,
    "t_eval": [0.25],
    "rate": {"b": 1.0, "m": 6.0, "k": 1.0, "gamma": 3.5, "d": 1, "mu": 2.0},
    "lipschitz_K": 0.02,
    "eig_kind": "dirichlet",
    "eig_count": 64,
    "truth_modes": 4,
    "truth_decay": 2.0,
    "truth_u1_scale": 0.3,
}
MISE = {
    "kind": "mise-check",
    "eps_grid": [0.05, 0.01],
    "replicates": 10_000,
    "beta": 1.5,
    "a": 1.0,
    # (decay, modes, N, eps, gamma) per setting
    "mise_configs": [[2.0, 64, 8, 0.05, 0.5], [2.0, 64, 16, 0.01, 0.5], [3.0, 64, 4, 0.2, 1.0]],
}
ILLPOSED = {
    "kind": "illposed",
    "eps_grid": [1e-1, 1e-2, 1e-3, 1e-4],
    "replicates": 64,
    "beta": 1.8,
    "a": 1.0,
    "M": 64,
    "p_cap": 32,
}
ILLPOSED_CALLS = 8  # one call takes about 0.4 s; a round of 8 is steadier
FINE_LADDER = (256, 512, 1024, 2048)
FINE_MODES = 8

# Smaller settings of the same workloads, for the benchmark's own tests.
TINY = {
    "converge": {"eps_grid": [1e-4, 1e-5, 1e-6, 1e-7], "M": 32},
    "mise-check": {"replicates": 400},
    "illposed": {"replicates": 8, "M": 16},
}
TINY_ILLPOSED_CALLS = 2
TINY_FINE_LADDER = (32, 64, 128, 256)


def program_seed(workload: str, seed: int) -> int:
    """The fracreg seed a workload derives from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cli_call(argv: list[str]) -> int:
    """One ``fracreg`` command line; its exit status."""
    from fracreg import cli

    return cli.main(argv)


def illposed_call(cfg: dict, out: str) -> int:
    """``fracreg illposed`` through the library: the same experiment and
    report as the command line, without its exit status.  The command exits
    2 for about one seed in 300 because its own input-energy test
    (``input_matches_analytic_4se``) flags a 64-replicate mean of skewed
    chi-square energies; the benchmark judges the report by its own checks.
    """
    from fracreg import experiments

    report = experiments.illposed_demo(experiments.ExperimentConfig.from_dict(cfg))
    experiments.emit(report, out, "json")
    return 0


class ReportWorkload:
    """Operations that each write one JSON report into the round's directory.

    The check reads every report back.  An operation fails on a nonzero
    exit status, an exception or a failed check.
    """

    def __init__(self, cfg: dict, check, ops: list[tuple[str, Path, Callable[[], int]]]):
        self.cfg = cfg
        self.check_report = check
        self.ops = ops
        self.errors: list[str | None] = []

    def run(self) -> None:
        for label, _, call in self.ops:
            try:
                status = call()
            except Exception as exc:  # an exception is a failed operation
                self.errors.append(f"{label}: {exc!r}")
                continue
            self.errors.append(None if status == 0 else f"{label}: exit status {status}")

    def check(self) -> tuple[int, list[str], list[str]]:
        """(failed operations, errors, check failures)."""
        failed, errors, check_failures = 0, [], []
        for (label, out, _), error in zip(self.ops, self.errors):
            found = []
            if out.exists():
                found = self.check_report(json.loads(out.read_text()), self.cfg)
                check_failures += [f"{label}: {f}" for f in found]
            elif error is None:
                error = f"{label}: no report written"
            if error:
                errors.append(error)
            failed += bool(error or found)
        return failed, errors, check_failures


class FineGrid:
    """``solve_mild`` on the instability construction over a refinement ladder.

    Three initial-data pairs, ``x``, ``y`` and ``x+y``, each solved at every
    M of the ladder; one operation is one solve.
    """

    vectors = ("x", "y", "x+y")

    def __init__(self, seed: int, ladder):
        import numpy as np

        from fracreg.mild_solver import InitialData

        rng = np.random.default_rng(seed)
        decay = np.arange(1, FINE_MODES + 1, dtype=float) ** -2.0
        x0, y0 = rng.standard_normal((2, FINE_MODES)) * decay
        x1, y1 = 0.3 * rng.standard_normal((2, FINE_MODES)) * decay
        self.data = {
            "x": InitialData(x0, x1),
            "y": InitialData(y0, y1),
            "x+y": InitialData(x0 + y0, x1 + y1),
        }
        self.ladder = tuple(ladder)
        self.ops = [(v, M) for M in self.ladder for v in self.vectors]
        self.fields: dict = {}
        self.errors: dict = {}

    def run(self) -> None:
        from fracreg import mild_solver, mittag_leffler
        from fracreg.spectral import EigenSystem

        beta, a = 1.8, 1.0
        c3 = mittag_leffler.calibrate_growth_constants(beta, a).C3
        spec = mild_solver.ProblemSpec(
            beta, a, EigenSystem.dirichlet_laplace_1d(FINE_MODES),
            mild_solver.NonlinearitySpec.gbar(c3),
        )
        for v, M in self.ops:
            try:
                field = mild_solver.solve_mild(spec, self.data[v], P=FINE_MODES, M=M)
            except Exception as exc:  # an exception is a failed operation
                self.errors[(v, M)] = repr(exc)
                continue
            self.fields[(v, M)] = field.coeffs

    def check(self) -> tuple[int, list[str], list[str]]:
        if self.errors:
            # The checks compare solves with each other; none can be trusted.
            return len(self.ops), [f"{k}: {e}" for k, e in self.errors.items()], []
        found = checks.check_fine_grid(self.fields, self.ladder, self.vectors)
        return len(found), [], [f"{k}: {m}" for k, msgs in found.items() for m in msgs]


def build(workload: str, seed: int, tiny: bool, tmp: Path):
    """The workload's inputs, made from the benchmark seed alone."""
    base = program_seed(workload, seed)
    if workload == "fine-grid":
        return FineGrid(base, TINY_FINE_LADDER if tiny else FINE_LADDER)
    cfg, check = {
        "converge": (CONVERGE, checks.check_converge),
        "mise-check": (MISE, checks.check_mise),
        "illposed": (ILLPOSED, checks.check_illposed),
    }[workload]
    if tiny:
        cfg = {**cfg, **TINY[workload]}
    if workload == "illposed":
        n = TINY_ILLPOSED_CALLS if tiny else ILLPOSED_CALLS
        ops = []
        for j in range(n):
            out = tmp / f"illposed-{j}.json"
            ops.append((f"illposed seed {base + j}", out,
                        partial(illposed_call, {**cfg, "seed": base + j}, str(out))))
        return ReportWorkload(cfg, check, ops)

    config = tmp / "config.json"
    config.write_text(json.dumps(cfg))
    flags = [["--norm", "l2"], ["--norm", "hq", "--q", "0.5"]] if workload == "converge" else [[]]
    ops = []
    for k, extra in enumerate(flags):
        out = tmp / f"{workload}-{k}.json"
        argv = [workload, "--config", str(config), "--seed", str(base), "--out", str(out), *extra]
        ops.append((" ".join([workload, *extra]), out, partial(cli_call, argv)))
    return ReportWorkload(cfg, check, ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fracreg

    if not Path(fracreg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fracreg imported from {fracreg.__file__}, not from {src}")
    workload = build(args.workload, args.seed, args.tiny, args.out.parent)
    setup_s = time.monotonic() - args.spawn_t

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    workload.run()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, errors, check_failures = workload.check()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(workload.ops),
        "failed": failed,
        "errors": errors,
        "check_failures": check_failures,
        "layers": tracer.metrics(run_s) if tracer else None,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
