"""fracreg benchmark: one workload, measured for a fixed time.

Usage (from the root of a source tree):

    python3 benchmark/run.py --workload {converge,mise-check,illposed,fine-grid}
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Runs whole rounds of the workload, each in a fresh interpreter
(``worker.py``) with one BLAS/OpenMP thread, and starts another round only
while it is expected to end within ``--seconds`` (the first round always
runs).  Prints one line per round to stderr, then a line
``# env {...}`` naming the source tree, the Python/numpy/scipy versions and
the CPU count, and last one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ``setup_s``, ``run_s`` and
``peak_rss_mb``; with ``--trace 1`` the rounds run with per-layer wrappers
installed and the metrics are the per-layer ones (see ``layers.py``).  Each
metric is the median over the run's rounds.  Exits 2, printing no result,
when the tree has no ``src/fracreg`` or a round cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("converge", "mise-check", "illposed", "fine-grid")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
ROUND_TIMEOUT_S = 150
# One thread per pool: on a small shared host, more threads than the round
# needs would time the scheduler rather than the program.
ROUND_ENV = {**os.environ, **dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}


def source_id() -> dict:
    """The git commit when the tree is a repository, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_sha": commit, "src_sha256": digest.hexdigest()[:16]}


def environment() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        **source_id(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class RoundFailed(Exception):
    """A round that ended without a result."""


def run_round(args, tmp: Path, k: int) -> dict:
    """The result of one round, run in a fresh interpreter."""
    round_dir = tmp / f"round-{k}"
    round_dir.mkdir()
    out = round_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--out", str(out)] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd + ["--spawn-t", repr(time.monotonic())], env=ROUND_ENV,
                              stdout=sys.stderr, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {k} ran over {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise RoundFailed(f"round {k} exited {proc.returncode}")
    result = json.loads(out.read_text())
    shutil.rmtree(round_dir)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small settings of the same workload (for tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fracreg" / "__init__.py").is_file():
        print(f"error: no fracreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    rounds = []
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            start = time.monotonic()
            durations = []
            while not rounds or (time.monotonic() - start + statistics.median(durations)
                                 <= args.seconds):
                began = time.monotonic()
                result = run_round(args, Path(tmp), len(rounds))
                durations.append(time.monotonic() - began)
                rounds.append(result)
                print(f"round {len(rounds)}: setup_s={result['setup_s']:.4f} "
                      f"run_s={result['run_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
                for line in result["errors"] + result["check_failures"]:
                    print(f"  {line}", file=sys.stderr)
    except RoundFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    if args.trace:
        from layers import UNITS as units
    else:
        units = END_TO_END
    values = [r["layers"] if args.trace else r for r in rounds]
    metrics = {
        name: {"value": statistics.median(v[name] for v in values), "unit": unit}
        for name, unit in units.items()
    }
    print("# env " + json.dumps({**environment(), "workload": args.workload,
                                 "seed": args.seed, "rounds": len(rounds)}))
    print(json.dumps({
        "correct": not any(r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
