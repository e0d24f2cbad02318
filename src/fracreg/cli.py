"""Command-line front end.

Subcommands map one-to-one onto the experiment harnesses plus a scalar
Mittag-Leffler evaluator:

    fracreg ml-eval   --beta B --gamma G --z Z [--tol T]
    fracreg illposed  --beta B --a A --eps-grid 1e-1,1e-2,... --replicates R --seed S --out PATH
    fracreg converge  --norm {l2,hq} [--q Q] [--r R] ... --out PATH
    fracreg mise-check --replicates R --seed S --out PATH

Every experiment flag can also come from a JSON file via ``--config``
(explicit flags win).  The list flags ``--eps-grid`` and ``--t-eval`` take
non-empty comma-separated floats.  Exit status: 0 on success, 2 when a
declared experiment invariant fails, 1 on error, a bad command line included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Mapping
from dataclasses import fields

from .errors import DomainError, NoConvergence
from .experiments import (
    ErrorReport,
    ExperimentConfig,
    convergence_table,
    emit,
    illposed_demo,
    mise_check,
)
from .mittag_leffler import ml
from .regularizer import RateParams

#: Exit-status contract: 0 ok, 2 invariant violated, 1 error.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVARIANT_FAILED = 2


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))  # an empty item is no float
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse whose bad command lines are errors: one line, exit status 1."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON file with configuration defaults")
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None)


def _add_problem(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-grid", type=_float_list,
                        help="comma-separated decreasing noise levels")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--a", type=float)
    parser.add_argument("--m-steps", type=int, dest="M", help="time steps")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracreg",
        description="Fourier-truncation regularization experiments for the "
        "ill-posed fractional Cauchy problem with white-noise data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ml_p = sub.add_parser("ml-eval", help="evaluate E(beta, gamma; z)")
    ml_p.add_argument("--beta", type=float, required=True)
    ml_p.add_argument("--gamma", type=float, required=True)
    ml_p.add_argument("--z", type=float, required=True)
    ml_p.add_argument("--tol", type=float, default=None,
                      help="sum the power series to this absolute tail bound "
                      "(default: a tail bound of 1e-13 relative to the sum)")

    # the experiment flags default to absent, so the namespace holds only
    # the flags given and _experiment_config merges them as they are
    experiment = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)
    ill = experiment("illposed", help="instability demonstration")
    _add_common(ill)
    _add_problem(ill)
    ill.add_argument("--p-cap", type=int, dest="p_cap")

    conv = experiment("converge", help="convergence-rate table")
    _add_common(conv)
    _add_problem(conv)
    conv.add_argument("--norm", choices=("l2", "hq"))
    conv.add_argument("--q", type=float)
    conv.add_argument("--r", type=float)
    conv.add_argument("--t-eval", dest="t_eval", type=_float_list,
                      help="comma-separated times")
    conv.add_argument("--b", type=float, help="rate parameter b")
    conv.add_argument("--m", type=float, help="rate parameter m")
    conv.add_argument("--k", type=float, help="rate parameter k")
    conv.add_argument("--gamma", type=float, help="rate parameter gamma")
    conv.add_argument("--d", type=int, help="rate parameter d")
    conv.add_argument("--mu", type=float, help="rate parameter mu")
    conv.add_argument("--eig-kind", dest="eig_kind", choices=("dirichlet", "linear"))
    conv.add_argument("--eig-count", dest="eig_count", type=int)
    conv.add_argument("--lipschitz-k", dest="lipschitz_K", type=float)
    conv.add_argument("--shared-noise", dest="shared_noise", action="store_true",
                      help="drive value and velocity noise from one stream")

    _add_common(experiment("mise-check", help="data-MISE identity validation"))
    return parser


# Values that differ from ExperimentConfig's field defaults for CLI-driven
# experiments; anything not supplied on the command line or in --config falls
# back to these, then to the field defaults.
_DEFAULTS = {
    "illposed": {
        "kind": "illposed",
        "eps_grid": (1e-1, 1e-2, 1e-3, 1e-4),
        "replicates": 64,
        "seed": 20260809,
        "beta": 1.8,
        "a": 1.0,
    },
    "converge": {
        "kind": "converge",
        "eps_grid": (1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7),
        "replicates": 64,
        "seed": 20260809,
        "beta": 1.5,
        "a": 1.0,
        "M": 128,
        "t_eval": (0.25,),
        "rate": {"b": 1.0, "m": 6.0, "k": 1.0, "gamma": 3.5, "d": 1, "mu": 2.0},
        "lipschitz_K": 0.02,
        "eig_kind": "dirichlet",
        "eig_count": 64,
    },
    "mise-check": {
        "kind": "mise-check",
        "eps_grid": (0.05, 0.01),
        "replicates": 10_000,
        "seed": 20260809,
        "beta": 1.5,
        "a": 1.0,
    },
}


def _experiment_config(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    merged = dict(_DEFAULTS[kind])
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise DomainError(f"--config {args.config}: top level must be a JSON object")
        merged.update(loaded)
    flags = {name: value for name, value in vars(args).items()
             if name not in ("command", "config", "out", "format")}  # the run's own flags
    rate = {f.name: flags.pop(f.name) for f in fields(RateParams) if f.name in flags}
    if rate and isinstance(merged["rate"], Mapping):  # any other rate is rejected as given
        merged["rate"] = {**merged["rate"], **rate}
    return ExperimentConfig.from_dict({**merged, **flags})


def _run_experiment(args: argparse.Namespace, kind: str) -> int:
    cfg = _experiment_config(args, kind)
    runner = {"illposed": illposed_demo, "converge": convergence_table,
              "mise-check": mise_check}[kind]
    report: ErrorReport = runner(cfg)
    fmt = args.format or ("json" if (args.out or "").endswith(".json") else "csv")
    if args.out:
        emit(report, args.out, fmt)
    else:
        sys.stdout.write(report.to_csv() if fmt == "csv" else report.to_json())
    ok = bool(report.meta.get("invariants_ok", False))
    if not ok:
        print(f"{kind}: declared invariants FAILED "
              f"(see metadata checks)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INVARIANT_FAILED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "ml-eval":
            value = ml(args.beta, args.gamma, args.z, args.tol)
            sys.stdout.write("value,est_abs_err\n")
            sys.stdout.write(f"{value.value!r},{value.est_abs_err!r}\n")
            return EXIT_OK
        return _run_experiment(args, args.command)
    except (NoConvergence, OSError, ValueError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

