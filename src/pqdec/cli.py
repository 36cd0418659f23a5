"""Command-line front end.

Single computations print to stdout; longer artifacts (sweeps, studies,
scenario reports) can also be written to files.  Numeric output carries 12
significant digits, an unbounded privacy level is spelled ``inf``, and a
fixed command line reproduces its output byte for byte.

Exit codes: 0 success, 1 failed verification, 2 usage errors, 3 numerical
validation failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import decoupling as dec
from . import entropics as ent
from . import qmat
from . import scenarios as scn
from . import states as st
from .decoupling import _fmt
from .isometries import isometry_to_json, save_isometry
from .qmat import ValidationError

__all__ = ["build_parser", "main"]


def _round12(x: float) -> float:
    return float(format(float(x), ".12g"))


def _checked(check, what: str):
    """An argparse type that parses with ``check``; its failures are usage errors."""

    def parse(text: str) -> float:
        try:
            return check(text)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a {what}: {text!r}") from None

    return parse


_eps_value = _checked(dec._check_eps, "privacy level")


def _grid_value(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like A:B:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid bound in {text!r}") from None
    if not (step > 0.0 and hi >= lo and math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("grid must be ascending with a positive step")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * max(1.0, abs(hi)):
            break
        values.append(v)
        k += 1
    return values


def _int_at_least(least: int):
    """An argparse type for integers ``>= least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed_value = _int_at_least(0)


def _emit(text: str, out: str | None) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _opts(args: argparse.Namespace) -> dec.OptimizerOptions:
    return dec.OptimizerOptions(
        d_b=getattr(args, "d_b", None),
        d_e=getattr(args, "d_e", None),
        restarts=args.restarts,
        iterations=args.iterations,
        seed=args.seed,
    )


def _add_state_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument(
        "--tol",
        type=_checked(qmat._check_tol, "tolerance"),
        default=None,
        help="validation tolerance override for reading the state (default 1e-9)",
    )


def _load(args: argparse.Namespace) -> st.DensityMatrix:
    if getattr(args, "tol", None) is not None:
        return st.load_state(args.state, args.tol)
    return st.load_state(args.state)


def _add_optimizer_flags(p: argparse.ArgumentParser, with_dims: bool = False) -> None:
    p.add_argument("--restarts", type=_positive_int, default=32, help="search restarts (default 32)")
    p.add_argument(
        "--iterations",
        type=_positive_int,
        default=2000,
        help="descent budget per restart, 8 per L-BFGS iteration (default 2000)",
    )
    p.add_argument("--seed", type=_seed_value, default=0, help="master seed (default 0)")
    if with_dims:
        p.add_argument("--dB", dest="d_b", type=_positive_int, default=None, help="kept output dimension")
        p.add_argument("--dE", dest="d_e", type=_positive_int, default=None, help="discarded output dimension")


def _cmd_entropy(args: argparse.Namespace) -> int:
    state = _load(args)
    if args.subsystem:
        value = ent.subsystem_entropy(state, args.subsystem)
    else:
        value = ent.entropy(state)
    print(_fmt(value))
    return 0


def _cmd_qmi(args: argparse.Namespace) -> int:
    state = _load(args)
    print(_fmt(ent.mutual_information(state, args.x, args.y)))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    state = _load(args)
    report = dec.bounds_report(state, args.eps, _opts(args))
    payload = {
        "qmi": _round12(report.qmi),
        "ic_a_to_r": _round12(report.ic_a_to_r),
        "prop1_lower": _round12(report.prop1_lower),
        "half_qmi_upper": _round12(report.half_qmi_upper),
        "povm_upper": _round12(report.povm_upper),
        "xi_infinity": _round12(report.xi_infinity),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    state = _load(args)
    outcome = dec.optimize_xi(state, args.eps, _opts(args))
    certificate = dec.outcome_isometry(outcome)
    payload = {
        "i_rb": _round12(outcome.i_rb),
        "i_re": _round12(outcome.i_re),
        "epsilon": "inf" if math.isinf(outcome.epsilon) else _round12(outcome.epsilon),
        "feasible": outcome.feasible,
        "restarts_used": outcome.restarts_used,
        "converged": outcome.converged,
        "d_a": outcome.d_a,
        "d_b": outcome.d_b,
        "d_e": outcome.d_e,
        "theta": [float(t) for t in outcome.theta],
        "isometry": json.loads(isometry_to_json(certificate)),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    if args.certificate:
        save_isometry(certificate, args.certificate)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    state = _load(args)
    result = dec.rates_sweep(state, args.eps_grid, _opts(args))
    _emit(result.to_csv(), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = scn.run_all(args.seed)
    for r in reports:
        worst = max(r.metrics.values()) if r.metrics else 0.0
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name} worst={_fmt(worst)} tol={_fmt(r.tolerance)} seed={r.seed}")
    if args.out:
        Path(args.out).write_text(scn.report_to_json(reports) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_random_study(args: argparse.Namespace) -> int:
    d_r, d_a = args.dims
    lines = [
        "sample,seed,qmi,ic_a_to_r,prop1_lower,half_qmi_upper,povm_upper,"
        "xi_infinity,xi_estimate,feasible,lower_ok,upper_ok"
    ]
    for k in range(args.samples):
        sample_seed = args.seed + k
        rho = st.random_density(
            d_r * d_a, d_r * d_a, sample_seed, labels=("R", "A"), dims=(d_r, d_a)
        )
        opts = dec.OptimizerOptions(
            restarts=args.restarts,
            iterations=args.iterations,
            seed=sample_seed,
        )
        report = dec.bounds_report(rho, dec.UNBOUNDED, opts)
        outcome = dec.optimize_xi(rho, dec.UNBOUNDED, opts)
        lower_ok = outcome.i_rb >= report.prop1_lower - 1e-6
        upper_ok = outcome.i_rb <= min(
            report.povm_upper + 2e-2, report.half_qmi_upper + 1e-6
        )
        lines.append(
            ",".join(
                [
                    str(k),
                    str(sample_seed),
                    _fmt(report.qmi),
                    _fmt(report.ic_a_to_r),
                    _fmt(report.prop1_lower),
                    _fmt(report.half_qmi_upper),
                    _fmt(report.povm_upper),
                    _fmt(report.xi_infinity),
                    _fmt(outcome.i_rb),
                    str(bool(outcome.feasible)).lower(),
                    str(bool(lower_ok)).lower(),
                    str(bool(upper_ok)).lower(),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_make_state(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "bell":
        state = st.to_density(st.max_entangled(args.d))
    elif kind == "cc":
        p = np.full(args.d, 1.0 / args.d)
        conds = [np.diag(np.eye(args.d)[i]) for i in range(args.d)]
        state = st.classically_correlated(p, conds)
    elif kind == "isotropic":
        state = st.isotropic(args.d, args.fidelity)
    elif kind == "random":
        d_r, d_a = args.dims
        rank = args.rank if args.rank else d_r * d_a
        state = st.random_density(
            d_r * d_a, rank, args.seed, labels=("R", "A"), dims=(d_r, d_a)
        )
    else:
        d_r, d_a = args.dims
        state = st.random_separable(d_r, d_a, args.terms, args.seed)
    st.save_state(state, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqdec",
        description="Compute, bound, and minimize the correlations a local "
        "isometry must keep while capping what it leaks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy of a state or one of its subsystems, in bits")
    _add_state_arg(p)
    p.add_argument("--subsystem", nargs="+", default=None, metavar="LABEL")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("qmi", help="mutual information between two factor groups, in bits")
    _add_state_arg(p)
    p.add_argument("--x", nargs="+", required=True, metavar="LABEL")
    p.add_argument("--y", nargs="+", required=True, metavar="LABEL")
    p.set_defaults(func=_cmd_qmi)

    p = sub.add_parser("bounds", help="closed-form and measurement-search bounds as JSON")
    _add_state_arg(p)
    p.add_argument("--eps", type=_eps_value, default=dec.UNBOUNDED, help="privacy level (default inf)")
    p.add_argument("--out", default=None, help="also write the JSON here")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("optimize", help="minimize kept correlations under a leak cap")
    _add_state_arg(p)
    p.add_argument("--eps", type=_eps_value, default=dec.UNBOUNDED, help="privacy level (default inf)")
    p.add_argument("--out", default=None, help="also write the outcome JSON here")
    p.add_argument("--certificate", default=None, help="write the certificate isometry JSON here")
    _add_optimizer_flags(p, with_dims=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="trade-off curve over a privacy grid, as CSV")
    _add_state_arg(p)
    p.add_argument("--eps-grid", type=_grid_value, required=True, metavar="A:B:STEP")
    p.add_argument("--out", default=None, help="also write the CSV here")
    _add_optimizer_flags(p, with_dims=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run every built-in scenario; exit 0 iff all pass")
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random-study", help="bounds and optimizer estimates on random states, as CSV")
    p.add_argument("--dims", nargs=2, type=_positive_int, required=True, metavar=("DR", "DA"))
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--out", default=None, help="also write the CSV here")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_random_study)

    p = sub.add_parser("make-state", help="write a named state as JSON")
    kinds = p.add_subparsers(dest="kind", required=True)
    q = kinds.add_parser("bell", help="maximally entangled pair")
    q.add_argument("--d", type=_positive_int, default=2)
    q.add_argument("--out", required=True)
    q = kinds.add_parser("cc", help="uniform basis-correlated pair")
    q.add_argument("--d", type=_positive_int, default=2)
    q.add_argument("--out", required=True)
    q = kinds.add_parser("isotropic", help="entangled pair mixed with white noise")
    q.add_argument("--d", type=_positive_int, default=2)
    q.add_argument("--fidelity", type=float, default=0.9)
    q.add_argument("--out", required=True)
    q = kinds.add_parser("random", help="full or fixed-rank random bipartite state")
    q.add_argument("--dims", nargs=2, type=_positive_int, default=[2, 2], metavar=("DR", "DA"))
    q.add_argument("--rank", type=_positive_int, default=None)
    q.add_argument("--seed", type=_seed_value, default=0)
    q.add_argument("--out", required=True)
    q = kinds.add_parser("separable", help="random mixture of product states")
    q.add_argument("--dims", nargs=2, type=_positive_int, default=[2, 2], metavar=("DR", "DA"))
    q.add_argument("--terms", type=_positive_int, default=3)
    q.add_argument("--seed", type=_seed_value, default=0)
    q.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_state)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"pqdec: validation failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, OSError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"pqdec: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
