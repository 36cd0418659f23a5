"""Command-line front end.

Single computations print to stdout; longer artifacts (sweeps, studies,
scenario reports) can also be written to files.  This module writes every
output format: CSV cells through :func:`_cell` and JSON records through
:func:`_record`, both read off the fields of the result dataclasses.  Numeric
output carries 12 significant digits, an unbounded privacy level is spelled
``inf``, and a fixed command line reproduces its output byte for byte.

Exit codes: 0 success, 1 failed verification, 2 usage errors, 3 numerical
validation failures, 4 an output file that could not be written, 141
(128 + SIGPIPE) a reader that closed stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import decoupling as dec
from . import entropics as ent
from . import qmat
from . import states as st
from .isometries import isometry_to_json, save_isometry
from .qmat import ValidationError

__all__ = ["build_parser", "main"]


def _cell(v) -> str:
    """One CSV cell or printed value: a string as it is, a bool as ``true``
    or ``false``, an integer in decimal, any other number to 12 significant
    digits (``inf`` for the unbounded privacy level)."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return format(float(v), ".12g")


def _table(header: list[str], rows) -> str:
    """CSV text: the header, then one line of :func:`_cell` cells per row."""
    return "".join(",".join(map(_cell, line)) + "\n" for line in [header, *rows])


def _value(v):
    """One JSON value: the :func:`_cell` of ``v`` read back, a JSON literal
    for a bool or an integer and a float for any other number, or the
    string ``inf`` when unbounded."""
    text = _cell(v)
    if isinstance(v, (bool, np.bool_, numbers.Integral)):
        return json.loads(text)
    return float(text) if math.isfinite(float(text)) else text


def _record(obj, skip: tuple[str, ...] = ()) -> dict:
    """The fields of a result dataclass, in order and without ``skip``, as JSON values."""
    return {f.name: _value(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


def _checked(check, what: str):
    """An argparse type that parses with ``check``; its failures are usage errors."""

    def parse(text: str):
        try:
            return check(text)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None

    return parse


_eps_value = _checked(lambda text: dec._check_eps(float(text)), "a privacy level")
_tol_value = _checked(lambda text: qmat.real(float(text), 0.0, "validation tolerance"), "a tolerance")
_fidelity_value = _checked(
    lambda text: qmat.real(float(text), 0.0, "fidelity weight", most=1.0), "a fidelity weight"
)
# argparse names the flag, so the count rule's message leaves the subject out.
_positive_int = _checked(lambda text: qmat.count(int(text), 1, ""), "an integer")
_dimension = _checked(lambda text: qmat.count(int(text), 2, ""), "an integer")
_seed_value = _checked(lambda text: qmat.count(int(text), 0, ""), "an integer")


# Each grid point is a full search, so a longer grid is a typo, not a request.
MAX_GRID_POINTS = 10_000


def _grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like A:B:STEP, got {text!r}")
    lo, hi = (dec._check_eps(float(p)) for p in parts[:2])
    step = float(parts[2])
    unbounded = [end for end, v in (("A", lo), ("B", hi)) if math.isinf(v)]
    if unbounded:
        ends = "ends A and B" if len(unbounded) == 2 else f"end {unbounded[0]}"
        raise argparse.ArgumentTypeError(f"grid {text!r} has unbounded {ends}; both must be finite")
    if not (step > 0.0 and hi >= lo and math.isfinite(step)):
        raise argparse.ArgumentTypeError("grid must be ascending with a positive step")
    edge = hi + 1e-9 * max(1.0, abs(hi))
    span = (edge - lo) / step
    # A step too small to change lo fails here too: the tolerance on hi alone
    # then spans millions of steps.
    if span >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [v for v in (lo + k * step for k in range(int(span) + 2)) if v <= edge]


# A bound that --eps would reject is a usage error with the same message.
_grid_value = _checked(_grid, "a numeric grid A:B:STEP")


class _WriteFailure(Exception):
    """An output file that could not be written (exit 4)."""


def _write(path: str, save, *args) -> None:
    """Call ``save(*args)``, which writes ``path``; an ``OSError`` is a :class:`_WriteFailure`."""
    try:
        save(*args)
    except OSError as exc:
        raise _WriteFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write ``out`` first, so that a reader closing stdout early cannot cost the file."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        _write(out, Path(out).write_text, text)
    sys.stdout.write(text)


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
        type=_tol_value,
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
        help="descent budget per restart: at --eps inf with equal outputs, up to 3 L-BFGS "
        "rounds of ITERATIONS // 8 iterations; otherwise 5 to 8 rounds of ITERATIONS // 40, "
        "half that plus one from the sixth (default 2000)",
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
    print(_cell(value))
    return 0


def _cmd_qmi(args: argparse.Namespace) -> int:
    state = _load(args)
    print(_cell(ent.mutual_information(state, args.x, args.y)))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    state = _load(args)
    report = dec.bounds_report(state, args.eps, _opts(args))
    _emit(json.dumps(_record(report), indent=2), args.out)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    state = _load(args)
    outcome = dec.optimize_xi(state, args.eps, _opts(args))
    certificate = dec.outcome_isometry(outcome)
    payload = _record(outcome, skip=("theta",))
    payload["isometry"] = json.loads(isometry_to_json(certificate))
    if args.certificate:
        _write(args.certificate, save_isometry, certificate, args.certificate)
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    state = _load(args)
    result = dec.rates_sweep(state, args.eps_grid, _opts(args))
    _emit(_table([f.name for f in fields(dec.SweepRow)], map(astuple, result.rows)), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import scenarios

    reports = scenarios.run_all(args.seed)
    if args.out:
        text = json.dumps([asdict(r) for r in reports], indent=2) + "\n"
        _write(args.out, Path(args.out).write_text, text)
    for r in reports:
        worst = max(r.metrics.values()) if r.metrics else 0.0
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name} worst={_cell(worst)} tol={_cell(r.tolerance)} seed={r.seed}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_random_study(args: argparse.Namespace) -> int:
    from . import scenarios

    bounds = [f.name for f in fields(dec.BoundsReport)]
    header = ["sample", "seed", *bounds, "xi_estimate", "feasible", "lower_ok", "upper_ok"]
    rows = scenarios.bound_sandwich(args.dims, args.samples, args.seed, args.restarts, args.iterations)
    lines = (
        [k, r.seed, *astuple(r.bounds), r.outcome.i_rb, r.outcome.feasible, r.lower_ok, r.upper_ok]
        for k, r in enumerate(rows)
    )
    _emit(_table(header, lines), args.out)
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
    _write(args.out, st.save_state, state, args.out)
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
    q.add_argument("--d", type=_dimension, default=2)
    q.add_argument("--out", required=True)
    q = kinds.add_parser("cc", help="uniform basis-correlated pair")
    q.add_argument("--d", type=_positive_int, default=2)
    q.add_argument("--out", required=True)
    q = kinds.add_parser("isotropic", help="entangled pair mixed with white noise")
    q.add_argument("--d", type=_dimension, default=2)
    q.add_argument("--fidelity", type=_fidelity_value, default=0.9)
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point its descriptor at the null device,
        # so the flush at exit does not fail again, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValidationError as exc:
        print(f"pqdec: validation failure: {exc}", file=sys.stderr)
        return 3
    except _WriteFailure as exc:
        print(f"pqdec: {exc}", file=sys.stderr)
        return 4
    except (KeyError, ValueError, OSError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"pqdec: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
