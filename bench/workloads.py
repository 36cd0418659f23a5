"""The three benchmark workloads: inputs, the op, and the output checks.

Each workload is a closed loop with one client.  It runs in units: a unit is
one call into the program, which completes one or more ops.  The timed loop
only stops between units, so every op it counts has completed.  Every op
record carries its latency and whether it failed; a workload's ``check``
runs outside the timed phase and marks the ops whose outputs are wrong.

Why each workload exists, its op and its options are set out in
``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

# Tolerances of the output checks, as fixed by the acceptance criteria.
RESCORE_TOL = 1e-9       # certificate re-score vs the reported i_rb
CLI_TOL = 1e-9           # CLI value vs in-process recomputation
LOWER_SLACK = 1e-6       # prop1_lower - 1e-6 <= estimate
UPPER_SLACK = 1e-6       # estimate <= half_qmi + 1e-6
POVM_SLACK = 2e-2        # criterion 06: estimate <= povm_upper + 2e-2


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _op(latency: float, **data) -> dict:
    return {"latency": latency, "problems": [], **data}


def _fail(op: dict, problem: str) -> None:
    op["problems"].append(problem)


def _rescore(pq, state, outcome, op: dict) -> None:
    """Replay the certificate through the public scoring path."""
    iso = pq.outcome_isometry(outcome)
    i_rb, _, _ = pq.decoupling_scores(pq.apply_isometry(state, iso))
    if not abs(i_rb - outcome.i_rb) <= RESCORE_TOL:
        _fail(op, f"certificate re-scores to i_rb={i_rb!r}, reported {outcome.i_rb!r}")


class Study2x2:
    """Criterion-06 loop: bounds then search on random full-rank 2x2 states."""

    name = "study_2x2"
    pool = 500
    trace_units = 4
    restarts, iterations, threads = 6, 800, 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        import pqdec

        self.pq = pqdec
        self.inputs = [self._input(self.seed * 100_000 + k) for k in range(self.pool)]
        self._solve(*self._input(600))

    def _input(self, s: int):
        state = self.pq.random_density(4, 4, s, labels=("R", "A"), dims=(2, 2))
        opts = self.pq.OptimizerOptions(
            restarts=self.restarts, iterations=self.iterations, seed=s, threads=self.threads
        )
        return state, opts

    def _solve(self, state, opts):
        pq = self.pq
        report = pq.decoupling.bounds_report(state, pq.UNBOUNDED, opts)
        outcome = pq.decoupling.optimize_xi(state, pq.UNBOUNDED, opts)
        return report, outcome

    def unit(self, k: int) -> list[dict]:
        state, opts = self.inputs[k % self.pool]
        t0 = time.perf_counter()
        try:
            report, outcome = self._solve(state, opts)
        except Exception as exc:  # a raising op is a failed op
            op = _op(time.perf_counter() - t0, state=state)
            _fail(op, f"raised {exc!r}")
            return [op]
        return [_op(time.perf_counter() - t0, state=state, report=report, outcome=outcome)]

    def check(self, op: dict) -> None:
        if op["problems"]:
            return
        report, outcome = op["report"], op["outcome"]
        if not _finite(outcome.i_rb, outcome.i_re, report.prop1_lower,
                       report.povm_upper, report.half_qmi_upper):
            _fail(op, "non-finite output")
            return
        est = outcome.i_rb
        upper = min(report.povm_upper + POVM_SLACK, report.half_qmi_upper + UPPER_SLACK)
        if est < report.prop1_lower - LOWER_SLACK:
            _fail(op, f"estimate {est!r} below prop1_lower {report.prop1_lower!r}")
        if est > upper:
            _fail(op, f"estimate {est!r} above the sandwich upper bound {upper!r}")
        _rescore(self.pq, op["state"], outcome, op)

    def solves(self, op: dict):
        """(gap in bits, feasible) for each search result of the op."""
        if "outcome" not in op:
            return []
        return [(op["outcome"].i_rb - op["report"].prop1_lower, op["outcome"].feasible)]

    def fingerprint(self, op: dict):
        if "outcome" not in op:
            return None
        o, r = op["outcome"], op["report"]
        return (r, o.i_rb, o.i_re, o.feasible, o.restarts_used, o.converged, o.theta.tobytes())


class Sweep3x3:
    """Privacy sweeps of the roadmap's 3x3 state; one grid point is one op.

    The state is ``random_density(9, 9, 3, dims=(3, 3))``, the state whose
    eps=0 point the search reports infeasible.  The seed draws the search's
    seed for each sweep, and with it the random restart and the descent
    directions.
    """

    name = "sweep_3x3"
    pool = 100
    trace_units = 1
    grid = (0.0, 0.02, 0.04, math.inf)
    restarts, iterations, threads = 4, 600, 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        import pqdec

        self.pq = pqdec
        self.state = pqdec.random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        self.inputs = [self._opts(self.seed * 100_000 + k) for k in range(self.pool)]
        pqdec.decoupling.rates_sweep(self.state, [math.inf], self._opts(0))

    def _opts(self, s: int):
        return self.pq.OptimizerOptions(
            restarts=self.restarts, iterations=self.iterations, seed=s, threads=self.threads
        )

    def unit(self, k: int) -> list[dict]:
        dec = self.pq.decoupling
        state, opts = self.state, self.inputs[k % self.pool]
        solve = dec.optimize_xi
        outcomes, stamps = [], []

        # rates_sweep solves each grid point through the module's
        # optimize_xi; recording each return splits the sweep into ops and
        # keeps the certificates, which the sweep rows do not carry.
        def recorded(*args, **kwargs):
            outcome = solve(*args, **kwargs)
            outcomes.append(outcome)
            stamps.append(time.perf_counter())
            return outcome

        dec.optimize_xi = recorded
        t0 = time.perf_counter()
        try:
            result = dec.rates_sweep(state, list(self.grid), opts)
            error = None
        except Exception as exc:
            result, error = None, exc
        finally:
            dec.optimize_xi = solve
        t_end = time.perf_counter()
        edges = [t0] + stamps[: len(self.grid) - 1] + [t_end]
        edges += [t_end] * (len(self.grid) + 1 - len(edges))
        ops = [
            _op(edges[i + 1] - edges[i], state=state, index=i)
            for i in range(len(self.grid))
        ]
        for i, op in enumerate(ops):
            if error is not None:
                _fail(op, f"sweep raised {error!r}")
            elif len(result.rows) != len(self.grid) or len(outcomes) != len(self.grid):
                _fail(op, f"sweep gave {len(result.rows)} rows and {len(outcomes)} solves "
                          f"for {len(self.grid)} grid points")
            else:
                op["row"] = result.rows[i]
                op["outcome"] = outcomes[i]
                op["previous"] = result.rows[i - 1] if i else None
        return ops

    def check(self, op: dict) -> None:
        if op["problems"]:
            return
        pq, row, outcome = self.pq, op["row"], op["outcome"]
        if not _finite(row.i_rb, row.i_re, row.xi_envelope, row.prop1_lower, row.half_qmi_upper):
            _fail(op, "non-finite output")
            return
        if row.feasible and row.i_re > row.eps + pq.decoupling.FEASIBLE_TOL:
            _fail(op, f"feasible row leaks i_re={row.i_re!r} above eps={row.eps!r}")
        if op["previous"] is not None and row.xi_envelope > op["previous"].xi_envelope:
            _fail(op, "envelope increases")
        # prop1_lower(eps) bounds every candidate that leaks at most eps; an
        # infeasible candidate is held to the bound at its own leak.
        lower = row.prop1_lower if row.feasible else pq.prop1_lower(op["state"], row.i_re)
        if row.i_rb < lower - LOWER_SLACK:
            _fail(op, f"i_rb={row.i_rb!r} below prop1_lower {lower!r}")
        # Half the mutual information bounds the optimum only where the
        # sweep solves at that ceiling; below it the optimum may exceed it,
        # and only data processing, I(R:B) <= I(R:A), bounds every row.
        upper = row.half_qmi_upper if row.eps >= row.half_qmi_upper else 2 * row.half_qmi_upper
        if row.i_rb > upper + UPPER_SLACK:
            _fail(op, f"i_rb={row.i_rb!r} above {upper!r} at eps={row.eps!r}")
        if row.i_rb != outcome.i_rb:
            _fail(op, "sweep row and its solve disagree")
        _rescore(pq, op["state"], outcome, op)

    def solves(self, op: dict):
        if "row" not in op:
            return []
        return [(op["row"].i_rb - op["row"].prop1_lower, op["row"].feasible)]

    def fingerprint(self, op: dict):
        if "row" not in op:
            return None
        return (op["row"], op["outcome"].theta.tobytes())


class CliSession:
    """Scripted shell session: one CLI process at a time over generated states."""

    name = "cli_session"
    pool = 100
    trace_units = 5 * 9
    kinds = ("bell", "cc", "isotropic", "random", "separable")
    search = ("--restarts", "2", "--iterations", "100")

    def __init__(self, seed: int, workdir: Path, inprocess: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.inprocess = inprocess
        self.cli = None

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.sessions = [
            {
                "seed": self.seed * 100_000 + s,
                "fidelity": round(rng.uniform(0.5, 1.0), 6),
                "rank": rng.randint(1, 4),
                "terms": rng.randint(1, 4),
                "target": self.kinds[s % len(self.kinds)],
            }
            for s in range(self.pool)
        ]
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.inprocess:
            from pqdec import cli

            self.cli = cli
        self._call(["make-state", "bell", "--d", "2", "--out", str(self.workdir / "warm.json")])

    def _path(self, s: int, kind: str) -> Path:
        return self.workdir / f"s{s}-{kind}.json"

    def argv(self, k: int) -> list[str]:
        s, step = divmod(k, 9)
        p = self.sessions[s % self.pool]
        if step < 5:
            kind = self.kinds[step]
            extra = {
                "bell": ["--d", "2"],
                "cc": ["--d", "2"],
                "isotropic": ["--d", "2", "--fidelity", repr(p["fidelity"])],
                "random": ["--dims", "2", "2", "--rank", str(p["rank"]), "--seed", str(p["seed"])],
                "separable": ["--dims", "2", "2", "--terms", str(p["terms"]), "--seed", str(p["seed"])],
            }[kind]
            return ["make-state", kind, *extra, "--out", str(self._path(s, kind))]
        state = ["--state", str(self._path(s, p["target"]))]
        return [
            ["entropy", *state],
            ["entropy", *state, "--subsystem", "A"],
            ["qmi", *state, "--x", "R", "--y", "A"],
            ["bounds", *state, *self.search, "--seed", str(p["seed"])],
        ][step - 5]

    def _call(self, argv: list[str]) -> tuple[int, str, str]:
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "pqdec", *argv],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def unit(self, k: int) -> list[dict]:
        argv = self.argv(k)
        t0 = time.perf_counter()
        code, out, err = self._call(argv)
        op = _op(time.perf_counter() - t0, k=k, argv=argv, code=code, stdout=out)
        if argv[0] == "make-state" and code == 0:
            op["file"] = Path(argv[-1]).read_bytes()
        if code != 0:
            _fail(op, f"exit {code}: {err.strip()[-200:]}")
        return [op]

    def check(self, op: dict) -> None:
        if op["problems"]:
            return
        from pqdec import decoupling, entropics, states

        argv, text = op["argv"], op["stdout"]
        state = states.load_state(argv[-1] if argv[0] == "make-state" else argv[2])
        if argv[0] == "make-state":
            return
        if argv[0] in ("entropy", "qmi"):
            try:
                value = float(text)
            except ValueError:
                _fail(op, f"unparseable output {text[:80]!r}")
                return
            if argv[0] == "qmi":
                expect = entropics.mutual_information(state, "R", "A")
            elif "--subsystem" in argv:
                expect = entropics.subsystem_entropy(state, "A")
            else:
                expect = entropics.entropy(state)
            if not (_finite(value) and abs(value - expect) <= CLI_TOL):
                _fail(op, f"{argv[0]} printed {value!r}, recomputed {expect!r}")
            return
        try:
            b = json.loads(text)
            values = [float(b[key]) for key in ("qmi", "ic_a_to_r", "prop1_lower",
                                                "half_qmi_upper", "povm_upper", "xi_infinity")]
        except (ValueError, KeyError, TypeError):
            _fail(op, f"unparseable bounds output {text[:80]!r}")
            return
        qmi, ic, lower, half, povm, xi = values
        op["bounds"] = b
        if not _finite(*values):
            _fail(op, "non-finite bound")
            return
        expect = entropics.mutual_information(state, "R", "A")
        if abs(qmi - expect) > CLI_TOL:
            _fail(op, f"bounds qmi {qmi!r}, recomputed {expect!r}")
        if abs(half - 0.5 * qmi) > CLI_TOL or abs(xi - max(ic, 0.0)) > CLI_TOL:
            _fail(op, "half_qmi_upper or xi_infinity inconsistent with qmi and ic")
        if not (lower - CLI_TOL <= xi <= half + CLI_TOL
                and lower <= povm + decoupling.FEASIBLE_TOL):
            _fail(op, f"bounds out of order: {b}")

    def solves(self, op: dict):
        b = op.get("bounds")
        if b is None:
            return []
        return [(float(b["povm_upper"]) - float(b["prop1_lower"]), True)]

    def fingerprint(self, op: dict):
        return (op["code"], op["stdout"], op.get("file"))


WORKLOADS = {cls.name: cls for cls in (Study2x2, Sweep3x3, CliSession)}


def make(name: str, seed: int, workdir: Path, inprocess: bool = False):
    cls = WORKLOADS[name]
    if cls is CliSession:
        return cls(seed, workdir, inprocess)
    return cls(seed)


def clean(workdir: Path) -> None:
    """Remove the files a cli_session run wrote."""
    if workdir.is_dir():
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

