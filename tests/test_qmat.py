import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pqdec import isometries as iso
from pqdec import qmat
from pqdec import scenarios as scn
from pqdec import states as st
from pqdec import decoupling as dec
from pqdec.decoupling import OptimizerOptions
from pqdec.qmat import (
    DimSig,
    ValidationError,
    kron,
    matrix_to_entries,
    partial_trace,
    probability_vector,
    q_factor,
    trace_distance,
    validate_density,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def kron_by_loops(a, b):
    """Independent elementwise Kronecker product."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_by_loops(m, dims, keep_axes):
    """Independent partial trace working directly on flat indices."""
    n = len(dims)
    keep_dims = [dims[i] for i in keep_axes]
    side = int(np.prod(keep_dims)) if keep_dims else 1
    out = np.zeros((side, side), dtype=complex)

    def unflatten(f):
        digits = []
        for d in reversed(dims):
            digits.append(f % d)
            f //= d
        return list(reversed(digits))

    def project(digits):
        v = 0
        for i in keep_axes:
            v = v * dims[i] + digits[i]
        return v

    total = int(np.prod(dims))
    for r in range(total):
        for c in range(total):
            dr, dc = unflatten(r), unflatten(c)
            if all(dr[i] == dc[i] for i in range(n) if i not in keep_axes):
                out[project(dr), project(dc)] += m[r, c]
    return out


class TestDimSig:
    def test_basic_accessors(self):
        sig = DimSig((2, 3, 4), ("R", "A", "B"))
        assert sig.side == 24
        assert sig.axis("A") == 1
        assert sig.subset(["B", "R"]) == DimSig((2, 4), ("R", "B"))

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            DimSig((2, 3), ("R",))
        with pytest.raises(ValidationError):
            DimSig((2, 0), ("R", "A"))
        with pytest.raises(ValidationError):
            DimSig((2, 2), ("R", "R"))
        for bad in (2.5, float("nan"), float("inf"), None):
            with pytest.raises(ValidationError):
                DimSig((bad, 2), ("R", "A"))
        assert DimSig((2.0, np.int64(3)), ("R", "A")).dims == (2, 3)
        with pytest.raises(KeyError):
            DimSig((2,), ("R",)).axis("A")
        with pytest.raises(KeyError):
            DimSig((2,), ("R",)).subset(["X"])


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_matches_loop_oracle_and_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = random_complex(rng, (3, 3))
            b = random_complex(rng, (3, 3))
            got = kron(a, b)
            assert np.allclose(got, kron_by_loops(a, b), atol=1e-12)
            assert abs(np.trace(got) - np.trace(a) * np.trace(b)) <= 1e-12


class TestPartialTrace:
    def test_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        dims = (2, 3, 2)
        sig = DimSig(dims, ("R", "A", "B"))
        m = random_complex(rng, (12, 12))
        cases = {
            ("R",): [0],
            ("A",): [1],
            ("B",): [2],
            ("R", "B"): [0, 2],
            ("A", "B"): [1, 2],
        }
        for keep, axes in cases.items():
            got = partial_trace(m, sig, keep)
            want = partial_trace_by_loops(m, list(dims), axes)
            assert np.allclose(got, want, atol=1e-12)

    def test_keep_order_is_signature_order(self):
        sig = DimSig((2, 3), ("R", "A"))
        m = np.arange(36, dtype=complex).reshape(6, 6)
        assert np.array_equal(partial_trace(m, sig, ["A", "R"]), m)

    def test_product_state_factors(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (2, 2))
        a = a @ a.conj().T
        a /= np.trace(a).real
        b = random_complex(rng, (3, 3))
        b = b @ b.conj().T
        b /= np.trace(b).real
        sig = DimSig((2, 3), ("R", "A"))
        joint = kron(a, b)
        assert np.allclose(partial_trace(joint, sig, ["R"]), a, atol=1e-12)
        assert np.allclose(partial_trace(joint, sig, ["A"]), b, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        sig = DimSig((2, 2, 3), ("R", "B", "E"))
        m = random_complex(rng, (12, 12))
        for keep in (["R"], ["R", "B"], ["E"]):
            assert abs(np.trace(partial_trace(m, sig, keep)) - np.trace(m)) <= 1e-10

    def test_errors(self):
        sig = DimSig((2, 2), ("R", "A"))
        with pytest.raises(ValidationError):
            partial_trace(np.eye(3), sig, ["R"])
        with pytest.raises(KeyError):
            partial_trace(np.eye(4), sig, ["X"])


class TestTraceDistance:
    def test_classical_formula(self):
        # On commuting diagonal states the trace distance is half the l1
        # distance of the probability vectors.
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            want = 0.5 * np.sum(np.abs(p - q))
            assert abs(trace_distance(np.diag(p), np.diag(q)) - want) <= 1e-12

    def test_metric_properties(self):
        rng = np.random.default_rng(32)
        mats = []
        for _ in range(3):
            m = random_complex(rng, (3, 3))
            m = m @ m.conj().T
            mats.append(m / np.trace(m).real)
        a, b, c = mats
        assert trace_distance(a, a) <= 1e-12
        assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_orthogonal_states_distance_one(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) <= 1e-12


class TestValidateDensity:
    def test_clean_input_returned_unchanged(self):
        a = np.diag([0.25, 0.75]).astype(complex)
        out = validate_density(a)
        assert np.array_equal(out, a)

    def test_small_negative_eigenvalue_clamped(self):
        a = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        out = validate_density(a)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= 0.0
        assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_rejections(self):
        with pytest.raises(ValidationError):
            validate_density(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
        with pytest.raises(ValidationError):
            validate_density(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(ValidationError):
            validate_density(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValidationError):
            validate_density(np.zeros((2, 3)))
        for bad in (np.nan, np.inf):
            m = np.diag([0.5, 0.5]).astype(complex)
            m[0, 1] = bad
            with pytest.raises(ValidationError):
                validate_density(m)

    def test_rejects_bad_tolerance(self):
        for m in (np.diag([0.25, 0.75]), np.diag([1.5, -0.5])):
            for tol in (np.nan, np.inf, -np.inf, -1e-9):
                with pytest.raises(ValidationError):
                    validate_density(m.astype(complex), tol)


class TestQFactor:
    def test_orthonormal_with_positive_r_diagonal(self):
        rng = np.random.default_rng(24)
        for n, k in ((4, 2), (3, 3), (9, 3)):
            m = random_complex(rng, (n, k))
            q = q_factor(m)
            assert np.max(np.abs(q.conj().T @ q - np.eye(k))) <= 1e-12
            r = q.conj().T @ m
            assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
            assert np.max(np.abs(np.diagonal(r).imag)) <= 1e-12
            assert np.all(np.diagonal(r).real > 0.0)

    def test_fixes_an_isometry(self):
        q = q_factor(random_complex(np.random.default_rng(25), (6, 2)))
        assert np.max(np.abs(q_factor(q) - q)) <= 1e-12

    def test_stack_matches_each_matrix_alone(self):
        ms = random_complex(np.random.default_rng(26), (3, 5, 2))
        stacked = q_factor(ms)
        for m, q in zip(ms, stacked):
            assert q.tobytes() == q_factor(m).tobytes()


def _side(n):
    """``n`` as a matrix side where the count rule accepts it, else 2."""
    return int(n) if n in (2, 3) else 2


def _isometry_field(key):
    """Load the identity isometry from a document whose ``key`` is ``n``."""

    def load(n):
        k = _side(n)
        doc = {"d_in": k, "d_B": 1, "d_E": 1, "matrix": matrix_to_entries(np.eye(k))}
        doc["d_E" if key == "d_E" else "d_B"] = k
        doc[key] = n
        v = iso.isometry_from_json(json.dumps(doc, default=int))
        return {"d_in": v.in_dim, "d_B": v.d_b, "d_E": v.d_e}[key]

    return load


def _option(name):
    return lambda n: getattr(OptimizerOptions(**{name: n}), name)


_BELL = st.to_density(st.max_entangled(2))

# Every entry point that takes a count from outside: the call, which returns
# the count it stored or the bytes of what it drew, and the least count.
COUNT_ENTRY_POINTS = {
    "DimSig": (lambda n: DimSig((n, 2), ("R", "A")).dims[0], 1),
    **{
        f"OptimizerOptions.{f}": (_option(f), 1)
        for f in ("restarts", "iterations", "d_b", "d_e")
    },
    "OptimizerOptions.seed": (_option("seed"), 0),
    **{f"isometry_from_json.{k}": (_isometry_field(k), 1) for k in ("d_in", "d_B", "d_E")},
    "max_entangled": (lambda n: st.max_entangled(n).sig.dims[0], 2),
    "isotropic": (lambda n: st.isotropic(n, 0.9).sig.dims[0], 2),
    "twirl_isometry": (lambda n: iso.twirl_isometry(n).in_dim, 2),
    "mub_shredder": (lambda n: iso.mub_shredder(n).in_dim, 2),
    "fourier_basis": (lambda n: iso.fourier_basis(n).shape[0], 1),
    "Isometry.in_dim": (
        lambda n: iso.Isometry(np.eye(9, _side(n)), DimSig((3, 3), "BE"), n).in_dim,
        1,
    ),
    "append_maximally_mixed": (lambda n: st.append_maximally_mixed(_BELL, n, "X").sig.dims[-1], 1),
    "random_separable.terms": (lambda n: st.random_separable(2, 2, n, 0).matrix.tobytes(), 1),
    "random_separable.d_r": (lambda n: st.random_separable(n, 2, 1, 0).sig.dims[0], 1),
    "random_density.d": (lambda n: st.random_density(n, 1, 0).sig.dims[0], 1),
    "random_density.rank": (lambda n: st.random_density(3, n, 0).matrix.tobytes(), 1),
    "random_pure.dims": (lambda n: st.random_pure((n, 2), 0).sig.dims[0], 1),
    "random_unitary.d": (lambda n: st.random_unitary(n, 0).shape[0], 1),
    "random_density.seed": (lambda n: st.random_density(2, 2, n).matrix.tobytes(), 0),
    "random_pure.seed": (lambda n: st.random_pure((2,), n).vector.tobytes(), 0),
    "random_unitary.seed": (lambda n: st.random_unitary(2, n).tobytes(), 0),
    "random_separable.seed": (lambda n: st.random_separable(2, 2, 2, n).matrix.tobytes(), 0),
    "record_rows.n": (lambda n: iso.record_rows(n, 3).tolist(), 1),
    "record_rows.d_e": (lambda n: iso.record_rows(1, n).tolist(), 1),
    "bound_sandwich.dims": (lambda n: scn.bound_sandwich((2, n), 1, 0, 1, 1)[0].outcome.d_a, 1),
    "bound_sandwich.samples": (lambda n: len(scn.bound_sandwich((2, 2), n, 0, 1, 1)), 1),
}


@pytest.mark.parametrize("name", COUNT_ENTRY_POINTS)
def test_count_rule(name):
    # One rule everywhere: whole, finite, real, not a bool, at least the least.
    call, least = COUNT_ENTRY_POINTS[name]
    for bad in (2.5, True, "2", math.nan, math.inf, least - 1):
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            call(bad)
    for good in (2.0, np.int64(3)):
        got, want = call(good), call(int(good))
        assert got == want and type(got) is type(want)


_TINY = OptimizerOptions(restarts=1, iterations=8)
_INF = math.inf

# Every entry point that takes a real number from outside: the call, which
# returns what it stored or the bytes of what it made, the subject its
# message names, the least and most values, and whether inf is allowed.
REAL_ENTRY_POINTS = {
    "optimize_xi.eps": (
        lambda e: dec.optimize_xi(_BELL, e, _TINY).epsilon, "privacy level", 0, _INF, True
    ),
    "prop1_lower.eps": (lambda e: dec.prop1_lower(_BELL, e), "privacy level", 0, _INF, True),
    "bounds_report.eps": (
        lambda e: dec.bounds_report(_BELL, e, _TINY).prop1_lower, "privacy level", 0, _INF, True
    ),
    "rates_sweep.eps": (
        lambda e: dec.rates_sweep(_BELL, [e], _TINY).rows[0].eps, "privacy level", 0, _INF, True
    ),
    "isotropic.f": (lambda f: st.isotropic(2, f).matrix.tobytes(), "fidelity weight", 0, 1, False),
    "validate_density.tol": (
        lambda t: validate_density(_BELL.matrix, t).tobytes(), "validation tolerance", 0, _INF, False
    ),
    "state_from_json.tol": (
        lambda t: st.state_from_json(st.state_to_json(_BELL), t).matrix.tobytes(),
        "validation tolerance", 0, _INF, False,
    ),
}


@pytest.mark.parametrize("name", REAL_ENTRY_POINTS)
def test_real_rule(name):
    # One rule everywhere: a real number, not a bool or a string, not NaN,
    # within its bounds, finite unless inf is allowed.
    call, what, least, most, unbounded = REAL_ENTRY_POINTS[name]
    bad = ["0.1", True, None, math.nan, least - 1]
    bad += [most + 1] if math.isfinite(most) else [] if unbounded else [math.inf]
    for value in bad:
        with pytest.raises(ValidationError, match=f"{re.escape(what)}.*{re.escape(repr(value))}"):
            call(value)
    for good in [1, 1.0, np.float64(0.5)] + ([math.inf] if unbounded else []):
        got, want = call(good), call(float(good))
        assert got == want and type(got) is type(want)


def test_real_rule_stores_negative_zero_as_zero():
    assert math.copysign(1.0, qmat.real(-0.0, 0.0, "x")) == 1.0
    assert math.copysign(1.0, dec.optimize_xi(_BELL, -0.0, _TINY).epsilon) == 1.0


def _nan_at_first(a):
    out = np.array(a, dtype=float)
    out.flat[0] = math.nan
    return out


_PAIR = _BELL.sig

# Every entry point that takes an array from outside: the call, which
# returns what it stored or made, a valid array of whole numbers for it,
# and the subject its message names.
ARRAY_ENTRY_POINTS = {
    "DensityMatrix": (
        lambda a: st.DensityMatrix(a, _PAIR).matrix, np.diag([1, 0, 0, 0]), "density matrix entries"
    ),
    "PureState": (
        lambda a: st.PureState(a, DimSig((4,), ("Q",))).vector, [0, 1, 0, 0], "state vector entries"
    ),
    "Isometry": (
        lambda a: iso.Isometry(a, DimSig((2, 2), "BE"), 2).matrix,
        np.eye(4, 2),
        "isometry matrix entries",
    ),
    "OptimizerOptions.warm_theta": (
        lambda a: dec.optimize_xi(_BELL, 0.5, replace(_TINY, warm_theta=a)).theta,
        np.eye(4, 2),
        "isometry matrix entries",
    ),
    "RankOnePovm": (lambda a: iso.RankOnePovm((a, [0, 1])).vectors[0], [1, 0], "measurement vectors"),
    "probability_vector": (lambda a: probability_vector(a, 2, "outcomes"), [1, 0], "weights"),
    "classically_correlated.p": (
        lambda a: st.classically_correlated(a, [np.eye(2) / 2] * 2).matrix, [1, 0], "weights"
    ),
    "classically_correlated.conditionals": (
        lambda a: st.classically_correlated([0.5, 0.5], [a, np.eye(2) / 2]).matrix,
        np.diag([1, 0]),
        "density matrix entries",
    ),
    "random_unitary_channel_dilation.p": (
        lambda a: iso.random_unitary_channel_dilation([np.eye(2)] * 2, a).matrix, [1, 0], "weights"
    ),
    "random_unitary_channel_dilation.unitaries": (
        lambda a: iso.random_unitary_channel_dilation([a, np.eye(2)], [0.5, 0.5]).matrix,
        np.eye(2),
        "unitaries",
    ),
    "validate_density": (validate_density, np.diag([1, 0]), "density matrix entries"),
    "partial_trace": (lambda a: partial_trace(a, _PAIR, "R"), np.eye(4), "matrix entries"),
    "kron": (lambda a: kron(a, np.eye(2)), np.eye(2), "kron factors"),
}


@pytest.mark.parametrize("name", ARRAY_ENTRY_POINTS)
def test_array_rule(name):
    # One rule everywhere: a non-empty rectangular array of int, float or
    # complex numbers, every entry finite.  Numeric strings and bools used
    # to be converted, and NaN to pass.
    call, good, what = ARRAY_ENTRY_POINTS[name]
    g = np.asarray(good)
    ragged = [[1.0, 0.0], [0.0]]
    for bad in ([["a"]], g.astype(float).astype(str), ragged, g != 0, _nan_at_first(g), np.zeros(0)):
        with pytest.raises(ValidationError, match=re.escape(what)):
            call(bad)
    want = call(g.astype(complex))
    assert want.dtype == (float if name == "probability_vector" else complex)
    for dtype in (int, float):
        got = call(g.astype(dtype))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
