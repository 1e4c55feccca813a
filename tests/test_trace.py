import math
import tracemalloc

import numpy as np
import pytest

from extrace import trace
from extrace.linalg import (
    LinalgError,
    adjoint,
    classify,
    direct_sum,
    operator_norm,
    random_contraction,
    random_unitary,
    rescale_draws,
    swap_matrix,
    two_block,
)
from extrace.trace import (
    _AXIOMS,
    AxiomCheck,
    AxiomReport,
    KiTraceError,
    SeriesDivergence,
    TraceConfig,
    TraceDisagreement,
    check_trace_axioms,
    cnu_decompose,
    ex,
    ex_kernel_image,
    ex_series,
    halmos_dilation,
)
from reference import schur

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]])

# 3x3 contraction whose one- and two-dimensional loop traces both have
# clean closed forms.
THREE = 0.5 * np.array([[-1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]])

# Non-contraction where the nested trace exists but the flattened
# two-dimensional one does not.
COUNTER = np.array(
    [[0.0, 1.0, 1.0], [1.0, -2.0 / 3.0, 1.0], [1.0, 1.0, 1.0 / 3.0]]
)


def scalar(result):
    assert result.value.shape == (1, 1)
    return complex(result.value[0, 0])


class TestWorkedExamples:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            (HADAMARD, 1.0),
            (SIGMA @ HADAMARD @ SIGMA, 1.0),
            (SIGMA @ HADAMARD, -1.0),
            (HADAMARD @ SIGMA, -1.0),
        ],
        ids=["h", "shs", "sh", "hs"],
    )
    def test_hadamard_family(self, matrix, expected):
        assert scalar(ex(two_block(matrix, 1), "U")) == pytest.approx(expected, abs=1e-9)

    def test_three_by_three_two_dim_loop(self):
        assert scalar(ex(two_block(THREE, 2), "U")) == pytest.approx(1.0, abs=1e-9)

    def test_three_by_three_one_dim_loop(self):
        value = ex(two_block(THREE, 1), "U").value
        assert np.allclose(value, SIGMA, atol=1e-9)

    def test_counterexample_nested_value(self):
        value = ex_kernel_image(two_block(COUNTER, 1), "U").value
        assert np.allclose(value, [[1.5, 2.5], [2.5, 5.0 / 6.0]], atol=1e-9)

    def test_counterexample_series_diverges_on_flat_loop(self):
        with pytest.raises(SeriesDivergence):
            ex_series(two_block(COUNTER, 2), "U")

    def test_counterexample_nested_vs_flat(self):
        # Nested one-dimensional series traces compose to a finite
        # answer...
        inner = ex_series(two_block(COUNTER, 1), "U").value
        outer = ex_series(two_block(inner, 1), "U")
        assert scalar(outer) == pytest.approx(39.0, abs=1e-6)
        # ...while the flattened two-dimensional series diverges: the
        # vanishing-II failure outside contractions.
        with pytest.raises(SeriesDivergence):
            ex_series(two_block(COUNTER, 2), "U")
        # The closed-form route still assigns the nested value to the
        # flat loop, so the witness construction is the stronger notion.
        flat = ex_kernel_image(two_block(COUNTER, 2), "U")
        assert scalar(flat) == pytest.approx(39.0, abs=1e-6)


class TestSeries:
    def test_zero_dim_loop_returns_corner(self):
        m = np.arange(4.0).reshape(2, 2)
        r = ex_series(two_block(m, 0), "U")
        assert np.allclose(r.value, m)
        assert r.terms_used == 0

    def test_matches_neumann_sum_when_loop_block_small(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4)) * 0.3
        r = ex_series(two_block(m, 2), "U")
        assert np.allclose(r.value, schur(m, 2), atol=1e-9)
        assert r.converged

    def test_blowup_detection(self):
        m = np.array([[0.0, 1.0], [1.0, 2.0]])  # loop entry 2 > 1
        with pytest.raises(SeriesDivergence):
            ex_series(two_block(m, 1), "U")

    def test_unitary_loop_block_with_disconnected_feedback(self):
        # f_UA = 0, so every series term vanishes even though the loop
        # block itself never decays.
        m = direct_sum(np.array([[0.5]]), np.eye(2))
        r = ex_series(two_block(m, 2), "U")
        assert np.allclose(r.value, [[0.5]])
        assert r.converged


def reflection(eps):
    """The reflection [[-c, s], [s, c]], c = 1 - eps, s = sqrt(1 - c^2), with
    its last port looped: f_UU = c lies within eps of resonance."""
    c = 1 - eps
    s = math.sqrt(1 - c * c)
    return np.array([[-c, s], [s, c]])


@pytest.mark.parametrize("k", range(2, 15))
def test_one_port_reflection_near_resonance(k):
    # Term n is c^n s^2 with tail ratio c, so the certificate takes about
    # 23.7 / eps terms: within 30,000 for eps = 1e-2 and 1e-3, with the
    # exact trace 1.  Up to 1e-10 the series runs out of terms; from 1e-11
    # on, id - f_UU = eps is at or below the pinv cutoff and the closed form
    # fails first.
    m, cfg = reflection(10.0**-k), TraceConfig(max_terms=30000)
    if k <= 3:
        r = ex(two_block(m, 1), "U", cfg)
        assert (r.method, r.terms_used) == ("both_agree", {2: 2360, 3: 23707}[k])
        assert operator_norm(r.value - schur(m, 1)) <= cfg.compare_tol
    elif k <= 10:
        with pytest.raises(SeriesDivergence, match="^series failed to converge on a contraction"):
            ex(two_block(m, 1), "U", cfg)
    else:
        with pytest.raises(KiTraceError, match="^not ki-traceable"):
            ex(two_block(m, 1), "U", cfg)


# One port, couplings near 1e9 and |1 - u| = 0.65: the trace, near 1e18, has
# witnesses, and the two witness forms agree up to the rounding of its size.
LARGE_COUPLINGS = np.array([
    [0.3 + 0.1j, -0.2, 1.3e9 + 0.7e9j],
    [0.5j, 0.4, -0.6e9 + 1.1e9j],
    [0.9e9 - 0.4e9j, 1.2e9 + 0.3e9j, 0.8 * np.exp(0.7j)],
])


@pytest.mark.xfail(strict=True, raises=SeriesDivergence, reason=(
    "the witness forms' gap, 4.4e2, is judged against compare_tol * ||m||, 19, not "
    "against the size of the trace, so the closed form is refused and the series blows up"))
def test_large_couplings_take_the_closed_form():
    want = schur(LARGE_COUPLINGS, 1)
    r = ex(two_block(LARGE_COUPLINGS, 1), "U")
    assert np.max(np.abs(r.value - want)) <= 1e-12 * np.max(np.abs(want))


# f_BU f_UA = 0 on both, so the first series term is exactly zero while
# later ones are not.  NILPOTENT is a contraction (norm 0.9) whose loop
# block is nilpotent; JORDAN's loop block [[1, 1], [0, 1]] has no witness
# and its terms grow as 0, 1, 2, ...
NILPOTENT = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.9], [0.5, 0.0, 0.0]])
JORDAN = np.array([[0.5, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


class TestZeroTerms:
    def test_zero_first_term_does_not_certify_a_contraction(self):
        r = ex_series(two_block(NILPOTENT, 2), "U")
        assert (r.terms_used, r.converged) == (3, True)
        assert scalar(r) == pytest.approx(0.725, abs=1e-12)
        r = ex(two_block(NILPOTENT, 2), "U")
        assert (r.method, r.terms_used) == ("both_agree", 3)
        assert scalar(r) == pytest.approx(0.725, abs=1e-12)

    @pytest.mark.parametrize("route", [ex, ex_series])
    def test_zero_first_term_does_not_hide_divergence(self, route):
        with pytest.raises(SeriesDivergence, match="at term 1414"):
            route(two_block(JORDAN, 2), "U")

    def test_vanishing_tail_keeps_its_term_count(self):
        # Yanking: the terms are id, 0, 0, ..., so the series stops after two.
        r = ex_series(two_block(swap_matrix(3, 3), 3), "U")
        assert (r.terms_used, r.converged) == (2, True)
        assert np.array_equal(r.value, np.eye(3))


class TestKernelImage:
    def test_agrees_with_series_on_contractions(self):
        for seed in range(60):
            f = two_block(random_contraction(5, 5, seed), 2)
            ki = ex_kernel_image(f, "U")
            se = ex_series(f, "U")
            assert se.converged
            assert operator_norm(ki.value - se.value) < 1e-8

    def test_unitary_loop_block_singular_pencil(self):
        # id - f_UU is singular here; the pseudoinverse route must still
        # produce the value the dilation theory predicts.
        m = direct_sum(np.array([[0.25]]), np.eye(1))
        r = ex_kernel_image(two_block(m, 1), "U")
        assert np.allclose(r.value, [[0.25]])

    @pytest.mark.parametrize("loop", [1, 2])
    def test_witness_through_a_singular_value_near_1e_9_keeps_its_value(self, loop):
        # id - f_UU = diag(1e-9, 0.5) up to rounding: 1e-9 is above the
        # absolute cutoff 1e-10, so both witnesses exist and the trace is the
        # exact value, about 1e9 (a cutoff of 1e-6 would refuse it).
        m = np.zeros((loop + 1, loop + 1))
        m[0, 0], m[0, 1:], m[1:, 0] = 0.3, 1.0, 1.0
        m[1:, 1:] = np.diag([1 - 1e-9, 0.5][:loop])
        want = schur(m, loop)[0, 0]
        assert abs(scalar(ex_kernel_image(two_block(m, loop), "U")) - want) <= 1e-8 * abs(want)

    def test_reports_residuals_on_failure(self):
        # A genuinely untraceable loop: id - f_UU maps the feedback input
        # outside its range, so no witness pair exists.
        m = np.array([[0.0, 1.0], [1.0, 1.0]])  # f_UU = 1, f_UA = 1
        try:
            ex_kernel_image(two_block(m, 1), "U")
        except KiTraceError as e:
            assert e.residual_in > 1e-8 or e.residual_out > 1e-8
        else:  # pragma: no cover
            pytest.fail("expected KiTraceError")


class TestTotalTrace:
    def test_contraction_gives_both_agree(self):
        r = ex(two_block(random_contraction(4, 4, 1), 2), "U")
        assert r.method == "both_agree"
        assert r.converged

    def test_routes_ten_compare_tols_apart_disagree(self):
        # A contraction with f_UU = 0.5 whose series stops on a series_tol of
        # 1e-7: its truncation error, the last term 0.36 / 2^22 = 8.6e-8, is
        # about ten times compare_tol, so the two routes must disagree.
        m, cfg = np.array([[0.0, 0.6], [0.6, 0.5]]), TraceConfig(series_tol=1e-7)
        gap = abs(scalar(ex_series(two_block(m, 1), "U", cfg)) - 0.72)
        assert 5 * cfg.compare_tol < gap < 10 * cfg.compare_tol
        with pytest.raises(TraceDisagreement, match="values differ by 8.58"):
            ex(two_block(m, 1), "U", cfg)

    def test_trace_of_unitary_is_unitary(self):
        for seed in range(25):
            u = random_unitary(5, seed)
            value = ex(two_block(u, 2), "U").value
            assert classify(value, 1e-7) == "unitary"

    def test_mismatched_loop_dims_rejected(self):
        from extrace.linalg import LinalgError, Partition, PartitionedMap

        pm = PartitionedMap(
            np.zeros((3, 3)),
            Partition(("B", "U"), (1, 2)),
            Partition(("A", "U"), (2, 1)),
        )
        with pytest.raises(LinalgError):
            ex(pm, "U")

    def test_yanking(self):
        for u in (1, 2, 3):
            r = ex(two_block(swap_matrix(u, u), u), "U")
            assert np.allclose(r.value, np.eye(u), atol=1e-10)


class TestHalmosDilation:
    def test_output_is_unitary(self):
        for seed in range(40):
            rows = 2 + seed % 3
            cols = 2 + (seed // 3) % 3
            g = halmos_dilation(random_contraction(rows, cols, seed))
            assert g.shape == (rows + cols, rows + cols)
            assert operator_norm(adjoint(g) @ g - np.eye(rows + cols)) < 1e-10

    def test_embeds_original_in_corner(self):
        f = random_contraction(3, 2, 9)
        g = halmos_dilation(f)
        assert np.allclose(g[2:, 3:], f)

    def test_rejects_expansion(self):
        from extrace.linalg import LinalgError

        with pytest.raises(LinalgError):
            halmos_dilation(2.0 * np.eye(2))


class TestCnuDecompose:
    def planted(self, k, m, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(k, rng) if k else np.zeros((0, 0))
        c = random_contraction(m, m, rng) * 0.95 if m else np.zeros((0, 0))
        w = random_unitary(k + m, rng)
        return w @ direct_sum(u, c) @ adjoint(w), k

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 3), (3, 1), (0, 4), (4, 0)])
    def test_recovers_planted_dimension(self, k, m):
        f, expected = self.planted(k, m, seed=31 * k + m)
        d = cnu_decompose(f)
        assert d.unitary_dim == expected
        assert classify(d.basis_change, 1e-8) == "unitary"
        if d.f1.shape[0]:
            assert operator_norm(np.linalg.matrix_power(d.f1, d.f1.shape[0])) < 1.0

    def test_pure_unitary(self):
        u = random_unitary(4, 2)
        d = cnu_decompose(u)
        assert d.unitary_dim == 4
        assert d.f1.shape == (0, 0)

    def test_shift_is_completely_nonunitary(self):
        # The nilpotent shift preserves norms on basis vectors one step at
        # a time but no subspace survives all powers.
        s = np.diag(np.ones(3), k=-1)
        d = cnu_decompose(s)
        assert d.unitary_dim == 0

    def test_reconstruction(self):
        f, _ = self.planted(2, 2, seed=5)
        d = cnu_decompose(f)
        rebuilt = d.basis_change @ direct_sum(d.f0, d.f1) @ adjoint(d.basis_change)
        assert operator_norm(rebuilt - f) < 1e-8


# Reference: the eigh-defect dilation and the power/intersection unitary
# subspace that the one-SVD constructions replace.


def ref_defect(m):
    vals, vecs = np.linalg.eigh(np.eye(m.shape[1]) - adjoint(m) @ m)
    return (vecs * np.sqrt(np.clip(vals.real, 0.0, None))) @ adjoint(vecs)


def ref_halmos(f):
    return np.vstack([np.hstack([-adjoint(f), ref_defect(f)]),
                      np.hstack([ref_defect(adjoint(f)), f])])


def ref_intersect(a, b, tol):
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    _, s, vh = np.linalg.svd(a - b @ adjoint(b) @ a, full_matrices=True)
    s = np.concatenate([s, np.zeros(a.shape[1] - len(s))])
    out = a @ adjoint(vh)[:, s <= tol]
    return np.linalg.qr(out)[0] if out.shape[1] else out


def ref_unitary_subspace(f, tol=1e-8):
    """Orthonormal basis of the common norm-preserving subspace of f^m and
    (f^H)^m over m = 1..dim f."""
    n = f.shape[0]
    basis, power = np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128)
    for _ in range(n):
        power = power @ f
        for g in (power, adjoint(power)):
            vals, vecs = np.linalg.eigh(np.eye(n) - adjoint(g) @ g)
            basis = ref_intersect(basis, vecs[:, np.abs(vals) <= tol], tol)
        if basis.shape[1] == 0:
            break
    return basis


def criterion_4_draws():
    """The dilation inputs and planted unitary/CNU cases of acceptance
    criterion 4, drawn from the same seeds."""
    dilations = []
    for ss in np.random.SeedSequence(99).spawn(500):
        rng = np.random.default_rng(ss)
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dilations.append(random_contraction(rows, cols, rng))
    planted = []
    for ss in np.random.SeedSequence(100).spawn(60):
        rng = np.random.default_rng(ss)
        k, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        if k + m == 0:
            m = 1
        u = random_unitary(k, rng) if k else np.zeros((0, 0))
        c = 0.9 * random_contraction(m, m, rng) if m else np.zeros((0, 0))
        w = random_unitary(k + m, rng)
        planted.append(w @ direct_sum(u, c) @ adjoint(w))
    return dilations, planted + [np.diag(np.ones(3), k=-1)]


DILATIONS, PLANTED = criterion_4_draws()


def test_halmos_matches_eigh_reference():
    for f in DILATIONS:
        g = halmos_dilation(f)
        assert operator_norm(g - ref_halmos(f)) < 1e-12
        assert np.array_equal(g[f.shape[1]:, f.shape[0]:], f)


@pytest.mark.parametrize("i", range(len(PLANTED)))
def test_cnu_matches_intersection_reference(i):
    f = PLANTED[i]
    ref = ref_unitary_subspace(f)
    k = ref.shape[1]
    d = cnu_decompose(f)
    assert d.unitary_dim == k
    head = d.basis_change[:, :k]
    assert operator_norm(head @ adjoint(head) - ref @ adjoint(ref)) < 1e-10
    u_full = np.linalg.svd(ref)[0] if k else np.eye(f.shape[0])
    conj = adjoint(u_full) @ f @ u_full
    for got, want in ((d.f0, conj[:k, :k]), (d.f1, conj[k:, k:])):
        sv = np.linalg.svd(got, compute_uv=False)
        assert np.allclose(sv, np.linalg.svd(want, compute_uv=False), rtol=0, atol=1e-10)
    if k == 0:
        assert np.array_equal(d.basis_change, np.eye(f.shape[0]))
        assert np.array_equal(d.f1, f)


def test_axiom_suite_smoke():
    report = check_trace_axioms(seed=123, n_cases=40)
    assert report.passed, report.to_json()
    assert set(report.checks) == {
        "naturality_input",
        "naturality_output",
        "dinaturality",
        "superposing",
        "vanishing_i",
        "vanishing_ii",
        "yanking",
    }
    for c in report.checks.values():
        assert c.cases == 40


def test_axiom_report_json_shape():
    report = check_trace_axioms(seed=1, n_cases=3)
    blob = report.to_json()
    assert all({"cases", "failures", "worst_deviation", "passed"} <= set(v) for v in blob.values())


def reference_axioms(seed, n_cases, cfg=TraceConfig(), max_dim=4):
    """The axiom checker one case and one scalar ex call at a time, as it
    was before the traces were batched by shape."""
    checks = {name: AxiomCheck(name) for name in _AXIOMS}

    def record(name, deviation, ctx):
        check = checks[name]
        check.cases += 1
        check.worst_deviation = max(check.worst_deviation, deviation)
        if deviation > cfg.compare_tol:
            check.failures += 1
            check.notes.append(f"{ctx}: deviation {deviation:.3e}")

    for case, ss in enumerate(np.random.SeedSequence(seed).spawn(n_cases)):
        rng = np.random.default_rng(ss)
        a, b, u = (int(rng.integers(1, max_dim + 1)) for _ in range(3))
        ctx = f"case {case} (a={a}, b={b}, u={u})"
        f = two_block(random_contraction(b + u, a + u, rng), u)
        g = random_contraction(a, a, rng)
        h = random_contraction(b, b, rng)
        lhs = h @ ex(f, "U", cfg).value @ g
        wrapped = two_block(direct_sum(h, np.eye(u)) @ f.matrix @ direct_sum(g, np.eye(u)), u)
        record("naturality_input", operator_norm(lhs - ex(wrapped, "U", cfg).value), ctx)
        a2, b2 = (int(rng.integers(1, max_dim + 1)) for _ in range(2))
        g2 = random_contraction(a, a2, rng)
        h2 = random_contraction(b2, b, rng)
        lhs = h2 @ ex(f, "U", cfg).value @ g2
        wrapped = two_block(direct_sum(h2, np.eye(u)) @ f.matrix @ direct_sum(g2, np.eye(u)), u)
        record("naturality_output", operator_norm(lhs - ex(wrapped, "U", cfg).value), ctx)
        u2 = int(rng.integers(1, max_dim + 1))
        fd = random_contraction(b + u2, a + u, rng)
        gd = random_contraction(u, u2, rng)
        left = two_block(direct_sum(np.eye(b), gd) @ fd, u)
        right = two_block(fd @ direct_sum(np.eye(a), gd), u2)
        dev = operator_norm(ex(left, "U", cfg).value - ex(right, "U", cfg).value)
        record("dinaturality", dev, ctx)
        c, d = (int(rng.integers(1, max_dim + 1)) for _ in range(2))
        gs = random_contraction(d, c, rng)
        lhs = direct_sum(gs, ex(f, "U", cfg).value)
        rhs = ex(two_block(direct_sum(gs, f.matrix), u), "U", cfg).value
        record("superposing", operator_norm(lhs - rhs), ctx)
        fv = random_contraction(b, a, rng)
        record("vanishing_i", operator_norm(ex(two_block(fv, 0), "U", cfg).value - fv), ctx)
        v = int(rng.integers(1, max_dim + 1))
        fw = random_contraction(b + u + v, a + u + v, rng)
        inner = ex(two_block(fw, v), "U", cfg).value
        nested = ex(two_block(inner, u), "U", cfg).value
        flat = ex(two_block(fw, u + v), "U", cfg).value
        record("vanishing_ii", operator_norm(nested - flat), ctx)
        swap = two_block(swap_matrix(u, u), u)
        record("yanking", operator_norm(ex(swap, "U", cfg).value - np.eye(u)), ctx)
    return AxiomReport(checks)


def traced_shapes(monkeypatch, fn):
    """Run fn and return, for every _trace_core call it makes, the loop size,
    the traced matrices' shapes and the shape of the stack: a padded
    union's matrices are its parts, with their own shapes."""
    calls = []
    original = trace._trace_core

    def counted(m, k, *args, parts=(), **kwargs):
        assert [i for i, _, _ in parts] == list(range(len(parts)))
        shapes = [(b + k, a + k) for _, b, a in parts] or [m.shape[1:]] * len(m)
        calls.append((k, shapes, m.shape))
        return original(m, k, *args, parts=parts, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(trace, "_trace_core", counted)
        fn()
    return calls


def by_loop_size(calls):
    """The matrices of these calls as one batch per distinct loop size, in
    the order the sizes first occur, each batch's matrices in call order."""
    batches = {}
    for k, shapes, _ in calls:
        batches.setdefault(k, []).extend(shapes)
    return list(batches.items())


# Seeds 0-9 at 16 cases: the size of `axioms 16` in the trace_scalar bench mix.
@pytest.mark.parametrize("seed,n_cases", [(seed, 16) for seed in range(10)] + [(3, 40), (123, 40)])
def test_batched_axioms_equal_per_case_reference(monkeypatch, seed, n_cases):
    if n_cases > 16:  # three blocks: 16, 16 and 8 cases
        monkeypatch.setattr(trace, "AXIOM_BLOCK", 16)
    reports = []
    want = traced_shapes(monkeypatch, lambda: reports.append(reference_axioms(seed, n_cases)))
    assert len(want) == 13 * n_cases
    # The reference's ex calls 0, 2 and 6 of each case trace ex(f), which the
    # checker traces once; call 9 is vanishing II's inner trace, and call 10
    # the nested one, which the checker traces after every other trace of
    # its block.
    per_case = [want[13 * i : 13 * i + 13] for i in range(n_cases)]
    expected = []
    for start in range(0, n_cases, trace.AXIOM_BLOCK):
        block = per_case[start : start + trace.AXIOM_BLOCK]
        rest = [calls[j] for calls in block for j in (0, 1, 3, 4, 5, 7, 8, 11, 12)]
        expected += (by_loop_size(calls[9] for calls in block)
                     + by_loop_size(rest + [calls[10] for calls in block]))
    got = traced_shapes(monkeypatch, lambda: reports.append(check_trace_axioms(seed, n_cases)))
    assert reports[1].to_json() == reports[0].to_json()
    # One call per distinct loop size in each pass of each block, with its
    # traces in trace order, on their union padded to the largest B and A.
    assert [(k, shapes) for k, shapes, _ in got] == expected
    for k, shapes, union in got:
        assert union == (len(shapes),) + tuple(max(s[i] - k for s in shapes) + k for i in (0, 1))


@pytest.mark.parametrize("block", (1, 5, 16))
def test_block_size_moves_no_byte(monkeypatch, block):
    want = {(seed, n): check_trace_axioms(seed, n).to_json() for seed in (0, 1) for n in (16, 40)}
    monkeypatch.setattr(trace, "AXIOM_BLOCK", block)
    assert {key: check_trace_axioms(*key).to_json() for key in want} == want


def test_checker_memory_does_not_grow_with_the_case_count(monkeypatch):
    # Drawn and traced all at once, seeds 0-3 peaked 6.7-11.3 times higher at 128 cases than at 16.
    monkeypatch.setattr(trace, "AXIOM_BLOCK", 16)
    check_trace_axioms(0, 16)  # first-use imports and caches stay out of the peaks
    peaks = []
    for n_cases in (16, 128):
        tracemalloc.start()
        try:
            check_trace_axioms(0, n_cases)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def first_failure_alone(seed, n_cases, cfg):
    """The error check_trace_axioms(seed, n_cases, cfg) must raise: that of
    its first failing trace in trace order, traced alone, with the trace
    named in the message.  The order is vanishing II's inner traces, every
    other trace case by case, then the nested traces."""
    draws, streams = [], np.random.SeedSequence(seed).spawn(n_cases)
    cases = [trace._draw_case(i, np.random.default_rng(ss), draws) for i, ss in enumerate(streams)]
    rescale_draws(draws)
    jobs = [((ctx, name), job) for ctx, _, traces, _ in cases for name, job in traces().items()]
    inner = [job for job in jobs if job[0][1] == "vanishing_ii (inner)"]
    rest = [job for job in jobs if job[0][1] != "vanishing_ii (inner)"]
    values = {}

    def alone(key, m, k):
        try:
            values[key] = trace._trace_core(m[None], k, cfg)[0][0]
        except ArithmeticError as e:
            e.args = (f"{', '.join(key)}: {e}",)
            raise

    for key, job in inner + rest:
        alone(key, *job)
    for ctx, u, _, _ in cases:
        alone((ctx, "vanishing_ii"), values[ctx, "vanishing_ii (inner)"], u)


def failure_key(e):
    return type(e), str(e), getattr(e, "residual_in", None), getattr(e, "residual_out", None)


@pytest.mark.parametrize("seed", range(10))
def test_failing_checker_raises_the_first_failing_trace_as_traced_alone(seed):
    cfg = TraceConfig(max_terms=1, compare_tol=1e-30, ki_residual_tol=1e-30)
    with pytest.raises(ArithmeticError) as want:
        first_failure_alone(seed, 16, cfg)
    with pytest.raises(ArithmeticError) as got:
        check_trace_axioms(seed, 16, cfg)
    assert failure_key(got.value) == failure_key(want.value)


def test_failing_axiom_trace_names_case_and_law():
    # Vanishing II's inner traces run first, so the first failing trace is one of them.
    with pytest.raises(SeriesDivergence,
                       match=r"^case 0 \(a=\d, b=\d, u=\d\), vanishing_ii \(inner\): "):
        check_trace_axioms(0, 2, TraceConfig(max_terms=1))


@pytest.mark.parametrize("field", ["series_tol", "ki_residual_tol", "compare_tol", "blowup"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_trace_config_requires_positive_finite_tolerances(field, value):
    # A NaN tolerance passes no comparison, so it would let every check pass vacuously.
    with pytest.raises(LinalgError, match="must be positive and finite"):
        TraceConfig(**{field: value})
