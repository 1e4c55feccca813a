import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extrace import kappa
from extrace.kappa import (
    GroverParams,
    GroverSamples,
    KappaMeasurement,
    MonteCarloSummary,
    RuntimeBound,
    grover_montecarlo,
    grover_recurrence,
    grover_runtime_bound,
    grover_statevector,
    guarantee_f,
    halting_probabilities,
    kappa_measure,
    premeasurement_angles,
    robustness_g,
    runtime_bound,
    theta,
    verify_guarantee,
)
from extrace.linalg import LinalgError, adjoint, classify, operator_norm
from reference import build_E, grover_angle, halting_law


def last(n, k):
    """The predicate of the last k of n basis states."""
    return tuple(range(n - k, n))


class TestBuildE:
    def test_kappa_zero_is_identity(self):
        assert np.allclose(build_E(0.0, last(3, 1), 3), np.eye(6))

    def test_kappa_one_full_projector_flips_probe(self):
        e = build_E(1.0, (0, 1), 2)
        # |h, bot> -> |h, top>
        state = np.zeros(4)
        state[0] = 1.0  # (h=0, probe=bot)
        out = e @ state
        assert out[1] == pytest.approx(1.0)

    def test_random_instances_are_unitary(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            e = build_E(float(rng.uniform()), last(n, k), n)
            assert operator_norm(adjoint(e) @ e - np.eye(2 * n)) < 1e-10

    def test_rejects_non_projector(self):
        # Only distinct nonnegative integer indices span a projector onto basis states.
        for predicate in [(0, 0), (-1,), (0.5,), ("0",), ([0, 1],)]:
            with pytest.raises(LinalgError, match="predicate must be"):
                KappaMeasurement(0.5, predicate)
        with pytest.raises(LinalgError):
            KappaMeasurement(1.5, (0,))

    def test_index_past_the_dimension_is_rejected(self):
        km = KappaMeasurement(0.5, (3,))
        with pytest.raises(LinalgError, match="predicate index past the 3-dim state"):
            kappa_measure(np.array([1.0, 0.0, 0.0]), km, 0.5)
        with pytest.raises(LinalgError, match="predicate index past the 1-dim state"):
            kappa_measure(np.array([1.0]), km, 0.5)

    def test_predicate_is_a_tuple_of_ints(self):
        km = KappaMeasurement(0.5, [np.int64(2), 0])
        assert km.predicate == (2, 0) and all(type(i) is int for i in km.predicate)
        same = KappaMeasurement(0.5, (2, 0))
        assert km == same and hash(km) == hash(same)


class TestKappaMeasure:
    def test_state_in_subspace_kappa_one(self):
        km = KappaMeasurement(1.0, last(2, 1))
        out = kappa_measure(np.array([0.0, 1.0]), km, np.random.default_rng(0).random())
        assert out.certified
        assert out.p_top == pytest.approx(1.0)

    def test_orthogonal_state_never_certifies(self):
        km = KappaMeasurement(0.9, last(2, 1))
        state = np.array([1.0, 0.0])
        out = kappa_measure(state, km, 0.0)
        assert not out.certified
        assert np.allclose(out.post_state, state)

    def test_grover_plane_collapse_shape(self):
        kappa = 0.3
        a = 0.7
        km = KappaMeasurement(kappa, last(2, 1))
        state = np.array([math.cos(a), math.sin(a)])
        rng = np.random.default_rng(1)
        out = kappa_measure(state, km, rng.random())
        while out.certified:
            out = kappa_measure(state, km, rng.random())
        expected = np.array([math.cos(a), math.sqrt(1 - kappa) * math.sin(a)])
        assert np.allclose(out.post_state, expected / np.linalg.norm(expected), atol=1e-12)

    def test_probability_against_bernoulli_frequency(self):
        kappa, a = 0.25, 1.1
        km = KappaMeasurement(kappa, last(2, 1))
        state = np.array([math.cos(a), math.sin(a)])
        rng = np.random.default_rng(77)
        n = 100_000
        hits = sum(kappa_measure(state, km, rng.random()).certified for _ in range(n))
        p = kappa * math.sin(a) ** 2
        stderr = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * stderr

    def test_rejects_unnormalized(self):
        km = KappaMeasurement(0.5, last(2, 1))
        with pytest.raises(LinalgError):
            kappa_measure(np.array([1.0, 1.0]), km, 0.5)

    def test_draw_one_never_certifies(self):
        # Rounding may put |<target|state>|^2 a little above 1; p_top stays at most kappa.
        state = np.array([1.0 + 2e-16, 1e-9])
        out = kappa_measure(state, KappaMeasurement(1.0, (0,)), 1.0)
        assert not out.certified and out.p_top <= 1.0

    def test_keep_looping_of_probability_zero_is_an_error(self):
        # At kappa = 1 a state inside the predicate certifies surely; the forced
        # keep-looping branch is the zero vector, which has no normalisation.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LinalgError, match="keep-looping branch has probability 0"):
                kappa_measure(np.array([1.0, 0.0]), KappaMeasurement(1.0, (0,)), 1.0)

    def test_keep_looping_of_rounding_residue_is_an_error(self):
        # At B = 4 one Grover step puts the state on the target up to residue of
        # about 1e-16 an entry, so at kappa = 1 the forced keep-looping branch has
        # probability about 3.7e-32: it is renormalised noise, not a state.
        p = GroverParams(4, kappa=1.0, max_iterations=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LinalgError, match="keep-looping branch has probability 0"):
                grover_statevector(p, force_keep_looping=True)

    def test_keep_looping_of_rounding_residue_after_two_steps_is_an_error(self):
        # At B = 2 the second Grover step puts the state on the target up to a
        # damped norm of about 4.4e-16; the forced keep-looping branch is noise.
        p = GroverParams(2, kappa=1.0, max_iterations=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LinalgError, match="keep-looping branch has probability 0"):
                grover_statevector(p, force_keep_looping=True)

    def test_agrees_with_the_dilation(self):
        # build_E on state (x) |bot>: the |top> branch has squared norm p_top and,
        # normalised, is the certified post-state; the |bot> branch, normalised,
        # is the keep-looping post-state.
        rng = np.random.default_rng(27)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            predicate = tuple(int(i) for i in rng.permutation(d)[: int(rng.integers(1, d + 1))])
            km = KappaMeasurement(float(rng.uniform(0.01, 1.0)), predicate)
            state = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            state /= np.linalg.norm(state)
            branches = (build_E(km.kappa, km.predicate, d) @ np.kron(state, [1.0, 0.0])).reshape(d, 2)
            bot, top = branches[:, 0], branches[:, 1]
            certified = kappa_measure(state, km, 0.0)
            assert certified.certified
            assert np.vdot(top, top).real == pytest.approx(certified.p_top, rel=1e-12)
            assert np.allclose(certified.post_state, top / np.linalg.norm(top), atol=1e-12)
            kept = kappa_measure(state, km, 1.0)
            assert not kept.certified and kept.p_top == certified.p_top
            if np.linalg.norm(bot) > 1e-6:  # kappa = 1 on a state inside the predicate
                assert np.allclose(kept.post_state, bot / np.linalg.norm(bot), atol=1e-12)

    def test_no_dense_projector(self):
        # A d x d projector at d = 2^20 would take 16 TiB; the state is 16 MiB.
        d = 2**20
        state = np.zeros(d, dtype=np.complex128)
        state[[0, -1]] = math.sqrt(0.5)
        tracemalloc.start()
        try:
            out = kappa_measure(state, KappaMeasurement(0.5, (d - 1,)), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.p_top == pytest.approx(0.25)
        assert peak < 100 * 2**20


class TestTheta:
    def test_zero_strength_is_zero(self):
        for a in np.linspace(-7, 7, 101):
            assert theta(float(a), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_pole_at_half_pi(self):
        assert theta(math.pi / 2, 0.7) == pytest.approx(0.0, abs=1e-15)
        assert theta(3 * math.pi / 2, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_first_quadrant_positive_second_negative(self):
        assert theta(0.5, 0.5) > 0
        assert theta(math.pi - 0.5, 0.5) < 0

    def test_matches_arctan_formula_in_first_quadrant(self):
        for kappa in (0.1, 0.5, 0.9):
            xi = math.sqrt(1 - kappa)
            for a in np.linspace(0.01, 1.5, 50):
                formula = math.atan((1 - xi) * math.tan(a) / (1 + xi * math.tan(a) ** 2))
                assert theta(float(a), kappa) == pytest.approx(formula, abs=1e-12)

    def test_bound_chain(self):
        for kappa in (1e-4, 1e-2, 0.3, 0.8, 0.999):
            xi = math.sqrt(1 - kappa)
            cap = math.asin((1 - xi) / (1 + xi))  # tight supremum of |theta|
            assert cap <= math.asin(kappa) + 1e-10
            grid = np.linspace(0, 2 * math.pi, 4001)
            worst = max(abs(theta(float(a), kappa)) for a in grid)
            assert worst <= cap + 1e-10

    def test_agrees_with_measurement_collapse(self):
        # extract the collapse angle from the measurement operation itself
        kappa = 0.4
        km = KappaMeasurement(kappa, last(2, 1))
        rng = np.random.default_rng(3)
        for a in np.linspace(0.05, 1.5, 20):
            state = np.array([math.cos(a), math.sin(a)])
            out = kappa_measure(state, km, rng.random())
            while out.certified:
                out = kappa_measure(state, km, rng.random())
            post_angle = math.atan2(out.post_state[1].real, out.post_state[0].real)
            assert a - post_angle == pytest.approx(theta(float(a), kappa), abs=1e-10)


class TestGroverParams:
    def test_defaults(self):
        p = GroverParams(10**6)
        assert p.kappa == pytest.approx(1e-3)
        assert p.alpha == pytest.approx(math.asin(1e-3))
        assert p.max_iterations == 50_000

    def test_validation(self):
        with pytest.raises(LinalgError):
            GroverParams(1)
        with pytest.raises(LinalgError):
            GroverParams(4, kappa=0.0)
        with pytest.raises(LinalgError):
            GroverParams(4, max_iterations=0)

    @pytest.mark.parametrize("field, value", [("B_size", 16.5), ("seed", 1.5),
                                              ("max_iterations", 2.5)])
    def test_non_integer_field_is_refused(self, field, value):
        # Unchecked, a float B runs and a float seed or horizon fails with no LinalgError.
        with pytest.raises(LinalgError, match=f"{field} must be an integer"):
            GroverParams(**{"B_size": 16, field: value})


class TestRecurrence:
    def test_kappa_zero_is_standard_grover(self):
        p = GroverParams(100, kappa=1e-12, max_iterations=50)
        # kappa ~ 0: angles advance by exactly 2 alpha
        traj = grover_recurrence(p, 50)
        expected = p.alpha * (1 + 2 * np.arange(51))
        assert np.allclose(traj, expected, atol=1e-9)

    def test_b4_one_step_to_certainty(self):
        p = GroverParams(4, kappa=1e-12, max_iterations=2)
        traj = grover_recurrence(p, 1)
        assert math.sin(traj[1]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_increments_within_lemma_window(self):
        p = GroverParams(10**6, 1e-3)
        traj = grover_recurrence(p, 5000)
        inc = np.diff(traj)
        assert np.all(inc >= p.alpha - 1e-12)
        assert np.all(inc <= 3 * p.alpha + 1e-12)

    @pytest.mark.parametrize(
        "trajectory", [grover_recurrence, premeasurement_angles, halting_probabilities])
    def test_horizon_beyond_the_cap_is_refused(self, trajectory):
        # ceil(50 / 1e-12) = 5e13 steps: refused before any array of that length
        # is requested.
        with pytest.raises(LinalgError, match="max_iterations must be <= 10000000"):
            trajectory(GroverParams(16, kappa=1e-12))

    def test_monotone(self):
        p = GroverParams(256)
        traj = grover_recurrence(p, 1000)
        assert np.all(np.diff(traj) > 0)

    @pytest.mark.parametrize("b, kappa", [(10**6, 1e-3), (10**4, None)])
    def test_equals_per_step_theta_reference(self, b, kappa):
        # The closed form and the per-step loop part by 8.7e-11 (10^6, 1e-3,
        # 50,000 steps) and 8.4e-12 (10^4, default kappa, 5,000 steps): the
        # loop's rounding, which grows with the step count.
        p = GroverParams(b, kappa)
        assert np.max(np.abs(grover_recurrence(p) - per_step_trajectory(p))) <= 2e-10


def per_step_trajectory(p, n_steps=None):
    """b_0..b_N by the per-step loop in doubles: advance by 2 alpha, then
    collapse by theta."""
    ref = [p.alpha]
    for _ in range(p.max_iterations if n_steps is None else n_steps):
        a = ref[-1] + 2.0 * p.alpha
        ref.append(a - theta(a, p.kappa))
    return np.array(ref)


ACCURACY_CASES = [(10**2, None), (10**4, None), (10**6, None), (10**8, None),
                  (10**4, 1e-3), (10**6, 1e-3)]


class TestTrajectoryAccuracy:
    # grover_recurrence must be at least as accurate as the per-step loop
    # against a 40-digit reference, and within 1e-10 of it.

    @pytest.mark.parametrize("b, kappa", ACCURACY_CASES)
    def test_first_steps_against_per_step_reference(self, b, kappa):
        p = GroverParams(b, kappa)
        ref = halting_law(b, p.kappa, 2000, dps=40)[0]
        vec_err = np.max(np.abs(grover_recurrence(p, 2000) - ref))
        loop_err = np.max(np.abs(per_step_trajectory(p, 2000) - ref))
        assert vec_err <= 1e-10
        assert vec_err <= loop_err + 1e-12

    @pytest.mark.parametrize("b, kappa", ACCURACY_CASES)
    def test_spot_steps_against_matrix_power(self, b, kappa):
        p = GroverParams(b, kappa)
        n = p.max_iterations
        vec, loop = grover_recurrence(p), per_step_trajectory(p)
        for t in (n // 4, n // 2, n):
            ref_angle = grover_angle(b, p.kappa, t)
            ref_prob = p.kappa * math.sin(ref_angle) ** 2
            # angle difference wrapped into [-pi, pi]
            angles = [abs(math.remainder(x - ref_angle, math.tau)) for x in (vec[t], loop[t])]
            probs = [abs(p.kappa * math.sin(x) ** 2 - ref_prob) for x in (vec[t], loop[t])]
            for vec_err, loop_err in (angles, probs):
                assert vec_err <= 1e-10, (t, angles, probs)
                assert vec_err <= loop_err + 1e-12, (t, angles, probs)

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_kappa_one_corners(self, b):
        # At kappa = 1 the keep-looping state sits on the off-target axis,
        # where the angle is defined only mod pi: compare sin^2.
        p = GroverParams(b, kappa=1.0)
        vec = premeasurement_angles(p)
        loop = per_step_trajectory(p)[:-1] + 2.0 * p.alpha
        assert not np.isnan(vec).any()
        assert np.max(np.abs(np.sin(vec) ** 2 - np.sin(loop) ** 2)) <= 1e-12
        samples, _ = grover_montecarlo(p, 100)
        assert not np.isnan(samples.angle).any()


class TestStatevector:
    @pytest.mark.parametrize("b", [16, 64, 256, 4096])
    def test_conditional_matches_premeasurement_angles(self, b):
        # Iteration t + 1 measures at b_t + 2 alpha, so b_1..b_N are the
        # pre-measurement angles shifted back by 2 alpha.
        p = GroverParams(b, max_iterations=200)
        run = grover_statevector(p, force_keep_looping=True)
        traj = premeasurement_angles(p, 201)[1:] - 2.0 * p.alpha
        folded = np.arcsin(np.abs(np.sin(traj)))
        assert np.max(np.abs(np.array(run.angles) - folded)) < 1e-9

    def test_stays_in_plane(self, watched_statevector):
        p = GroverParams(64, max_iterations=300)
        run, residuals = watched_statevector(p, force_keep_looping=True)
        assert len(residuals) == 300
        assert max(residuals) < 1e-9

    def test_halting_state_is_target(self):
        p = GroverParams(16, kappa=0.5, seed=4)
        run = grover_statevector(p)
        assert run.halted_at is not None
        target = np.zeros(16)
        target[0] = 1.0
        assert abs(abs(np.vdot(target, run.state)) - 1.0) < 1e-9

    def test_kappa_one_is_projective(self):
        # strength-1 measurement collapses the walk every step: the loop
        # halts exactly when the drawn uniform lands under sin^2
        p = GroverParams(4, kappa=1.0, seed=0, max_iterations=500)
        run = grover_statevector(p)
        assert run.halted_at is not None

    def test_cap_enforced(self):
        with pytest.raises(LinalgError):
            grover_statevector(GroverParams(8192))


def halting_cdf(p):
    """F(t) for t = 1..max_iterations from the program's certify probabilities."""
    return 1.0 - np.cumprod(1.0 - halting_probabilities(p))


class TestMonteCarlo:
    def test_reproducible(self):
        p = GroverParams(10**4, seed=11)
        t1, s1 = grover_montecarlo(p, 200)
        t2, s2 = grover_montecarlo(p, 200)
        assert np.array_equal(t1.iterations, t2.iterations)
        assert s1.median == s2.median

    def test_trial_streams_independent_of_count(self):
        # trial i's outcome must not depend on how many trials run
        p = GroverParams(10**4, seed=11)
        t_small, _ = grover_montecarlo(p, 10)
        t_big, _ = grover_montecarlo(p, 50)
        assert np.array_equal(t_small.iterations, t_big.iterations[:10])

    @pytest.mark.parametrize("seed", [0, 11, 2**40])
    def test_trial_i_takes_ith_draw_of_seed_stream(self, seed):
        # Trial i is a pure function of (seed, i): the i-th double of the
        # PCG64 stream seeded by SeedSequence(seed), reached by advance(i).
        p = GroverParams(10**4, seed=seed)
        samples, _ = grover_montecarlo(p, 3000)
        cdf = halting_cdf(p)
        for i in (0, 1, 7, 1234, 2999):
            bits = np.random.PCG64(np.random.SeedSequence(seed)).advance(i)
            u = np.random.Generator(bits).random()
            t = int(samples.iterations[i])
            assert not samples.censored[i]
            assert (cdf[t - 2] if t > 1 else 0.0) <= u < cdf[t - 1]

    def test_halting_angle_recorded(self):
        p = GroverParams(100, seed=2)
        samples, _ = grover_montecarlo(p, 20)
        angles = premeasurement_angles(p)
        done = ~samples.censored
        assert np.array_equal(samples.angle[done], angles[samples.iterations[done] - 1])

    def test_censoring(self):
        p = GroverParams(10**4, kappa=1e-4, max_iterations=30, seed=0)
        samples, summary = grover_montecarlo(p, 100)
        assert summary.censored == int(samples.censored.sum()) > 0
        assert np.all(samples.iterations[samples.censored] == 30)
        # censored trials excluded from the mean
        uncensored = samples.iterations[~samples.censored]
        if uncensored.size:
            assert summary.mean == pytest.approx(float(np.mean(uncensored)))

    def test_histogram_counts_total(self):
        p = GroverParams(10**4, seed=5)
        samples, summary = grover_montecarlo(p, 500)
        assert sum(c for _, c in summary.histogram) == 500 - summary.censored
        los = [lo for lo, _ in summary.histogram]
        assert los == sorted(los)

    def test_exact_law_in_summary(self):
        p = GroverParams(10**4, kappa=1e-3, max_iterations=2000, seed=0)
        _, summary = grover_montecarlo(p, 10)
        cdf = halting_cdf(p)
        pmf = np.diff(cdf, prepend=0.0)
        t = np.arange(1, cdf.size + 1)
        assert summary.exact_median == int(t[cdf >= 0.5][0])
        assert summary.exact_mean == pytest.approx(float(t @ pmf / cdf[-1]), rel=1e-12)
        assert summary.censored_mass == pytest.approx(1.0 - cdf[-1], rel=1e-9)
        assert 0.01 < summary.censored_mass < 0.5

    def test_exact_median_absent_past_horizon(self):
        p = GroverParams(10**4, kappa=1e-4, max_iterations=30, seed=0)
        _, summary = grover_montecarlo(p, 10)
        assert summary.exact_median is None
        assert summary.censored_mass > 0.5

    @pytest.mark.parametrize("b, n_trials, per_step, budget", [(10**8, 1000, True, 60),
                                                               (10**4, 10**6, False, 40)],
                             ids=["bytes-a-step", "bytes-a-trial"])
    def test_law_and_draws_are_built_in_place(self, b, n_trials, per_step, budget):
        # Built in place, the law peaks at 32-40 B a step (500,000 steps here) and the
        # draws at 33 B a trial; one temporary per expression took 80 and 57.
        grover_montecarlo(GroverParams(16), 1)  # numpy's first-call set-up is not a step
        p = GroverParams(b)
        tracemalloc.start()
        try:
            grover_montecarlo(p, n_trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * (p.max_iterations if per_step else n_trials)


def frozen_grover_montecarlo(p, n_trials):
    """Reference sampler on the engine's own trajectory, each step by its plain
    definition: the CDF in new arrays, one searchsorted over the draws in trial
    order, np.median over trial order and an np.unique histogram.  The engine's
    in-place CDF, sorted search, sorted median and bincount histogram must match
    it byte for byte."""
    angles = premeasurement_angles(p)
    probs = p.kappa * np.sin(angles) ** 2
    with np.errstate(divide="ignore"):
        log_survival = np.cumsum(np.log1p(-np.minimum(probs, 1.0)))
    survival = np.exp(log_survival)
    cdf = 1.0 - survival

    u = np.random.default_rng(np.random.SeedSequence(p.seed)).random(n_trials)
    idx = np.searchsorted(cdf, u, side="right")
    censored = idx >= p.max_iterations
    last = np.minimum(idx, p.max_iterations - 1)
    samples = GroverSamples(np.where(censored, p.max_iterations, idx + 1), censored, angles[last])

    done = samples.iterations[~censored]
    median = float(np.median(done)) if done.size else math.nan
    mean = float(np.mean(done)) if done.size else math.nan
    bucket_width = max(1, int(round(math.pi / (2.0 * p.alpha) / 24.0)))
    lo, counts = np.unique((done - 1) // bucket_width * bucket_width + 1, return_counts=True)

    half, mass = int(np.searchsorted(cdf, 0.5)), cdf[-1]
    pmf = np.diff(cdf, prepend=0.0)
    summary = MonteCarloSummary(
        median, mean, n_trials, int(censored.sum()), bucket_width, np.column_stack([lo, counts]),
        exact_median=half + 1 if half < cdf.size else None,
        # NaN where F rounds to 0 at every step, as median and mean are without halts
        exact_mean=float(np.dot(np.arange(1, cdf.size + 1), pmf) / mass) if mass else math.nan,
        censored_mass=float(survival[-1]),
    )
    return samples, summary


def same_bytes(got, want):
    """Arrays of one dtype and shape with equal bytes; other values of one type and
    repr, so NaN matches NaN, None matches None and 0.0 does not match -0.0."""
    if isinstance(want, np.ndarray):
        return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    return type(got) is type(want) and repr(got) == repr(want)


@st.composite
def montecarlo_runs(draw):
    """(params, n_trials) with horizons up to 20,000 steps."""
    b = draw(st.one_of(st.integers(2, 100), st.integers(2, 10**10)))
    kappa = draw(st.one_of(st.none(), st.just(1.0), st.floats(-4.0, 0.0).map(lambda e: 10.0**e),
                           st.floats(-12.0, -2.0).map(lambda e: 1.0 - 10.0**e)))
    horizon = min(GroverParams(b, kappa).max_iterations, 20_000)
    max_iterations = draw(st.one_of(st.just(1), st.integers(1, 50), st.integers(1, horizon),
                                    st.just(horizon)))
    seed = draw(st.integers(0, 2**64))
    return GroverParams(b, kappa, seed, max_iterations), draw(st.integers(1, 20_000))


@given(montecarlo_runs(), st.integers(0, 20_000))
@example((GroverParams(10**8, 1e-6, 3, 5), 1000), 1)  # every trial censored
@example((GroverParams(10**4, None, 7), 10_000), 0)  # no trial censored
@example((GroverParams(10**6, None, 5, 3000), 20_000), 5000)  # some censored
@example((GroverParams(10**20, None, 0, 1), 10), 1)  # F(t) rounds to 0: no halt
@example((GroverParams(10**8), 3000), 0)  # default kappa: 500,000 steps
@example((GroverParams(2, 1.0), 100), 7)  # d = -h^2, a hair below 0: h = c / 2, c = -1.6e-16
@example((GroverParams(2, 1.0, 0, 1), 1), 0)
@example((GroverParams(3, 1.0 - 1e-12), 3000), 1)  # d < 0, kappa near 1
@example((GroverParams(10**4, 1e-3), 1), 50_000)  # n |w_lo| just under TINY_PHASE
@example((GroverParams(4, 1e-4), 3000), 20_000)  # n |w_lo| past TINY_PHASE
@settings(deadline=None, max_examples=40)
def test_montecarlo_bytes_equal_frozen_reference(run, n_steps):
    p, n_trials = run
    samples, summary = grover_montecarlo(p, n_trials)
    want_samples, want_summary = frozen_grover_montecarlo(p, n_trials)
    for name, got in vars(samples).items():
        assert same_bytes(got, getattr(want_samples, name)), name
    assert list(vars(summary)) == list(vars(want_summary))
    for name, got in vars(summary).items():
        assert same_bytes(got, getattr(want_summary, name)), name
    for n in (None, 0, 1, n_steps):
        angles = grover_recurrence(p, n)[:-1] + 2.0 * p.alpha
        assert same_bytes(premeasurement_angles(p, n), angles)
        assert same_bytes(halting_probabilities(p, n), p.kappa * np.sin(angles) ** 2)


@pytest.mark.parametrize("d", [2, 64, 4096])
def test_keep_looping_post_state_bytes_equal_division(d):
    # Every part of the state is nonzero, so no zero sign can differ.
    rng = np.random.default_rng(d)
    state = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    state /= np.linalg.norm(state)
    km = KappaMeasurement(0.3, tuple(range(0, d, 3)))
    post = state.copy()
    post[km.index] *= math.sqrt(1.0 - km.kappa)
    out = kappa_measure(state, km, 1.0)
    assert out.post_state.tobytes() == (post / np.linalg.norm(post)).tobytes()


@given(montecarlo_runs())
@example((GroverParams(10**4, 1e-3), 1))  # n |w_lo| = 4.7e-9, just under TINY_PHASE
@example((GroverParams(4, 1e-4), 1))  # n |w_lo| past TINY_PHASE: four trig passes
@settings(deadline=None, max_examples=40)
def test_tiny_phase_shortcut_keeps_every_byte(run):
    # The reference takes cos and sin of the low phase at every step.
    p, _ = run
    got = grover_recurrence(p)
    kappa.TINY_PHASE, tiny = 0.0, kappa.TINY_PHASE
    try:
        want = grover_recurrence(p)
    finally:
        kappa.TINY_PHASE = tiny
    assert got.tobytes() == want.tobytes()


class TestBounds:
    def test_guarantee_f_closed_form(self):
        b = 10**6
        k = math.floor(math.pi * math.sqrt(b) / 4)
        assert guarantee_f(0, b) == k == 785
        assert guarantee_f(7, b) == 14 + k

    def test_robustness_g(self):
        assert robustness_g(21) == 42

    def test_composition(self):
        b = 4096
        n = 13
        assert robustness_g(guarantee_f(n, b)) == 2 * (2 * n + math.floor(math.pi * 16))

    def test_runtime_bound_formula(self):
        rb = RuntimeBound(0.1, 0.25, f=lambda n: n + 1, g=lambda n: 3 * n)
        # ceil(2 / (0.1 * 0.5)) = 40 -> f -> 41 -> g -> 123
        assert runtime_bound(rb, 1) == 123

    @pytest.mark.parametrize("c", [0, -1])
    def test_runtime_bound_rejects_c_below_one(self, c):
        rb = RuntimeBound(0.1, 0.25, f=lambda n: n + 1, g=lambda n: 3 * n)
        with pytest.raises(LinalgError, match="c must be >= 1"):
            runtime_bound(rb, c)
        with pytest.raises(LinalgError, match="c must be >= 1"):
            grover_runtime_bound(100, c=c)

    @pytest.mark.parametrize("b", [0, -4])
    def test_grover_bound_rejects_B_below_one(self, b):
        with pytest.raises(LinalgError, match="B must be >= 1"):
            grover_runtime_bound(b)

    def test_epsilon_validation(self):
        with pytest.raises(LinalgError):
            RuntimeBound(0.1, 0.5, f=lambda n: n, g=lambda n: n)

    @pytest.mark.parametrize("epsilon", [0.5, -1e-300, -1.0, math.nan])
    def test_epsilon_outside_the_gap_range_is_rejected(self, epsilon):
        with pytest.raises(LinalgError, match=r"epsilon must lie in \[0, 1/2\)"):
            RuntimeBound(0.1, epsilon, f=lambda n: n, g=lambda n: n)

    def test_remark_constant_factor(self):
        t = grover_runtime_bound(10**6, 1e-3, c=1)
        approx = (8 + math.pi / 2) * math.sqrt(10**6)
        assert abs(t - approx) / approx < 0.01

    def test_bound_monotone_in_c(self):
        ts = [grover_runtime_bound(10**4, c=c) for c in (1, 2, 3, 5)]
        assert ts == sorted(ts)
        assert ts[0] < ts[-1]


class TestVerifyGuarantee:
    @pytest.mark.parametrize("b", [64, 10**4])
    def test_zero_violations(self, b):
        report = verify_guarantee(GroverParams(b), n_max=50)
        assert report.ok, (report.guarantee_violations, report.robustness_violations)

    def test_report_counts(self):
        report = verify_guarantee(GroverParams(256), n_max=10)
        assert report.n_checked == 10
        assert report.B_size == 256

    def test_violations_are_reported(self, monkeypatch):
        # At B = 64 the unmeasured angle (2k + 1) alpha first passes pi/4 at
        # k = 3, so f(n) = n fails every n; no probability gap is below -1.
        monkeypatch.setattr(kappa, "guarantee_f", lambda n, b: n)
        monkeypatch.setattr(kappa, "_grover_epsilon", lambda b: -1.0)
        report = verify_guarantee(GroverParams(64), n_max=3)
        assert not report.ok
        assert report.guarantee_violations == [
            f"n={n}: only {active} active iterations within f(n)={n}"
            for n, active in ((1, 0), (2, 0), (3, 1))]
        assert [v.split(":")[0] for v in report.robustness_violations] == ["n=1", "n=2", "n=3"]
        assert all(v.endswith("exceeds eps=-1.000e+00") for v in report.robustness_violations)
