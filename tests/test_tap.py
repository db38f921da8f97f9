"""TAP functionals: values, gradients, maximizers, and the grid oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from tapbound import covariance, tap
from tapbound.covariance import CovarianceSeries
from tapbound.entropy import ising_uniform
from tapbound.errors import DomainError, ResourceBudgetError, UnsupportedOperationError
from tapbound.geometry import norm, normalize
from tapbound.hamiltonian import (
    ExternalField,
    MixedModel,
    field_linear,
    field_none,
    field_quadratic_spike,
    sample_disorder,
)
from tapbound.harness import build_config, experiments
from tapbound.tap import (
    FLAVORS,
    TapProblem,
    maximize_tap,
    maximize_tap_many,
    tap_energy,
    tap_energy_many,
    tap_gradient,
    tap_gradient_many,
)

import oracles
from oracles import (
    brute_force_tap_max,
    brute_force_tap_max_product,
    maximize_tap_lbfgs,
    maximize_tap_projected_ascent,
    maximize_tap_sequential,
    oracle_tap_energy,
    oracle_tap_gradient,
)

XI0 = CovarianceSeries((0.0,))
XI2 = CovarianceSeries((0.0, 0.0, 1.0))
XI23 = CovarianceSeries((0.0, 0.0, 1.0, 0.5))


def make_problem(n=8, xi=XI2, beta=0.3, h=0.0, seed=0, flavor="ising",
                 field=None, **kw):
    if field is None:
        field = field_linear(h, n) if h else field_none(n)
    return TapProblem(sample_disorder(MixedModel(n, xi), seed), field, beta, flavor,
                      **kw)


FIELD_KINDS = ("none", "linear", "quadratic_spike", "tilted_linear", "tilted_spike")


def field_of_kind(kind, h, n):
    """A field of each kind; the tilted ones are linear and quadratic_spike
    along a direction seeded by n in place of ones."""
    if kind == "none":
        return field_none(n)
    if kind == "linear":
        return field_linear(h, n)
    if kind == "quadratic_spike":
        return field_quadratic_spike(h, n)
    u = normalize(np.random.default_rng(n).standard_normal(n))
    return ExternalField({"tilted_linear": "linear", "tilted_spike": "quadratic_spike"}[kind],
                         n, h=h, basis=u[None])


class StuckField(ExternalField):
    """A field of kind none whose gradient is 1e9 at every row: no step can
    follow it, so every start's first line search fails."""

    def gradient_many(self, sigmas):
        return np.full(np.shape(sigmas), 1e9)


def stuck_field(n):
    return StuckField("none", n, basis=np.ones((1, n)))


def inside_rows(rng, rows, n, flavor):
    m = rng.uniform(-0.95, 0.95, size=(rows, n))
    if flavor == "spherical":
        m *= rng.uniform(0.0, 0.95, size=(rows, 1)) / np.sqrt((m ** 2).mean(axis=1))[:, None]
    return m


class TestTapProblem:
    def test_field_of_another_dimension_rejected(self):
        d = sample_disorder(MixedModel(8, XI2), 1)
        with pytest.raises(DomainError):
            TapProblem(disorder=d, field=field_linear(0.3, 7), beta=0.5, flavor="ising")

    @pytest.mark.parametrize("beta", [-0.1, math.nan])
    def test_negative_or_nan_beta_rejected(self, beta):
        d = sample_disorder(MixedModel(8, XI2), 1)
        with pytest.raises(DomainError):
            TapProblem(disorder=d, field=field_none(8), beta=beta, flavor="ising")


class TestTapEnergy:
    def test_zero_everything(self):
        for flavor in ("ising", "spherical"):
            p = make_problem(beta=0.0, flavor=flavor)
            assert tap_energy(p, np.zeros(8)) == 0.0

    def test_zero_disorder_ising_closed_form(self):
        n, h, beta = 6, 0.4, 1.0
        p = make_problem(n=n, xi=XI0, beta=beta, h=h)
        rng = np.random.default_rng(0)
        m = rng.uniform(-0.9, 0.9, size=n)
        from tapbound.entropy import binary_entropy
        expect = beta * h * m.sum() - sum(binary_entropy(x) for x in m)
        assert tap_energy(p, m) == pytest.approx(expect, rel=1e-12)

    def test_onsager_term_at_origin(self):
        p = make_problem(n=10, beta=0.3)
        # On(0) = xi(1) = 1 for the pure two-spin mixture
        assert tap_energy(p, np.zeros(10)) == pytest.approx(0.045 * 10, abs=1e-12)
        assert tap_energy(p, np.zeros(10)) / p.n == pytest.approx(0.045, abs=1e-13)

    def test_entropy_sign(self):
        # dropping the (nonpositive) ising entropy can only increase the value
        p = make_problem(n=8, beta=0.4, h=0.2, seed=3)
        rng = np.random.default_rng(1)
        from tapbound.entropy import ising_entropy
        for _ in range(20):
            m = rng.uniform(-0.8, 0.8, size=8)
            assert tap_energy(p, m) <= tap_energy(p, m) - ising_entropy(m) + 1e-12

    def test_domain_enforcement(self):
        p = make_problem()
        with pytest.raises(DomainError):
            tap_energy(p, np.ones(8))
        ps = make_problem(flavor="spherical")
        with pytest.raises(DomainError):
            tap_energy(ps, normalize(np.ones(8)))

    def test_general_flavor_value(self):
        n = 8
        p = make_problem(n=n, beta=0.25, h=0.2, flavor="general",
                         measure=ising_uniform(n), delta=0.1)
        val = tap_energy(p, np.zeros(n))
        # entropy surrogate at the origin is log-mass of a half-space: <= 0
        base = 0.5 * 0.25 ** 2 * n * 1.0
        assert val <= base + 1e-12


class TestTapGradient:
    def test_beta_zero_at_origin(self):
        p = make_problem(beta=0.0)
        assert np.allclose(tap_gradient(p, np.zeros(8)), 0.0)

    def test_zero_disorder_stationary_at_tanh(self):
        n, h, beta = 7, 0.4, 1.0
        p = make_problem(n=n, xi=XI0, beta=beta, h=h)
        m = np.full(n, math.tanh(beta * h))
        assert np.abs(tap_gradient(p, m)).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-5
        for flavor in ("ising", "spherical"):
            for trial in range(50):
                p = make_problem(n=6, xi=XI23, beta=0.35, h=0.2,
                                 seed=trial, flavor=flavor)
                m = 0.7 * rng.uniform(0.1, 1.0) * normalize(rng.standard_normal(6))
                if flavor == "ising":
                    m = np.clip(m, -0.9, 0.9)
                g = tap_gradient(p, m)
                fd = np.empty(6)
                for i in range(6):
                    e = np.zeros(6)
                    e[i] = step
                    fd[i] = (tap_energy(p, m + e) - tap_energy(p, m - e)) / (2 * step)
                scale = max(1.0, float(np.abs(g).max()))
                assert np.abs(g - fd).max() / scale < 1e-6

    def test_general_flavor_has_no_gradient(self):
        p = make_problem(flavor="general", measure=ising_uniform(8), delta=0.1)
        with pytest.raises(UnsupportedOperationError):
            tap_gradient(p, np.zeros(8))


class TestBatchedEvaluation:
    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    @pytest.mark.parametrize("kind", FIELD_KINDS)
    def test_rows_match_scalar(self, flavor, kind):
        # every row, and its one-row scalar call, against the oracle
        rng = np.random.default_rng(21)
        for n in (1, 6):
            p = make_problem(n=n, xi=XI23, beta=0.45, seed=n, flavor=flavor,
                             field=field_of_kind(kind, 0.3, n))
            M = inside_rows(rng, 9, n, flavor)
            vals = tap_energy_many(p, M)
            grads = tap_gradient_many(p, M)
            assert vals.shape == (9,) and grads.shape == (9, n)
            for m, v, g in zip(M, vals, grads):
                expect = oracle_tap_energy(p, m)
                for got in (v, tap_energy(p, m)):
                    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
                expect = oracle_tap_gradient(p, m)
                scale = max(1.0, float(np.abs(expect).max()))
                for got in (g, tap_gradient(p, m)):
                    assert np.abs(got - expect).max() <= 1e-12 * scale

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_one_row_outside_domain_rejected(self, flavor):
        p = make_problem(n=6, flavor=flavor)
        M = inside_rows(np.random.default_rng(22), 5, 6, flavor)
        M[3] = 1.0  # on the box corner and on the unit sphere
        for batched in (tap_energy_many, tap_gradient_many):
            with pytest.raises(DomainError):
                batched(p, M)
            with pytest.raises(DomainError):
                batched(p, M[:, :5])

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_nan_entry_rejected(self, flavor):
        p = make_problem(n=6, flavor=flavor, measure=ising_uniform(6), delta=0.1)
        m = np.array([0.1, 0.0, np.nan, -0.2, 0.0, 0.3])
        # the domain check rejects it, not a later check on q
        with pytest.raises(DomainError, match="magnetization must lie"):
            tap_energy(p, m)
        with pytest.raises(DomainError, match="magnetization must lie"):
            tap_energy_many(p, np.array([np.zeros(6), m]))
        if flavor != "general":
            with pytest.raises(DomainError, match="magnetization must lie"):
                tap_gradient(p, m)

    def test_general_energy_rows_match_oracle(self):
        n = 6
        p = make_problem(n=n, beta=0.3, h=0.2, flavor="general",
                         measure=ising_uniform(n), delta=0.1)
        M = inside_rows(np.random.default_rng(23), 5, n, "spherical")
        vals = tap_energy_many(p, M)
        for m, v in zip(M, vals):
            assert v == pytest.approx(oracle_tap_energy(p, m), rel=1e-12, abs=1e-12)
        with pytest.raises(DomainError):
            tap_energy_many(p, np.full((1, n), 1.01))

    def test_general_flavor_has_no_gradient_batch(self):
        p = make_problem(flavor="general", measure=ising_uniform(8), delta=0.1)
        with pytest.raises(UnsupportedOperationError):
            tap_gradient_many(p, np.zeros((2, 8)))
        # raised before the domain check
        with pytest.raises(UnsupportedOperationError):
            tap_gradient_many(p, np.full((2, 3), np.nan))


XI_DRAWS = ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.5),
            (0.0, 0.0, 1.0, 0.5), (0.0, 0.5, 1.0, 0.5))


def assert_matches_sequential(p, starts, rng_seed):
    """The batched ascent against the one-start-at-a-time oracle: best value
    and every start's final value to 1e-9 N, m_star when the best start is
    the same, and a start-major trace of plain Python numbers."""
    got = maximize_tap_projected_ascent(p, starts, rng_seed)
    ref = maximize_tap_sequential(p, starts, rng_seed)
    tol = 1e-9 * p.n
    assert abs(got.value - ref.value) <= tol
    if got.best_start == ref.best_start:
        assert np.abs(got.m_star - ref.m_star).max() <= 1e-6
    keys = [(row.start, row.iteration) for row in got.trace]
    assert keys == sorted(keys)
    final = {}
    for row in got.trace:
        assert type(row.value) is float and type(row.grad_norm) is float
        assert type(row.step) is float and type(row.iteration) is int
        final[row.start] = row.value
    ref_final = {row.start: row.value for row in ref.trace}
    assert sorted(final) == list(range(starts))
    for s in range(starts):
        assert abs(final[s] - ref_final[s]) <= tol
    return got, ref


PROBLEM_DRAWS = dict(flavor=st.sampled_from(["ising", "spherical"]),
                     n=st.integers(1, 16),
                     xi=st.sampled_from(XI_DRAWS),
                     beta=st.floats(0.0, 0.6),
                     kind=st.sampled_from(FIELD_KINDS),
                     h=st.floats(0.0, 0.5),
                     starts=st.sampled_from([1, 2, 6]),
                     seed=st.integers(0, 2 ** 32 - 1))


class TestRowsMatchOracle:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(flavor=st.sampled_from(FLAVORS), n=st.integers(1, 8),
           xi=st.sampled_from(XI_DRAWS), beta=st.floats(0.0, 0.6),
           kind=st.sampled_from(FIELD_KINDS), h=st.floats(0.0, 0.5),
           rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_property(self, flavor, n, xi, beta, kind, h, rows, seed):
        p = make_problem(n=n, xi=CovarianceSeries(xi), beta=beta, seed=seed,
                         flavor=flavor, field=field_of_kind(kind, h, n),
                         measure=ising_uniform(n), delta=0.1)
        M = inside_rows(np.random.default_rng(seed), rows, n,
                        "ising" if flavor == "ising" else "spherical")
        for m, v in zip(M, tap_energy_many(p, M)):
            assert v == pytest.approx(oracle_tap_energy(p, m), rel=1e-12, abs=1e-12)
        if flavor == "general":
            with pytest.raises(UnsupportedOperationError):
                tap_gradient_many(p, M)
            return
        for m, g in zip(M, tap_gradient_many(p, M)):
            expect = oracle_tap_gradient(p, m)
            assert np.abs(g - expect).max() <= 1e-12 * max(1.0, float(np.abs(expect).max()))


class TestBatchedAscentMatchesSequential:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(**PROBLEM_DRAWS)
    def test_property(self, flavor, n, xi, beta, kind, h, starts, seed):
        p = make_problem(n=n, xi=CovarianceSeries(xi), beta=beta, seed=seed,
                         flavor=flavor, field=field_of_kind(kind, h, n))
        assert_matches_sequential(p, starts, seed)

    @pytest.mark.parametrize("flavor,n,seed", [("ising", 4, 18), ("spherical", 8, 0)])
    def test_starts_hitting_the_iteration_cap(self, flavor, n, seed):
        # beta = 0.4 on the pure 2-spin model creeps toward its maximum
        p = make_problem(n=n, beta=0.4, seed=seed, flavor=flavor)
        got, ref = assert_matches_sequential(p, 2, seed)
        for out in (got, ref):
            assert [sum(row.start == s for row in out.trace) for s in (0, 1)] == [500, 500]
            assert not out.converged

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_failed_line_search_stops_the_start(self, flavor):
        # A field gradient no step can follow: every start's first line
        # search fails with a large gradient, so none has converged
        n = 6
        p = make_problem(n=n, seed=3, flavor=flavor, field=stuck_field(n))
        got, ref = assert_matches_sequential(p, 3, 5)
        for out in (got, ref):
            assert [row.iteration for row in out.trace] == [0, 0, 0]
            assert not out.converged
        assert got.best_start == ref.best_start

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_identical_starts_tie_break_to_the_first(self, flavor, monkeypatch):
        p = make_problem(n=7, beta=0.35, h=0.2, seed=4, flavor=flavor)
        first = tap._draw_start(p, np.random.default_rng(0))
        monkeypatch.setattr(tap, "_draw_start", lambda p, rng: first.copy())
        for maximize in (maximize_tap_projected_ascent, maximize_tap_sequential):
            out = maximize(p, 6, 1)
            assert out.best_start == 0
            assert len({row.value for row in out.trace if row.iteration == 0}) == 1


def projected_starts(p, starts, rng_seed):
    return tap._project(p, np.array([
        tap._draw_start(p, np.random.default_rng(
            np.random.SeedSequence(rng_seed, spawn_key=(s,))))
        for s in range(starts)]))


def scipy_lbfgsb_max(p, starts, rng_seed):
    """Best value of scipy's L-BFGS-B on -tap_energy with the analytic
    gradient, from maximize_tap's projected starts. Ising runs in the box;
    the ball is reached through the radial map m = x / sqrt(1 + ||x||^2)."""
    n = p.n
    limit = 1.0 - tap.DOMAIN_MARGIN
    best = -np.inf
    for m0 in projected_starts(p, starts, rng_seed):
        if p.flavor == "ising":
            res = minimize(lambda m: (-tap_energy(p, m), -tap_gradient(p, m)),
                           m0, jac=True, method="L-BFGS-B",
                           bounds=[(-limit, limit)] * n,
                           options=dict(ftol=1e-15, gtol=1e-12, maxiter=5000))
        else:
            def neg(x):
                c = 1.0 / math.sqrt(1.0 + x @ x / n)
                m = c * x
                g = tap_gradient(p, m)
                return -tap_energy(p, m), -(c * g - c ** 3 * (x @ g) / n * x)

            res = minimize(neg, m0 / math.sqrt(1.0 - m0 @ m0 / n), jac=True,
                           method="L-BFGS-B",
                           options=dict(ftol=1e-15, gtol=1e-12, maxiter=5000))
        best = max(best, -res.fun)
    return best


def iterations_per_start(out, starts):
    return [sum(row.start == s for row in out.trace) for s in range(starts)]


class TestLbfgs:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(**PROBLEM_DRAWS)
    def test_property_at_least_the_projected_ascent(self, flavor, n, xi, beta,
                                                    kind, h, starts, seed):
        p = make_problem(n=n, xi=CovarianceSeries(xi), beta=beta, seed=seed,
                         flavor=flavor, field=field_of_kind(kind, h, n))
        got = maximize_tap(p, starts, seed)
        ref = maximize_tap_projected_ascent(p, starts, seed)
        assert got.value >= ref.value - 1e-9 * n
        assert got.value == pytest.approx(tap_energy(p, got.m_star), rel=1e-12, abs=1e-12)
        keys = [(row.start, row.iteration) for row in got.trace]
        assert keys == sorted(keys)
        assert {row.start for row in got.trace} == set(range(starts))
        for row in got.trace:
            assert type(row.value) is float and type(row.grad_norm) is float
            assert type(row.step) is float and type(row.iteration) is int

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    @pytest.mark.parametrize("kind", ["none", "linear", "quadratic_spike", "tilted_spike"])
    def test_agrees_with_scipy_lbfgsb(self, flavor, kind):
        for n, xi, beta, seed in ((2, XI2, 0.4, 1), (5, XI23, 0.5, 2), (8, XI2, 0.4, 3)):
            p = make_problem(n=n, xi=xi, beta=beta, seed=seed, flavor=flavor,
                             field=field_of_kind(kind, 0.3, n))
            got = maximize_tap(p, 3, seed).value
            ref = scipy_lbfgsb_max(p, 3, seed)
            assert got >= ref - 1e-9 * n
            assert got - ref <= 1e-7 * n

    @pytest.mark.parametrize("flavor,n,seed", [("ising", 4, 18), ("spherical", 8, 0)])
    def test_former_cap_cases_converge(self, flavor, n, seed):
        # both starts of these problems reach the projected ascent's cap
        p = make_problem(n=n, beta=0.4, seed=seed, flavor=flavor)
        out = maximize_tap(p, 2, seed)
        assert out.converged
        assert max(iterations_per_start(out, 2)) < tap.MAX_ITERATIONS
        last = {row.start: row for row in out.trace}
        assert all(last[s].grad_norm < tap.GRAD_TOLERANCE for s in (0, 1))

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_failed_line_search_stops_the_start(self, flavor):
        n = 6
        p = make_problem(n=n, seed=3, flavor=flavor, field=stuck_field(n))
        out = maximize_tap(p, 3, 5)
        assert [row.iteration for row in out.trace] == [0, 0, 0]
        assert not out.converged
        finals = [row.value for row in out.trace]
        assert out.best_start == finals.index(max(finals))

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_identical_starts_tie_break_to_the_first(self, flavor, monkeypatch):
        p = make_problem(n=7, beta=0.35, h=0.2, seed=4, flavor=flavor)
        first = tap._draw_start(p, np.random.default_rng(0))
        monkeypatch.setattr(tap, "_draw_start", lambda p, rng: first.copy())
        out = maximize_tap(p, 6, 1)
        assert out.best_start == 0
        rows = [[(r.iteration, r.value, r.grad_norm, r.step)
                 for r in out.trace if r.start == s] for s in range(6)]
        assert all(r == rows[0] for r in rows)

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    @pytest.mark.parametrize("kind", ["none", "linear", "tilted_linear"])
    def test_unchecked_gradient_rows_pass_the_domain_check(self, flavor, kind,
                                                           monkeypatch):
        # the ascent hands `_gradient_block` only rows that the energy's
        # domain check has accepted: checking them again changes neither a
        # row nor the result
        unchecked = tap._gradient_block
        p = make_problem(n=6, xi=XI23, beta=0.5, seed=2, flavor=flavor,
                         field=field_of_kind(kind, 0.3, 6))
        plain = maximize_tap(p, 4, 9)
        calls = []

        def checked(block, M, counts):
            calls.append(len(M))
            return unchecked(block, tap._check_domain_many(p, M), counts)

        monkeypatch.setattr(tap, "_gradient_block", checked)
        again = maximize_tap(p, 4, 9)
        assert sum(calls) == len(plain.trace)
        assert again.trace == plain.trace
        assert np.array_equal(again.m_star, plain.m_star)

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_unchecked_onsager_rows_pass_the_q_check(self, flavor, monkeypatch):
        # the stacked term bodies hand the Onsager terms only
        # q = min(1, |m|^2/N) of accepted rows: checking it again changes
        # neither a q nor the result
        p = make_problem(n=6, xi=XI23, beta=0.5, seed=2, flavor=flavor,
                         field=field_of_kind("linear", 0.3, 6))
        plain = maximize_tap(p, 4, 9)
        calls = []

        def checked(name):
            unchecked = getattr(CovarianceSeries, name)

            def call(series, q):
                calls.append(len(q))
                return unchecked(series, covariance._unit_q(q))
            return call

        for name in ("_onsager_rows", "_onsager_derivative_rows"):
            monkeypatch.setattr(CovarianceSeries, name, checked(name))
        again = maximize_tap(p, 4, 9)
        assert calls
        assert again.trace == plain.trace
        assert np.array_equal(again.m_star, plain.m_star)

    def test_two_loop_matches_dense_bfgs(self):
        # The L-BFGS oracle's two-loop product, each row against the dense
        # inverse-Hessian recursion
        # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T from gamma I,
        # with empty (all-zero, rho = 0) slots before the row's pairs.
        rng = np.random.default_rng(8)
        n, rows = 5, 4
        hist_s = np.zeros((rows, oracles.HISTORY, n))
        hist_y = np.zeros((rows, oracles.HISTORY, n))
        rho = np.zeros((rows, oracles.HISTORY))
        g = rng.standard_normal((rows, n))
        gamma = np.full(rows, tap.INITIAL_STEP)
        expect = np.empty((rows, n))
        for r, pairs in enumerate((0, 1, 3, oracles.HISTORY)):
            A = rng.standard_normal((n, n))
            A = A @ A.T + n * np.eye(n)
            for slot in range(oracles.HISTORY - pairs, oracles.HISTORY):
                s_vec = rng.standard_normal(n)
                y_vec = A @ s_vec
                hist_s[r, slot], hist_y[r, slot] = s_vec, y_vec
                rho[r, slot] = 1.0 / (s_vec @ y_vec)
                gamma[r] = (s_vec @ y_vec) / (y_vec @ y_vec)
            H = gamma[r] * np.eye(n)
            for slot in range(oracles.HISTORY - pairs, oracles.HISTORY):
                s_vec, y_vec, c = hist_s[r, slot], hist_y[r, slot], rho[r, slot]
                V = np.eye(n) - c * np.outer(y_vec, s_vec)
                H = V.T @ H @ V + c * np.outer(s_vec, s_vec)
            expect[r] = H @ g[r]
        got = oracles._two_loop(g, hist_s, hist_y, rho, gamma)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_pairs_without_curvature_are_skipped(self):
        # the L-BFGS oracle's curvature history
        n = 3
        hist_s = np.zeros((2, oracles.HISTORY, n))
        hist_y = np.zeros((2, oracles.HISTORY, n))
        rho = np.zeros((2, oracles.HISTORY))
        gamma = np.full(2, tap.INITIAL_STEP)
        for k in range(oracles.HISTORY + 2):
            s = np.array([[1.0 + k, 0.0, 0.0], [1.0, 0.0, 0.0]])
            y = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # row 1: s.y = 0
            oracles._push_pairs(np.array([0, 1]), s, y, hist_s, hist_y, rho, gamma)
        assert np.array_equal(hist_s[0, :, 0], np.arange(3.0, 3.0 + oracles.HISTORY))
        assert np.array_equal(rho[0], 0.5 / np.arange(3.0, 3.0 + oracles.HISTORY))
        assert gamma[0] == (oracles.HISTORY + 2.0) / 2.0
        assert not hist_s[1].any() and not rho[1].any()
        assert gamma[1] == tap.INITIAL_STEP


BLOCK_XI = ((1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
            (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.5, 1.0, 0.5), (0.2, 0.0, 1.0, 0.0, 0.3))


def block_field(kind, h, n):
    """`field_of_kind`, or "stuck": a field gradient no step can follow, so
    every start's first line search fails."""
    if kind == "stuck":
        return stuck_field(n)
    return field_of_kind(kind, h, n)


def block_problems(flavor, n, xi, cases):
    """One problem per (beta, field kind, h, seed) case, the seed drawing its
    disorder and its starts."""
    problems = [make_problem(n=n, xi=CovarianceSeries(xi), beta=beta, seed=seed,
                             flavor=flavor, field=block_field(kind, h, n))
                for beta, kind, h, seed in cases]
    return problems, [seed for *_, seed in cases]


def trace_bits(trace):
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in dataclasses.astuple(row)) for row in trace]


def assert_block_matches_per_problem(problems, starts, seeds):
    """maximize_tap_many against one maximize_tap per problem, bit for bit:
    value, m_star bytes, best start, converged flag and every trace row."""
    got = maximize_tap_many(problems, starts, seeds)
    assert len(got) == len(problems)
    for p, seed, out in zip(problems, seeds, got):
        ref = maximize_tap(p, starts, seed)
        assert type(out.value) is float and out.value.hex() == ref.value.hex()
        assert out.m_star.tobytes() == ref.m_star.tobytes()
        assert type(out.best_start) is int and out.best_start == ref.best_start
        assert out.converged is ref.converged
        assert trace_bits(out.trace) == trace_bits(ref.trace)
    return got


# Blocks mixing slow starts (beta = 2.35 on the 1-spin model with a
# quadratic spike: 15 to 16 trace rows per start under Newton, and
# MAX_ITERATIONS for the L-BFGS ascent before it), starts whose first line
# search fails ("stuck") and starts that converge
CAPPED_BLOCK = dict(flavor="ising", n=10, xi=(0.0, 1.0),
                    cases=[(2.35, "quadratic_spike", 0.11, 629), (0.4, "linear", 0.3, 5),
                           (2.35, "stuck", 0.0, 7), (1.0, "none", 0.0, 11)])
MIXED_CAP_BLOCK = dict(flavor="ising", n=14, xi=(0.0, 1.0),
                       cases=[(0.2, "tilted_linear", 0.3, 1),
                              (2.3, "quadratic_spike", 0.19, 765)])
STUCK_SPHERE_BLOCK = dict(flavor="spherical", n=6, xi=(0.0, 0.0, 1.0, 0.5),
                          cases=[(0.5, "stuck", 0.0, 3), (0.5, "tilted_spike", 0.3, 3),
                                 (2.5, "quadratic_spike", 0.5, 4)])


class TestBlockAscentMatchesPerProblem:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(flavor=st.sampled_from(["ising", "spherical"]), n=st.integers(1, 16),
           xi=st.sampled_from(BLOCK_XI), starts=st.integers(1, 8),
           cases=st.lists(st.tuples(st.floats(0.0, 2.5),
                                    st.sampled_from(FIELD_KINDS + ("stuck",)),
                                    st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1)),
                          min_size=1, max_size=9))
    @example(starts=3, **CAPPED_BLOCK)
    @example(starts=3, **MIXED_CAP_BLOCK)
    @example(starts=4, **STUCK_SPHERE_BLOCK)
    @example(flavor="spherical", n=1, xi=(0.0, 0.0, 1.0), starts=8,
             cases=[(0.1 * k, FIELD_KINDS[k % 5], 0.1, k) for k in range(9)])
    def test_property(self, flavor, n, xi, starts, cases):
        problems, seeds = block_problems(flavor, n, xi, cases)
        assert_block_matches_per_problem(problems, starts, seeds)

    def test_capped_and_stuck_starts(self, monkeypatch):
        # Newton finishes every start of these problems within 16 trace
        # rows, so a cap of 10 stops the slow ones mid-ascent
        monkeypatch.setattr(tap, "MAX_ITERATIONS", 10)
        problems, seeds = block_problems(**CAPPED_BLOCK)
        capped, fast, stuck, _ = assert_block_matches_per_problem(problems, 3, seeds)
        assert iterations_per_start(capped, 3) == [10] * 3
        assert not capped.converged
        assert fast.converged and max(iterations_per_start(fast, 3)) < 10
        assert [row.iteration for row in stuck.trace] == [0, 0, 0]
        assert not stuck.converged

    def test_a_problem_alone_is_a_block_of_one(self):
        problems, seeds = block_problems(**MIXED_CAP_BLOCK)
        for p, seed, out in zip(problems, seeds, maximize_tap_many(problems, 3, seeds)):
            alone = maximize_tap(p, 3, seed)
            assert alone.m_star.tobytes() == out.m_star.tobytes()
            assert trace_bits(alone.trace) == trace_bits(out.trace)

    def test_rejected_blocks(self):
        p = make_problem(n=6, seed=1)
        with pytest.raises(DomainError):
            maximize_tap_many([], 2, [])
        with pytest.raises(DomainError):
            maximize_tap_many([p, p], 2, [1])
        with pytest.raises(DomainError):
            maximize_tap_many([p], 0, [1])
        for other in (make_problem(n=7, seed=1),
                      make_problem(n=6, seed=1, flavor="spherical"),
                      make_problem(n=6, xi=XI23, seed=1)):
            with pytest.raises(DomainError):
                maximize_tap_many([p, other], 2, [1, 2])
        general = make_problem(n=6, seed=1, flavor="general",
                               measure=ising_uniform(6), delta=0.1)
        with pytest.raises(UnsupportedOperationError):
            maximize_tap_many([general], 2, [1])
        # an equal series in another object is the same series
        twin = make_problem(n=6, xi=CovarianceSeries(XI2.coefficients), beta=0.5,
                            seed=2)
        assert len(maximize_tap_many([p, twin], 2, [1, 2])) == 2


class TestStartStreams:
    def test_starts_are_numpy_seed_sequence_streams(self, monkeypatch):
        # start s of a problem seeded r is drawn from
        # default_rng(SeedSequence(r, spawn_key=(s,))), bit for bit
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1]
        for flavor in ("ising", "spherical"):
            problems = [make_problem(n=5, seed=k, flavor=flavor) for k in range(len(seeds))]
            drawn = []
            draw = tap._draw_start

            def record(p, rng):
                drawn.append(draw(p, rng))
                return drawn[-1]

            monkeypatch.setattr(tap, "_draw_start", record)
            maximize_tap_many(problems, 3, seeds)
            monkeypatch.setattr(tap, "_draw_start", draw)
            expect = [draw(p, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(s,))))
                      for p, seed in zip(problems, seeds) for s in range(3)]
            assert np.array(drawn).tobytes() == np.array(expect).tobytes()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(DomainError):
            maximize_tap(make_problem(n=4), 2, seed)


def tap_hessian_rows(p, M):
    return tap._hessian_block(tap._Block((p,)), M, np.array([len(M)]))


class TestHessian:
    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    @pytest.mark.parametrize("xi", [XI2, XI23], ids=["xi2", "xi23"])
    @pytest.mark.parametrize("kind", FIELD_KINDS)
    def test_matches_central_differences_of_the_gradient(self, flavor, xi, kind):
        rng = np.random.default_rng(31)
        step = 1e-5
        for n in (1, 6):
            p = make_problem(n=n, xi=xi, beta=0.45, seed=n, flavor=flavor,
                             field=field_of_kind(kind, 0.3, n))
            M = inside_rows(rng, 5, n, flavor)
            got = tap_hessian_rows(p, M)
            assert got.shape == (5, n, n)
            fd = np.empty_like(got)
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd[:, i] = (tap_gradient_many(p, M + e) - tap_gradient_many(p, M - e)) / (2 * step)
            scale = max(1.0, float(np.abs(got).max()))
            assert np.abs(got - fd).max() / scale < 1e-6

    @pytest.mark.parametrize("flavor", ["ising", "spherical"])
    def test_stacked_call_equals_per_problem_calls(self, flavor):
        n = 6
        problems = [make_problem(n=n, xi=XI23, beta=beta, seed=seed, flavor=flavor,
                                 field=field_of_kind(kind, 0.3, n))
                    for beta, seed, kind in ((0.3, 1, "linear"), (0.5, 2, "tilted_spike"),
                                             (0.0, 3, "none"), (1.2, 4, "quadratic_spike"),
                                             (0.7, 5, "tilted_linear"))]
        counts = np.array([3, 0, 2, 4, 1])
        M = inside_rows(np.random.default_rng(32), counts.sum(), n, flavor)
        got = tap._hessian_block(tap._Block(tuple(problems)), M, counts)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for p, lo, hi in zip(problems, bounds[:-1], bounds[1:]):
            assert got[lo:hi].tobytes() == tap_hessian_rows(p, M[lo:hi]).tobytes()


class TestNewtonDirections:
    @staticmethod
    def matrices(rng, rows, n, least):
        """Symmetric matrices with random eigenvectors and least eigenvalue
        `least[r]`, the others in [least + 0.5, least + 3]."""
        out = np.empty((rows, n, n))
        for r in range(rows):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.concatenate(([least[r]], least[r] + rng.uniform(0.5, 3.0, n - 1)))
            out[r] = (Q * lam) @ Q.T
        return out

    def test_well_curved_rows_take_the_plain_newton_step(self):
        rng = np.random.default_rng(40)
        A = self.matrices(rng, 4, 6, [0.01, 0.5, 2.0, 10.0])
        g = rng.standard_normal((4, 6))
        got = tap._newton_directions(A, g)
        for a, b, d in zip(A, g, got):
            assert d.tobytes() == np.linalg.solve(a[None], b[None, :, None])[0, :, 0].tobytes()

    def test_rows_below_the_floor_are_shifted_to_it(self):
        rng = np.random.default_rng(41)
        least = [-2.0, -1e-6, 0.0, 0.5 * tap.CURVATURE_FLOOR, 1.0]
        A = self.matrices(rng, 5, 6, least)
        g = rng.standard_normal((5, 6))
        got = tap._newton_directions(A, g)
        for a, b, d, lam in zip(A, g, got, least):
            tau = max(0.0, tap.CURVATURE_FLOOR - np.linalg.eigvalsh(a)[0])
            assert tau == pytest.approx(max(0.0, tap.CURVATURE_FLOOR - lam), abs=1e-12)
            shifted = a + tau * np.eye(6)
            assert np.linalg.eigvalsh(shifted)[0] >= tap.CURVATURE_FLOOR - 1e-12
            assert np.allclose(shifted @ d, b, rtol=1e-10, atol=1e-10)
            assert b @ d > 0.0

    def test_a_row_does_not_depend_on_the_others(self):
        # rows of a stack that needs shifts equal their one-row calls, bit
        # for bit, whether or not the one-row call needs a shift
        rng = np.random.default_rng(42)
        A = self.matrices(rng, 6, 5, [-1.0, 2.0, 1e-5, 0.3, -0.2, 5.0])
        g = rng.standard_normal((6, 5))
        got = tap._newton_directions(A, g)
        for r in range(6):
            assert got[r].tobytes() == tap._newton_directions(A[r:r + 1], g[r:r + 1])[0].tobytes()


def bound_default_problems(experiment):
    """The problems and start seeds of an experiment's default grid, as
    its blocks build them."""
    cfg = build_config(experiment)
    flavor = "ising" if experiment == "bound-ising" else "spherical"
    cases = experiments._bound_grid(cfg)
    problems = [TapProblem(experiments._disorder(cfg, r, cfg.xi, cfg.n),
                           experiments.make_field(cfg.field, h, cfg.n), beta, flavor)
                for beta, h, r in cases]
    seeds = [experiments.derive_seed(cfg.seed, experiments.STREAM_STARTS, r)
             for _, _, r in cases]
    return cfg, problems, seeds


class TestNewtonAgainstLbfgs:
    @pytest.mark.parametrize("experiment", ["bound-ising", "bound-sphere"])
    def test_default_grid_at_least_the_lbfgs_oracle(self, experiment):
        cfg, problems, seeds = bound_default_problems(experiment)
        assert len(problems) == 400 and max(cfg.beta) <= 0.4
        for lo in range(0, len(problems), 64):
            block, block_seeds = problems[lo:lo + 64], seeds[lo:lo + 64]
            got = maximize_tap_many(block, cfg.starts, block_seeds)
            ref = maximize_tap_lbfgs(block, cfg.starts, block_seeds)
            for out, oracle in zip(got, ref):
                assert out.converged
                assert out.value >= oracle.value - 1e-9 * cfg.n


class TestMaximize:
    def test_beta_zero_maximum_at_origin(self):
        p = make_problem(n=8, beta=0.0)
        out = maximize_tap(p, starts=3, rng_seed=1)
        assert abs(out.value) < 1e-12
        assert np.abs(out.m_star).max() < 1e-6

    def test_zero_disorder_linear_field_closed_form(self):
        n, h, beta = 16, 0.4, 1.0
        p = make_problem(n=n, xi=XI0, beta=beta, h=h)
        out = maximize_tap(p, starts=2, rng_seed=2)
        assert out.value == pytest.approx(n * math.log(math.cosh(beta * h)), abs=1e-6)
        assert np.allclose(out.m_star, math.tanh(beta * h), atol=1e-6)

    def test_general_flavor_has_no_maximizer(self):
        p = make_problem(n=6, flavor="general", measure=ising_uniform(6), delta=0.1)
        with pytest.raises(UnsupportedOperationError):
            maximize_tap(p, starts=2, rng_seed=1)

    def test_deterministic_given_seed(self):
        p = make_problem(n=6, beta=0.3, h=0.2, seed=5)
        a = maximize_tap(p, starts=4, rng_seed=9)
        b = maximize_tap(p, starts=4, rng_seed=9)
        assert a.value == b.value and np.array_equal(a.m_star, b.m_star)

    def test_spherical_runs_and_stays_inside(self):
        p = make_problem(n=10, beta=0.4, h=0.3, seed=6, flavor="spherical")
        out = maximize_tap(p, starts=4, rng_seed=3)
        assert norm(out.m_star) < 1.0
        assert out.value >= tap_energy(p, np.zeros(10)) - 1e-9


class TestBruteForce:
    def test_beta_zero_grid_containing_origin(self):
        p = make_problem(n=3, beta=0.0)
        out = brute_force_tap_max(p, grid_step=0.25)
        assert out.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(out.m_star, 0.0)

    def test_zero_disorder_grid_tracks_closed_form(self):
        n, h, beta, gs = 4, 0.5, 1.0, 0.1
        p = make_problem(n=n, xi=XI0, beta=beta, h=h)
        out = brute_force_tap_max(p, grid_step=gs)
        target = n * math.log(math.cosh(beta * h))
        # grid max sits below the true sup, within the 1-D resolution error
        assert target - 2.0 * n * gs ** 2 <= out.value <= target + 1e-12

    def test_budget_enforced(self):
        p = make_problem(n=8)
        with pytest.raises(ResourceBudgetError):
            brute_force_tap_max(p, grid_step=0.02)

    def test_agreement_with_ascent_tiny_instances(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(2, 4))
            p = make_problem(n=n, beta=0.25, h=float(rng.uniform(0, 0.4)),
                             seed=trial + 100)
            grid_out = brute_force_tap_max(p, grid_step=0.02)
            ascent = maximize_tap(p, starts=6, rng_seed=trial)
            assert ascent.value >= grid_out.value - 1e-9
            assert ascent.value - grid_out.value <= 1e-4 * n

    @pytest.mark.parametrize("n,grid_step,kind", [
        (1, 0.1, "linear"), (2, 0.05, "linear"), (3, 0.02, "linear"),
        (4, 0.1, "none"), (1, 0.1, "tie"), (2, 0.1, "tie"), (3, 0.25, "tie")])
    def test_mixed_radix_matches_product_walk(self, n, grid_step, kind):
        if kind == "tie":
            # an even functional whose grid maximum sits at +-m: the
            # first visited point, -m, must win on both walks
            p = make_problem(n=n, xi=XI0, beta=1.0, field=field_quadratic_spike(2.0, n))
        else:
            p = make_problem(n=n, beta=0.3, h=0.2 if kind == "linear" else 0.0,
                             seed=n + 30)
        got = brute_force_tap_max(p, grid_step)
        ref = brute_force_tap_max_product(p, grid_step)
        assert got.value == ref.value
        assert np.array_equal(got.m_star, ref.m_star)
        assert got.points_evaluated == ref.points_evaluated
        if kind == "tie":
            assert np.all(got.m_star < 0.0)
            assert tap_energy_many(p, -got.m_star[None])[0] == got.value

    def test_spherical_radial_grid(self):
        p = make_problem(n=6, beta=0.3, h=0.2, seed=11, flavor="spherical")
        out = brute_force_tap_max(p, grid_step=0.05, direction_count=64)
        ascent = maximize_tap(p, starts=4, rng_seed=5)
        assert ascent.value >= out.value - 1e-9


class TestTapContinuity:
    def test_lipschitz_modulus_shape(self):
        # |DeltaH_TAP| <= 10 c_hat (1 + L^3) N ||dm|| log(e + 1/||dm||) with
        # c_hat probed on independent pairs of the same replica
        n = 8
        p = make_problem(n=n, beta=0.3, h=0.2, seed=12)
        L = max(p.beta, math.sqrt(p.disorder.model.series.evaluate(1.0, 3)), 1.0)
        rng = np.random.default_rng(13)

        def modulus(r):
            return (1 + L ** 3) * n * r * math.log(math.e + 1.0 / r)

        pairs = []
        for _ in range(60):
            a = np.clip(0.9 * rng.uniform(0.05, 1.0) * normalize(rng.standard_normal(n)), -0.95, 0.95)
            b = np.clip(a + rng.standard_normal(n) * rng.uniform(0.001, 0.3), -0.95, 0.95)
            if norm(a - b) > 1e-9:
                pairs.append((a, b))
        c_hat = max(abs(tap_energy(p, a) - tap_energy(p, b)) / modulus(norm(a - b))
                    for a, b in pairs[:30])
        for a, b in pairs[30:]:
            assert abs(tap_energy(p, a) - tap_energy(p, b)) <= 10 * c_hat * modulus(norm(a - b))
        print(f"probed TAP modulus constant c_hat = {c_hat:.3f}")

    def test_onsager_vanishes_on_boundary_shell(self):
        # the Onsager contribution at ||m||^2 = 1 is wired to exactly zero
        p = make_problem(n=6, beta=0.5, flavor="spherical")
        q = 1.0
        assert p.disorder.model.series.onsager(q) == pytest.approx(0.0, abs=1e-15)
