"""Exact and Monte Carlo partition functions, restrictions, slice measures."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from tapbound.covariance import CovarianceSeries
from tapbound.cover import CoverBuilder, IncrementIndex
from tapbound.entropy import general_entropy_upper, ising_uniform, point_cloud, sphere_uniform
from tapbound.errors import DomainError, ResourceBudgetError, UnsupportedOperationError
from tapbound.geometry import normalize
from tapbound.hamiltonian import (
    MixedModel,
    field_custom,
    field_linear,
    field_none,
    field_quadratic_spike,
    sample_disorder,
)
from tapbound.partition import (
    ENUM_WORK_BUDGET,
    PartitionEstimate,
    ThinPushforward,
    _sphere_rng,
    _to_sphere,
    enumeration_work,
    log_partition_exact_ising,
    log_partition_mc_sphere,
    log_partition_mc_sphere_many,
    restricted_log_partition,
    slice_measures,
)

from oracles import (
    log_partition_exact_ising_blocked,
    oracle_energy_many,
    oracle_log_partition_ising,
    oracle_log_partition_mc_sphere,
)

XI0 = CovarianceSeries((0.0,))
XI2 = CovarianceSeries((0.0, 0.0, 1.0))
XI23 = CovarianceSeries((0.0, 0.0, 1.0, 0.5))


class TestExactIsing:
    def test_beta_zero_is_exactly_zero(self):
        d = sample_disorder(MixedModel(10, XI2), 4)
        est = log_partition_exact_ising(d, field_none(10), 0.0)
        assert est.log_value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error == 0.0 and est.method == "exact_enumeration"

    def test_zero_disorder_linear_field_closed_form(self):
        n, h, beta = 12, 0.4, 1.0
        d = sample_disorder(MixedModel(n, XI0), 0)
        est = log_partition_exact_ising(d, field_linear(h, n), beta)
        assert est.log_value == pytest.approx(n * math.log(math.cosh(beta * h)),
                                              abs=1e-10)

    def test_blocked_matches_naive_enumeration(self):
        n = 12
        d = sample_disorder(MixedModel(n, XI2), 2024)
        f = field_linear(0.3, n)
        fast = log_partition_exact_ising(d, f, 0.35)
        slow = oracle_log_partition_ising(d, f, 0.35)
        assert fast.log_value == pytest.approx(slow, abs=1e-10)

    def test_blocked_matches_naive_with_cubic_term(self):
        n = 8
        d = sample_disorder(MixedModel(n, XI23), 11)
        fast = log_partition_exact_ising(d, field_none(n), 0.25)
        slow = oracle_log_partition_ising(d, field_none(n), 0.25)
        assert fast.log_value == pytest.approx(slow, abs=1e-10)

    def test_spike_field_incremental(self):
        n = 9
        d = sample_disorder(MixedModel(n, XI2), 5)
        f = field_quadratic_spike(0.4, n)
        fast = log_partition_exact_ising(d, f, 0.3)
        slow = oracle_log_partition_ising(d, f, 0.3)
        assert fast.log_value == pytest.approx(slow, abs=1e-10)

    def test_budget_errors(self):
        # The work rule: 2^N configurations times the split's feature width
        # sum_{j < P} (N - N // 2)^j, a degree below 2 costed as 2, against
        # one budget.
        assert enumeration_work(24, 2) == 2 ** 24 * (1 + 12)
        assert enumeration_work(21, 3) == 2 ** 21 * (1 + 11 + 11 ** 2)
        assert enumeration_work(9, 4) == 2 ** 9 * (1 + 5 + 5 ** 2 + 5 ** 3)
        assert enumeration_work(10, 0) == enumeration_work(10, 1) == enumeration_work(10, 2)
        for degree, top in ((2, 24), (3, 20), (4, 18), (5, 15)):
            assert enumeration_work(top, degree) <= ENUM_WORK_BUDGET
            assert enumeration_work(top + 1, degree) > ENUM_WORK_BUDGET
        for n, xi in ((21, XI23), (25, XI2), (25, XI0)):
            d = sample_disorder(MixedModel(n, xi), 0)
            with pytest.raises(ResourceBudgetError) as err:
                log_partition_exact_ising(d, field_none(n), 0.1)
            assert err.value.required == enumeration_work(n, len(xi.coefficients) - 1)
            assert err.value.budget == ENUM_WORK_BUDGET

    def test_lse_order_invariance(self):
        # streaming result agrees with a sorted global log-sum-exp to 1e-12
        n = 10
        d = sample_disorder(MixedModel(n, XI2), 9)
        f = field_linear(0.2, n)
        streaming = log_partition_exact_ising(d, f, 0.4).log_value
        configs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        xs = 0.4 * (oracle_energy_many(d, configs) + f.value_many(configs))
        xs.sort()
        m = xs[-1]
        sorted_lse = m + math.log(np.exp(xs - m).sum()) - n * math.log(2)
        assert streaming == pytest.approx(sorted_lse, abs=1e-12)


def custom_field(n):
    u = np.ones(n)
    return field_custom(u[None, :], lambda t: 0.7 * n * math.tanh(3.0 * t[0]))


FIELDS = {"none": field_none, "linear": lambda n: field_linear(0.3, n),
          "spike": lambda n: field_quadratic_spike(0.4, n), "custom": custom_field}


class TestBlockedEnumeratorMatchesOracle:
    """The exact sum against the one-configuration-at-a-time oracle."""

    @pytest.mark.parametrize("xi", [
        (0.0, 0.0, 1.0),                 # p = 2
        (0.0, 0.0, 0.0, 1.0),            # p = 3
        (0.0, 0.0, 0.7, 0.4),            # mixed 2 + 3
        (0.3, 0.8),                      # p <= 1 only
        (0.2, 0.5, 0.6, 0.3),            # every degree up to 3
    ])
    @pytest.mark.parametrize("kind", sorted(FIELDS))
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_log_partition(self, xi, kind, n):
        d = sample_disorder(MixedModel(n, CovarianceSeries(xi)), 100 + n)
        f = FIELDS[kind](n)
        got = log_partition_exact_ising(d, f, 0.45).log_value
        assert got == pytest.approx(oracle_log_partition_ising(d, f, 0.45),
                                    abs=1e-10)

    def test_above_one_block(self):
        # N = 14: 2^7 head patterns against every one of 2^7 tail patterns
        n = 14
        d = sample_disorder(MixedModel(n, XI23), 3)
        f = field_linear(0.2, n)
        configs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        xs = 0.3 * (oracle_energy_many(d, configs) + f.value_many(configs))
        top = float(xs.max())
        expect = top + math.log(math.fsum(np.exp(xs - top))) - n * math.log(2.0)
        got = log_partition_exact_ising(d, f, 0.3).log_value
        assert got == pytest.approx(expect, abs=1e-10)


def test_enumeration_memory_does_not_grow_with_2_to_the_n():
    # All 2^20 exponents side by side would alone take 8 MiB.
    n = 20
    d = sample_disorder(MixedModel(n, XI2), 4)
    f = field_linear(0.3, n)
    log_partition_exact_ising(d, f, 0.4)  # caches the int8 sign blocks
    tracemalloc.start()
    try:
        log_partition_exact_ising(d, f, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_enumeration_memory_does_not_grow_at_the_top_of_the_range():
    # The same bound at N = 24, the largest degree-2 size the work budget
    # admits: its 2^24 exponents would take 128 MiB.
    n = 24
    d = sample_disorder(MixedModel(n, XI2), 4)
    f = field_linear(0.3, n)
    log_partition_exact_ising(d, f, 0.4)  # caches the sign tables
    tracemalloc.start()
    try:
        log_partition_exact_ising(d, f, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _property_field(kind, n, rng):
    """A field of the given kind; the custom one reads two projections on a
    random <.,.>-orthonormal basis (one when n = 1), so the head and tail
    parts of every coordinate are exercised."""
    if kind != "custom":
        return FIELDS[kind](n)
    q, _ = np.linalg.qr(rng.standard_normal((n, min(2, n))))
    return field_custom(math.sqrt(n) * q.T,
                        lambda t: n * (0.7 * math.tanh(3.0 * t[0]) + 0.3 * t[-1] ** 2))


class TestSplitSumMatchesBlockedOracle:
    """The split sum against the blocked enumerator it replaced."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from(range(1, 15)), degree=st.sampled_from((4, 3, 2, 1, 0)),
           lower=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                          min_size=4, max_size=4),
           top=st.floats(0.05, 1.0), kind=st.sampled_from(sorted(FIELDS)),
           beta=st.floats(0.0, 2.5), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, degree=4, lower=[0.2, 0.5, 0.6, 0.3], top=0.4, kind="custom",
             beta=2.5, seed=0)
    @example(n=2, degree=4, lower=[0.0] * 4, top=1.0, kind="spike", beta=1.0, seed=1)
    @example(n=14, degree=4, lower=[0.3, 0.2, 0.5, 0.4], top=0.3, kind="custom",
             beta=2.5, seed=2)
    @example(n=13, degree=2, lower=[0.0] * 4, top=1.0, kind="none", beta=0.0, seed=3)
    def test_log_partition(self, n, degree, lower, top, kind, beta, seed):
        # xi of the given top degree, with each lower degree present or not
        rng = np.random.default_rng(seed)
        xi = CovarianceSeries(tuple(lower[:degree]) + (top,))
        d = sample_disorder(MixedModel(n, xi), seed)
        f = _property_field(kind, n, rng)
        got = log_partition_exact_ising(d, f, beta).log_value
        # 2^8-configuration blocks keep the oracle's degree-4 scratch small
        assert got == pytest.approx(log_partition_exact_ising_blocked(d, f, beta, 8),
                                    abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_several_tail_chunks(self, kind):
        # N = 17: 2^8 head patterns, so the 2^9 tail patterns take two chunks
        n = 17
        d = sample_disorder(MixedModel(n, XI23), 17)
        f = _property_field(kind, n, np.random.default_rng(17))
        got = log_partition_exact_ising(d, f, 0.7).log_value
        assert got == pytest.approx(log_partition_exact_ising_blocked(d, f, 0.7),
                                    abs=1e-12)

    @pytest.mark.parametrize("n, degree, low_spins", [
        (24, 2, 12),  # the top of the degree-2 range
        (16, 3, 12),
        (20, 3, 12),  # the top of the degree-3 range
        (18, 4, 8),   # the top of the degree-4 range
        (15, 5, 6),   # the top of the degree-5 range
    ])
    def test_top_of_the_accepted_range(self, n, degree, low_spins):
        xi = CovarianceSeries((0.0,) * degree + (1.0,))
        d = sample_disorder(MixedModel(n, xi), 40 + n)
        f = field_linear(0.3, n)
        got = log_partition_exact_ising(d, f, 0.4).log_value
        assert got == pytest.approx(
            log_partition_exact_ising_blocked(d, f, 0.4, low_spins), abs=1e-10)

    @pytest.mark.parametrize("degree", [6, 7])
    def test_high_degrees(self, degree):
        n = 7
        xi = CovarianceSeries((0.1,) + (0.0,) * (degree - 2) + (0.5, 1.0))
        d = sample_disorder(MixedModel(n, xi), degree)
        f = field_quadratic_spike(0.4, n)
        got = log_partition_exact_ising(d, f, 0.6).log_value
        assert got == pytest.approx(log_partition_exact_ising_blocked(d, f, 0.6),
                                    abs=1e-12)


class TestArgumentChecks:
    """A field of another dimension, a negative beta and a NaN beta are
    DomainErrors, as for a TapProblem."""

    CALLS = {
        "exact": log_partition_exact_ising,
        "monte_carlo": lambda d, f, beta: log_partition_mc_sphere(d, f, beta, 1000, 0),
        "restricted": lambda d, f, beta: restricted_log_partition(
            ising_uniform(d.n), d, f, beta, lambda block: np.ones(len(block), bool)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("beta, field_n", [(-0.4, 6), (float("nan"), 6), (0.4, 5)])
    def test_rejected(self, call, beta, field_n):
        d = sample_disorder(MixedModel(6, XI2), 1)
        with pytest.raises(DomainError):
            self.CALLS[call](d, field_linear(0.3, field_n), beta)


class TestSphereMonteCarlo:
    def test_beta_zero(self):
        d = sample_disorder(MixedModel(8, XI2), 1)
        est = log_partition_mc_sphere(d, field_none(8), 0.0, 500, 7)
        assert est.log_value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_reproducible_in_seed(self):
        d = sample_disorder(MixedModel(8, XI2), 1)
        a = log_partition_mc_sphere(d, field_none(8), 0.3, 1000, 42)
        b = log_partition_mc_sphere(d, field_none(8), 0.3, 1000, 42)
        assert a.log_value == b.log_value

    def test_linear_field_matches_cap_quadrature(self):
        # zero disorder: Z = integral of exp(beta h N x) against the cap density
        n, h, beta, samples = 16, 0.3, 1.0, 100000
        d = sample_disorder(MixedModel(n, XI0), 0)
        est = log_partition_mc_sphere(d, field_linear(h, n), beta, samples, 3)
        log_c = -0.5 * np.log(np.pi) + gammaln(n / 2) - gammaln((n - 1) / 2)
        val, _ = quad(lambda x: math.exp(log_c + beta * h * n * x)
                      * (1 - x * x) ** ((n - 3) / 2), -1, 1, epsabs=1e-12)
        assert abs(est.log_value - math.log(val)) <= 3 * est.std_error + 1e-6

    def test_monotone_in_beta_within_error(self):
        d = sample_disorder(MixedModel(10, XI2), 5)
        lo = log_partition_mc_sphere(d, field_none(10), 0.0, 2000, 1)
        hi = log_partition_mc_sphere(d, field_none(10), 0.3, 2000, 1)
        assert hi.log_value >= lo.log_value - 3 * (lo.std_error + hi.std_error)

    @pytest.mark.parametrize("samples", [100, 8192, 8193, 20000])
    @pytest.mark.parametrize("kind", ["none", "linear", "spike"])
    def test_streamed_blocks_match_full_array_bitwise(self, samples, kind):
        # one block, exactly one full block, a one-row tail, several blocks
        n = 16
        d = sample_disorder(MixedModel(n, XI23), 12)
        f = FIELDS[kind](n)
        est = log_partition_mc_sphere(d, f, 0.4, samples, 29)
        assert (est.log_value, est.std_error) == oracle_log_partition_mc_sphere(
            d, f, 0.4, samples, 29)
        assert est.sample_count == samples

    def test_memory_does_not_grow_with_samples(self):
        # One full 1e5 x 16 draw holds two 12.8 MB arrays (normals and points)
        n = 16
        d = sample_disorder(MixedModel(n, XI2), 5)
        f = field_linear(0.3, n)
        log_partition_mc_sphere(d, f, 0.4, 100, 1)  # warm any lazy set-up
        tracemalloc.start()
        try:
            log_partition_mc_sphere(d, f, 0.4, 100000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("rows", [1, 1696, 8192])
    @pytest.mark.parametrize("n", [3, 16])
    def test_to_sphere_matches_linalg_norm_bitwise(self, rows, n):
        # chunked squares, sums and in-place roots against the np.linalg.norm
        # form; 1696 rows end in a ragged chunk
        z = _sphere_rng(rows + n).standard_normal((rows, n))
        expect = z * (math.sqrt(n) / np.linalg.norm(z, axis=1))[:, None]
        got = z.copy()
        assert _to_sphere(got) is got
        assert got.tobytes() == expect.tobytes()

    def test_to_sphere_allocates_no_block(self):
        z = _sphere_rng(3).standard_normal((8192, 16))
        tracemalloc.start()
        try:
            _to_sphere(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < z.nbytes // 4  # row-length vectors, no block-sized array

    def test_minimum_samples(self):
        d = sample_disorder(MixedModel(6, XI2), 5)
        with pytest.raises(DomainError):
            log_partition_mc_sphere(d, field_none(6), 0.1, 50, 0)

    def test_annealed_mean_and_markov_direction(self):
        # at h=0 the disorder average of Z is exp(N beta^2 xi(1) / 2)
        n, beta, reps = 6, 0.25, 3000
        model = MixedModel(n, XI2)
        rng = np.random.default_rng(77)
        sigma = normalize(rng.standard_normal(n))
        from tapbound.hamiltonian import energy
        zs = np.array([math.exp(beta * energy(sample_disorder(model, s), sigma))
                       for s in range(reps)])
        target = math.exp(beta ** 2 * n * model.series.evaluate(1.0) / 2)
        se = zs.std(ddof=1) / math.sqrt(reps)
        assert abs(zs.mean() - target) <= 5 * se
        # Markov direction: freq{log Z >= annealed + t N} <= exp(-t N) + 3 SE
        t = 0.2
        freq = float((np.log(zs) >= math.log(target) + t * n).mean())
        bound = math.exp(-t * n)
        se_f = math.sqrt(max(freq * (1 - freq), 1e-9) / reps)
        assert freq <= bound + 3 * se_f


def _grid_problems(count, n=16):
    """`count` problems of the bound-sphere grid, beta in {0.2, 0.4} and h in
    {0, 0.3}, each with its own disorder and one field object per h."""
    model = MixedModel(n, XI2)
    fields = {h: field_linear(h, n) for h in (0.0, 0.3)}
    cells = list(itertools.product((0.2, 0.4), (0.0, 0.3)))
    return [(sample_disorder(model, 500 + i), fields[cells[i % 4][1]], cells[i % 4][0])
            for i in range(count)]


class TestSphereMonteCarloMany:
    @pytest.mark.parametrize("samples", [100, 8192, 8193])
    @pytest.mark.parametrize("kind", ["none", "linear", "spike", "custom"])
    def test_block_of_one_is_the_single_problem_estimate(self, samples, kind):
        n = 16
        d = sample_disorder(MixedModel(n, XI23), 12)
        f = FIELDS[kind](n)
        (est,) = log_partition_mc_sphere_many([(d, f, 0.4)], samples, 29)
        assert (est.log_value, est.std_error) == oracle_log_partition_mc_sphere(
            d, f, 0.4, samples, 29)
        assert est == log_partition_mc_sphere(d, f, 0.4, samples, 29)

    def test_every_problem_scores_the_shared_draw(self):
        # each problem sees the points of a block of one at the block seed,
        # through chunks of 8192 // 5 rows: equal up to the rounding of the
        # stacked contraction, whatever field object it shares
        n, samples = 8, 3000
        model = MixedModel(n, XI23)
        linear = field_linear(0.3, n)
        fields = [linear, FIELDS["custom"](n), linear, FIELDS["spike"](n),
                  field_none(n)]
        problems = [(sample_disorder(model, 40 + i), f, 0.1 * (i + 1))
                    for i, f in enumerate(fields)]
        block = log_partition_mc_sphere_many(problems, samples, 11)
        for (d, f, beta), est in zip(problems, block):
            alone = log_partition_mc_sphere(d, f, beta, samples, 11)
            assert est.log_value == pytest.approx(alone.log_value, abs=1e-12)
            assert est.std_error == pytest.approx(alone.std_error, rel=1e-9)
            assert (est.sample_count, est.seed) == (samples, 11)

    def test_shared_and_per_problem_estimates_agree_in_law(self):
        # 64 problems on one draw against the oracle's own draw per problem:
        # z = (shared - own) / sqrt(SE_shared^2 + SE_own^2) is centred with
        # unit spread
        samples = 20000
        problems = _grid_problems(64)
        shared = log_partition_mc_sphere_many(problems, samples, 7)
        z = []
        for i, ((d, f, beta), est) in enumerate(zip(problems, shared)):
            value, se = oracle_log_partition_mc_sphere(d, f, beta, samples, 1000 + i)
            z.append((est.log_value - value) / math.hypot(est.std_error, se))
        assert abs(np.mean(z)) <= 3 / math.sqrt(len(z))
        assert 0.5 <= np.std(z, ddof=1) <= 1.5

    def test_scratch_does_not_grow_with_the_block(self):
        # the (R, samples) log-weights, and no more than the 8 MiB of one
        # problem's stream: the contraction scratch stays one chunk's size
        samples = 20000
        problems = _grid_problems(64)
        log_partition_mc_sphere_many(problems[:2], 100, 1)  # warm any lazy set-up
        tracemalloc.start()
        try:
            log_partition_mc_sphere_many(problems, samples, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(problems) * samples + 8 * 2 ** 20

    @staticmethod
    def bad_block(name):
        d6 = sample_disorder(MixedModel(6, XI2), 1)
        f6 = field_linear(0.3, 6)
        return {
            "empty": ([], 1000),
            "mixed n": ([(d6, f6, 0.3), (sample_disorder(MixedModel(8, XI2), 1),
                                         field_linear(0.3, 8), 0.3)], 1000),
            "mixed xi": ([(d6, f6, 0.3),
                          (sample_disorder(MixedModel(6, XI23), 1), f6, 0.3)], 1000),
            "few samples": ([(d6, f6, 0.3)], 99),
            "negative beta": ([(d6, f6, 0.3), (d6, f6, -0.4)], 1000),
            "NaN beta": ([(d6, f6, float("nan")), (d6, f6, 0.3)], 1000),
            "field of another n": ([(d6, f6, 0.3), (d6, field_linear(0.3, 5), 0.3)],
                                   1000),
        }[name]

    @pytest.mark.parametrize("name", ["empty", "mixed n", "mixed xi", "few samples",
                                      "negative beta", "NaN beta",
                                      "field of another n"])
    def test_rejected_blocks(self, name):
        problems, samples = self.bad_block(name)
        with pytest.raises(DomainError):
            log_partition_mc_sphere_many(problems, samples, 0)


class TestRestricted:
    def test_trivial_predicates(self):
        n = 8
        d = sample_disorder(MixedModel(n, XI2), 3)
        f = field_linear(0.2, n)
        E = ising_uniform(n)
        full = restricted_log_partition(E, d, f, 0.3, lambda b: np.ones(len(b), bool))
        none = restricted_log_partition(E, d, f, 0.3, lambda b: np.zeros(len(b), bool))
        exact = log_partition_exact_ising(d, f, 0.3)
        assert full.log_value == pytest.approx(exact.log_value, abs=1e-10)
        assert none.log_value == -np.inf

    @pytest.mark.parametrize("n,cut", [(8, 0.3), (14, 0.5), (14, 1.0)])
    def test_count_and_value_match_a_direct_masked_sum(self, n, cut):
        # a half-space predicate; at N = 14 the atoms span two 8,192-row
        # chunks, and the last cut passes no atom of the second one
        d = sample_disorder(MixedModel(n, XI23), 40 + n)
        f = field_quadratic_spike(0.3, n)
        E = ising_uniform(n)
        w = np.random.default_rng(n).standard_normal(n)

        def predicate(block):
            return block @ w / n > cut

        got = restricted_log_partition(E, d, f, 0.35, predicate)
        pts, wts = E.atoms()
        members = pts[predicate(pts.astype(np.float64))].astype(np.float64)
        assert got.effective_count == len(members) > 0
        assert got.sample_count == len(pts)
        x = (0.35 * (oracle_energy_many(d, members) + f.value_many(members))
             + np.log(wts[predicate(pts.astype(np.float64))]))
        top = x.max()
        direct = top + math.log(math.fsum(np.exp(x - top)))
        assert got.log_value == pytest.approx(direct, abs=1e-12)

    def test_cover_union_dominates_partition(self):
        # sum over a classified cover's regions of restricted Z >= Z
        n, eps, eta, delta, beta = 10, 0.1, 0.8, 0.2, 0.3
        model = MixedModel(n, XI2)
        d = sample_disorder(model, 31)
        f = field_linear(0.25, n)
        E = ising_uniform(n)
        builder = CoverBuilder(d, E, f, eps, delta)
        atoms, _ = E.atoms()
        nodes = {}
        for s in atoms.astype(np.float64):
            alpha, node = builder.classify(s, eta)
            nodes.setdefault(alpha.blocks, node)
        from tapbound.partition import node_member_mask
        parts = [restricted_log_partition(
            E, d, f, beta, lambda b, nd=nd: node_member_mask(nd, b))
            for nd in nodes.values()]
        total = np.logaddexp.reduce([p.log_value for p in parts])
        z = log_partition_exact_ising(d, f, beta).log_value
        assert total >= z - 1e-10

    @pytest.mark.parametrize("call", [
        lambda E, d: restricted_log_partition(
            E, d, field_none(E.n), 0.2, lambda b: np.ones(len(b), bool)),
        lambda E, d: slice_measures(E, CoverBuilder(
            d, E, field_linear(0.2, E.n), 0.1, 0.2).build(
                IncrementIndex(((0,),), 0.1), eta=0.5)),
    ], ids=["restricted_log_partition", "slice_measures"])
    def test_sphere_measure_unsupported(self, call):
        # only atomic measures have restrictions; the sphere has no atoms
        E = sphere_uniform(8)
        with pytest.raises(UnsupportedOperationError):
            call(E, sample_disorder(MixedModel(8, XI2), 3))


class TestSliceMeasures:
    def test_full_support_node(self):
        # all atoms of a tight point cloud land in one region: mass 1
        n = 6
        base = normalize(np.ones(n))
        rng = np.random.default_rng(8)
        pts = []
        for _ in range(5):
            v = base + 0.001 * rng.standard_normal(n)
            pts.append(normalize(v))
        E = point_cloud(np.array(pts), np.full(5, 0.2))
        model = MixedModel(n, XI2)
        d = sample_disorder(model, 17)
        builder = CoverBuilder(d, E, field_linear(0.2, n), 0.1, 0.2)
        alpha, node = builder.classify(np.array(pts[0]), eta=0.9)
        out = slice_measures(E, node)
        assert out.mass == pytest.approx(1.0, abs=1e-12)
        # the conditioned weights are the measure's own
        assert np.allclose(out.thin_pushforward.weights, E.weights)

    def test_empty_region_flagged(self):
        n = 6
        E = ising_uniform(n)
        d = sample_disorder(MixedModel(n, XI2), 18)
        builder = CoverBuilder(d, E, field_linear(0.2, n), 0.01, 0.2)
        # a level-1 cell no ising atom can occupy (atom sums are multiples of 2/6)
        node = builder.build(IncrementIndex(((9,),), 0.01), eta=0.05)
        out = slice_measures(E, node)
        assert out.mass == 0.0 and out.thin_pushforward is None

    def test_pushforward_lands_on_slice_shell(self):
        n = 10
        E = ising_uniform(n)
        d = sample_disorder(MixedModel(n, XI2), 19)
        builder = CoverBuilder(d, E, field_linear(0.3, n), 0.1, 0.2)
        sigma = E.atoms()[0][7].astype(np.float64)
        alpha, node = builder.classify(sigma, eta=0.8)
        out = slice_measures(E, node)
        assert out.mass > 0.0
        radii = (out.thin_pushforward.points ** 2).sum(axis=1) / n
        target = 1 - node.q
        assert np.allclose(radii[radii > 1e-12], target, atol=1e-9)

    def test_pushforward_rejects_points_off_the_shell(self):
        q = 0.36
        shell = 0.8 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
        image = ThinPushforward(np.vstack([shell, np.zeros(4)]), np.ones(3), q)
        assert image.weights.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DomainError):  # unit sphere, not the 1 - q shell
            ThinPushforward(shell / 0.8, np.ones(2), q)
        with pytest.raises(DomainError):
            ThinPushforward(0.5 * shell, np.ones(2), q)
        with pytest.raises(DomainError):
            ThinPushforward(shell, np.array([1.0, 0.0]), q)
        with pytest.raises(DomainError):
            ThinPushforward(shell, np.ones(3), q)

    def test_slice_entropy_bound_direction(self):
        # exact mass of E_alpha <= exp(entropy surrogate at m_alpha + delta)
        n, eps, delta = 10, 0.000625, 0.1
        eta = 0.025
        E = ising_uniform(n)
        d = sample_disorder(MixedModel(n, XI2), 20)
        builder = CoverBuilder(d, E, field_linear(0.25, n), eps, delta)
        atoms, _ = E.atoms()
        rng = np.random.default_rng(9)
        for idx in rng.choice(len(atoms), size=5, replace=False):
            sigma = atoms[idx].astype(np.float64)
            alpha, node = builder.classify(sigma, eta)
            out = slice_measures(E, node)
            upper = general_entropy_upper(E, node.m, delta,
                                          extra_directions=builder.field.basis)
            assert math.log(out.mass) <= upper + delta + 1e-10


class TestSerialization:
    def test_exact_estimate_rejects_nonzero_error(self):
        with pytest.raises(DomainError):
            PartitionEstimate(0.0, 0.1, "exact_enumeration", 4)
