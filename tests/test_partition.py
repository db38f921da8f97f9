"""Exact and Monte Carlo partition functions, restrictions, slice measures."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from tapbound.covariance import CovarianceSeries
from tapbound.cover import CoverBuilder, IncrementIndex
from tapbound.entropy import general_entropy_upper, ising_uniform, point_cloud, sphere_uniform
from tapbound.errors import DomainError, ResourceBudgetError
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
    PartitionEstimate,
    log_partition_exact_ising,
    log_partition_mc_sphere,
    restricted_log_partition,
    slice_measures,
)

from oracles import oracle_energy_many, oracle_log_partition_ising

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
        d = sample_disorder(MixedModel(18, XI23), 0)
        with pytest.raises(ResourceBudgetError):
            log_partition_exact_ising(d, field_none(18), 0.1)

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
    """The blocked sum against the one-configuration-at-a-time oracle."""

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
        # N = 14: four blocks of the 2^12 low-spin patterns
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

    def test_sphere_restricted_reports_effective_count(self):
        d = sample_disorder(MixedModel(8, XI2), 3)
        E = sphere_uniform(8)
        u = np.zeros(8)
        u[0] = 1.0
        est = restricted_log_partition(E, d, field_none(8), 0.2,
                                       lambda b: b @ u > 0, mc_samples=2000)
        assert 0 < est.effective_count < 2000


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
        assert np.allclose(out.conditional.weights, E.weights)

    def test_empty_region_flagged(self):
        n = 6
        E = ising_uniform(n)
        d = sample_disorder(MixedModel(n, XI2), 18)
        builder = CoverBuilder(d, E, field_linear(0.2, n), 0.01, 0.2)
        # a level-1 cell no ising atom can occupy (atom sums are multiples of 2/6)
        node = builder.build(IncrementIndex(((9,),), 0.01), eta=0.05)
        out = slice_measures(E, node)
        assert out.empty and out.mass == 0.0 and out.conditional is None

    def test_pushforward_lands_on_slice_shell(self):
        n = 10
        E = ising_uniform(n)
        d = sample_disorder(MixedModel(n, XI2), 19)
        builder = CoverBuilder(d, E, field_linear(0.3, n), 0.1, 0.2)
        sigma = E.atoms()[0][7].astype(np.float64)
        alpha, node = builder.classify(sigma, eta=0.8)
        out = slice_measures(E, node)
        assert not out.empty
        radii = (out.thin_pushforward.points ** 2).sum(axis=1) / n
        target = 1 - node.q
        assert np.allclose(radii[radii > 1e-12], target, atol=1e-9)

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
    def test_json_row(self):
        est = PartitionEstimate(-1.25, 0.01, "monte_carlo", 1000, seed=5)
        row = json.loads(est.to_json_row())
        assert row == {"log_value": -1.25, "std_error": 0.01,
                       "method": "monte_carlo", "samples": 1000, "seed": 5}

    def test_exact_estimate_rejects_nonzero_error(self):
        with pytest.raises(DomainError):
            PartitionEstimate(0.0, 0.1, "exact_enumeration", 4)
