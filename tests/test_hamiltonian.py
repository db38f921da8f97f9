"""Law and mechanics of the Gaussian field: sampling, energies, gradients, recentering."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapbound.covariance import CovarianceSeries
from tapbound.cover import CoverBuilder
from tapbound.entropy import ising_uniform
from tapbound.errors import DomainError, ResourceBudgetError
from tapbound.geometry import inner, norm, normalize
from tapbound.hamiltonian import (
    ExternalField,
    MixedModel,
    _energy_rows,
    _gradient_rows,
    energy,
    energy_many,
    field_linear,
    field_quadratic_spike,
    field_none,
    gradient,
    gradient_many,
    hessian_many,
    recentered_energy,
    sample_disorder,
    sample_disorders,
)
from tapbound.partition import (
    PartitionEstimate,
    log_partition_exact_ising,
    log_partition_mc_sphere,
    log_partition_mc_sphere_many,
    restricted_log_partition,
)
from tapbound.tap import TapProblem

from oracles import (
    oracle_energy,
    oracle_energy_many,
    oracle_energy_many_blocked,
    oracle_gradient,
    oracle_gradient_many_blocked,
)

XI2 = CovarianceSeries((0.0, 0.0, 1.0))
XI23 = CovarianceSeries((0.0, 0.0, 1.0, 0.5))


def unit_vector(rng, n):
    v = rng.standard_normal(n)
    return normalize(v)


def mc_cov(x, y):
    """Sample covariance of centered sequences plus its standard error."""
    prod = x * y
    c = prod.mean()
    se = prod.std(ddof=1) / np.sqrt(len(prod))
    return c, se


class TestSampling:
    def test_zero_series_has_no_tensors_and_zero_energy(self):
        model = MixedModel(6, CovarianceSeries((0.0,)))
        d = sample_disorder(model, 5)
        assert d.tensors == {}
        assert energy(d, np.zeros(6)) == 0.0
        assert energy(d, np.ones(6)) == 0.0

    def test_same_seed_reproduces_bitwise(self):
        model = MixedModel(5, XI23)
        d1 = sample_disorder(model, 99)
        d2 = sample_disorder(model, 99)
        for p in d1.tensors:
            assert np.array_equal(np.asarray(d1.tensors[p]), np.asarray(d2.tensors[p]))

    def test_different_seeds_differ(self):
        model = MixedModel(5, XI2)
        d1 = sample_disorder(model, 1)
        d2 = sample_disorder(model, 2)
        assert not np.array_equal(d1.tensors[2], d2.tensors[2])

    def test_budget_error_reports_requirement(self):
        model = MixedModel(64, CovarianceSeries((0.0, 0.0, 0.0, 1.0)),
                           tensor_budget_bytes=1024)
        with pytest.raises(ResourceBudgetError) as err:
            sample_disorder(model, 0)
        assert err.value.required == 8 * 64 ** 3

    def test_degree_cap(self):
        # No degree cap: the tensor budget alone bounds a degree, so a
        # degree-5 xi samples at n = 4 and its kernels match the einsum oracle
        model = MixedModel(4, CovarianceSeries((0.0,) * 5 + (1.0,)))
        d = sample_disorder(model, 0)
        assert d.tensors[5][0].shape == (4,) * 5
        X = ball_rows(np.random.default_rng(5), 6, 4, on_sphere=False)
        assert_rel_close(energy_many(d, X), oracle_energy_many(d, X))
        for sigma in X:
            assert_rel_close(energy(d, sigma), oracle_energy(d, sigma))
            assert_rel_close(gradient(d, sigma), oracle_gradient(d, sigma))


class TestEnergyAndGradient:
    def test_pure_linear_is_dot_product(self):
        model = MixedModel(8, CovarianceSeries((0.0, 1.0)))
        d = sample_disorder(model, 3)
        rng = np.random.default_rng(0)
        sigma = unit_vector(rng, 8)
        assert energy(d, sigma) == pytest.approx(float(d.tensors[1][0] @ sigma), rel=1e-14)
        assert np.allclose(gradient(d, 0.5 * sigma), d.tensors[1][0])

    def test_pure_p2_gradient_zero_at_origin(self):
        d = sample_disorder(MixedModel(8, XI23), 3)
        assert np.allclose(gradient(d, np.zeros(8)), 0.0)

    def test_domain_checks(self):
        d = sample_disorder(MixedModel(4, XI2), 0)
        with pytest.raises(DomainError):
            energy(d, 1.1 * np.ones(4))
        with pytest.raises(DomainError):
            gradient(d, np.ones(4))  # on the sphere, not inside

    def test_nan_entry_rejected(self):
        d = sample_disorder(MixedModel(4, XI23), 0)
        m = np.array([0.1, np.nan, 0.0, 0.2])
        # a NaN centre fails the open-ball check, a NaN row the closed-ball one
        for call in (lambda: energy(d, m), lambda: gradient(d, m),
                     lambda: recentered_energy(d, m, np.zeros((1, 4))),
                     lambda: recentered_energy(d, np.zeros(4), np.vstack([np.zeros(4), m]))):
            with pytest.raises(DomainError):
                call()

    def test_gradient_matches_central_differences(self):
        # 100 random (disorder, sigma): relative error <= 1e-6, step 1e-5
        rng = np.random.default_rng(42)
        step = 1e-5
        for trial in range(100):
            n = int(rng.integers(3, 9))
            model = MixedModel(n, XI23)
            d = sample_disorder(model, int(rng.integers(1 << 31)))
            sigma = 0.8 * unit_vector(rng, n) * rng.uniform(0.2, 1.0)
            g = gradient(d, sigma)
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd[i] = (energy(d, sigma + e) - energy(d, sigma - e)) / (2 * step)
            scale = max(1.0, float(np.abs(g).max()))
            assert np.abs(g - fd).max() / scale < 1e-6

    def test_energy_many_matches_scalar(self):
        d = sample_disorder(MixedModel(6, XI23), 11)
        rng = np.random.default_rng(1)
        X = np.array([0.9 * unit_vector(rng, 6) for _ in range(7)])
        batch = energy_many(d, X)
        single = np.array([energy(d, x) for x in X])
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)


SERIES = {
    "p0": (1.3,),
    "p1": (0.0, 1.0),
    "p2": (0.0, 0.0, 1.0),
    "p3": (0.0, 0.0, 0.0, 1.0),
    "p4": (0.0, 0.0, 0.0, 0.0, 1.0),
    "mixed-2-3": (0.0, 0.0, 1.0, 0.5),
    "mixed-all": (0.4, 0.3, 1.0, 0.5, 0.25),
}


def ball_rows(rng, rows, n, on_sphere):
    z = rng.standard_normal((rows, n))
    radii = 1.0 if on_sphere else rng.uniform(0.05, 0.99, size=(rows, 1))
    return z * radii / np.sqrt((z ** 2).sum(axis=1, keepdims=True) / n)


def assert_rel_close(got, expect, rel=1e-12):
    scale = max(1.0, float(np.abs(expect).max()))
    assert float(np.abs(np.asarray(got) - expect).max()) <= rel * scale


def central_jacobian(grad_rows, X, step=1e-5):
    """Central differences of a row-wise gradient: entry [r, i] is the
    derivative of grad_rows at row r along coordinate i."""
    n = X.shape[1]
    out = np.empty((len(X), n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        out[:, i] = (grad_rows(X + e) - grad_rows(X - e)) / (2 * step)
    return out


class TestHessian:
    @pytest.mark.parametrize("xi", [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                                    (0.0, 0.0, 0.0, 0.0, 1.0), (0.3, 0.5, 1.0, 0.5, 0.25)],
                             ids=["p2", "p3", "p4", "p0-4"])
    def test_matches_central_differences_of_the_gradient(self, xi):
        # one row and a block of rows of one sample, at interior points
        rng = np.random.default_rng(len(xi))
        for n in (1, 3, 7):
            d = sample_disorder(MixedModel(n, CovarianceSeries(xi)), 60 + n)
            X = np.array([0.8 * rng.uniform(0.1, 1.0) * unit_vector(rng, n)
                          for _ in range(6)])
            block = hessian_many(d, X)
            assert block.shape == (6, n, n)
            fd = central_jacobian(lambda Y: gradient_many(d, Y), X)
            scale = max(1.0, float(np.abs(block).max()))
            assert np.abs(block - fd).max() / scale < 1e-6
            for x, h in zip(X, block):
                one = hessian_many(d, x[None])[0]
                assert np.abs(one - h).max() <= 1e-13 * scale
                assert np.abs(one - one.T).max() <= 1e-13 * scale

    def test_degree_two_is_the_symmetrized_tensor(self):
        n = 5
        d = sample_disorder(MixedModel(n, XI2), 3)
        g = d.tensors[2][0]
        X = np.random.default_rng(4).uniform(-0.5, 0.5, (3, n))
        expect = d.model.scale(2) * (g + g.T)
        assert all(np.array_equal(h, expect) for h in hessian_many(d, X))

    def test_degrees_below_two_have_none(self):
        d = sample_disorder(MixedModel(4, CovarianceSeries((0.5, 1.0))), 2)
        assert d.hessian_terms == ()
        assert np.array_equal(hessian_many(d, np.zeros((2, 4))), np.zeros((2, 4, 4)))


class TestKernelMatchesEinsumOracle:
    """The degree-generic contraction against per-degree einsum contractions."""

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("rows", [1, 20, 8192, 8193])
    @pytest.mark.parametrize("on_sphere", [False, True])
    def test_energy_many(self, name, rows, on_sphere):
        n = 5 if rows > 20 and name in ("p4", "mixed-all") else 7
        d = sample_disorder(MixedModel(n, CovarianceSeries(SERIES[name])), rows)
        X = ball_rows(np.random.default_rng(rows), rows, n, on_sphere)
        assert_rel_close(energy_many(d, X), oracle_energy_many(d, X))

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("on_sphere", [False, True])
    def test_energy_and_gradient(self, name, on_sphere):
        rng = np.random.default_rng(17)
        for n in (1, 2, 6, 9):
            d = sample_disorder(MixedModel(n, CovarianceSeries(SERIES[name])), n)
            for sigma in ball_rows(rng, 8, n, on_sphere):
                assert_rel_close(energy(d, sigma), oracle_energy(d, sigma))
                if not on_sphere:  # the gradient is defined inside the ball
                    assert_rel_close(gradient(d, sigma), oracle_gradient(d, sigma))

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("rows", [1, 6, 8193])
    def test_gradient_many(self, name, rows):
        n = 5 if rows > 6 and name in ("p4", "mixed-all") else 7
        d = sample_disorder(MixedModel(n, CovarianceSeries(SERIES[name])), rows)
        X = ball_rows(np.random.default_rng(rows), rows, n, on_sphere=False)
        got = gradient_many(d, X)
        assert got.shape == (rows, n)
        assert_rel_close(got, np.array([oracle_gradient(d, x) for x in X]))

    def test_energy_many_memory_is_chunked(self):
        # An unchunked 1e5 x 16 contraction holds two 12.8 MB temporaries
        n = 16
        d = sample_disorder(MixedModel(n, XI2), 5)
        X = ball_rows(np.random.default_rng(5), 100000, n, on_sphere=True)
        tracemalloc.start()
        try:
            energy_many(d, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    @pytest.mark.parametrize("degree, n, blocks", [(2, 16, 1.5), (3, 8, 10.0)])
    def test_one_block_sized_temporary_is_live(self, degree, n, blocks):
        # One 8192-row block: the matmul's (rows x N^{p-1}) result is the
        # only block-sized array. A multiply out of place adds a second one
        # and peaks at 2.19 and 17.25 blocks; in place, 1.19 and 9.25.
        d = sample_disorder(MixedModel(n, CovarianceSeries((0.0,) * degree + (1.0,))), 5)
        X = ball_rows(np.random.default_rng(5), 8192, n, on_sphere=True)
        tracemalloc.start()
        try:
            energy_many(d, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < blocks * X.nbytes


class TestKernelMatchesBlockedOracle:
    """The in-place row contraction against the out-of-place one it
    replaced: the same ufuncs in the same order, so equal bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @example(coefficients=[0.0, 1.0], n=6, rows=8193, on_sphere=False, seed=1)
    @example(coefficients=[0.0, 0.0, 1.0], n=16, rows=8192, on_sphere=True, seed=2)
    @example(coefficients=[0.0, 0.0, 0.0, 1.0], n=8, rows=8193, on_sphere=False, seed=3)
    @example(coefficients=[0.0, 0.0, 0.0, 0.0, 1.0], n=5, rows=20000, on_sphere=False, seed=4)
    @example(coefficients=[0.4, 0.3, 1.0, 0.5, 0.25], n=6, rows=20000, on_sphere=True, seed=5)
    @given(coefficients=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                 min_size=2, max_size=5).filter(lambda c: any(c[1:])),
           n=st.integers(1, 6),
           rows=st.sampled_from([1, 7, 8192, 8193, 20000]),
           on_sphere=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_energy_and_gradient_many_bit_equal(self, coefficients, n, rows,
                                                on_sphere, seed):
        d = sample_disorder(MixedModel(n, CovarianceSeries(tuple(coefficients))), seed)
        X = ball_rows(np.random.default_rng(seed), rows, n, on_sphere)
        assert np.array_equal(energy_many(d, X), oracle_energy_many_blocked(d, X))
        assert np.array_equal(gradient_many(d, X), oracle_gradient_many_blocked(d, X))


class TestPointCallsAreOneRowCalls:
    """`energy` and `gradient` at a point run the row bodies on one row."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @example(coefficients=[0.0, 0.0, 0.0, 1.0], n=6, seed=1)
    @example(coefficients=[0.0, 0.0, 1.0, 0.5], n=8, seed=2)
    @example(coefficients=[0.5, 0.5, 1.0, 0.5, 0.25], n=3, seed=3)
    @example(coefficients=[0.0, 0.0, 0.0, 0.0, 1.0], n=1, seed=4)
    @given(coefficients=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                 min_size=1, max_size=5).filter(any),
           n=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_equal_to_the_row_calls(self, coefficients, n, seed):
        d = sample_disorder(MixedModel(n, CovarianceSeries(tuple(coefficients))), seed)
        for x in ball_rows(np.random.default_rng(seed), 4, n, on_sphere=False):
            assert energy(d, x) == energy_many(d, x[None])[0]
            assert gradient(d, x).tobytes() == gradient_many(d, x[None])[0].tobytes()


class TestRowShapes:
    """The row kernels take a (rows, N) array and nothing else."""

    @pytest.mark.parametrize("kernel", [energy_many, gradient_many, hessian_many])
    @pytest.mark.parametrize("shape", [(6,), (3, 7), (3, 5), (2, 3, 6), ()])
    def test_other_shapes_rejected(self, kernel, shape):
        d = sample_disorder(MixedModel(6, XI23), 1)
        with pytest.raises(DomainError):
            kernel(d, np.zeros(shape))

    @pytest.mark.parametrize("kernel", [energy_many, gradient_many, hessian_many])
    def test_no_rows_give_no_rows(self, kernel):
        d = sample_disorder(MixedModel(6, XI23), 1)
        assert len(kernel(d, np.zeros((0, 6)))) == 0


SAMPLE_KERNELS = {"energy": energy, "gradient": gradient, "energy_many": energy_many,
                  "gradient_many": gradient_many, "hessian_many": hessian_many}


def _mc_block_with(d):
    f = field_linear(0.3, d.n)
    return log_partition_mc_sphere_many(
        [(sample_disorder(d.model, 3), f, 0.5), (d, f, 0.5)], 100, 1)[-1]


GIBBS_ENTRY_POINTS = {
    "TapProblem": lambda d: TapProblem(d, field_linear(0.3, d.n), 0.5, "ising"),
    "log_partition_exact_ising":
        lambda d: log_partition_exact_ising(d, field_linear(0.3, d.n), 0.5),
    "log_partition_mc_sphere":
        lambda d: log_partition_mc_sphere(d, field_linear(0.3, d.n), 0.5, 100, 1),
    "log_partition_mc_sphere_many": _mc_block_with,
    "restricted_log_partition": lambda d: restricted_log_partition(
        ising_uniform(d.n), d, field_linear(0.3, d.n), 0.5,
        lambda X: np.ones(len(X), dtype=bool)),
    "CoverBuilder": lambda d: CoverBuilder(d, ising_uniform(d.n),
                                           field_linear(0.3, d.n), 0.5, 0.1),
}


class TestSampleKernelsTakeOneReplica:
    """The sample kernels return one replica's values, so a block of several
    replicas is a DomainError rather than its replica 0 alone."""

    @staticmethod
    def call(name, d):
        x = np.full(d.n, 0.5)  # normalized norm 0.5: inside the open ball
        return SAMPLE_KERNELS[name](d, x if name in ("energy", "gradient") else x[None])

    @pytest.mark.parametrize("name", sorted(SAMPLE_KERNELS))
    def test_block_of_several_rejected(self, name):
        block = sample_disorders(MixedModel(4, XI23), [1, 2, 3])
        with pytest.raises(DomainError):
            self.call(name, block)

    @pytest.mark.parametrize("name", sorted(SAMPLE_KERNELS))
    def test_block_of_one_is_its_sample(self, name):
        model = MixedModel(4, XI23)
        got = self.call(name, sample_disorders(model, [7]))
        assert np.array_equal(got, self.call(name, sample_disorder(model, 7)))

    @pytest.mark.parametrize("name", sorted(GIBBS_ENTRY_POINTS))
    def test_gibbs_entry_point_rejects_a_block_of_two(self, name):
        # each of these reads one sample's Gibbs measure; a block of two
        # would otherwise be read as its replica 0, or be stacked into the
        # Monte Carlo block as two problems
        with pytest.raises(DomainError):
            GIBBS_ENTRY_POINTS[name](sample_disorders(MixedModel(4, XI23), [1, 2]))

    @pytest.mark.parametrize("name", sorted(GIBBS_ENTRY_POINTS))
    def test_gibbs_entry_point_takes_a_block_of_one(self, name):
        model = MixedModel(4, XI23)
        got = GIBBS_ENTRY_POINTS[name](sample_disorders(model, [7]))
        alone = GIBBS_ENTRY_POINTS[name](sample_disorder(model, 7))
        if isinstance(got, PartitionEstimate):
            assert got == alone


class TestStackedKernelMatchesOracles:
    """The stacked kernels the law experiments run, on `sample_disorders`
    blocks: replica r of a block equals its own sample under the blocked
    oracles, byte for byte."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @example(coefficients=(0.0, 0.0, 1.0, 0.5, 0.0), n=16, replicas=65, rows=9, seed=1)
    @example(coefficients=(0.0, 0.0, 1.0, 0.0, 0.0), n=16, replicas=64, rows=9, seed=2)
    @example(coefficients=(0.5, 0.5, 0.0, 0.0, 1.0), n=16, replicas=65, rows=5, seed=3)
    @example(coefficients=(0.0, 0.0, 0.0, 1.0, 0.25), n=1, replicas=2, rows=1, seed=4)
    @given(coefficients=st.tuples(*[st.sampled_from([0.0, 0.5])] * 2,
                                  *[st.sampled_from([0.0, 0.25, 1.0])] * 3)
           .filter(lambda c: any(c[2:])),
           n=st.integers(1, 16),
           replicas=st.sampled_from([1, 2, 64, 65]),
           rows=st.sampled_from([1, 5, 9]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_block_replicas_equal_their_samples(self, coefficients, n, replicas,
                                                rows, seed):
        model = MixedModel(n, CovarianceSeries(coefficients))
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2 ** 64, size=replicas, dtype=np.uint64)
        block = sample_disorders(model, seeds)
        X = ball_rows(rng, rows, n, on_sphere=False)
        energies = _energy_rows(block, X)
        grads = _gradient_rows(block, X)
        assert grads.shape == (replicas, rows, n)
        for r, s in enumerate(seeds):
            d = sample_disorder(model, int(s))
            assert energies[r].tobytes() == oracle_energy_many_blocked(d, X).tobytes()
            assert grads[r].tobytes() == oracle_gradient_many_blocked(d, X).tobytes()


class TestCovarianceLaw:
    """Monte Carlo checks of the defining covariance and derivative formulas."""

    REPLICAS = 4000

    def _replicas(self, model, count, master=1234):
        return [sample_disorder(model, int(s)) for s in range(master, master + count)]

    def test_energy_covariance(self):
        n = 8
        model = MixedModel(n, XI2)
        rng = np.random.default_rng(5)
        s1, s2 = unit_vector(rng, n), unit_vector(rng, n)
        pts = np.array([s1, s2])
        vals = np.array([energy_many(d, pts) for d in self._replicas(model, self.REPLICAS)])
        c, se = mc_cov(vals[:, 0], vals[:, 1])
        expect = n * model.series.evaluate(inner(s1, s2))
        assert abs(c - expect) <= 5 * se

    def test_energy_variance_at_fixed_point(self):
        n = 8
        model = MixedModel(n, XI2)
        sigma = normalize(np.ones(n))
        vals = np.array([energy(d, sigma) for d in self._replicas(model, self.REPLICAS)])
        c, se = mc_cov(vals, vals)
        assert abs(c - n * model.series.evaluate(1.0)) <= 5 * se

    def test_gradient_covariances(self):
        # E[d_i H(m) d_j H(m')] = delta_ij xi'(<m,m'>) + m_j m'_i / N xi''(<m,m'>)
        n = 6
        model = MixedModel(n, XI23)
        rng = np.random.default_rng(6)
        m = 0.6 * unit_vector(rng, n)
        mp = 0.5 * unit_vector(rng, n)
        grads = np.array([
            np.concatenate([gradient(d, m), gradient(d, mp)])
            for d in self._replicas(model, self.REPLICAS)
        ])
        q = inner(m, mp)
        xi1, xi2 = model.series.evaluate(q, 1), model.series.evaluate(q, 2)
        for (i, j) in [(0, 0), (1, 1), (0, 3), (2, 1)]:
            c, se = mc_cov(grads[:, i], grads[:, n + j])
            expect = (i == j) * xi1 + m[j] * mp[i] / n * xi2
            assert abs(c - expect) <= 5 * se, (i, j)

    def test_energy_gradient_covariance(self):
        # E[H(sigma) d_i H(sigma')] = sigma_i xi'(<sigma, sigma'>)
        n = 6
        model = MixedModel(n, XI23)
        rng = np.random.default_rng(7)
        s = 0.7 * unit_vector(rng, n)
        sp = 0.6 * unit_vector(rng, n)
        rows = np.array([
            np.concatenate([[energy(d, s)], gradient(d, sp)])
            for d in self._replicas(model, self.REPLICAS)
        ])
        xi1 = model.series.evaluate(inner(s, sp), 1)
        for i in (0, 2, 5):
            c, se = mc_cov(rows[:, 0], rows[:, 1 + i])
            assert abs(c - s[i] * xi1) <= 5 * se


class TestRecentering:
    """`recentered_energy`, the one body of H^m(s) = H(m + s) - grad H(m) . s
    - H(m), over rows s and every replica of a disorder."""

    def test_zero_increment_gives_zero(self):
        d = sample_disorder(MixedModel(7, XI23), 21)
        rng = np.random.default_rng(2)
        m = 0.5 * unit_vector(rng, 7)
        out = recentered_energy(d, m, np.zeros((3, 7)))
        assert out.shape == (1, 3)
        assert np.allclose(out, 0.0, rtol=0.0, atol=1e-12)

    def test_recentering_at_origin_is_identity_for_pure_p2(self):
        d = sample_disorder(MixedModel(7, XI2), 22)
        rng = np.random.default_rng(3)
        S = np.array([rng.uniform(0.1, 0.9) * unit_vector(rng, 7) for _ in range(5)])
        assert np.allclose(recentered_energy(d, np.zeros(7), S)[0], energy_many(d, S),
                           rtol=1e-12, atol=0.0)

    def test_rows_match_the_defining_formula(self):
        # against the one-point energy and gradient, row by row, to 1e-12
        rng = np.random.default_rng(6)
        d = sample_disorder(MixedModel(6, CovarianceSeries((0.3, 0.5, 1.0, 0.5))), 24)
        m = 0.6 * unit_vector(rng, 6)
        S = np.array([0.3 * unit_vector(rng, 6) for _ in range(8)])
        got = recentered_energy(d, m, S)[0]
        expect = [energy(d, m + s) - gradient(d, m) @ s - energy(d, m) for s in S]
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_gradient_and_composition_identities(self):
        # grad H^a(b) = grad H(a+b) - grad H(a), and (H^a)^b = H^{a+b}, to 1e-10
        rng = np.random.default_rng(4)
        d = sample_disorder(MixedModel(6, XI23), 23)
        step = 1e-6
        shifts = step * np.eye(6)
        for _ in range(25):
            a = 0.35 * unit_vector(rng, 6) * rng.uniform(0.1, 1.0)
            b = 0.35 * unit_vector(rng, 6) * rng.uniform(0.1, 1.0)
            s = 0.2 * unit_vector(rng, 6)
            vals = recentered_energy(d, a, np.vstack([b + shifts, b - shifts]))[0]
            ga_b = (vals[:6] - vals[6:]) / (2 * step)
            assert np.allclose(ga_b, gradient(d, a + b) - gradient(d, a), atol=2e-6)
            at_bs, at_b = recentered_energy(d, a, np.array([b + s, b]))[0]
            lhs = at_bs - at_b - (gradient(d, a + b) - gradient(d, a)) @ s
            rhs = recentered_energy(d, a + b, s[None])[0, 0]
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_recentered_covariance_law(self):
        # Cov(H^m(s), H^m(s')) -> N xi_q(<s, s'>) for s, s' orthogonal to m
        n = 8
        model = MixedModel(n, XI2)
        m = np.zeros(n)
        m[0] = 0.5 * np.sqrt(n)  # ||m||^2 = 0.25
        q = 0.25
        rng = np.random.default_rng(8)
        s1 = np.sqrt(1 - q) * normalize(np.concatenate([[0.0], rng.standard_normal(n - 1)]))
        s2 = np.sqrt(1 - q) * normalize(np.concatenate([[0.0], rng.standard_normal(n - 1)]))
        d = sample_disorders(model, range(4000))
        rec = recentered_energy(d, m, np.array([s1, s2]))
        hm = _energy_rows(d, m[None])[:, 0]
        xi_q = model.series.recenter(q)
        c, se = mc_cov(rec[:, 0], rec[:, 1])
        assert abs(c - n * xi_q(inner(s1, s2))) <= 5 * se
        # independence of H(m) and the recentered field on the slice
        c0, se0 = mc_cov(rec[:, 0], hm)
        assert abs(c0) <= 5 * se0

    @pytest.mark.parametrize("coefficients, n, replicas", [
        ((0.0, 0.0, 1.0), 8, 3),
        ((0.5, 0.5, 1.0, 0.5), 6, 65),
        ((0.0, 0.0, 0.0, 1.0, 0.25), 4, 2),
        ((0.0, 1.0), 5, 1),
    ])
    def test_block_rows_equal_each_replica_sample(self, coefficients, n, replicas):
        model = MixedModel(n, CovarianceSeries(coefficients))
        rng = np.random.default_rng(replicas)
        seeds = rng.integers(0, 2 ** 64, size=replicas, dtype=np.uint64)
        m = 0.5 * unit_vector(rng, n)
        S = np.array([0.4 * unit_vector(rng, n) for _ in range(7)] + [np.zeros(n)])
        block = recentered_energy(sample_disorders(model, seeds), m, S)
        assert block.shape == (replicas, len(S))
        for r, seed in enumerate(seeds):
            alone = recentered_energy(sample_disorder(model, int(seed)), m, S)
            assert block[r].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("m, S", [
        (np.ones(4), np.zeros((1, 4))),  # m on the sphere, not inside
        (np.zeros(4), 1.01 * np.ones((2, 4))),  # m + s beyond the closed ball
        (np.zeros(4), np.zeros(4)),  # a vector, not rows
        (np.zeros(4), np.zeros((2, 3))),  # rows of another length
        (np.zeros(5), np.zeros((2, 4))),  # m of another length
    ], ids=["m-on-sphere", "row-outside", "not-rows", "row-length", "m-length"])
    def test_domain_errors(self, m, S):
        d = sample_disorder(MixedModel(4, XI23), 0)
        with pytest.raises(DomainError):
            recentered_energy(d, m, S)


FIELD_KINDS = ("none", "linear", "quadratic_spike")


class TestExternalField:
    def test_linear_value(self):
        f = field_linear(0.2, 4)
        sigma = np.ones(4)
        assert f.value_many(sigma[None])[0] == pytest.approx(0.8, abs=1e-15)

    def test_spike_vanishes_on_balanced(self):
        f = field_quadratic_spike(1.0, 4)
        assert f.value_many(np.array([[1.0, 1.0, -1.0, -1.0]]))[0] == 0.0

    def test_spike_value(self):
        f = field_quadratic_spike(0.5, 4)
        sigma = np.array([1.0, 1.0, 1.0, -1.0])  # sum = 2
        assert f.value_many(sigma[None])[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("kind", FIELD_KINDS)
    def test_value_uses_projection_coordinates_only(self, kind):
        n = 6
        rng = np.random.default_rng(9)
        basis = unit_vector(rng, n)[None]
        f = ExternalField(kind, n, h=0.7, basis=basis)
        sigmas = np.array([0.9 * unit_vector(rng, n) for _ in range(4)])
        proj = (sigmas @ basis[0] / n)[:, None] * basis[0]
        assert np.allclose(f.value_many(sigmas), f.value_many(proj),
                           rtol=1e-12, atol=1e-15)

    def test_gradient_many_matches_rows(self):
        # every row against the field's closed form
        n = 6
        rng = np.random.default_rng(11)
        X = np.array([0.8 * unit_vector(rng, n) for _ in range(5)])
        t = X.mean(axis=1)
        fields = [
            (field_none(n), np.zeros_like(X)),
            (field_linear(0.3, n), np.full_like(X, 0.3)),
            (field_quadratic_spike(0.7, n), np.repeat(2.0 * 0.7 * t[:, None], n, axis=1))]
        for f, expect in fields:
            got = f.gradient_many(X)
            assert got.shape == X.shape
            assert np.allclose(got, expect, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("kind", FIELD_KINDS)
    @pytest.mark.parametrize("n, basis", [
        (4, [[2.0, 0.0, 0.0, 0.0]]),
        (6, unit_vector(np.random.default_rng(13), 6)[None]),
    ], ids=["axis", "seeded"])
    def test_gradient_many_matches_central_differences_off_the_ones_basis(
            self, kind, n, basis):
        # the gradient follows the basis row the value reads, not ones
        f = ExternalField(kind, n, h=0.3, basis=basis)
        X = np.array([0.8 * unit_vector(np.random.default_rng(14 + r), n)
                      for r in range(5)])
        step = 1e-5
        fd = np.empty_like(X)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd[:, i] = (f.value_many(X + e) - f.value_many(X - e)) / (2 * step)
        assert np.allclose(f.gradient_many(X), fd, rtol=1e-8, atol=1e-9)

    def test_hessian_many_of_every_kind(self):
        # closed forms, and central differences of the gradient over every
        # coordinate, on the ones basis and on a seeded direction
        n = 6
        rng = np.random.default_rng(12)
        X = np.array([0.8 * unit_vector(rng, n) for _ in range(4)])
        ones = np.ones((n, n))
        u = unit_vector(rng, n)
        fields = [
            (field_none(n), np.zeros((4, n, n))),
            (field_linear(0.3, n), np.zeros((4, n, n))),
            (field_quadratic_spike(0.7, n), np.repeat((1.4 / n * ones)[None], 4, axis=0)),
            (ExternalField("linear", n, h=0.3, basis=u[None]), np.zeros((4, n, n))),
            (ExternalField("quadratic_spike", n, h=0.7, basis=u[None]),
             np.repeat((1.4 / n * np.outer(u, u))[None], 4, axis=0))]
        for f, expect in fields:
            got = f.hessian_many(X)
            assert got.shape == (4, n, n)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-15)
            fd = central_jacobian(f.gradient_many, X)
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: field_linear(v, 4),
        lambda v: field_quadratic_spike(v, 4),
        lambda v: ExternalField("none", 4, h=v, basis=np.ones((1, 4))),
    ], ids=["linear", "spike", "none"])
    def test_non_finite_h_rejected(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            ExternalField("custom", 4, basis=np.ones((1, 4)))

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(DomainError):
            ExternalField("none", 3, basis=np.array([[1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("basis", [[[2.0, 0.0]], [[2.0, 0.0, 0.0, 0.0, 0.0]],
                                       np.full((1, 1, 4), 1.0)])
    def test_basis_not_k_by_n_rejected(self, basis):
        # the first two rows pass the Gram check at n = 4
        with pytest.raises(DomainError):
            ExternalField("linear", 4, h=0.3, basis=basis)

    @pytest.mark.parametrize("kind", ["linear", "quadratic_spike"])
    def test_field_of_one_direction_rejects_other_basis_sizes(self, kind):
        # these kinds read u_1 alone, so a second row would give the cover a
        # 2-D field subspace that the field itself never sees
        n = 4
        basis = np.zeros((2, n))
        basis[0, 0] = basis[1, 1] = np.sqrt(n)
        with pytest.raises(DomainError):
            ExternalField(kind, n, h=0.3, basis=basis)
        with pytest.raises(DomainError):
            ExternalField(kind, n, h=0.3, basis=np.zeros((0, n)))
        assert ExternalField(kind, n, h=0.3, basis=basis[:1]).K == 1
        assert ExternalField("none", n, basis=basis).K == 2

    def test_basis_tolerance_is_absolute_1e_12(self):
        # a row scaled by 1 + 1e-8 moves its Gram diagonal by 2e-8, inside a
        # relative 1e-5 but far outside the promised 1e-12
        n = 4
        basis = np.zeros((2, n))
        basis[0, 0] = basis[1, 1] = np.sqrt(n)
        ExternalField("none", n, basis=basis)
        scaled = basis.copy()
        scaled[1] *= 1 + 1e-8
        with pytest.raises(DomainError):
            ExternalField("none", n, basis=scaled)
        with pytest.raises(DomainError):
            ExternalField("none", n, basis=np.full((1, n), np.nan))

    def test_basis_is_a_read_only_copy(self):
        n = 5
        basis = np.ones((1, n))
        f = ExternalField("none", n, basis=basis)
        for field in (f, field_none(n), field_linear(0.3, n),
                      field_quadratic_spike(0.3, n)):
            with pytest.raises(ValueError):
                field.basis[0, 0] = 2.0
        basis[0, 0] = 2.0  # the caller's array stays writable and unshared
        assert f.basis[0, 0] == 1.0


def _ball_points(n, count, seed):
    """`count` seeded points uniform in the ball of radius 0.999."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    z = rng.standard_normal((count, n))
    radii = 0.999 * rng.uniform(size=count) ** (1.0 / n)
    return z * (radii / np.sqrt((z ** 2).sum(axis=1) / n))[:, None]


class TestEffectiveFieldAndProbes:
    def test_probe_zero_field(self):
        d = sample_disorder(MixedModel(6, CovarianceSeries((0.0,))), 0)
        pts = _ball_points(6, 10, 0)
        assert max(norm(gradient(d, x)) for x in pts) == 0.0
        assert not energy_many(d, pts).any()

    def test_probe_pure_linear_exact(self):
        model = MixedModel(6, CovarianceSeries((0.0, 2.0)))
        d = sample_disorder(model, 77)
        max_grad_norm = max(norm(gradient(d, x)) for x in _ball_points(6, 5, 1))
        assert max_grad_norm == pytest.approx(np.sqrt(2.0) * norm(d.tensors[1][0]), rel=1e-12)

    def test_gradient_tail_bound_frequency(self):
        # The max over probe points under-estimates the sup, so the Gaussian
        # tail bound must hold empirically:
        # freq{max_grad >= u} <= exp(-u^2 N / (8 (xi''+xi'))) + 3 SE
        n = 12
        model = MixedModel(n, XI2)
        u = 10.0 * np.sqrt(model.series.evaluate(1.0, 2) + model.series.evaluate(1.0, 1))
        hits = 0
        reps = 200
        for seed in range(reps):
            d = sample_disorder(model, seed)
            if max(norm(gradient(d, x)) for x in _ball_points(n, 20, seed)) >= u:
                hits += 1
        freq = hits / reps
        bound = np.exp(-u ** 2 * n / (8 * (model.series.evaluate(1.0, 2)
                                           + model.series.evaluate(1.0, 1))))
        se = np.sqrt(max(freq * (1 - freq), 1e-9) / reps)
        assert freq <= bound + 3 * se
