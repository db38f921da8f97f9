"""Law and mechanics of the Gaussian field: sampling, energies, gradients, recentering."""

import tracemalloc

import numpy as np
import pytest

from tapbound.covariance import CovarianceSeries
from tapbound.errors import DomainError, ResourceBudgetError
from tapbound.geometry import inner, norm, normalize
from tapbound.hamiltonian import (
    MixedModel,
    effective_field,
    energy,
    energy_many,
    field_custom,
    field_linear,
    field_quadratic_spike,
    field_value,
    gradient,
    lipschitz_probe,
    load_disorder,
    recentered_energy,
    sample_disorder,
    save_disorder,
)

from oracles import oracle_energy, oracle_energy_many, oracle_gradient

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
        model = MixedModel(6, CovarianceSeries((0.0,)), beta=1.0)
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
        model = MixedModel(4, CovarianceSeries((0.0,) * 5 + (1.0,)))
        with pytest.raises(DomainError):
            sample_disorder(model, 0)


class TestEnergyAndGradient:
    def test_pure_linear_is_dot_product(self):
        model = MixedModel(8, CovarianceSeries((0.0, 1.0)))
        d = sample_disorder(model, 3)
        rng = np.random.default_rng(0)
        sigma = unit_vector(rng, 8)
        assert energy(d, sigma) == pytest.approx(float(d.tensors[1] @ sigma), rel=1e-14)
        assert np.allclose(gradient(d, 0.5 * sigma), d.tensors[1])

    def test_pure_p2_gradient_zero_at_origin(self):
        d = sample_disorder(MixedModel(8, XI23), 3)
        assert np.allclose(gradient(d, np.zeros(8)), 0.0)

    def test_domain_checks(self):
        d = sample_disorder(MixedModel(4, XI2), 0)
        with pytest.raises(DomainError):
            energy(d, 1.1 * np.ones(4))
        with pytest.raises(DomainError):
            gradient(d, np.ones(4))  # on the sphere, not inside

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

    def test_degree_two_gradient_is_bit_identical(self):
        # Two plain matvecs, g @ sigma and sigma @ g, as before the kernel
        rng = np.random.default_rng(3)
        for n in (3, 12, 16):
            d = sample_disorder(MixedModel(n, XI2), n)
            for sigma in ball_rows(rng, 20, n, on_sphere=False):
                assert np.array_equal(gradient(d, sigma), oracle_gradient(d, sigma))

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
    def test_zero_increment_gives_zero(self):
        d = sample_disorder(MixedModel(7, XI23), 21)
        rng = np.random.default_rng(2)
        m = 0.5 * unit_vector(rng, 7)
        assert recentered_energy(d, m, np.zeros(7)) == pytest.approx(0.0, abs=1e-12)

    def test_recentering_at_origin_is_identity_for_pure_p2(self):
        d = sample_disorder(MixedModel(7, XI2), 22)
        rng = np.random.default_rng(3)
        s = 0.9 * unit_vector(rng, 7)
        assert recentered_energy(d, np.zeros(7), s) == pytest.approx(energy(d, s), rel=1e-12)

    def test_gradient_and_composition_identities(self):
        # grad H^a(b) = grad H(a+b) - grad H(a), and (H^a)^b = H^{a+b}, to 1e-10
        rng = np.random.default_rng(4)
        d = sample_disorder(MixedModel(6, XI23), 23)
        for _ in range(25):
            a = 0.35 * unit_vector(rng, 6) * rng.uniform(0.1, 1.0)
            b = 0.35 * unit_vector(rng, 6) * rng.uniform(0.1, 1.0)
            s = 0.2 * unit_vector(rng, 6)
            step = 1e-6
            ga_b = np.empty(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = step
                ga_b[i] = (recentered_energy(d, a, b + e) - recentered_energy(d, a, b - e)) / (2 * step)
            assert np.allclose(ga_b, gradient(d, a + b) - gradient(d, a), atol=2e-6)
            lhs = (recentered_energy(d, a, b + s) - recentered_energy(d, a, b)
                   - (gradient(d, a + b) - gradient(d, a)) @ s)
            rhs = recentered_energy(d, a + b, s)
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
        rows = []
        for seed in range(4000):
            d = sample_disorder(model, seed)
            rows.append([recentered_energy(d, m, s1), recentered_energy(d, m, s2),
                         energy(d, m)])
        rows = np.array(rows)
        xi_q = model.series.recenter(q)
        c, se = mc_cov(rows[:, 0], rows[:, 1])
        assert abs(c - n * xi_q(inner(s1, s2))) <= 5 * se
        # independence of H(m) and the recentered field on the slice
        c0, se0 = mc_cov(rows[:, 0], rows[:, 2])
        assert abs(c0) <= 5 * se0


class TestExternalField:
    def test_linear_value(self):
        f = field_linear(0.2, 4)
        sigma = np.ones(4)
        assert field_value(f, sigma) == pytest.approx(0.8, abs=1e-15)

    def test_spike_vanishes_on_balanced(self):
        f = field_quadratic_spike(1.0, 4)
        assert field_value(f, np.array([1.0, 1.0, -1.0, -1.0])) == 0.0

    def test_spike_value(self):
        f = field_quadratic_spike(0.5, 4)
        sigma = np.array([1.0, 1.0, 1.0, -1.0])  # sum = 2
        assert field_value(f, sigma) == pytest.approx(0.5, abs=1e-15)

    def test_custom_uses_projection_coordinates_only(self):
        n = 6
        basis = np.ones((1, n))
        f = field_custom(basis, lambda t: float(np.sin(t[0])), lipschitz_bound=n)
        rng = np.random.default_rng(9)
        sigma = 0.9 * unit_vector(rng, n)
        proj = inner(basis[0], sigma) * basis[0]
        assert field_value(f, sigma) == pytest.approx(field_value(f, proj), rel=1e-12)

    def test_custom_gradient_finite_difference_fallback(self):
        n = 5
        f = field_custom(np.ones((1, n)), lambda t: float(t[0] ** 3))
        rng = np.random.default_rng(10)
        sigma = 0.5 * unit_vector(rng, n)
        g = f.gradient(sigma)
        t = inner(np.ones(n), sigma)
        assert np.allclose(g, 3 * t ** 2 * np.ones(n) / n, atol=1e-8)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(DomainError):
            field_custom(np.array([[1.0, 0.0, 0.0]]), lambda t: 0.0)


class TestEffectiveFieldAndProbes:
    def test_effective_field_aliases_gradient(self):
        d = sample_disorder(MixedModel(6, XI23), 31)
        rng = np.random.default_rng(11)
        m = 0.4 * unit_vector(rng, 6)
        assert np.array_equal(effective_field(d, m), gradient(d, m))

    def test_probe_zero_field(self):
        d = sample_disorder(MixedModel(6, CovarianceSeries((0.0,))), 0)
        probe = lipschitz_probe(d, 10, 0)
        assert probe.max_grad_norm == 0.0 and probe.max_ratio == 0.0

    def test_probe_pure_linear_exact(self):
        model = MixedModel(6, CovarianceSeries((0.0, 2.0)))
        d = sample_disorder(model, 77)
        probe = lipschitz_probe(d, 5, 1)
        assert probe.max_grad_norm == pytest.approx(np.sqrt(2.0) * norm(d.tensors[1]), rel=1e-12)

    def test_gradient_tail_bound_frequency(self):
        # Probe statistic under-estimates the sup, so the Gaussian tail bound
        # must hold empirically: freq{max_grad >= u} <= exp(-u^2 N / (8 (xi''+xi'))) + 3 SE
        n = 12
        model = MixedModel(n, XI2)
        u = 10.0 * np.sqrt(model.series.evaluate(1.0, 2) + model.series.evaluate(1.0, 1))
        hits = 0
        reps = 200
        for seed in range(reps):
            d = sample_disorder(model, seed)
            if lipschitz_probe(d, 20, seed).max_grad_norm >= u:
                hits += 1
        freq = hits / reps
        bound = np.exp(-u ** 2 * n / (8 * (model.series.evaluate(1.0, 2)
                                           + model.series.evaluate(1.0, 1))))
        se = np.sqrt(max(freq * (1 - freq), 1e-9) / reps)
        assert freq <= bound + 3 * se


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = MixedModel(5, XI23)
        d = sample_disorder(model, 123)
        path = tmp_path / "disorder.bin"
        save_disorder(d, path)
        d2 = load_disorder(path, model)
        assert d2.seed == 123
        for p in d.tensors:
            assert np.array_equal(np.asarray(d.tensors[p]), np.asarray(d2.tensors[p]))

    def test_dimension_mismatch_rejected(self, tmp_path):
        d = sample_disorder(MixedModel(5, XI2), 1)
        path = tmp_path / "d.bin"
        save_disorder(d, path)
        with pytest.raises(DomainError):
            load_disorder(path, MixedModel(6, XI2))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DomainError):
            load_disorder(path, MixedModel(5, XI2))


    def _saved(self, tmp_path):
        model = MixedModel(5, XI23)
        path = tmp_path / "d.bin"
        save_disorder(sample_disorder(model, 7), path)
        return model, path

    @pytest.mark.parametrize("keep", [10, 23, 30])
    def test_truncated_header_rejected(self, tmp_path, keep):
        # 24-byte header, then one u32 per degree
        model, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DomainError):
            load_disorder(path, model)

    def test_truncated_tensor_rejected(self, tmp_path):
        model, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError):
            load_disorder(path, model)

    def test_trailing_bytes_rejected(self, tmp_path):
        model, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DomainError):
            load_disorder(path, model)

    def test_degree_list_mismatch_rejected(self, tmp_path):
        model, path = self._saved(tmp_path)
        with pytest.raises(DomainError):
            load_disorder(path, MixedModel(5, XI2))


class TestTotalHamiltonian:
    def test_energy_with_field_is_sum(self):
        from tapbound.hamiltonian import energy_with_field
        n = 6
        model = MixedModel(n, XI23, field=field_linear(0.3, n))
        d = sample_disorder(model, 44)
        rng = np.random.default_rng(12)
        sigma = 0.8 * unit_vector(rng, n)
        total = energy_with_field(d, model.field, sigma)
        assert total == pytest.approx(
            energy(d, sigma) + field_value(model.field, sigma), abs=0)
