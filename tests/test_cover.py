"""Grid rounding, increment spaces, node construction, classification, regions."""

import math

import numpy as np
import pytest

from tapbound.covariance import CovarianceSeries
from tapbound.cover import (
    CoverBuilder,
    IncrementIndex,
    cover_cardinality_bound,
    max_levels,
    membership,
    region_masks,
    round_down_index,
    round_down_indices,
    thin_projection,
    thin_projections,
)
from tapbound.entropy import ising_uniform, sphere_uniform
from tapbound.errors import DomainError
from tapbound.geometry import inner, inner_many, norm, normalize
from tapbound.hamiltonian import MixedModel, field_linear, gradient, sample_disorder
from tapbound.partition import node_member_mask, slice_measures

from oracles import oracle_thin_projection

XI2 = CovarianceSeries((0.0, 0.0, 1.0))


def make_builder(n=12, seed=3, measure=None, epsilon=0.05, delta=0.1, h=0.3):
    model = MixedModel(n, XI2)
    d = sample_disorder(model, seed)
    E = measure if measure is not None else ising_uniform(n)
    return CoverBuilder(d, E, field_linear(h, n), epsilon, delta)


class TestRounding:
    def test_zero(self):
        assert round_down_index(0.0, 0.1) * 0.1 == 0.0

    def test_positive_interior(self):
        assert round_down_index(0.35, 0.1) * 0.1 == pytest.approx(0.3)

    def test_negative_interior(self):
        assert round_down_index(-0.35, 0.1) * 0.1 == pytest.approx(-0.3)

    def test_grid_point_rounds_strictly_down(self):
        # 0.3 lies in (0.2, 0.3], so it maps to 0.2
        assert round_down_index(0.3, 0.1) * 0.1 == pytest.approx(0.2)
        assert round_down_index(-0.3, 0.1) * 0.1 == pytest.approx(-0.2)

    def test_distance_and_magnitude_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            eps = rng.uniform(0.01, 0.5)
            x = rng.uniform(-2, 2)
            y = round_down_index(x, eps) * eps
            assert abs(x - y) <= eps + 1e-12
            assert abs(y) <= abs(x) + 1e-12
            if x != 0.0:
                assert abs(y) < abs(x) + 1e-12

    def test_dust_above_zero_rounds_to_zero(self):
        # projections of exactly-orthogonal vectors carry O(1e-17) dust and
        # must land on 0, not jump to the first grid point of either sign
        for x in (1e-17, -1e-17, 4.9e-11, -4.9e-11):
            assert round_down_index(x, 0.1) == 0

    def test_grid_exact_inputs_round_strictly_toward_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            eps = rng.uniform(0.01, 0.3)
            t = int(rng.integers(-20, 21))
            x = t * eps
            got = round_down_index(x, eps)
            expect = 0 if t == 0 else (t - 1 if t > 0 else t + 1)
            assert got == expect


def reference_round_down_index(x, epsilon):
    """The scalar grid rounding rule that round_down_indices vectorizes."""
    if x == 0.0:
        return 0
    r = x / epsilon
    nearest = round(r)
    if abs(r - nearest) <= 1e-9 * max(1.0, abs(r)):
        r = float(nearest)
    if r == 0.0:
        return 0
    if x > 0:
        return int(r) - 1 if r == int(r) else int(math.floor(r))
    return int(r) + 1 if r == int(r) else int(math.ceil(r))


class TestArrayRounding:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 1 / 3])
    def test_matches_scalar_rule(self, eps):
        rng = np.random.default_rng(17)
        t = np.arange(-math.ceil(1 / eps), math.ceil(1 / eps) + 1)
        grid_points = t * eps
        near_grid = np.concatenate(
            [grid_points * (1 + s) for s in (0.0, 1e-10, -1e-10)]
            + [grid_points + s for s in (1e-12, -1e-12)])
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                         1e-310, -1e-310])
        xs = np.concatenate([rng.uniform(-1.5, 1.5, size=200_000), near_grid, tiny])
        expect = np.array([reference_round_down_index(float(x), eps) for x in xs])
        assert np.array_equal(round_down_indices(xs, eps), expect)
        for x in np.concatenate([near_grid, tiny]):
            assert round_down_index(float(x), eps) == reference_round_down_index(
                float(x), eps)

    def test_rejects_bad_input(self):
        for eps in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                round_down_indices(np.array([0.1]), eps)
            with pytest.raises(DomainError):
                round_down_index(0.1, eps)
        with pytest.raises(DomainError):
            round_down_indices(np.array([0.1, np.nan]), 0.1)
        with pytest.raises(DomainError):
            round_down_index(math.inf, 0.1)


class TestGrid:
    """The grid eps*Z intersect (-1, 1), as the integers t whose value t*eps
    a level-1 block of an IncrementIndex accepts."""

    @staticmethod
    def grid(eps):
        accepted = []
        for t in range(-math.ceil(1 / eps) - 1, math.ceil(1 / eps) + 2):
            try:
                IncrementIndex(((t,),), eps)
            except DomainError:
                continue
            accepted.append(t * eps)
        return np.array(accepted)

    def test_half(self):
        assert np.allclose(self.grid(0.5), [-0.5, 0.0, 0.5])

    def test_unit(self):
        assert np.allclose(self.grid(1.0), [0.0])

    def test_quarter(self):
        g = self.grid(0.25)
        assert len(g) == 7 and np.allclose(g, np.arange(-3, 4) * 0.25)

    def test_cardinality_bound(self):
        # the 2/eps bound is exact when 1/eps is an integer; one extra point
        # can appear otherwise (the grid is symmetric with an odd count)
        for eps in (0.05, 0.1, 0.25, 0.5):
            assert len(self.grid(eps)) <= 2.0 / eps
        for eps in (0.03, 0.33, 0.7):
            assert len(self.grid(eps)) <= 2.0 / eps + 1


class TestIncrementSpace:
    def test_block_shapes_enforced(self):
        with pytest.raises(DomainError):
            IncrementIndex(((1,), (1, 2, 3)), 0.1)

    def test_norm_constraint(self):
        with pytest.raises(DomainError):
            IncrementIndex(((9,), (4, 4)), 0.1)  # 0.81 + 0.32 >= 1

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -0.1, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        # a NaN step made |alpha| NaN, which passed the norm check
        with pytest.raises(DomainError):
            IncrementIndex(((0,),), eps)

    def test_cover_bound_plug_in(self):
        bound, saturated = cover_cardinality_bound(0.5, 1.0, K=1)
        assert not saturated and bound == 4 ** 11

    def test_cover_bound_saturates(self):
        bound, saturated = cover_cardinality_bound(0.01, 0.1, K=1)
        assert saturated and bound == 1 << 62


class TestBuildNode:
    def test_level_one_magnetization(self):
        b = make_builder()
        alpha = IncrementIndex(((6,),), 0.05)
        node = b.build(alpha)
        assert np.allclose(node.m, 0.3 * b.field.basis[0])
        assert node.q == pytest.approx(0.09, abs=1e-15)

    def test_zero_alpha(self):
        b = make_builder()
        node = b.build(IncrementIndex(((0,),), 0.05))
        assert np.allclose(node.m, 0.0) and node.q == 0.0

    def test_invariant_suite_random_alpha(self):
        rng = np.random.default_rng(5)
        b = make_builder()
        for _ in range(10):
            t1 = int(rng.integers(-10, 11))
            t2 = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            alpha = IncrementIndex(((t1,), t2), 0.05)
            node = b.build(alpha)
            rows = node.basis_rows
            gram = rows @ rows.T / b.n
            assert np.abs(gram - np.eye(len(rows))).max() < 1e-10
            # m_alpha = sum of increments along the basis rows
            recon = sum(t * node.alpha.epsilon * u
                        for blk, lv in zip(node.alpha.blocks, node.levels)
                        for t, u in zip(blk, lv))
            assert np.allclose(recon, node.m, atol=1e-12)
            assert abs(node.q - inner(node.m, node.m)) <= 1e-12
            # gradient and hyperplane normal captured by the next level's span
            for l in range(1, alpha.k + 1):
                m_l = b.magnetization(alpha.blocks[:l])
                g = gradient(b.disorder, m_l)
                upto = np.vstack([lv for lv in node.levels[:l + 1] if len(lv)])
                resid = g - inner_many(upto, g) @ upto
                assert norm(resid) <= 1e-8 * max(1.0, norm(g))
                lam = node.lambdas[l - 1]
                resid_l = lam - inner_many(upto, lam) @ upto
                assert norm(resid_l) <= 1e-8

    def test_nesting_prefix_reproducibility(self):
        b = make_builder()
        alpha = IncrementIndex(((4,), (3, -2), (2, 1)), 0.05)
        node = b.build(alpha)
        fresh = make_builder()  # same seed: bit-identical disorder
        prefix_node = fresh.build(IncrementIndex(alpha.blocks[:2], alpha.epsilon))
        for lv, lv2 in zip(prefix_node.levels[:-1], node.levels):
            assert np.array_equal(np.asarray(lv), np.asarray(lv2))

    def test_classify_then_prefix_rebuild_bitwise(self):
        # rebuilding any prefix of a classified alpha reproduces the same
        # basis vectors bit for bit, even from a fresh builder
        b = make_builder(n=10, seed=9, epsilon=0.1)
        rng = np.random.default_rng(33)
        sigma = normalize(rng.standard_normal(10))
        alpha, node = b.classify(sigma, eta=0.5)
        for k in range(1, alpha.k + 1):
            fresh = make_builder(n=10, seed=9, epsilon=0.1)
            sub = fresh.build(IncrementIndex(alpha.blocks[:k], alpha.epsilon))
            for lv_sub, lv_full in zip(sub.levels[:-1], node.levels):
                assert np.array_equal(np.asarray(lv_sub), np.asarray(lv_full))

    def test_too_many_levels_rejected(self):
        b = make_builder(n=6)
        blocks = [(0,)] + [(1, 1)] * (max_levels(6, 1))
        with pytest.raises(DomainError):
            b.build(IncrementIndex(tuple(blocks), 0.05))


class TestClassify:
    def test_field_direction_point(self):
        # sigma = u_1 rounds to 0.9 at eps = 0.1 and stops immediately
        b = make_builder(measure=sphere_uniform(12), epsilon=0.1)
        sigma = b.field.basis[0].copy()
        alpha, node = b.classify(sigma, eta=0.4)
        assert alpha.k == 1 and alpha.blocks[0][0] * alpha.epsilon == pytest.approx(0.9)
        check = membership(node, sigma)
        assert check.in_d and check.in_e

    def test_orthogonal_point_zero_block(self):
        b = make_builder(measure=sphere_uniform(12), epsilon=0.1, seed=8)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(12)
        v -= inner(v, b.field.basis[0]) * b.field.basis[0]
        sigma = normalize(v)
        alpha, node = b.classify(sigma, eta=0.9)
        # orthogonal to the field direction: the level-1 block rounds to zero
        assert alpha.blocks[0] == (0,)

    def test_sphere_sweep_small(self):
        n, eps, eta = 10, 0.05, 0.5
        b = make_builder(n=n, measure=sphere_uniform(n), epsilon=eps)
        rng = np.random.default_rng(12)
        kmax = 0
        for _ in range(100):
            sigma = normalize(rng.standard_normal(n))
            alpha, node = b.classify(sigma, eta=eta)
            kmax = max(kmax, alpha.k)
            assert alpha.k <= 5 / eta ** 2 + 1
            assert membership(node, sigma).in_e
        assert kmax >= 1

    def test_stop_bound_all_points(self):
        b = make_builder(n=12, epsilon=0.1)
        rng = np.random.default_rng(13)
        for _ in range(30):
            sigma = normalize(rng.standard_normal(12))
            alpha, _ = b.classify(sigma, eta=0.8)
            assert alpha.k <= math.ceil(5 / 0.64)

    def test_two_dimensional_field_subspace(self):
        # K = 2: the level-1 block carries both projection coordinates
        n = 10
        basis = np.zeros((2, n))
        basis[0, 0] = basis[1, 1] = np.sqrt(n)
        from tapbound.hamiltonian import field_custom
        field = field_custom(basis, lambda t: float(t[0] + 0.5 * t[1]),
                             lipschitz_bound=2 * n)
        model = MixedModel(n, XI2)
        d = sample_disorder(model, 51)
        b = CoverBuilder(d, sphere_uniform(n), field, 0.05, 0.1)
        rng = np.random.default_rng(52)
        for _ in range(25):
            sigma = normalize(rng.standard_normal(n))
            alpha, node = b.classify(sigma, eta=0.7)
            assert len(alpha.blocks[0]) == 2
            assert membership(node, sigma).in_e

    def test_zero_disorder_degenerate_spans(self):
        # xi = 0 makes every gradient vanish; levels fall back to the
        # deterministic standard-basis completion and classification still
        # terminates with verified membership
        n = 8
        model = MixedModel(n, CovarianceSeries((0.0,)))
        d = sample_disorder(model, 53)
        b = CoverBuilder(d, ising_uniform(n), field_linear(0.2, n), 0.1, 0.2)
        atoms = (1.0 - 2.0 * ((np.arange(2 ** n)[:, None]
                               >> np.arange(n)[None, :]) & 1)).astype(np.float64)
        rng = np.random.default_rng(54)
        for idx in rng.choice(len(atoms), size=40, replace=False):
            alpha, node = b.classify(atoms[idx], eta=0.8)
            assert membership(node, atoms[idx]).in_e

    def test_membership_containment_random(self):
        b = make_builder(n=10, measure=sphere_uniform(10), epsilon=0.05)
        rng = np.random.default_rng(14)
        sigma0 = normalize(rng.standard_normal(10))
        _, node = b.classify(sigma0, eta=0.5)
        for _ in range(200):
            sigma = normalize(rng.standard_normal(10))
            chk = membership(node, sigma)
            if chk.in_e:
                assert chk.in_d


def reference_membership(node, sigma, eta):
    """Scalar D_alpha/E_alpha test, one direction at a time."""
    eps = node.alpha.epsilon
    for l, level_rows in enumerate(node.levels[:-1]):
        for j, u in enumerate(level_rows):
            if reference_round_down_index(inner(u, sigma), eps) != node.alpha.blocks[l][j]:
                return False, False
    in_e = all(abs(inner(u, sigma)) <= eta + 1e-12 for u in node.final_pair)
    return True, in_e


class TestMembershipExhaustive:
    def test_all_atoms_match_scalar_reference(self):
        n, eta = 12, 0.4
        b = make_builder(n=n, epsilon=0.05, seed=5)
        atoms = (1.0 - 2.0 * ((np.arange(2 ** n)[:, None]
                               >> np.arange(n)[None, :]) & 1)).astype(np.float64)
        rng = np.random.default_rng(16)
        seen = {"d_only": 0, "e": 0}
        for idx in rng.choice(len(atoms), size=4, replace=False):
            _, node = b.classify(atoms[idx], eta)
            expect = np.array([reference_membership(node, s, eta) for s in atoms])
            got = np.array([(c.in_d, c.in_e) for c in (membership(node, s) for s in atoms)])
            assert np.array_equal(got, expect)
            in_d, in_e = region_masks(node, atoms)
            assert np.array_equal(in_d, expect[:, 0])
            assert np.array_equal(in_e, expect[:, 1])
            assert np.array_equal(node_member_mask(node, atoms), expect[:, 1])
            seen["d_only"] += int((expect[:, 0] & ~expect[:, 1]).sum())
            seen["e"] += int(expect[:, 1].sum())
        # both conditions decide some atoms, so each is exercised
        assert seen["d_only"] > 0 and seen["e"] > 0


class TestRegionGeometry:
    """Thickness, effective-field, and thin-slice estimates on classified points."""

    def setup_method(self):
        self.n, self.eps, self.eta = 12, 0.05, 0.4
        self.b = make_builder(n=self.n, measure=sphere_uniform(self.n),
                              epsilon=self.eps, seed=21)
        self.rng = np.random.default_rng(15)

    def test_geometry_bounds_on_sweep(self):
        for _ in range(60):
            sigma = normalize(self.rng.standard_normal(self.n))
            alpha, node = self.b.classify(sigma, self.eta)
            sigma_hat = sigma - node.m
            rows = node.basis_rows
            proj_u = inner_many(rows, sigma_hat) @ rows
            # thickness: || P_Ubar sigma - m || <= 4 eta
            assert norm(proj_u) <= 4 * self.eta + 1e-9
            # effective field nearly vanishes on the region
            heff = gradient(self.b.disorder, node.m)
            assert abs(inner(sigma_hat, heff)) <= 4 * self.eta * norm(heff) + 1e-9
            # radius control and thin projection distance
            resid = node.project_out(sigma)
            assert abs(norm(resid) - math.sqrt(1 - node.q)) <= 8 * self.eta ** 0.25 + 1e-9
            tau = thin_projection(node, sigma)
            assert norm(sigma_hat - tau) <= 12 * self.eta ** 0.25 + 1e-9

    def test_thin_projection_shell_and_convention(self):
        sigma = normalize(self.rng.standard_normal(self.n))
        alpha, node = self.b.classify(sigma, self.eta)
        tau = thin_projection(node, sigma)
        assert inner(tau, tau) == pytest.approx(1 - node.q, abs=1e-10)
        # projection of something inside span(Ubar) collapses to zero
        tau0 = thin_projection(node, node.m if node.q > 0 else node.basis_rows[0])
        assert np.allclose(tau0, 0.0)

    def test_thin_projection_identity_on_slice(self):
        sigma = normalize(self.rng.standard_normal(self.n))
        _, node = self.b.classify(sigma, self.eta)
        resid = normalize(node.project_out(sigma)) * math.sqrt(1 - node.q)
        point = node.m + resid
        tau = thin_projection(node, point)
        assert np.allclose(tau, point - node.m, atol=1e-9)


class TestThinProjectionRows:
    """The stacked projection equals the per-vector one bit for bit."""

    @staticmethod
    def assert_rows_match_oracle(node, block):
        got = thin_projections(node, block)
        expect = np.array([oracle_thin_projection(node, s) for s in block])
        assert got.tobytes() == expect.tobytes()
        for s, row in zip(block, got):
            assert thin_projection(node, s).tobytes() == row.tobytes()

    @pytest.mark.parametrize("n, seed", [(6, 1), (10, 2), (12, 3)])
    def test_ising_slice_members(self, n, seed):
        E = ising_uniform(n)
        b = make_builder(n=n, seed=seed, epsilon=0.1, delta=0.2)
        atoms = E.atoms()[0].astype(np.float64)
        rng = np.random.default_rng(seed)
        for idx in rng.choice(len(atoms), size=4, replace=False):
            _, node = b.classify(atoms[idx], eta=0.6)
            out = slice_measures(E, node)
            members = out.conditional.points
            assert out.thin_pushforward.points.tobytes() == np.array(
                [oracle_thin_projection(node, s) for s in members]).tobytes()
            self.assert_rows_match_oracle(node, members)

    def test_sphere_rows_and_vanishing_projections(self):
        n = 12
        b = make_builder(n=n, measure=sphere_uniform(n), seed=21)
        rng = np.random.default_rng(16)
        sigma = normalize(rng.standard_normal(n))
        _, node = b.classify(sigma, 0.4)
        block = np.vstack([rng.standard_normal((40, n)), node.basis_rows])
        self.assert_rows_match_oracle(node, block)
        # rows inside span(Ubar) have a vanishing projection: zero rows
        assert not thin_projections(node, node.basis_rows).any()
