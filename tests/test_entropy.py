"""Entropy functionals, half-space masses, and the hyperplane-normal rule."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from tapbound import entropy
from tapbound.covariance import CovarianceSeries
from tapbound.entropy import (
    ISING_ENUM_MAX_N,
    LOCAL_SEARCH_ITERATIONS,
    LOCAL_SEARCH_MIN_STEP,
    LOCAL_SEARCH_STEP,
    ReferenceMeasure,
    _candidate_directions,
    _ising_atoms,
    _ising_hits,
    _log_half_betainc_tail,
    _log_mass_above,
    _sign_table,
    binary_entropy,
    general_entropy_upper,
    halfspace_log_mass,
    ising_entropy,
    ising_uniform,
    lambda_min_entropy,
    point_cloud,
    sphere_uniform,
)
from tapbound.errors import DomainError
from tapbound.geometry import norm, normalize
from tapbound.hamiltonian import MixedModel, field_none, sample_disorder
from tapbound.tap import TapProblem, tap_energy

from oracles import oracle_ising_hits

LOG2 = math.log(2.0)


def spherical_entropy(m):
    """(N/2) log(1 - ||m||^2), the TAP energy of the spherical flavor at
    beta = 0, where the field and Onsager terms vanish."""
    n = len(m)
    d = sample_disorder(MixedModel(n, CovarianceSeries((0.0, 0.0, 1.0))), 0)
    return tap_energy(TapProblem(d, field_none(n), 0.0, "spherical"), m)


def j_direct(m):
    """Independent evaluation of the binary entropy formula."""
    if abs(m) >= 1.0:
        return LOG2
    return (1 + m) / 2 * math.log(1 + m) + (1 - m) / 2 * math.log(1 - m)


class TestBinaryEntropy:
    def test_zero(self):
        assert binary_entropy(0.0) == 0.0

    def test_capped_outside(self):
        m = np.array([-3.0, -1.0, 1.0, 1.5, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = binary_entropy(m)
            scalars = [binary_entropy(x) for x in m]
        assert np.all(out == LOG2) and scalars == [LOG2] * len(m)

    def test_half_frozen_value(self):
        # 0.75 log(1.5) + 0.25 log(0.5), high-precision
        assert binary_entropy(0.5) == pytest.approx(0.13081203594113698, abs=1e-15)

    def test_even_and_matches_direct(self):
        rng = np.random.default_rng(0)
        for m in rng.uniform(-2, 2, size=200):
            assert binary_entropy(m) == pytest.approx(j_direct(m), abs=1e-14)
            assert binary_entropy(-m) == pytest.approx(binary_entropy(m), abs=0)

    def test_nan_stays_nan(self):
        assert math.isnan(binary_entropy(np.nan))
        out = binary_entropy(np.array([0.2, np.nan, 1.0]))
        assert math.isnan(out[1]) and out[2] == LOG2

    def test_matches_math_log_oracle_on_the_open_interval(self):
        rng = np.random.default_rng(5)
        edge = 1.0 - 2.0 ** -52
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [edge, -edge, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310,
                   np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]
        m = np.concatenate([special, rng.uniform(-1.0, 1.0, size=100_000),
                            1.0 - rng.uniform(0.0, 1e-6, size=500),
                            rng.uniform(-1e-300, 1e-300, size=500)])
        assert np.all(np.abs(m) < 1.0)
        ref = np.array([j_direct(float(x)) for x in m])
        assert np.max(np.abs(binary_entropy(m) - ref)) <= 1e-15

    def test_difference_bound(self):
        # |J(m) - J(m~)| <= |m - m~| log(2e / (|m - m~| ^ 1)), 1e4 random pairs
        rng = np.random.default_rng(1)
        m = rng.uniform(-2, 2, size=10000)
        mt = rng.uniform(-2, 2, size=10000)
        d = np.abs(m - mt)
        keep = d > 0
        lhs = np.abs(binary_entropy(m) - binary_entropy(mt))[keep]
        rhs = d[keep] * np.log(2 * np.e / np.minimum(d[keep], 1.0))
        assert np.all(lhs <= rhs + 1e-12)


class TestVectorEntropies:
    def test_ising_zero(self):
        assert ising_entropy(np.zeros(7)) == 0.0

    def test_ising_all_ones(self):
        assert ising_entropy(np.ones(9)) == pytest.approx(-9 * LOG2, abs=1e-13)

    def test_ising_mixed(self):
        m = np.array([0.5, 0.5, 0.0, 0.0])
        assert ising_entropy(m) == pytest.approx(-2 * 0.13081203594113698, abs=1e-13)

    def test_ising_nonpositive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert ising_entropy(rng.uniform(-1.5, 1.5, size=8)) <= 1e-15

    def test_spherical_values(self):
        assert spherical_entropy(np.zeros(6)) == 0.0
        m = np.zeros(10)
        m[0] = np.sqrt(0.75 * 10)
        assert spherical_entropy(m) == pytest.approx(5 * math.log(0.25), rel=1e-12)
        m = np.zeros(16)
        m[0] = np.sqrt(0.5 * 16)
        assert spherical_entropy(m) == pytest.approx(-5.545177444479562, abs=1e-12)

    def test_spherical_domain(self):
        with pytest.raises(DomainError):
            spherical_entropy(np.ones(4))

    def test_ising_continuity_estimate(self):
        # |I(m) - I(m~)| <= 2 N ||m - m~|| log(4e / ||m - m~||), 1e4 pairs in B_N
        rng = np.random.default_rng(3)
        n = 8
        for _ in range(10000 // 10):
            for _ in range(10):
                m = rng.standard_normal(n)
                m *= rng.uniform(0, 1) / max(norm(m), 1e-12)
                mt = rng.standard_normal(n)
                mt *= rng.uniform(0, 1) / max(norm(mt), 1e-12)
                d = norm(m - mt)
                if d == 0:
                    continue
                lhs = abs(ising_entropy(m) - ising_entropy(mt))
                assert lhs <= 2 * n * d * np.log(4 * np.e / d) + 1e-10


class TestHalfspaceLogMass:
    def test_sphere_hemisphere(self):
        E = sphere_uniform(8)
        lam = np.zeros(8)
        lam[0] = np.sqrt(8)
        assert halfspace_log_mass(E, lam, np.zeros(8), 0.0) == pytest.approx(
            math.log(0.5), abs=1e-10)

    def test_ising_single_spin(self):
        E = ising_uniform(1)
        assert halfspace_log_mass(E, np.array([1.0]), np.zeros(1), 0.0) == pytest.approx(
            math.log(0.5), abs=0)

    def test_ising_two_spin_diagonal(self):
        E = ising_uniform(2)
        lam = np.array([1.0, 1.0])
        val = halfspace_log_mass(E, lam, np.zeros(2), 0.0)
        assert val == pytest.approx(math.log(0.75), abs=1e-14)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(4)
        E = ising_uniform(6)
        for _ in range(20):
            lam = normalize(rng.standard_normal(6))
            m = rng.uniform(-0.5, 0.5, size=6)
            vals = [halfspace_log_mass(E, lam, m, d) for d in (0.05, 0.1, 0.3, 0.8)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sphere_cap_matches_incomplete_beta(self):
        # independent closed form: P(<sigma, u> >= t) = 0.5 I_{1-t^2}((N-1)/2, 1/2), t >= 0
        E = sphere_uniform(12)
        lam = np.zeros(12)
        lam[0] = np.sqrt(12)
        for t in (0.1, 0.35, 0.7):
            m = t * lam  # threshold <lam, m> - 0 = t
            got = halfspace_log_mass(E, lam, m, 0.0)
            expect = math.log(0.5 * betainc((12 - 1) / 2, 0.5, 1 - t * t))
            assert got == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("n, exact", [
        (1, lambda t: 0.5),                        # the two points +-1
        (2, lambda t: math.acos(t) / math.pi),     # uniform angle on the circle
        (3, lambda t: (1 - t) / 2),                # Archimedes: <sigma, u> uniform
    ], ids=["N1", "N2", "N3"])
    def test_sphere_cap_small_n_closed_forms(self, n, exact):
        E = sphere_uniform(n)
        lam = np.zeros(n)
        lam[0] = np.sqrt(n)
        for t in np.linspace(-0.99, 0.99, 23):
            got = halfspace_log_mass(E, lam, t * lam, 0.0)
            assert got == pytest.approx(math.log(exact(t)), abs=1e-12)

    def test_sphere_cap_large_n_reference(self):
        # log(1/2 I_{0.91}(1999/2, 1/2)) from mpmath's regularized incomplete
        # beta function at 50 digits
        n = 2000
        lam = np.zeros(n)
        lam[0] = np.sqrt(n)
        got = halfspace_log_mass(sphere_uniform(n), lam, 0.3 * lam, 0.0)
        assert got == pytest.approx(-97.78380689412857, abs=1e-12)

    @pytest.mark.parametrize("t, expect", [
        (0.5, -2881.8545560468004885),
        (0.9, -16612.247023634380153),
    ])
    def test_sphere_cap_underflow_region_reference(self, t, expect):
        # log(1/2 I_{1-t^2}(19999/2, 1/2)) from mpmath's regularized
        # incomplete beta function at 50 digits; the mass itself is far
        # below the smallest float64
        n = 20000
        lam = np.zeros(n)
        lam[0] = np.sqrt(n)
        got = halfspace_log_mass(sphere_uniform(n), lam, t * lam, 0.0)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_sphere_cap_log_space_tail_matches_betainc(self):
        # the continued fraction behind the underflow branch, where betainc
        # is still a normal float
        for n in (3, 5, 12, 50, 400, 2000):
            a = (n - 1) / 2
            for t in np.linspace(0.05, 0.99, 30):
                x = 1 - t * t
                half = 0.5 * betainc(a, 0.5, x)
                if x < (a + 1) / (a + 2.5) and half > 1e-300:
                    got = _log_half_betainc_tail(a, x)
                    assert got == pytest.approx(math.log(half), rel=1e-12, abs=1e-12)

    def test_sphere_cap_upper_bound(self):
        # cap masses on an alpha-grid obey sqrt(N/2pi)(1-a^2)^{(N-3)/2}
        n, delta = 20, 0.1
        E = sphere_uniform(n)
        lam = np.zeros(n)
        lam[0] = np.sqrt(n)
        for alpha in np.linspace(0.0, 1.0 - delta, 50):
            m = alpha * lam
            log_mass = halfspace_log_mass(E, lam, m, 0.0)
            bound = 0.5 * np.log(n / (2 * np.pi)) + ((n - 3) / 2) * np.log1p(-alpha ** 2)
            assert log_mass <= bound + 1e-10

    def test_non_unit_lambda_rejected(self):
        with pytest.raises(DomainError):
            halfspace_log_mass(ising_uniform(3), np.ones(3) * 2.0, np.zeros(3), 0.1)


class TestEntryPointsRejectBadInput:
    N = 6
    MEASURES = {
        "ising": lambda n: ising_uniform(n),
        "sphere": lambda n: sphere_uniform(n),
        "cloud": lambda n: random_cloud(2, n, 20),
    }

    @pytest.mark.parametrize("kind", ["ising", "sphere", "cloud"])
    @pytest.mark.parametrize("m, delta", [
        pytest.param([np.nan] * 6, 0.1, id="nan-m"),
        pytest.param([np.inf] + [0.0] * 5, 0.1, id="infinite-m"),
        pytest.param(np.zeros(5), 0.1, id="short-m"),
        pytest.param(np.zeros((1, 6)), 0.1, id="matrix-m"),
        pytest.param(np.zeros(6), np.nan, id="nan-delta"),
        pytest.param(np.zeros(6), -0.5, id="negative-delta"),
        pytest.param(np.zeros(6), np.inf, id="infinite-delta"),
    ])
    def test_bad_m_or_delta(self, kind, m, delta):
        E = self.MEASURES[kind](self.N)
        lam = np.ones(self.N)
        for call in (lambda: halfspace_log_mass(E, lam, m, delta),
                     lambda: lambda_min_entropy(E, m, delta),
                     lambda: general_entropy_upper(E, m, delta)):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("lam", [
        pytest.param([np.nan] * 6, id="nan"),
        pytest.param(np.ones(5), id="short"),
        pytest.param(np.ones((1, 6)), id="matrix"),
    ])
    def test_bad_lambda(self, lam):
        with pytest.raises(DomainError):
            halfspace_log_mass(ising_uniform(self.N), lam, np.zeros(self.N), 0.1)

    @pytest.mark.parametrize("kind", ["ising", "sphere", "cloud"])
    def test_zero_delta_accepted(self, kind):
        E = self.MEASURES[kind](self.N)
        m = np.full(self.N, 0.3)
        lam = lambda_min_entropy(E, m, 0.0)
        assert abs(norm(lam) - 1.0) <= 1e-12
        assert general_entropy_upper(E, m, 0.0) == halfspace_log_mass(E, lam, m, 0.0)


class TestLambdaRule:
    def test_sphere_returns_radial_direction(self):
        E = sphere_uniform(10)
        rng = np.random.default_rng(5)
        m = 0.5 * normalize(rng.standard_normal(10))
        lam = lambda_min_entropy(E, m, 0.1)
        assert np.allclose(lam, normalize(m), atol=1e-14)

    def test_sphere_zero_magnetization(self):
        lam = lambda_min_entropy(sphere_uniform(7), np.zeros(7), 0.1)
        expect = np.zeros(7)
        expect[0] = np.sqrt(7)
        assert np.allclose(lam, expect)

    def test_single_spin_achieves_optimum(self):
        E = ising_uniform(1)
        lam = lambda_min_entropy(E, np.zeros(1), 0.1)
        assert halfspace_log_mass(E, lam, np.zeros(1), 0.1) <= math.log(0.5) + 0.1

    def test_chernoff_chain_bound(self):
        # exact enumeration vs the explicit intermediate bound of the product
        # measure argument: r_delta(m, lam*) <= -sum J(m~_i) + delta sqrt(N) |atanh m~|_2
        rng = np.random.default_rng(6)
        n, delta = 12, 0.1
        E = ising_uniform(n)
        for _ in range(10):
            m = rng.uniform(-0.9, 0.9, size=n)
            lam = lambda_min_entropy(E, m, delta)
            r = halfspace_log_mass(E, lam, m, delta)
            mt = np.clip(m, -(1 - delta), 1 - delta)
            bound = ising_entropy(mt) + delta * np.sqrt(n) * float(
                np.linalg.norm(np.arctanh(mt)))
            assert r <= bound + 1e-10

    def test_deterministic(self):
        E = ising_uniform(8)
        rng = np.random.default_rng(7)
        m = rng.uniform(-0.8, 0.8, size=8)
        a = lambda_min_entropy(E, m, 0.1)
        b = lambda_min_entropy(E, m, 0.1)
        assert np.array_equal(a, b)


class TestGeneralEntropyUpper:
    def test_minus_infinity_outside_box(self):
        rng = np.random.default_rng(8)
        n, delta = 8, 0.1
        E = ising_uniform(n)
        for _ in range(25):
            m = rng.uniform(-0.5, 0.5, size=n)
            i = int(rng.integers(n))
            # push one coordinate far enough that d(m, [-1,1]^N) > delta
            m[i] = 1.0 + 1.5 * delta * np.sqrt(n)
            assert general_entropy_upper(E, m, delta) == -np.inf

    def test_sphere_origin(self):
        assert general_entropy_upper(sphere_uniform(9), np.zeros(9), 0.0) == pytest.approx(
            math.log(0.5), abs=1e-10)

    def test_upper_bounds_dense_net(self):
        # report-only comparison against a dense random net over unit normals;
        # the net minimum may dip below the returned value only by the net
        # resolution effect, so we check a loose one-sided sanity margin.
        rng = np.random.default_rng(9)
        n, delta = 6, 0.15
        E = ising_uniform(n)
        worst = 0.0
        for _ in range(5):
            m = rng.uniform(-0.7, 0.7, size=n)
            returned = general_entropy_upper(E, m, delta)
            net = np.array([normalize(rng.standard_normal(n)) for _ in range(2000)])
            from tapbound.entropy import _halfspace_log_mass_many
            net_min = float(_halfspace_log_mass_many(E, net, m, delta).min())
            worst = max(worst, returned - net_min)
            assert returned <= net_min + 1.0
        print(f"lambda rule vs 2000-point net: worst excess {worst:.4f} nats")


class TestPointCloud:
    def test_off_sphere_atom_rejected(self):
        with pytest.raises(DomainError):
            point_cloud(np.array([[1.0, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: point_cloud([[1.0, np.nan], [1.0, -1.0]], [0.5, 0.5]),
                     id="nan-coordinate"),
        pytest.param(lambda: point_cloud([[1.0, 1.0], [1.0, -1.0]], [0.5, np.nan]),
                     id="nan-weight"),
        pytest.param(lambda: point_cloud([[1.0, 1.0], [1.0, -1.0]], [0.5, np.inf]),
                     id="infinite-weight"),
        pytest.param(lambda: point_cloud(np.ones((2, 0)), [0.5, 0.5]),
                     id="zero-width"),
        pytest.param(lambda: ReferenceMeasure("point_cloud", 3, [[1.0, 1.0], [1.0, -1.0]],
                                              [0.5, 0.5]),
                     id="width-not-n"),
        pytest.param(lambda: ising_uniform(0), id="ising-n-0"),
        pytest.param(lambda: sphere_uniform(-3), id="sphere-n-negative"),
    ])
    def test_malformed_measure_rejected(self, make):
        with pytest.raises(DomainError):
            make()


# ---------------------------------------------------------------------------
# Reference local search: one probe at a time, each half-space mass a masked
# weighted sum over the whole support. lambda_min_entropy must return the
# identical lambda.
# ---------------------------------------------------------------------------

def reference_log_mass_many(E, lams, m, delta):
    pts, w = E.atoms()
    proj = (pts.astype(np.float64) @ lams.T) / E.n
    thresholds = (lams @ m) / E.n - delta
    masses = np.where(proj >= thresholds[None, :] - 1e-12, w[:, None], 0.0).sum(axis=0)
    with np.errstate(divide="ignore"):
        return np.log(masses)


def reference_lambda_min_entropy(E, m, delta, extra_directions=(),
                                 iterations=LOCAL_SEARCH_ITERATIONS):
    """(lambda, exit) where exit names the rule that ended the search, after
    at most `iterations` probes."""
    m = np.asarray(m, dtype=np.float64)
    n = E.n
    cands = np.array(_candidate_directions(E, m, delta, extra_directions))
    values = reference_log_mass_many(E, cands, m, delta)
    best_idx = int(np.argmin(values))
    lam, best = cands[best_idx], float(values[best_idx])
    if best == -np.inf:
        return lam, "candidate"
    step = LOCAL_SEARCH_STEP
    scale = np.sqrt(n)
    failures = 0
    for it in range(iterations):
        probe = np.zeros(n)
        probe[it % n] = scale * step
        trial = np.array([normalize(lam + probe), normalize(lam - probe)])
        vals = reference_log_mass_many(E, trial, m, delta)
        j = int(np.argmin(vals))
        if vals[j] < best - 1e-15:
            lam, best = trial[j], float(vals[j])
            failures = 0
            if best == -np.inf:
                return lam, "-inf"
        else:
            failures += 1
            if failures >= n:
                step *= 0.5
                failures = 0
                if step < LOCAL_SEARCH_MIN_STEP:
                    return lam, "min_step"
    return lam, "iterations"


def bit_equal(a, b):
    """Equal bytes: unlike np.array_equal, -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def magnetization(kind, n, delta, rng):
    if kind == "zero":
        return np.zeros(n)
    m = rng.uniform(-0.9, 0.9, size=n)
    if kind == "outside":
        # outside [-1, 1]^N by less than the box distance that empties the
        # half-space, so the local search runs
        m[0] = 1.0 + 0.5 * delta
    return m


def random_cloud(seed, n, count):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    pts /= np.sqrt((pts ** 2).sum(axis=1) / n)[:, None]
    return point_cloud(pts, rng.uniform(0.5, 1.5, count))


class TestLocalSearchMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    @pytest.mark.parametrize("kind", ["zero", "inside", "outside"])
    @pytest.mark.parametrize("delta", [0.05, 0.2])
    @pytest.mark.parametrize("extra", [False, True])
    def test_ising(self, n, kind, delta, extra):
        rng = np.random.default_rng(100 * n + 7)
        m = magnetization(kind, n, delta, rng)
        extra_directions = [rng.standard_normal(n)] if extra else ()
        E = ising_uniform(n)
        expect, _ = reference_lambda_min_entropy(E, m, delta, extra_directions)
        assert bit_equal(lambda_min_entropy(E, m, delta, extra_directions), expect)

    @pytest.mark.parametrize("kind", ["zero", "inside", "outside"])
    @pytest.mark.parametrize("delta", [0.05, 0.2])
    @pytest.mark.parametrize("extra", [False, True])
    def test_point_cloud(self, kind, delta, extra):
        n = 6
        E = random_cloud(3, n, 60)
        rng = np.random.default_rng(4)
        m = magnetization(kind, n, delta, rng)
        extra_directions = [rng.standard_normal(n)] if extra else ()
        expect, _ = reference_lambda_min_entropy(E, m, delta, extra_directions)
        assert bit_equal(lambda_min_entropy(E, m, delta, extra_directions), expect)

    @pytest.mark.parametrize("cloud", [False, True])
    def test_support_spanning_several_chunks(self, cloud):
        # 2^15 atoms: the batched sums run over more than one chunk
        n = 15
        E = ising_uniform(n)
        if cloud:
            pts, _ = E.atoms()
            E = point_cloud(pts, np.random.default_rng(5).uniform(0.5, 1.5, len(pts)))
        m = np.random.default_rng(6).uniform(-0.5, 0.5, size=n)
        expect, _ = reference_lambda_min_entropy(E, m, 0.2)
        assert bit_equal(lambda_min_entropy(E, m, 0.2), expect)

    @pytest.mark.parametrize("seed, delta, exit_rule", [
        (7, 0.05, "min_step"),
        (18, 0.05, "-inf"),
        (21, 0.2, "-inf"),
    ])
    def test_search_exits(self, seed, delta, exit_rule):
        # a magnetization off the cloud's hull: no candidate separates it,
        # and the local search either empties the half-space or stalls
        E = random_cloud(seed, 4, 8)
        m = 1.2 * E.points[0] + 0.4 * E.points[1]
        expect, rule = reference_lambda_min_entropy(E, m, delta)
        assert rule == exit_rule
        got = lambda_min_entropy(E, m, delta)
        assert bit_equal(got, expect)
        if exit_rule == "-inf":
            assert halfspace_log_mass(E, got, m, delta) == -np.inf

    def test_candidate_exit(self):
        n, delta = 8, 0.1
        m = np.zeros(n)
        m[0] = 1.0 + 1.5 * delta * np.sqrt(n)
        E = ising_uniform(n)
        expect, rule = reference_lambda_min_entropy(E, m, delta)
        assert rule == "candidate"
        assert bit_equal(lambda_min_entropy(E, m, delta), expect)

    @pytest.mark.parametrize("n, seed, delta", [(11, 33, 0.2), (12, 17, 0.2)])
    def test_last_window_cut_short_by_the_iteration_cap(self, n, seed, delta):
        # the search runs to the iteration cap, which is no multiple of N,
        # so its last window scores fewer than N probes
        m = np.random.default_rng(seed).uniform(-0.9, 0.9, size=n)
        E = ising_uniform(n)
        expect, rule = reference_lambda_min_entropy(E, m, delta)
        assert rule == "iterations" and LOCAL_SEARCH_ITERATIONS % n
        assert bit_equal(lambda_min_entropy(E, m, delta), expect)

    @pytest.mark.parametrize("n, seed, delta, cap", [(8, 12, 0.1, 7), (8, 1, 0.2, 6)])
    def test_last_window_stops_at_a_cap_below_n(self, n, seed, delta, cap,
                                                monkeypatch):
        # the first probe that succeeds is the one right after the cap, so a
        # last window as wide as N would take it
        monkeypatch.setattr(entropy, "LOCAL_SEARCH_ITERATIONS", cap)
        m = np.random.default_rng(seed).uniform(-0.9, 0.9, size=n)
        E = ising_uniform(n)
        expect, rule = reference_lambda_min_entropy(E, m, delta, iterations=cap)
        past_cap, _ = reference_lambda_min_entropy(E, m, delta, iterations=cap + 1)
        assert rule == "iterations" and cap < n and not bit_equal(past_cap, expect)
        assert bit_equal(lambda_min_entropy(E, m, delta), expect)

    @pytest.mark.parametrize("n, seed, delta", [
        (4, 0, 0.1), (4, 1, 0.1), (7, 3, 0.1), (12, 2, 0.05)])
    def test_negative_zero_entries_in_lambda(self, n, seed, delta):
        # -0.0 entries of m give the best candidate, where the search
        # starts, -0.0 entries: a plus probe turns one into +0.0 and a
        # minus probe keeps it
        rng = np.random.default_rng(seed)
        m = -np.zeros(n)
        m[:n // 2] = rng.uniform(-0.9, 0.9, size=n // 2)
        E = ising_uniform(n)
        cands = np.array(_candidate_directions(E, m, delta, ()))
        start = cands[np.argmin(reference_log_mass_many(E, cands, m, delta))]
        assert np.any((start == 0.0) & np.signbit(start))
        expect, _ = reference_lambda_min_entropy(E, m, delta)
        assert bit_equal(lambda_min_entropy(E, m, delta), expect)


def test_local_search_memory_is_bounded_by_the_chunk():
    # A float copy of all 2^18 atoms alone is 38 MB, and one window of
    # 2N projections per atom 75 MB; the chunked sums stay far below.
    n = 18
    _ising_atoms(n)  # the cached int8 support is not scratch
    m = np.random.default_rng(8).uniform(-0.5, 0.5, size=n)
    tracemalloc.start()
    try:
        lambda_min_entropy(ising_uniform(n), m, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_halfspace_log_mass_memory_is_bounded_by_the_chunk():
    # A float copy of all 2^18 int8 atoms is 38 MB and the weight vector
    # 2 MB; the chunked count needs neither.
    n = 18
    E = ising_uniform(n)
    _ising_atoms(n)
    rng = np.random.default_rng(9)
    lam = normalize(rng.standard_normal(n))
    m = rng.uniform(-0.5, 0.5, size=n)
    tracemalloc.start()
    try:
        value = halfspace_log_mass(E, lam, m, 0.1)
        E.atoms()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    atoms = _ising_atoms(n).astype(np.float64)
    hits = np.count_nonzero((atoms @ lam) / n >= (lam @ m) / n - 0.1 - 1e-12)
    assert value == math.log(hits * 2.0 ** -n)


def test_ising_weights_are_one_shared_scalar():
    pts, w = ising_uniform(10).atoms()
    assert w.shape == (len(pts),) and w.strides == (0,)
    assert not w.flags.writeable
    assert np.all(w == 2.0 ** -10)


# ---------------------------------------------------------------------------
# Split-sum Ising count against the chunked count over every atom, with ties
# built in: signed standard directions +-sqrt(N) e_i and sign directions on
# a coordinate subset put whole groups of atoms exactly on thresholds taken
# on their projection grids (k / sqrt(N) for the standard directions).
# ---------------------------------------------------------------------------

def tie_directions(n, rng, standard, sparse, gaussian):
    scale = math.sqrt(n)
    rows = []
    for code in rng.choice(2 * n, size=min(standard, 2 * n), replace=False):
        e = np.zeros(n)
        e[code % n] = scale if code < n else -scale
        rows.append((e, 1.0 / scale))
    for _ in range(sparse):
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        v = np.zeros(n)
        v[support] = rng.choice([-1.0, 1.0], size=len(support))
        v = normalize(v)
        rows.append((v, float(np.abs(v).max()) / n))
    for _ in range(gaussian):
        rows.append((normalize(rng.standard_normal(n)), 1.0 / scale))
    lams = np.array([r for r, _ in rows]).reshape(len(rows), n)
    grid_step = np.array([g for _, g in rows])
    return lams, grid_step


class TestIsingHitsMatchOracle:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 20), standard=st.integers(0, 6),
           sparse=st.integers(0, 3), gaussian=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, standard=2, sparse=1, gaussian=1, seed=0)
    @example(n=2, standard=4, sparse=2, gaussian=2, seed=1)
    @example(n=20, standard=40, sparse=3, gaussian=3, seed=2)
    def test_exact_counts(self, n, standard, sparse, gaussian, seed):
        rng = np.random.default_rng(seed)
        lams, grid_step = tie_directions(n, rng, standard, sparse, gaussian)
        if not len(lams):
            lams, grid_step = tie_directions(n, rng, 1, 0, 0)
        # twice the largest projection either way: empty and full half-spaces
        k_max = int(np.ceil(2.0 / grid_step.min()))
        thresholds = rng.integers(-k_max, k_max + 1, size=len(lams)) * grid_step
        # and about half of them off the grid
        off = rng.random(len(lams)) < 0.5
        thresholds[off] = rng.uniform(-1.0, 1.0, size=int(off.sum()))
        expect = oracle_ising_hits(lams, thresholds - 1e-12)
        assert np.array_equal(_ising_hits(lams, thresholds - 1e-12), expect)
        with np.errstate(divide="ignore"):
            assert np.array_equal(_log_mass_above(ising_uniform(n), lams, thresholds),
                                  np.log(expect * 2.0 ** -n))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_exact_ties_are_hits(self, n):
        # Sign directions at a power-of-two N, with unguarded cuts k / N:
        # every split sum, target and projection is an exact integer over
        # N, so whole groups of sort keys tie bit for bit and each tie
        # must count as a hit.
        rng = np.random.default_rng(n)
        lams = np.vstack([np.ones(n), rng.choice([-1.0, 1.0], size=(5, n))])
        for k in range(-n - 1, n + 2):
            cut = np.full(len(lams), k / n)
            expect = oracle_ising_hits(lams, cut)
            assert np.array_equal(_ising_hits(lams, cut), expect)
        j = n // 4  # <1, sigma> >= (N - 2 j) / N: at most j minus signs
        assert _ising_hits(np.ones((1, n)), np.array([(n - 2 * j) / n]))[0] == sum(
            math.comb(n, i) for i in range(j + 1))


class TestPastTheEnumerationCap:
    N = 32

    def test_atoms_still_capped(self):
        with pytest.raises(DomainError):
            ising_uniform(ISING_ENUM_MAX_N + 1).atoms()

    @pytest.mark.parametrize("j", [0, 1, 7, 16, 31, 32])
    def test_all_ones_direction_matches_binomial_tail(self, j):
        # <1, sigma> = (N - 2 j) / N with j minus signs: the mass of
        # {<1, sigma> >= (N - 2 j) / N} is sum_{i <= j} C(N, i) / 2^N, and
        # every atom with j minus signs ties with the threshold
        n = self.N
        t = (n - 2 * j) / n
        got = halfspace_log_mass(ising_uniform(n), np.ones(n), np.full(n, t), 0.0)
        expect = math.log(sum(math.comb(n, i) for i in range(j + 1)) / 2 ** n)
        assert got == pytest.approx(expect, rel=1e-15, abs=1e-15)

    def test_lambda_rule_runs_in_bounded_scratch(self):
        # 2^32 atoms: no enumeration, and unblocked the split sums of one
        # window (2N directions of 2^17 sort keys each) would take a few
        # hundred MB; one direction per block stays under 8 MB.
        n, delta = self.N, 0.2
        E = ising_uniform(n)
        _sign_table(n // 2)  # the cached sign table of each half is not scratch
        m = np.random.default_rng(10).uniform(-0.5, 0.5, size=n)
        tracemalloc.start()
        try:
            lam = lambda_min_entropy(E, m, delta)
            value = halfspace_log_mass(E, lam, m, delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert abs(norm(lam) - 1.0) <= 1e-12
        # no worse than any candidate, and under the Chernoff chain bound
        cands = np.array(_candidate_directions(E, m, delta, ()))
        start = min(halfspace_log_mass(E, c, m, delta) for c in cands)
        assert value <= start
        mt = np.clip(m, -(1 - delta), 1 - delta)
        bound = ising_entropy(mt) + delta * np.sqrt(n) * float(
            np.linalg.norm(np.arctanh(mt)))
        assert value <= bound + 1e-10
