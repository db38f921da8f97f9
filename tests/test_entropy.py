"""Entropy functionals, half-space masses, and the hyperplane-normal rule."""

import math
import tracemalloc

import numpy as np
import pytest

from tapbound.entropy import (
    LOCAL_SEARCH_ITERATIONS,
    LOCAL_SEARCH_MIN_STEP,
    LOCAL_SEARCH_STEP,
    _candidate_directions,
    _ising_atoms,
    binary_entropy,
    general_entropy_upper,
    halfspace_log_mass,
    ising_entropy,
    ising_uniform,
    lambda_min_entropy,
    point_cloud,
    point_cloud_from_csv,
    sphere_uniform,
    spherical_entropy,
)
from tapbound.errors import DomainError
from tapbound.geometry import norm, normalize

LOG2 = math.log(2.0)


def j_direct(m):
    """Independent evaluation of the binary entropy formula."""
    if abs(m) >= 1.0:
        return LOG2
    return (1 + m) / 2 * math.log(1 + m) + (1 - m) / 2 * math.log(1 - m)


class TestBinaryEntropy:
    def test_zero(self):
        assert binary_entropy(0.0) == 0.0

    def test_capped_outside(self):
        assert binary_entropy(1.5) == LOG2
        assert binary_entropy(-3.0) == LOG2

    def test_half_frozen_value(self):
        # 0.75 log(1.5) + 0.25 log(0.5), high-precision
        assert binary_entropy(0.5) == pytest.approx(0.13081203594113698, abs=1e-15)

    def test_even_and_matches_direct(self):
        rng = np.random.default_rng(0)
        for m in rng.uniform(-2, 2, size=200):
            assert binary_entropy(m) == pytest.approx(j_direct(m), abs=1e-14)
            assert binary_entropy(-m) == pytest.approx(binary_entropy(m), abs=0)

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
        from scipy.special import betainc
        E = sphere_uniform(12)
        lam = np.zeros(12)
        lam[0] = np.sqrt(12)
        for t in (0.1, 0.35, 0.7):
            m = t * lam  # threshold <lam, m> - 0 = t
            got = halfspace_log_mass(E, lam, m, 0.0)
            expect = math.log(0.5 * betainc((12 - 1) / 2, 0.5, 1 - t * t))
            assert got == pytest.approx(expect, abs=1e-9)

    def test_sphere_cap_upper_bound(self):
        # quadrature values on an alpha-grid obey sqrt(N/2pi)(1-a^2)^{(N-3)/2}
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
    def test_from_csv_roundtrip(self, tmp_path):
        pts = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
        w = np.array([0.2, 0.3, 0.5])
        path = tmp_path / "cloud.csv"
        with open(path, "w") as fh:
            fh.write("# v1,v2,v3,weight\n")
            for row, wi in zip(pts, w):
                fh.write(",".join(str(x) for x in row) + f",{wi}\n")
        E = point_cloud_from_csv(path)
        assert E.kind == "point_cloud"
        assert np.allclose(E.weights, w)
        got = halfspace_log_mass(E, np.array([np.sqrt(3), 0, 0]), np.zeros(3), 0.0)
        # atoms with first coordinate +1 carry mass 0.5
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_off_sphere_atom_rejected(self):
        with pytest.raises(DomainError):
            point_cloud(np.array([[1.0, 0.0]]), np.array([1.0]))


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


def reference_lambda_min_entropy(E, m, delta, extra_directions=()):
    """(lambda, exit) where exit names the rule that ended the search."""
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
    for it in range(LOCAL_SEARCH_ITERATIONS):
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
        assert np.array_equal(lambda_min_entropy(E, m, delta, extra_directions),
                              expect)

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
        assert np.array_equal(lambda_min_entropy(E, m, delta, extra_directions),
                              expect)

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
        assert np.array_equal(lambda_min_entropy(E, m, 0.2), expect)

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
        assert np.array_equal(got, expect)
        if exit_rule == "-inf":
            assert halfspace_log_mass(E, got, m, delta) == -np.inf

    def test_candidate_exit(self):
        n, delta = 8, 0.1
        m = np.zeros(n)
        m[0] = 1.0 + 1.5 * delta * np.sqrt(n)
        E = ising_uniform(n)
        expect, rule = reference_lambda_min_entropy(E, m, delta)
        assert rule == "candidate"
        assert np.array_equal(lambda_min_entropy(E, m, delta), expect)


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
