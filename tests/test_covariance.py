"""Exact arithmetic tests for the mixture series, recentering, and Onsager term."""

from math import prod

import numpy as np
import pytest

from tapbound.covariance import CovarianceSeries
from tapbound.errors import DomainError

from oracles import (
    oracle_onsager,
    oracle_onsager_derivative,
    oracle_onsager_second_derivative,
)


def random_series(rng, max_degree=5):
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = rng.uniform(0.0, 1.5, size=degree + 1)
    coeffs[rng.uniform(size=degree + 1) < 0.3] = 0.0
    return CovarianceSeries(tuple(coeffs))


class TestEvaluation:
    def test_pure_two_spin_value(self):
        xi = CovarianceSeries((0.0, 0.0, 1.0))
        assert xi.evaluate(0.5) == pytest.approx(0.25, abs=0)

    def test_pure_two_spin_first_derivative(self):
        xi = CovarianceSeries((0.0, 0.0, 1.0))
        assert xi.evaluate(1.0, order=1) == pytest.approx(2.0, abs=0)

    def test_mixed_third_derivative(self):
        # xi = x^2 + 0.5 x^3, differentiated three times by hand: 0.5 * 6 = 3
        xi = CovarianceSeries((0.0, 0.0, 1.0, 0.5))
        assert xi.evaluate(1.0, order=3) == pytest.approx(3.0, abs=0)

    def test_order_beyond_degree_is_zero(self):
        xi = CovarianceSeries((0.0, 0.0, 1.0))
        assert xi.evaluate(0.3, order=5) == 0.0

    def test_precomputed_derivative_coefficients_unchanged(self):
        # b_j = a_{j+k} (j+k)!/j!, rebuilt per call as before the precompute
        rng = np.random.default_rng(21)
        for xi in [CovarianceSeries(()), CovarianceSeries((0.0,)),
                   CovarianceSeries((0.0, 0.0, 1.0, 0.5))] + [
                       random_series(rng, 8) for _ in range(20)]:
            a = xi.coefficients
            for k in range(len(a) + 3):
                expect = tuple(a[j + k] * prod(range(j + 1, j + k + 1))
                               for j in range(len(a) - k))
                got = xi.derivative_coefficients(k)
                assert got == expect
                assert all(type(g) is type(e) for g, e in zip(got, expect))
            with pytest.raises(DomainError):
                xi.derivative_coefficients(-1)

    def test_domain_error_outside_unit_interval(self):
        xi = CovarianceSeries((0.0, 1.0))
        with pytest.raises(DomainError):
            xi.evaluate(1.5)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(DomainError):
            CovarianceSeries((0.0, -1.0))

    def test_derivative_at_one_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xi = random_series(rng)
            a = xi.coefficients
            for k in range(len(a) + 1):
                direct = sum(
                    a[p] * np.prod(np.arange(p - k + 1, p + 1))
                    for p in range(k, len(a))
                )
                assert xi.evaluate(1.0, k) == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_derivatives_monotone_on_unit_interval(self):
        rng = np.random.default_rng(8)
        xs = np.linspace(0.0, 1.0, 21)
        for _ in range(20):
            xi = random_series(rng)
            for k in range(len(xi.coefficients)):
                vals = [xi.evaluate(x, k) for x in xs]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRecentering:
    def test_pure_two_spin_recentered_is_z_squared(self):
        xi = CovarianceSeries((0.0, 0.0, 1.0))
        for q in (0.0, 0.3, 0.7):
            assert xi.recenter(q)(0.3) == pytest.approx(0.09, abs=1e-15)

    def test_zero_at_origin(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            xi = random_series(rng)
            q = rng.uniform(0.0, 1.0)
            assert xi.recenter(q)(0.0) == 0.0

    def test_cubic_hand_value(self):
        # xi = x^3, q = 0.5, z = 0.25: xi(0.75) - xi'(0.5)*0.25 - xi(0.5)
        xi = CovarianceSeries((0.0, 0.0, 0.0, 1.0))
        assert xi.recenter(0.5)(0.25) == pytest.approx(0.109375, abs=1e-15)

    def test_derivative_vanishes_at_origin(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            xi = random_series(rng)
            q = rng.uniform(0.0, 1.0)
            assert xi.recenter(q)(0.0, order=1) == pytest.approx(0.0, abs=1e-14)

    def test_composition_identity(self):
        # (xi_q)_{q'}(z) == xi_{q+q'}(z)
        rng = np.random.default_rng(11)
        for _ in range(200):
            xi = random_series(rng)
            q = rng.uniform(0.0, 0.6)
            q2 = rng.uniform(0.0, 1.0 - q)
            z = rng.uniform(-(q + q2), 1.0 - q - q2)
            lhs = xi.recenter(q).recenter(q2)(z)
            rhs = xi.recenter(q + q2)(z)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_q_domain_error(self):
        xi = CovarianceSeries((0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            xi.recenter(-0.1)


class TestOnsager:
    def test_pure_two_spin_at_zero(self):
        assert CovarianceSeries((0.0, 0.0, 1.0)).onsager(0.0) == pytest.approx(1.0, abs=0)

    def test_vanishes_at_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert random_series(rng).onsager(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_pure_two_spin_closed_form(self):
        # On(q) = (1-q)^2 for xi = x^2
        xi = CovarianceSeries((0.0, 0.0, 1.0))
        assert xi.onsager(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_equals_recentered_at_complement(self):
        # On(q) == xi_q(1-q), relative 1e-12
        rng = np.random.default_rng(13)
        for _ in range(200):
            xi = random_series(rng)
            q = rng.uniform(0.0, 1.0)
            lhs = xi.onsager(q)
            rhs = xi.recenter(q)(1.0 - q)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_nonnegative_on_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            xi = random_series(rng)
            for q in np.linspace(0.0, 1.0, 11):
                assert xi.onsager(q) >= -1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            xi = random_series(rng)
            q = rng.uniform(0.05, 0.95)
            h = 1e-6
            fd = (xi.onsager(q + h) - xi.onsager(q - h)) / (2 * h)
            assert xi._onsager_derivative_rows(np.array([q]))[0] == pytest.approx(
                fd, rel=2e-5, abs=2e-6)

    def test_second_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            xi = random_series(rng)
            q = rng.uniform(0.05, 0.95)
            h = 1e-6
            first = xi._onsager_derivative_rows(np.array([q + h, q - h]))
            fd = (first[0] - first[1]) / (2 * h)
            assert xi._onsager_second_derivative_rows(np.array([q]))[0] == pytest.approx(
                fd, rel=2e-5, abs=2e-6)

    @pytest.mark.parametrize("degree", range(-1, 9))
    def test_second_derivative_matches_the_term_by_term_formula(self, degree):
        # one coefficient set per length 0..9: On'' = xi'' - (1-q) xi^(3)
        rng = np.random.default_rng(36 + degree)
        xi = CovarianceSeries(tuple(rng.uniform(0.0, 1.0, degree + 1)))
        q = np.concatenate((np.linspace(0.0, 1.0, 41), rng.uniform(0.0, 1.0, 40)))
        got = xi._onsager_second_derivative_rows(q)
        assert got.shape == q.shape
        for x, value in zip(q, got):
            expect = oracle_onsager_second_derivative(xi.coefficients, x)
            assert value == pytest.approx(expect, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("degree", range(-1, 9))
    def test_horner_many_match_scalar_formulas(self, degree):
        # one coefficient set per length 0..9, so every order of series
        rng = np.random.default_rng(16 + degree)
        xi = CovarianceSeries(tuple(rng.uniform(0.0, 1.0, degree + 1)))
        q = np.concatenate((np.linspace(0.0, 1.0, 41), rng.uniform(0.0, 1.0, 40), [1.0 + 1e-13]))
        on = xi.onsager_many(q)
        on_prime = xi._onsager_derivative_rows(np.minimum(q, 1.0))
        assert on.shape == on_prime.shape == q.shape
        for x, a, b in zip(q, on, on_prime):
            x = min(x, 1.0)
            assert a == pytest.approx(oracle_onsager(xi.coefficients, x), abs=1e-14)
            assert b == pytest.approx(oracle_onsager_derivative(xi.coefficients, x), abs=1e-14)
            assert (xi.onsager(x), xi._onsager_derivative_rows(np.array([x]))[0]) == (a, b)

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, np.nan, np.inf])
    def test_many_reject_q_outside_unit_interval(self, bad):
        xi = CovarianceSeries((0.0, 0.5, 1.0))
        with pytest.raises(DomainError):
            xi.onsager_many(np.array([0.5, bad]))
        with pytest.raises(DomainError):
            xi.onsager(bad)

    def test_unchecked_rows_match_the_public_calls(self):
        # The TAP rows call the unchecked Horner passes on q = min(1, |m|^2/N)
        xi = CovarianceSeries((0.0, 0.5, 1.0, 0.25))
        q = np.concatenate((np.linspace(0.0, 1.0, 33), [1.0 + 1e-13]))
        inside = np.minimum(q, 1.0)
        assert np.array_equal(xi.onsager_many(q), xi._onsager_rows(inside))
