"""Mixture covariance function xi and derived quantities.

A mixed model is specified by a finite list of nonnegative coefficients
(a_0, a_1, ..., a_P) encoding xi(x) = sum_p a_p x^p on [-1, 1]. This module
provides exact evaluation of xi and its derivatives (Horner on transformed
coefficients), the recentered series

    xi_q(z) = xi(q + z) - xi'(q) z - xi(q),

and the Onsager term

    On(q) = xi(1) - (1 - q) xi'(q) - xi(q),

which satisfies On(q) = xi_q(1 - q) on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import DomainError

# Slack for floating-point dust on |x| <= 1 checks (overlaps of unit vectors
# can exceed 1 by a few ulps); anything larger is a caller bug.
_DUST = 1e-12


def _check_unit_interval(x: float, name: str = "x") -> float:
    if not np.isfinite(x) or abs(x) > 1.0 + _DUST:
        raise DomainError(f"{name}={x!r} outside [-1, 1]")
    return float(min(1.0, max(-1.0, x)))


@dataclass(frozen=True)
class CovarianceSeries:
    """Finite mixture xi(x) = sum_p coefficients[p] * x^p with a_p >= 0."""

    coefficients: tuple[float, ...]
    # derivative_coefficients(k) for every k below len(coefficients)
    _derivatives: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(not np.isfinite(c) or c < 0.0 for c in coeffs):
            raise DomainError("coefficients must be finite and nonnegative")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_derivatives", tuple(
            tuple(coeffs[j + k] * prod(range(j + 1, j + k + 1))
                  for j in range(len(coeffs) - k))
            for k in range(len(coeffs))))

    @property
    def degree(self) -> int:
        """Largest p with a_p > 0, or -1 for the zero series."""
        for p in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[p] > 0.0:
                return p
        return -1

    def derivative_coefficients(self, order: int) -> tuple[float, ...]:
        """Coefficients of xi^(order): b_j = a_{j+order} (j+order)!/j!."""
        if order < 0:
            raise DomainError("derivative order must be >= 0")
        return self._derivatives[order] if order < len(self._derivatives) else ()

    def evaluate(self, x: float, order: int = 0) -> float:
        """xi^(order)(x) for |x| <= 1, by Horner evaluation."""
        x = _check_unit_interval(x)
        b = self.derivative_coefficients(order)
        acc = 0.0
        for c in reversed(b):
            acc = acc * x + c
        return acc

    def __call__(self, x: float, order: int = 0) -> float:
        return self.evaluate(x, order)

    def evaluate_many(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        """Vectorized Horner evaluation of xi^(order) over an array in [-1, 1]."""
        x = np.asarray(x, dtype=np.float64)
        if np.abs(x).max(initial=0.0) > 1.0 + _DUST:
            raise DomainError("array entries outside [-1, 1]")
        x = np.clip(x, -1.0, 1.0)
        acc = np.zeros_like(x)
        for c in reversed(self.derivative_coefficients(order)):
            acc = acc * x + c
        return acc

    def onsager_many(self, q: np.ndarray) -> np.ndarray:
        q = np.clip(np.asarray(q, dtype=np.float64), 0.0, 1.0)
        return (self.evaluate(1.0) - (1.0 - q) * self.evaluate_many(q, 1)
                - self.evaluate_many(q))

    def recenter(self, q: float) -> "RecenteredSeries":
        """The series xi_q; q must lie in [0, 1]."""
        if not 0.0 <= q <= 1.0 + _DUST:
            raise DomainError(f"q={q!r} outside [0, 1]")
        return RecenteredSeries(self, min(float(q), 1.0))

    def onsager(self, q: float) -> float:
        """On(q) = xi(1) - (1-q) xi'(q) - xi(q), for q in [0, 1]."""
        if not 0.0 <= q <= 1.0 + _DUST:
            raise DomainError(f"q={q!r} outside [0, 1]")
        q = min(float(q), 1.0)
        return self.evaluate(1.0) - (1.0 - q) * self.evaluate(q, 1) - self.evaluate(q)

    def onsager_derivative(self, q: float) -> float:
        """On'(q) = -(1-q) xi''(q)."""
        if not 0.0 <= q <= 1.0 + _DUST:
            raise DomainError(f"q={q!r} outside [0, 1]")
        q = min(float(q), 1.0)
        return -(1.0 - q) * self.evaluate(q, 2)


@dataclass(frozen=True)
class RecenteredSeries:
    """xi_q(z) = xi(q+z) - xi'(q) z - xi(q), defined for q+z in [-1, 1].

    Satisfies xi_q(0) = 0, xi_q'(0) = 0, and (xi_q)_{q'} = xi_{q+q'}.
    """

    base: CovarianceSeries
    q: float

    def evaluate(self, z: float, order: int = 0) -> float:
        x = _check_unit_interval(self.q + z, "q+z")
        val = self.base.evaluate(x, order)
        if order == 0:
            return val - self.base.evaluate(self.q, 1) * z - self.base.evaluate(self.q)
        if order == 1:
            return val - self.base.evaluate(self.q, 1)
        return val

    def __call__(self, z: float, order: int = 0) -> float:
        return self.evaluate(z, order)

    def recenter(self, q_extra: float) -> "RecenteredSeries":
        """(xi_q)_{q'} = xi_{q+q'}; composition stays exact."""
        return self.base.recenter(self.q + q_extra)


def xi_eval(series: CovarianceSeries, k: int, x: float) -> float:
    """Module-level alias for series.evaluate(x, k)."""
    return series.evaluate(x, k)


def xi_recenter(series: CovarianceSeries, q: float) -> RecenteredSeries:
    return series.recenter(q)


def onsager(series: CovarianceSeries, q: float) -> float:
    return series.onsager(q)
