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


def _unit_q(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if not np.all((q >= 0.0) & (q <= 1.0 + _DUST)):
        raise DomainError("q entries outside [0, 1]")
    return np.minimum(q, 1.0)


def _horner(coeffs: tuple, x):
    """sum_k coeffs[k] x^k for a float or an array x of finite values;
    `0.0 * x` gives the accumulator the shape of x."""
    acc = coeffs[-1] + 0.0 * x
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class CovarianceSeries:
    """Finite mixture xi(x) = sum_p coefficients[p] * x^p with a_p >= 0."""

    coefficients: tuple[float, ...]
    # derivative_coefficients(k) for every k below len(coefficients)
    _derivatives: tuple = field(init=False, repr=False, compare=False)
    # polynomial coefficients of On(q) and of On'(q) = -(1-q) xi''(q)
    _onsager: tuple = field(init=False, repr=False, compare=False)
    _onsager_derivative: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(not np.isfinite(c) or c < 0.0 for c in coeffs):
            raise DomainError("coefficients must be finite and nonnegative")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_derivatives", tuple(
            tuple(coeffs[j + k] * prod(range(j + 1, j + k + 1))
                  for j in range(len(coeffs) - k))
            for k in range(len(coeffs))))
        # On(q) = xi(1) + sum_k [(k-1) a_k - (k+1) a_{k+1}] q^k, and On'(q)
        # = sum_k (e_{k-1} - e_k) q^k with e the coefficients of xi''
        a = coeffs + (0.0, 0.0)
        onsager = [sum(coeffs) - a[0] - a[1]] + [
            (k - 1) * a[k] - (k + 1) * a[k + 1] for k in range(1, len(coeffs))]
        e = (0.0,) + self.derivative_coefficients(2) + (0.0,)
        object.__setattr__(self, "_onsager", tuple(onsager))
        object.__setattr__(self, "_onsager_derivative",
                           tuple(e[k] - e[k + 1] for k in range(len(e) - 1)))

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
        return _horner(b, x) if b else 0.0

    def __call__(self, x: float, order: int = 0) -> float:
        return self.evaluate(x, order)

    def onsager_many(self, q: np.ndarray) -> np.ndarray:
        """On(q) = xi(1) - (1-q) xi'(q) - xi(q) for q in [0, 1], as one
        Horner pass over its stored coefficients."""
        return self._onsager_rows(_unit_q(q))

    def onsager_derivative_many(self, q: np.ndarray) -> np.ndarray:
        """On'(q) = -(1-q) xi''(q) for q in [0, 1], as one Horner pass."""
        return self._onsager_derivative_rows(_unit_q(q))

    def _onsager_rows(self, q: np.ndarray) -> np.ndarray:
        """`onsager_many` without its check, for float64 q already in [0, 1]."""
        return _horner(self._onsager, q)

    def _onsager_derivative_rows(self, q: np.ndarray) -> np.ndarray:
        """`onsager_derivative_many` without its check, for float64 q already
        in [0, 1]."""
        return _horner(self._onsager_derivative, q)

    def recenter(self, q: float) -> "RecenteredSeries":
        """The series xi_q; q must lie in [0, 1]."""
        if not 0.0 <= q <= 1.0 + _DUST:
            raise DomainError(f"q={q!r} outside [0, 1]")
        return RecenteredSeries(self, min(float(q), 1.0))

    def onsager(self, q: float) -> float:
        """On(q) at one q in [0, 1] (a one-value `onsager_many`)."""
        return float(self.onsager_many(q))


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

