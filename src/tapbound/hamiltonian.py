"""Gaussian mixed p-spin Hamiltonian on the normalized ball.

The field is realized by dense non-symmetrized coupling tensors of i.i.d.
standard Gaussians: for each degree p with a_p > 0,

    H_p(sigma) = sqrt(a_p) N^{(1-p)/2} sum_{i_1..i_p} g_{i_1..i_p} sigma_{i_1} ... sigma_{i_p},

so that E[H(sigma) H(sigma')] = N xi(<sigma, sigma'>) exactly. Only the law is
contractual; the tensor representation is chosen for simple sampling and
analytic gradients.

Seeding: a sample is a deterministic function of (model, seed); the tensor of
degree p is drawn from the substream SeedSequence(seed, spawn_key=(p,)).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .covariance import CovarianceSeries
from .errors import DomainError, ResourceBudgetError
from .geometry import inner_many, norm

NORM_TOLERANCE = 1e-9
MAX_DEGREE_DEFAULT = 4
TENSOR_BUDGET_BYTES_DEFAULT = 1 << 28  # 256 MiB per tensor

_MAGIC = b"TAPD"
_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# External field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExternalField:
    """Generalized external field f(sigma) = F(<sigma, u_1>, ..., <sigma, u_K>).

    `basis` rows are <.,.>-orthonormal directions spanning the subspace U the
    field factors through. Built-in kinds:

      none            -- f = 0
      linear          -- f = h * sum_i sigma_i           (K = 1, u_1 = ones)
      quadratic_spike -- f = (h/N) (sum_i sigma_i)^2     (K = 1, u_1 = ones)
      custom          -- user function of the K projection coordinates

    `lipschitz_bound` is the Lipschitz constant of f with respect to the
    normalized norm (order N for the built-in kinds).
    """

    kind: str
    n: int
    h: float = 0.0
    basis: np.ndarray = field(default=None, repr=False)
    func: Optional[Callable[[np.ndarray], float]] = None
    func_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lipschitz_bound: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "linear", "quadratic_spike", "custom"):
            raise DomainError(f"unknown field kind {self.kind!r}")
        basis = np.atleast_2d(np.asarray(self.basis, dtype=np.float64))
        gram = (basis @ basis.T) / self.n
        if not np.allclose(gram, np.eye(len(basis)), atol=1e-12):
            raise DomainError("field basis rows are not <.,.>-orthonormal to 1e-12")
        object.__setattr__(self, "basis", basis)

    @property
    def K(self) -> int:
        return self.basis.shape[0]

    def value(self, sigma: np.ndarray) -> float:
        t = inner_many(self.basis, sigma)
        if self.kind == "none":
            return 0.0
        if self.kind == "linear":
            return self.h * self.n * float(t[0])
        if self.kind == "quadratic_spike":
            return self.h * self.n * float(t[0]) ** 2
        return float(self.func(t))

    def value_many(self, sigmas: np.ndarray) -> np.ndarray:
        t = (sigmas @ self.basis.T) / self.n
        if self.kind == "none":
            return np.zeros(len(sigmas))
        if self.kind == "linear":
            return self.h * self.n * t[:, 0]
        if self.kind == "quadratic_spike":
            return self.h * self.n * t[:, 0] ** 2
        return np.array([float(self.func(row)) for row in t])

    def gradient(self, sigma: np.ndarray) -> np.ndarray:
        """d f / d sigma_i; custom kinds need `func_grad` (coordinate partials)."""
        t = inner_many(self.basis, sigma)
        if self.kind == "none":
            return np.zeros(self.n)
        if self.kind == "linear":
            return np.full(self.n, self.h)
        if self.kind == "quadratic_spike":
            return (2.0 * self.h / self.n) * (self.basis[0] @ sigma) * self.basis[0]
        if self.func_grad is None:
            return _field_gradient_fd(self, sigma)
        partials = np.asarray(self.func_grad(t), dtype=np.float64)
        return (partials @ self.basis) / self.n


def _field_gradient_fd(f: ExternalField, sigma: np.ndarray, step: float = 1e-6) -> np.ndarray:
    g = np.empty(f.n)
    for i in range(f.n):
        e = np.zeros(f.n)
        e[i] = step
        g[i] = (f.value(sigma + e) - f.value(sigma - e)) / (2 * step)
    return g


def field_none(n: int) -> ExternalField:
    return ExternalField("none", n, basis=np.ones((1, n)))


def field_linear(h: float, n: int) -> ExternalField:
    return ExternalField("linear", n, h=h, basis=np.ones((1, n)),
                         lipschitz_bound=abs(h) * n)


def field_quadratic_spike(h: float, n: int) -> ExternalField:
    return ExternalField("quadratic_spike", n, h=h, basis=np.ones((1, n)),
                         lipschitz_bound=2.0 * abs(h) * n)


def field_custom(basis, func, func_grad=None, lipschitz_bound=0.0) -> ExternalField:
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    return ExternalField("custom", basis.shape[1], basis=basis, func=func,
                         func_grad=func_grad, lipschitz_bound=lipschitz_bound)


# ---------------------------------------------------------------------------
# Model and disorder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedModel:
    n: int
    series: CovarianceSeries
    beta: float = 1.0
    field: ExternalField = None
    max_degree: int = MAX_DEGREE_DEFAULT
    tensor_budget_bytes: int = TENSOR_BUDGET_BYTES_DEFAULT

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.beta < 0:
            raise DomainError("beta must be >= 0")
        if self.field is None:
            object.__setattr__(self, "field", field_none(self.n))
        elif self.field.n != self.n:
            raise DomainError("field dimension does not match model")

    @property
    def active_degrees(self) -> tuple[int, ...]:
        return tuple(p for p, a in enumerate(self.series.coefficients) if a > 0.0)


@dataclass(frozen=True)
class DisorderSample:
    """Raw Gaussian coupling tensors for one realization of the field."""

    model: MixedModel
    seed: int
    tensors: dict  # degree -> ndarray of shape (n,)*degree (degree 0: scalar)

    @property
    def n(self) -> int:
        return self.model.n

    @cached_property
    def terms(self) -> tuple:
        """(degree, sqrt(a_p) N^{(1-p)/2}, tensor) for every active degree."""
        a = self.model.series.coefficients
        return tuple((p, np.sqrt(a[p]) * self.n ** ((1 - p) / 2), g)
                     for p, g in self.tensors.items())


def sample_disorder(model: MixedModel, seed: int) -> DisorderSample:
    """Draw coupling tensors; deterministic in (model, seed).

    Raises ResourceBudgetError when a degree-p tensor of n^p doubles exceeds
    the model's budget, and DomainError past the configured max degree.
    """
    tensors = {}
    for p in model.active_degrees:
        if p > model.max_degree:
            raise DomainError(
                f"degree {p} above configured maximum {model.max_degree}")
        required = 8 * model.n ** p
        if required > model.tensor_budget_bytes:
            raise ResourceBudgetError(
                f"degree-{p} tensor needs {required} bytes "
                f"(budget {model.tensor_budget_bytes})",
                required=required, budget=model.tensor_budget_bytes)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p,)))
        if p == 0:
            tensors[p] = float(rng.standard_normal())
        else:
            tensors[p] = rng.standard_normal(size=(model.n,) * p)
    return DisorderSample(model, int(seed), tensors)


def _check_ball(sigma: np.ndarray, n: int, open_ball: bool = False) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (n,):
        raise DomainError(f"expected vector of length {n}")
    r = norm(sigma)
    if open_ball:
        if r >= 1.0:
            raise DomainError(f"||sigma|| = {r} not inside the open unit ball")
    elif r > 1.0 + NORM_TOLERANCE:
        raise DomainError(f"||sigma|| = {r} > 1 beyond tolerance")
    return sigma


# Rows per block in energy_many: keeps the (rows x N^{p-1}) scratch of the
# contraction flat whatever the batch size.
_ROW_CHUNK = 1 << 13


def _kron_powers(sigma: np.ndarray, top: int) -> list:
    """[None, sigma, sigma^{tensor 2}, ..., sigma^{tensor top}], flattened."""
    powers = [None, sigma]
    while len(powers) <= top:
        powers.append(np.multiply.outer(powers[-1], sigma).ravel())
    return powers


def _partial(g: np.ndarray, powers: list, k: int) -> np.ndarray:
    """Contraction of g with sigma at every axis but position k.

    Reshapes of the C-ordered tensor turn both sides into plain matvecs:
    (sigma^{tensor k} @ g.reshape(N^k, -1)).reshape(N, -1) @ sigma^{tensor p-1-k}.
    """
    n = len(powers[1])
    rest = g.ndim - 1 - k
    if k:
        g = powers[k] @ g.reshape(n ** k, -1)
    return g.reshape(n, -1) @ powers[rest] if rest else g


def _contract_rows(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """<g, x^{tensor p}> for every row x of X, for p = g.ndim >= 1.

    One matmul contracts the first axis; each remaining axis is a
    reshape-multiply-sum against the rows.
    """
    n = X.shape[1]
    out = np.empty(len(X))
    for start in range(0, len(X), _ROW_CHUNK):
        x = X[start:start + _ROW_CHUNK]
        t = x @ g.reshape(n, -1)
        for _ in range(g.ndim - 1):
            t = (t.reshape(len(x), n, -1) * x[:, :, None]).sum(axis=1)
        out[start:start + len(x)] = t[:, 0]
    return out


def energy(d: DisorderSample, sigma: np.ndarray) -> float:
    """H(sigma) = sum_p sqrt(a_p) N^{(1-p)/2} <g_p, sigma^{tensor p}>."""
    sigma = _check_ball(sigma, d.n)
    powers = _kron_powers(sigma, max(d.tensors, default=0) - 1)
    total = 0.0
    for p, scale, g in d.terms:
        total += scale * (g if p == 0 else _partial(g, powers, p - 1) @ sigma)
    return float(total)


def energy_many(d: DisorderSample, sigmas: np.ndarray) -> np.ndarray:
    """Vectorized H over the rows of `sigmas` (no per-row domain check)."""
    X = np.asarray(sigmas, dtype=np.float64)
    total = np.zeros(len(X))
    for p, scale, g in d.terms:
        total += scale * (g if p == 0 else _contract_rows(g, X))
    return total


def gradient(d: DisorderSample, sigma: np.ndarray) -> np.ndarray:
    """Analytic partial derivatives of H at sigma in the open ball.

    For a non-symmetrized degree-p tensor the derivative sums the p partial
    contractions with index i placed at each position.
    """
    sigma = _check_ball(sigma, d.n, open_ball=True)
    powers = _kron_powers(sigma, max(d.tensors, default=0) - 1)
    grad = np.zeros(d.n)
    for p, scale, g in d.terms:
        if p:
            part = _partial(g, powers, 0)
            for k in range(1, p):
                part = part + _partial(g, powers, k)
            grad += scale * part
    return grad


def effective_field(d: DisorderSample, m: np.ndarray) -> np.ndarray:
    """The effective external field after recentering at m: grad H(m)."""
    return gradient(d, m)


def field_value(f: ExternalField, sigma: np.ndarray) -> float:
    if norm(np.asarray(sigma, dtype=np.float64)) > 1.0 + NORM_TOLERANCE:
        raise DomainError("sigma outside the unit ball")
    return f.value(np.asarray(sigma, dtype=np.float64))


def energy_with_field(d: DisorderSample, f: ExternalField, sigma: np.ndarray) -> float:
    return energy(d, sigma) + field_value(f, sigma)


def recentered_energy(d: DisorderSample, m: np.ndarray, sigma_hat: np.ndarray) -> float:
    """H^m(s) = H(m + s) - grad H(m) . s - H(m), with the standard dot product."""
    m = np.asarray(m, dtype=np.float64)
    s = np.asarray(sigma_hat, dtype=np.float64)
    total = _check_ball(m + s, d.n)
    g = gradient(d, m)
    return energy(d, total) - float(g @ s) - energy(d, m)


@dataclass(frozen=True)
class LipschitzProbe:
    max_grad_norm: float
    max_ratio: float
    probe_count: int


def lipschitz_probe(d: DisorderSample, probe_count: int, rng_seed: int) -> LipschitzProbe:
    """Probe-based UNDER-estimates of sup ||grad H|| and the Lipschitz ratio.

    Samples points uniformly in the ball of radius 0.999 and reports the max
    gradient norm over probes and max |H(m) - H(m')| / (N ||m - m'||) over all
    probe pairs. Diagnostic only; a lower bound on the true suprema.
    """
    if probe_count < 1:
        raise DomainError("probe_count must be >= 1")
    if not d.tensors:
        return LipschitzProbe(0.0, 0.0, probe_count)
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(101,)))
    n = d.n
    z = rng.standard_normal((probe_count, n))
    radii = 0.999 * rng.uniform(size=probe_count) ** (1.0 / n)
    pts = z * (radii / np.sqrt((z ** 2).sum(axis=1) / n))[:, None]
    max_grad = max(norm(gradient(d, p)) for p in pts)
    energies = energy_many(d, pts)
    max_ratio = 0.0
    for i in range(probe_count):
        diff = pts[i + 1:] - pts[i]
        dn = np.sqrt((diff ** 2).sum(axis=1) / n)
        ok = dn > 1e-12
        if ok.any():
            r = np.abs(energies[i + 1:] - energies[i])[ok] / (n * dn[ok])
            max_ratio = max(max_ratio, float(r.max()))
    return LipschitzProbe(float(max_grad), float(max_ratio), probe_count)


# ---------------------------------------------------------------------------
# Persistence: magic, version, n, seed, degree list, raw LE float64 tensors
# ---------------------------------------------------------------------------

def save_disorder(d: DisorderSample, path) -> None:
    degrees = sorted(d.tensors)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQI", _FORMAT_VERSION, d.n, d.seed % (1 << 64),
                             len(degrees)))
        for p in degrees:
            fh.write(struct.pack("<I", p))
        for p in degrees:
            arr = np.asarray(d.tensors[p], dtype="<f8")
            fh.write(arr.tobytes(order="C"))


def _read_exact(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise DomainError("truncated disorder file")
    return raw


def load_disorder(path, model: MixedModel) -> DisorderSample:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise DomainError("not a disorder file (bad magic)")
        version, n, seed, ndeg = struct.unpack("<IIQI", _read_exact(fh, 20))
        if version != _FORMAT_VERSION:
            raise DomainError(f"unsupported disorder file version {version}")
        if n != model.n:
            raise DomainError(f"file dimension {n} does not match model {model.n}")
        if ndeg != len(model.active_degrees):
            raise DomainError("file degree list does not match model series")
        degrees = list(struct.unpack(f"<{ndeg}I", _read_exact(fh, 4 * ndeg)))
        if sorted(degrees) != list(model.active_degrees):
            raise DomainError("file degree list does not match model series")
        tensors = {}
        for p in degrees:
            raw = np.frombuffer(_read_exact(fh, 8 * n ** p), dtype="<f8")
            tensors[p] = float(raw[0]) if p == 0 else raw.reshape((n,) * p).copy()
        if fh.read(1):
            raise DomainError("trailing bytes after the last disorder tensor")
    return DisorderSample(model, int(seed), tensors)
