"""Gaussian mixed p-spin Hamiltonian on the normalized ball.

The field is realized by dense non-symmetrized coupling tensors of i.i.d.
standard Gaussians: for each degree p with a_p > 0,

    H_p(sigma) = sqrt(a_p) N^{(1-p)/2} sum_{i_1..i_p} g_{i_1..i_p} sigma_{i_1} ... sigma_{i_p},

so that E[H(sigma) H(sigma')] = N xi(<sigma, sigma'>) exactly. Only the law is
contractual; the tensor representation is chosen for simple sampling and
analytic gradients.

A `MixedModel` holds what fixes that law, n and xi, with the tensor budget
that bounds every degree. The inverse temperature beta and the external field
f are parameters of the Gibbs measure and of the TAP functional, not of H:
the partition functions, the cover and `tap.TapProblem` take them beside the
disorder.

Seeding: a sample is a deterministic function of (model, seed); the tensor of
degree p is drawn from the substream SeedSequence(seed, spawn_key=(p,)).
`sample_disorders` draws the same tensors for a block of seeds, stacked on a
leading replica axis.

One kernel, `_contract_rows`, evaluates H and its derivatives: it contracts
every replica of a block with every row of a (rows, N) array at once, and a
single sample is a block of one. `energy` and `gradient` at a point are
ball-checked one-row calls of the same bodies as `energy_many` and
`gradient_many`, so they equal them bit for bit.

`recentered_energy` is the one body of the recentered Hamiltonian
H^m(s) = H(m + s) - grad H(m) . s - H(m), over rows s and for every replica
of a sample or a block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .covariance import CovarianceSeries
from .errors import DomainError, ResourceBudgetError
from .geometry import norm

NORM_TOLERANCE = 1e-9
TENSOR_BUDGET_BYTES_DEFAULT = 1 << 28  # 256 MiB per tensor


# ---------------------------------------------------------------------------
# External field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExternalField:
    """Generalized external field f(sigma) = F(<sigma, u_1>, ..., <sigma, u_K>).

    `basis` is a (K, n) array whose rows are <.,.>-orthonormal directions
    spanning the subspace U the field factors through (DomainError
    otherwise). Built-in kinds:

      none            -- f = 0
      linear          -- f = h * sum_i sigma_i           (K = 1, u_1 = ones)
      quadratic_spike -- f = (h/N) (sum_i sigma_i)^2     (K = 1, u_1 = ones)
      custom          -- user function of the K projection coordinates

    `lipschitz_bound` is the Lipschitz constant of f with respect to the
    normalized norm (order N for the built-in kinds). A non-finite h or
    `lipschitz_bound` raises DomainError.

    The field keeps a read-only copy of `basis`, so one field can be shared
    by many problems and replicas.
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
        if not (np.isfinite(self.h) and np.isfinite(self.lipschitz_bound)):
            raise DomainError(f"field h = {self.h} and lipschitz_bound = "
                              f"{self.lipschitz_bound} must be finite")
        basis = np.array(self.basis, dtype=np.float64, ndmin=2)
        if basis.ndim != 2 or basis.shape[1] != self.n:
            raise DomainError(f"field basis of shape {basis.shape}, "
                              f"not (K, {self.n})")
        gram = (basis @ basis.T) / self.n
        # written so that a NaN entry fails
        if not np.all(np.abs(gram - np.eye(len(basis))) <= 1e-12):
            raise DomainError("field basis rows are not <.,.>-orthonormal to 1e-12")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def K(self) -> int:
        return self.basis.shape[0]

    def value(self, sigma: np.ndarray) -> float:
        """f(sigma) at one point (a one-row `value_many`)."""
        return float(self.value_many(np.asarray(sigma, dtype=np.float64)[None])[0])

    def value_many(self, sigmas: np.ndarray) -> np.ndarray:
        """f at every row of `sigmas`."""
        return self.value_from_projections(self.projections(sigmas))

    def projections(self, sigmas: np.ndarray) -> np.ndarray:
        """The coordinates <sigma, u_k> of every row: shape (rows, K)."""
        return (sigmas @ self.basis.T) / self.n

    def value_from_projections(self, t: np.ndarray) -> np.ndarray:
        """f at the points whose `projections` are the rows of t: f sees
        sigma only through them."""
        if self.kind == "none":
            return np.zeros(len(t))
        if self.kind == "linear":
            return self.h * self.n * t[:, 0]
        if self.kind == "quadratic_spike":
            return self.h * self.n * t[:, 0] ** 2
        return np.array([float(self.func(row)) for row in t])

    def gradient(self, sigma: np.ndarray) -> np.ndarray:
        """d f / d sigma_i at one point (a one-row `gradient_many`)."""
        return self.gradient_many(np.asarray(sigma, dtype=np.float64)[None])[0]

    def gradient_many(self, sigmas: np.ndarray) -> np.ndarray:
        """d f / d sigma_i at every row. Custom kinds call `func_grad` (the
        coordinate partials) once per row, or without it take central
        differences of f per row."""
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if self.kind == "none":
            return np.zeros(sigmas.shape)
        if self.kind == "linear":
            return np.full(sigmas.shape, self.h)
        if self.kind == "quadratic_spike":
            u = self.basis[0]
            return ((2.0 * self.h / self.n) * (sigmas @ u))[:, None] * u
        if self.func_grad is None:
            return np.array([_field_gradient_fd(self, row)
                             for row in sigmas]).reshape(sigmas.shape)
        t = self.projections(sigmas)
        partials = np.array([self.func_grad(row) for row in t],
                            dtype=np.float64).reshape(t.shape)
        return (partials @ self.basis) / self.n

    def hessian_many(self, sigmas: np.ndarray) -> np.ndarray:
        """d^2 f / d sigma_i d sigma_j at every row: shape (rows, n, n).

        Zero for none and linear, (2h/N) u u^T for the quadratic spike. A
        custom f varies only along its basis, so its Hessian is
        sum_k D_k u_k^T / N, with D_k the central difference of
        `gradient_many` along u_k: 2K gradient rows per row.
        """
        sigmas = np.asarray(sigmas, dtype=np.float64)
        rows, n = sigmas.shape
        if self.kind in ("none", "linear"):
            return np.zeros((rows, n, n))
        if self.kind == "quadratic_spike":
            u = self.basis[0]
            return np.repeat(((2.0 * self.h / n) * np.outer(u, u))[None], rows, axis=0)
        shifts = _FIELD_HESSIAN_STEP * self.basis
        plus = self.gradient_many((sigmas[:, None] + shifts).reshape(-1, n))
        minus = self.gradient_many((sigmas[:, None] - shifts).reshape(-1, n))
        D = ((plus - minus) / (2 * _FIELD_HESSIAN_STEP)).reshape(rows, self.K, n)
        return np.matmul(D.transpose(0, 2, 1), self.basis) / n


# Step along each basis direction (a change of one projection coordinate)
# in the central differences of a custom field's Hessian.
_FIELD_HESSIAN_STEP = 1e-5


def _field_gradient_fd(f: ExternalField, sigma: np.ndarray, step: float = 1e-6) -> np.ndarray:
    shifts = step * np.eye(f.n)
    return (f.value_many(sigma + shifts) - f.value_many(sigma - shifts)) / (2 * step)


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
    """The law of H: E[H(sigma) H(sigma')] = N xi(<sigma, sigma'>), with a
    byte budget for each degree's coupling tensor."""

    n: int
    series: CovarianceSeries
    tensor_budget_bytes: int = TENSOR_BUDGET_BYTES_DEFAULT

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")

    @property
    def active_degrees(self) -> tuple[int, ...]:
        return tuple(p for p, a in enumerate(self.series.coefficients) if a > 0.0)

    def scale(self, p: int) -> float:
        """sqrt(a_p) N^{(1-p)/2}, the weight of the degree-p tensor in H."""
        return np.sqrt(self.series.coefficients[p]) * self.n ** ((1 - p) / 2)


class _DerivativeTerms:
    """The derivative tensors of a sample or a block, built by one body from
    its `replica_terms` (stacked on the replica axis; a sample is a block of
    one)."""

    @cached_property
    def gradient_terms(self) -> tuple:
        """(degree, scale, sum_k moveaxis(g_p, k, -1)) for every degree p >= 1,
        k running over the tensor axes.

        The summed tensor carries the derivative index last, so dH_i(x) is
        its contraction with x at every other tensor axis. It is summed in
        place into a C-ordered array, which the contraction reshapes
        without a copy.
        """
        terms = []
        for p, scale, g in self.replica_terms:
            if p:
                s = np.zeros(np.shape(g))
                for k in range(1, p + 1):
                    s += np.moveaxis(g, k, -1)
                terms.append((p, scale, s))
        return tuple(terms)

    @cached_property
    def hessian_terms(self) -> tuple:
        """(degree, scale, S_p) for every degree p >= 2, with
        S_p = sum_{k != l} moveaxis(g_p, (k, l), (-2, -1)), k and l running
        over the tensor axes.

        S_p carries the two derivative indices last, so d^2 H_ij(x) is its
        contraction with x at every other tensor axis. At p = 2 it is
        g + g^T; above, its last two axes are merged into one of length N^2,
        as `_contract_rows` takes it. Each entry is the sum of its (k, l) and
        (l, k) halves, so S_p is exactly symmetric in them.
        """
        terms = []
        for p, scale, g in self.replica_terms:
            if p >= 2:
                half = sum(np.moveaxis(g, (k, l), (-2, -1))
                           for k in range(1, p + 1) for l in range(k + 1, p + 1))
                s = half + np.swapaxes(half, -1, -2)
                terms.append((p, scale, s if p == 2 else s.reshape(s.shape[:-2] + (-1,))))
        return tuple(terms)


@dataclass(frozen=True)
class DisorderSample(_DerivativeTerms):
    """Raw Gaussian coupling tensors for one realization of the field."""

    model: MixedModel
    seed: int
    tensors: dict  # degree -> ndarray of shape (n,)*degree (degree 0: scalar)

    replicas = 1  # the kernels take a sample as a block of one replica

    @property
    def n(self) -> int:
        return self.model.n

    @cached_property
    def terms(self) -> tuple:
        """(degree, sqrt(a_p) N^{(1-p)/2}, tensor) for every active degree."""
        return tuple((p, self.model.scale(p), g) for p, g in self.tensors.items())

    @cached_property
    def replica_terms(self) -> tuple:
        """`terms` with a leading replica axis of length 1, as the kernels
        take them."""
        return tuple((p, scale, np.reshape(g, (1,) + np.shape(g)))
                     for p, scale, g in self.terms)


@dataclass(frozen=True)
class DisorderBlock(_DerivativeTerms):
    """The coupling tensors of several realizations of one model, stacked on
    a leading replica axis: replica i is `sample_disorder(model, seeds[i])`."""

    model: MixedModel
    seeds: np.ndarray  # uint64, one per replica
    tensors: dict  # degree -> ndarray of shape (R,) + (n,)*degree

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def replicas(self) -> int:
        return len(self.seeds)

    @cached_property
    def replica_terms(self) -> tuple:
        """(degree, sqrt(a_p) N^{(1-p)/2}, stacked tensors) for every active
        degree."""
        return tuple((p, self.model.scale(p), g) for p, g in self.tensors.items())


def _law(d: DisorderSample) -> tuple:
    """(N, the (degree, weight) of every tensor): what a sample must share
    with the others to be stacked with them."""
    return d.n, tuple((p, scale) for p, scale, _ in d.terms)


def stack_disorders(samples) -> DisorderBlock:
    """The samples as one block, replica i holding the tensors of samples[i].

    Raises DomainError for no samples, or for samples of another N or
    another xi (degrees or weights) than the first.
    """
    samples = list(samples)
    if not samples:
        raise DomainError("no disorder to stack")
    law = _law(samples[0])
    if any(_law(d) != law for d in samples[1:]):
        raise DomainError("disorders of different n or xi do not stack")
    tensors = {p: np.stack([d.tensors[p] for d in samples]) for p in samples[0].tensors}
    seeds = np.array([d.seed for d in samples], dtype=np.uint64)
    return DisorderBlock(samples[0].model, seeds, tensors)


def check_gibbs_parameters(d, f: ExternalField, beta: float) -> None:
    """DomainError unless the field f has the dimension of the disorder d
    (a sample or a block) and the inverse temperature beta is >= 0."""
    if f.n != d.n:
        raise DomainError(f"field of dimension {f.n} for a disorder "
                          f"of dimension {d.n}")
    # written so that a NaN beta fails
    if not beta >= 0:
        raise DomainError("beta must be >= 0")


def _checked_degrees(model: MixedModel) -> tuple:
    """The model's active degrees, after the tensor budget."""
    for p in model.active_degrees:
        required = 8 * model.n ** p
        if required > model.tensor_budget_bytes:
            raise ResourceBudgetError(
                f"degree-{p} tensor needs {required} bytes "
                f"(budget {model.tensor_budget_bytes})",
                required=required, budget=model.tensor_budget_bytes)
    return model.active_degrees


def _check_seed(seed) -> int:
    """The integer `seed`, DomainError unless it lies in [0, 2**64)."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")
    return seed


def sample_disorder(model: MixedModel, seed: int) -> DisorderSample:
    """Draw coupling tensors; deterministic in (model, seed).

    Raises DomainError for a seed outside [0, 2**64), and
    ResourceBudgetError when a degree-p tensor of n^p doubles exceeds the
    model's budget.
    """
    seed = _check_seed(seed)
    tensors = {}
    for p in _checked_degrees(model):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p,)))
        if p == 0:
            tensors[p] = float(rng.standard_normal())
        else:
            tensors[p] = rng.standard_normal(size=(model.n,) * p)
    return DisorderSample(model, seed, tensors)


def sample_disorders(model: MixedModel, seeds) -> DisorderBlock:
    """`sample_disorder(model, s)` for every s in `seeds` (integers in
    [0, 2**64)), as one block.

    The streams of all seeds are set up by one array hash, and each
    replica's draw fills its slice of the stacked tensor, so no per-replica
    sample is built. Raises as `sample_disorder` does.
    """
    seeds = np.array([_check_seed(s) for s in seeds], dtype=np.uint64)
    return _fill_disorders(model, seeds,
                           _stream_states(_checked_degrees(model), seeds))


def _stream_states(degrees: tuple, seeds: np.ndarray) -> np.ndarray:
    """The PCG64 states of the degree streams of every seed, by one array
    hash: shape (R, len(degrees), 4), each seed's words hashed once for all
    its degrees."""
    # Imported here so that importing the package does not load numpy.random
    from .seeding import spawned_states

    return spawned_states(seeds[:, None], (np.array(degrees, dtype=np.int64),), 4)


def _fill_disorders(model: MixedModel, seeds: np.ndarray,
                    states: np.ndarray) -> DisorderBlock:
    """The block of `seeds`, drawn from their `_stream_states` for the model's
    active degrees: each replica's draw fills its slice of the stacked
    tensor. Raises ResourceBudgetError as `sample_disorder` does."""
    from .seeding import pcg64

    tensors = {}
    for j, p in enumerate(_checked_degrees(model)):
        block = np.empty((len(seeds),) + (model.n,) * p)
        for out, state in zip(block.reshape(len(seeds), model.n ** p), states[:, j]):
            pcg64(state).standard_normal(out=out)
        tensors[p] = block
    return DisorderBlock(model, seeds, tensors)


def _check_ball(sigma: np.ndarray, n: int, open_ball: bool = False) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (n,):
        raise DomainError(f"expected vector of length {n}")
    r = norm(sigma)
    # written so that a NaN norm fails
    if open_ball:
        if not r < 1.0:
            raise DomainError(f"||sigma|| = {r} not inside the open unit ball")
    elif not r <= 1.0 + NORM_TOLERANCE:
        raise DomainError(f"||sigma|| = {r} > 1 beyond tolerance")
    return sigma


# Rows per block in energy_many: keeps the (rows x N^{p-1}) scratch of the
# contraction flat whatever the batch size.
_ROW_CHUNK = 1 << 13


def _dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows[r] @ v for every r, each by the 1-D dot product.

    A stacked (1, N) @ (N,) per row: `rows @ v` would be one matrix-vector
    product, whose summation order moves the last bits.
    """
    return np.matmul(rows[:, None, :], v)[:, 0]


def _contract_rows(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Contraction of each replica's g[r] with every row x of X at all axes
    but the last: shape (R, rows, g.shape[-1]), for g of shape (R, N, ...)
    with at least two axes after the replica axis.

    One matmul contracts the first axis; each further axis is a
    reshape-multiply-sum against the rows. A trailing axis of length 1,
    g[..., None], gives <g, x^{tensor p}>.

    Reduction order, axis by axis: the first axis is the matmul's dot
    product. A middle axis, one with more entries after it, is summed by
    in-place adds in index order starting from 0.0: numpy's own order for
    that strided `sum`, so the bits are those of `t.sum(axis=2)`. An axis
    followed only by the trailing length-1 axis keeps numpy's `sum`, which
    is pairwise over a contiguous run.

    One block-sized temporary is live at a time: the multiply writes into
    the block the matmul or the previous sum made, so the allocator is not
    asked for a second block on every step.
    """
    reps, n = len(g), X.shape[1]
    out = np.empty((reps, len(X), g.shape[-1]))
    for start in range(0, len(X), _ROW_CHUNK):
        x = X[start:start + _ROW_CHUNK]
        t = np.matmul(x, g.reshape(reps, n, -1))
        for _ in range(g.ndim - 3):
            t = t.reshape(reps, len(x), n, -1)
            t *= x[:, :, None]
            if t.shape[-1] == 1:
                t = t.sum(axis=2)
            else:
                acc = t[:, :, 0] + 0.0  # from 0.0 as in numpy's sum: -0.0 + 0.0 is 0.0
                for j in range(1, n):
                    acc += t[:, :, j]
                t = acc
        out[:, start:start + len(x)] = t
    return out


def _check_rows(X, n: int) -> np.ndarray:
    """X as float64 rows, DomainError unless it is a (rows, n) array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n:
        raise DomainError(f"expected a (rows, {n}) array, not shape {X.shape}")
    return X


def _energy_rows(d, X: np.ndarray) -> np.ndarray:
    """H over the rows of X for each replica of `d` (a sample or a block):
    shape (R, rows)."""
    X = _check_rows(X, d.n)
    total = np.zeros((d.replicas, len(X)))
    for p, scale, g in d.replica_terms:
        total += scale * (g[:, None] if p == 0
                          else _contract_rows(g[..., None], X)[..., 0])
    return total


def _gradient_rows(d, X: np.ndarray) -> np.ndarray:
    """grad H over the rows of X for each replica of `d` (a sample or a
    block): shape (R, rows, N), the contraction of each `gradient_terms`
    tensor with the row at all but its last axis."""
    X = _check_rows(X, d.n)
    grad = np.zeros((d.replicas,) + X.shape)
    for p, scale, s in d.gradient_terms:
        grad += scale * (s[:, None] if p == 1 else _contract_rows(s, X))
    return grad


def energy(d: DisorderSample, sigma: np.ndarray) -> float:
    """H(sigma) = sum_p sqrt(a_p) N^{(1-p)/2} <g_p, sigma^{tensor p}>, for
    sigma in the closed ball: a one-row `energy_many`, so equal to it bit
    for bit."""
    sigma = _check_ball(sigma, d.n)
    return float(_energy_rows(d, sigma[None])[0, 0])


def energy_many(d: DisorderSample, sigmas: np.ndarray) -> np.ndarray:
    """Vectorized H over the rows of `sigmas` (no per-row domain check;
    DomainError unless `sigmas` is a (rows, N) array)."""
    return _energy_rows(d, sigmas)[0]


def gradient(d: DisorderSample, sigma: np.ndarray) -> np.ndarray:
    """Analytic partial derivatives of H at sigma in the open ball: a
    one-row `gradient_many`, so equal to it bit for bit.

    For a non-symmetrized degree-p tensor the derivative sums the p partial
    contractions with index i placed at each position (`gradient_terms`).
    """
    sigma = _check_ball(sigma, d.n, open_ball=True)
    return _gradient_rows(d, sigma[None])[0, 0]


def gradient_many(d: DisorderSample, sigmas: np.ndarray) -> np.ndarray:
    """Row-wise grad H over the rows of `sigmas` (no per-row domain check;
    DomainError unless `sigmas` is a (rows, N) array)."""
    return _gradient_rows(d, sigmas)[0]


def hessian_many(d: DisorderSample, sigmas: np.ndarray) -> np.ndarray:
    """Row-wise Hessian of H over the rows of `sigmas` (no per-row domain
    check; DomainError unless `sigmas` is a (rows, N) array): shape
    (rows, N, N), the contraction of each `hessian_terms` tensor with the
    row at all but its last two axes."""
    X = _check_rows(sigmas, d.n)
    rows, n = X.shape
    hess = np.zeros((rows, n, n))
    for p, scale, s in d.hessian_terms:
        hess += scale * (s[0] if p == 2 else _contract_rows(s, X)[0].reshape(rows, n, n))
    return hess


def recentered_energy(d, m: np.ndarray, S: np.ndarray) -> np.ndarray:
    """H^m(s) = H(m + s) - grad H(m) . s - H(m) at every row s of S, for each
    replica of `d` (a sample or a block): shape (R, rows).

    DomainError unless m lies in the open ball, S is (rows, N) and every
    m + s lies in the closed ball; a NaN fails these checks. H and grad H at
    m are the row bodies at the one row m; grad H(m) . s is the 1-D dot
    product of each (replica, row) pair, as in `_dots`.
    """
    m = _check_ball(m, d.n, open_ball=True)
    S = _check_rows(S, d.n)
    X = m + S
    # written so that a NaN norm fails
    if not np.all(np.sqrt((X * X).sum(axis=1) / d.n) <= 1.0 + NORM_TOLERANCE):
        raise DomainError("some m + s lies outside the unit ball beyond tolerance")
    g = _gradient_rows(d, m[None])[:, 0]
    dots = np.matmul(g[:, None, None, :], S[:, :, None])[..., 0, 0]
    return _energy_rows(d, X) - dots - _energy_rows(d, m[None])
