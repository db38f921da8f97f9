"""Adaptive sphere-cover construction.

An increment index alpha is a block sequence (alpha_1, ..., alpha_k) with
alpha_1 holding K grid values and each later block two, all on the grid
eps*Z intersect (-1, 1), with |alpha| < 1. The associated magnetization and
orthonormal basis are built recursively: level 1 is the external-field basis
u_1..u_K; at each later level the gradient of the Hamiltonian and the
minimal-entropy hyperplane normal at the current magnetization are projected
onto the orthogonal complement of everything built so far and orthonormalized
into a pair of directions, along which the next increments are taken. The
final pair (level k+1) defines the subspaces used by the slice machinery.

Regions on the sphere:

  D_alpha: sigma whose rounded projections onto the level-1..k directions
           reproduce alpha exactly;
  E_alpha: the subset with |<sigma, u_{k+1,j}>| <= eta for the final pair.

Degenerate spans are completed with the lowest-index standard basis vectors
(projected and orthonormalized, residuals below 1e-8 skipped); when the
complement runs out of dimensions a level may carry fewer than its nominal
directions, missing projections counting as zero. With that convention the
classification of any unit vector terminates no later than
k = ceil((N - K) / 2) + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy import ReferenceMeasure, ising_uniform, lambda_min_entropy
from .errors import DomainError, InvariantViolationError
from .geometry import inner, norm, orthonormal_extension, project_off
from .hamiltonian import DisorderSample, ExternalField, _check_sample, gradient

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
_GRID_DUST = 1e-9


# ---------------------------------------------------------------------------
# Grid and rounding
# ---------------------------------------------------------------------------

def _check_epsilon(epsilon: float) -> None:
    """DomainError unless the grid step is positive and finite (a NaN
    fails)."""
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")


def round_down_indices(x, epsilon: float) -> np.ndarray:
    """Integers t such that t * eps is x rounded onto the grid, elementwise.

    Rounds toward zero onto the grid: positive x lands in (t*eps, (t+1)*eps],
    negative x in [(t-1)*eps, t*eps), and exact grid points move strictly
    toward zero. Grid hits are snapped within a relative 1e-9 dust tolerance,
    and whatever snaps to zero (or is a signed zero) maps to 0.
    """
    _check_epsilon(epsilon)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DomainError("cannot round a non-finite projection")
    r = x / epsilon
    nearest = np.rint(r)
    r = np.where(np.abs(r - nearest) <= _GRID_DUST * np.maximum(1.0, np.abs(r)),
                 nearest, r)
    # ceil(r) - 1 is floor(r) off the grid and r - 1 on it; mirrored below 0
    t = np.where(x > 0, np.ceil(r) - 1.0, np.floor(r) + 1.0)
    return np.where(r == 0.0, 0.0, t).astype(np.int64)


def round_down_index(x: float, epsilon: float) -> int:
    """Scalar round_down_indices."""
    return int(round_down_indices((x,), epsilon)[0])


def max_levels(n: int, K: int) -> int:
    """Largest usable block count k; level k+1 may be partial or empty."""
    return max(1, math.ceil((n - K) / 2) + 1)


# ---------------------------------------------------------------------------
# Increment indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementIndex:
    """Blocks of grid integers: first block K entries, later blocks 2 each."""

    blocks: tuple[tuple[int, ...], ...]
    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if len(self.blocks) < 1:
            raise DomainError("alpha needs at least the level-1 block")
        blocks = tuple(tuple(int(t) for t in b) for b in self.blocks)
        for b in blocks[1:]:
            if len(b) != 2:
                raise DomainError("blocks beyond the first must hold 2 entries")
        object.__setattr__(self, "blocks", blocks)
        if self.norm_sq >= 1.0:
            raise DomainError("|alpha| must be < 1")
        for b in blocks:
            for t in b:
                if abs(t * self.epsilon) >= 1.0:
                    raise DomainError("grid values must lie in (-1, 1)")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def K(self) -> int:
        return len(self.blocks[0])

    @property
    def norm_sq(self) -> float:
        return sum((t * self.epsilon) ** 2 for b in self.blocks for t in b)


def cover_cardinality_bound(epsilon: float, eta: float, K: int):
    """(count_bound, saturated): |A_{eps,eta}| <= (2/eps)^(K + 10/eta^2)."""
    if not (0 < epsilon and 0 < eta):
        raise DomainError("epsilon and eta must be positive")
    exponent = K + 10.0 / eta ** 2
    log_bound = exponent * math.log(2.0 / epsilon)
    if log_bound > math.log(2) * 62:
        return (1 << 62), True
    v = (2.0 / epsilon) ** exponent
    return int(math.ceil(v - abs(v) * 1e-12)), False


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverNode:
    """Magnetization, adaptive basis, and subspaces attached to one alpha.

    `levels[i]` holds the level-(i+1) direction rows; `levels[-1]` is the
    final pair spanning the leftover gradient/normal directions (it may have
    fewer than two rows near dimension exhaustion). `lambdas[i]` records the
    hyperplane normal used when level i+2 was built.
    """

    alpha: IncrementIndex
    m: np.ndarray
    q: float
    levels: tuple
    lambdas: tuple
    eta: Optional[float] = None

    @property
    def k(self) -> int:
        return self.alpha.k

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def basis_rows(self) -> np.ndarray:
        """All direction rows through the final pair, stacked."""
        mats = [lv for lv in self.levels if len(lv)]
        return np.vstack(mats) if mats else np.zeros((0, self.n))

    @property
    def final_pair(self) -> np.ndarray:
        return self.levels[-1]

    def project_out(self, sigma: np.ndarray) -> np.ndarray:
        """Projection onto the complement of all built directions."""
        return project_off(sigma, self.basis_rows)


@dataclass(frozen=True)
class Membership:
    in_d: bool
    in_e: bool


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

# Level-1 hyperplane normals on the uniform Ising measure, shared by every
# builder of a process. A few dozen N-vectors: a run at grid step 0.05 and
# one field has at most 39 level-1 magnetizations.
@functools.lru_cache(maxsize=64)
def _level1_lambda(n: int, delta: float, m_bytes: bytes,
                   basis_bytes: bytes) -> np.ndarray:
    """lambda_min_entropy(ising_uniform(n), m, delta, extra_directions=basis)
    for the float64 m and field basis rows given as bytes; read-only."""
    # copies own fresh, aligned buffers, like the arrays a direct call gets
    m = np.frombuffer(m_bytes).copy()
    basis = np.frombuffer(basis_bytes).reshape(-1, n).copy()
    lam = lambda_min_entropy(ising_uniform(n), m, delta, extra_directions=basis)
    lam.flags.writeable = False
    return lam


class CoverBuilder:
    """Caches the prefix-deterministic recursion for one (disorder, measure,
    field, epsilon, delta) tuple. Prefixes are keyed by exact grid integers,
    so rebuilding any prefix reproduces identical vectors bit for bit.

    On the uniform Ising measure the hyperplane normal of a length-1 prefix
    comes from one process-level table (`_level1_lambda`) shared by all
    builders. The level-1 magnetization eps sum_j t_j u_j depends only on
    the grid integers and the field basis, and lambda_min_entropy is a pure
    function of (N, m, delta, basis) that reads no disorder, so the table
    is keyed on exactly those bytes and a shared normal is the same bytes a
    direct call returns. It is read-only, as the node and the
    orthonormalization only read it. Deeper prefixes, the sphere (closed
    form) and point clouds call lambda_min_entropy directly.

    DomainError for a disorder of several replicas, for an epsilon that is
    not finite and > 0, or a delta that is not finite and >= 0 (a NaN fails
    both), so the table and every entropy call receive checked inputs.
    """

    def __init__(self, disorder: DisorderSample, measure: ReferenceMeasure,
                 field: ExternalField, epsilon: float, delta: float):
        _check_sample(disorder)
        if measure.n != disorder.n or field.n != disorder.n:
            raise DomainError("dimension mismatch between disorder/measure/field")
        _check_epsilon(epsilon)
        if not 0.0 <= delta < math.inf:
            raise DomainError("delta must be finite and >= 0")
        self.disorder = disorder
        self.measure = measure
        self.field = field
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.n = disorder.n
        self.K = field.K
        self._pairs: dict[tuple, tuple] = {}  # prefix key -> (rows, lambda)

    # -- recursion ---------------------------------------------------------

    def _key(self, blocks) -> tuple:
        return tuple(tuple(b) for b in blocks)

    def _accumulated_rows(self, blocks) -> np.ndarray:
        rows = [self.field.basis]
        for l in range(1, len(blocks)):
            pair, _ = self.pair(blocks[:l])
            if len(pair):
                rows.append(pair)
        return np.vstack(rows)

    def magnetization(self, blocks) -> np.ndarray:
        m = np.zeros(self.n)
        for j, t in enumerate(blocks[0]):
            m += t * self.epsilon * self.field.basis[j]
        for l in range(1, len(blocks)):
            pair, _ = self.pair(blocks[:l])
            for j, t in enumerate(blocks[l]):
                if j < len(pair):
                    m += t * self.epsilon * pair[j]
                elif t != 0:
                    raise DomainError(
                        "increment along a degenerate (missing) direction")
        return m

    def pair(self, prefix_blocks) -> tuple:
        """Level-(len(prefix)+1) direction rows and the lambda used.

        Spans the projections of grad H(m_prefix) and lambda^delta_(m_prefix)
        onto the complement of everything built before, completed with
        standard basis vectors when degenerate.
        """
        key = self._key(prefix_blocks)
        if key in self._pairs:
            return self._pairs[key]
        existing = self._accumulated_rows(prefix_blocks)
        room = self.n - len(existing)
        if room <= 0:
            result = (np.zeros((0, self.n)), None)
            self._pairs[key] = result
            return result
        m = self.magnetization(prefix_blocks)
        if len(prefix_blocks) == 1 and self.measure.kind == "ising":
            lam = _level1_lambda(self.n, self.delta, m.tobytes(),
                                 self.field.basis.tobytes())
        else:
            lam = lambda_min_entropy(self.measure, m, self.delta,
                                     extra_directions=self.field.basis)
        grad = gradient(self.disorder, m)
        candidates = [grad, lam]
        scale = math.sqrt(self.n)
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = scale
            candidates.append(e)
        rows = orthonormal_extension(candidates, existing, min(2, room),
                                     residual_tol=RESIDUAL_TOL)
        result = (np.array(rows) if rows else np.zeros((0, self.n)), lam)
        self._pairs[key] = result
        return result

    # -- node assembly -----------------------------------------------------

    def build(self, alpha: IncrementIndex, eta: Optional[float] = None) -> CoverNode:
        if alpha.K != self.K:
            raise DomainError("alpha level-1 block size must equal field dimension")
        if alpha.k > max_levels(self.n, self.K):
            raise DomainError(
                f"k={alpha.k} exceeds the {max_levels(self.n, self.K)} levels "
                f"available at N={self.n}, K={self.K}")
        levels = [self.field.basis]
        lambdas = []
        for l in range(1, alpha.k + 1):
            pair, lam = self.pair(alpha.blocks[:l])
            levels.append(pair)
            lambdas.append(lam)
        m = self.magnetization(alpha.blocks)
        node = CoverNode(alpha=alpha, m=m, q=alpha.norm_sq,
                         levels=tuple(levels), lambdas=tuple(lambdas), eta=eta)
        self._check_node(node)
        return node

    def _check_node(self, node: CoverNode) -> None:
        rows = node.basis_rows
        gram = (rows @ rows.T) / self.n
        err = float(np.abs(gram - np.eye(len(rows))).max()) if len(rows) else 0.0
        if err > ORTHONORMALITY_TOL:
            raise InvariantViolationError(f"basis orthonormality error {err}")
        if abs(inner(node.m, node.m) - node.q) > 1e-12:
            raise InvariantViolationError("q_alpha != |alpha|^2")

    def classify(self, sigma: np.ndarray, eta: float):
        """Assign sigma a region: rounded projections level by level until the
        next pair's rounded magnitudes drop to eta/2 (missing directions count
        as zero, which forces termination once dimensions are exhausted).
        DomainError unless sigma is a unit vector of shape (N,) and eta is
        finite and > 0.
        """
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (self.n,):
            raise DomainError(f"classify expects shape ({self.n},), got {sigma.shape}")
        if not abs(norm(sigma) - 1.0) <= 1e-9:
            raise DomainError("classify expects a unit vector")
        if not 0.0 < eta < math.inf:
            raise DomainError("eta must be positive and finite")
        half = eta / 2.0 + 1e-12
        blocks = [tuple(round_down_index(inner(u, sigma), self.epsilon)
                        for u in self.field.basis)]
        guard = max_levels(self.n, self.K) + 1
        while True:
            pair, _ = self.pair(blocks)
            t = [round_down_index(inner(u, sigma), self.epsilon) for u in pair]
            t += [0] * (2 - len(t))
            if all(abs(ti * self.epsilon) <= half for ti in t):
                alpha = IncrementIndex(tuple(blocks), self.epsilon)
                node = self.build(alpha, eta=eta)
                check = membership(node, sigma)
                if not check.in_e:
                    raise InvariantViolationError(
                        "classified point fails its own membership test")
                return alpha, node
            blocks.append(tuple(t))
            if len(blocks) > guard:
                raise InvariantViolationError("classification failed to stop")


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def region_masks(node: CoverNode, block: np.ndarray):
    """(in D_alpha, in E_alpha) boolean masks over the rows of `block`.

    D_alpha rounds each row's projection onto every level-1..k direction
    with round_down_indices on the grid of alpha and compares it with
    alpha; E_alpha adds |projection| <= node.eta + 1e-12 on the final pair.
    DomainError for a node built without an eta.
    """
    if node.eta is None:
        raise DomainError("eta needed: none stored on node")
    eps = node.alpha.epsilon
    in_d = np.ones(len(block), dtype=bool)
    for level_rows, targets in zip(node.levels[:-1], node.alpha.blocks):
        for u, target in zip(np.atleast_2d(level_rows), targets):
            in_d &= round_down_indices(block @ u / node.n, eps) == target
    in_e = in_d.copy()
    for u in np.atleast_2d(node.final_pair) if len(node.final_pair) else []:
        in_e &= np.abs(block @ u / node.n) <= node.eta + 1e-12
    return in_d, in_e


def membership(node: CoverNode, sigma: np.ndarray) -> Membership:
    """The two region conditions for one unit vector (one row of region_masks)."""
    in_d, in_e = region_masks(node, np.asarray(sigma, dtype=np.float64)[None, :])
    return Membership(in_d=bool(in_d[0]), in_e=bool(in_e[0]))


def thin_projection(node: CoverNode, sigma: np.ndarray) -> np.ndarray:
    """sqrt(1 - q) * P_Vbar(sigma) / ||P_Vbar(sigma)||, zero if the projection
    vanishes; lands on the slice shell of squared radius 1 - q. The one-row
    call of thin_projections."""
    return thin_projections(node, np.asarray(sigma, dtype=np.float64)[None, :])[0]


def thin_projections(node: CoverNode, block: np.ndarray) -> np.ndarray:
    """thin_projection of every row of `block`, in one stacked pass.

    Each stacked matmul runs, row by row, the product that
    geometry.project_off and geometry.norm take for one vector (a (k, N)
    by (N,) product, a (k,) by (k, N) one and a dot), so every row is its
    one-row result bit for bit.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows = node.basis_rows
    coeffs = (rows @ block[:, :, None])[:, :, 0] / node.n
    resid = block - (coeffs[:, None, :] @ rows)[:, 0, :]
    r = np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0] / node.n)
    keep = r >= 1e-12
    out = np.zeros_like(resid)
    out[keep] = math.sqrt(max(0.0, 1.0 - node.q)) * resid[keep] / r[keep, None]
    return out
