"""Partition functions: exact Ising enumeration, sphere Monte Carlo, and
exact restrictions of atomic measures.

The exact Ising value is a split sum (Horowitz and Sahni 1974, as in
`entropy._ising_hits`): each configuration is a head pattern of the first
N // 2 spins and a tail pattern of the rest, and the energy of a (head, tail)
pair is a head row of weights times the tail's Kronecker features, so a
chunk of tail patterns is scored against every head pattern by one matrix
product and folded into a running log-sum-exp. Sphere estimates draw
normalized Gaussians from a counter-based (Philox) stream, so replica
streams are independent and reproducible; a block of problems of one model
shares one draw, scored by stacked contractions a chunk of points at a time.
Each chunk's log-weights are merged into a running per-problem state (the
largest log-weight, and the mean and summed squared deviations of
exp(x - max)) as soon as they are scored, so no (problems, samples) array is
held. Restricted partitions and slice measures (a cover region's mass and
the thin-slice image of the measure conditioned on it) sum over atoms only;
the sphere has none and raises UnsupportedOperationError there. All
accumulation is in the log domain; -inf is a first-class value for empty
restrictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cover import CoverNode, region_masks, thin_projections
from .entropy import ReferenceMeasure, _sign_table
from .errors import DomainError, ResourceBudgetError, UnsupportedOperationError
from .hamiltonian import (
    _ROW_CHUNK,
    DisorderSample,
    ExternalField,
    _contract_rows,
    _energy_rows,
    check_gibbs_parameters,
    energy_many,
    stack_disorders,
)

# Multiply-adds the exact Ising sum may spend: 2^N configurations times the
# width of its feature product (see `enumeration_work`). The bound admits
# N = 24 at degree 2, N = 20 at degree 3 and N = 18 at degree 4.
ENUM_WORK_BUDGET = 1 << 28
# Doubles in the live (head patterns x tail chunk) block of the exact Ising sum
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class PartitionEstimate:
    log_value: float
    std_error: float
    method: str  # exact_enumeration | monte_carlo
    sample_count: int
    seed: Optional[int] = None
    effective_count: Optional[int] = None

    def __post_init__(self):
        if self.method == "exact_enumeration" and self.std_error != 0.0:
            raise DomainError("exact enumeration must report zero std error")


def _lse_merge(acc: tuple, x: np.ndarray) -> tuple:
    """Fold the values x into a running (max, scaled sum) log-sum-exp,
    overwriting x."""
    top, total = acc
    m = float(x.max())
    if m > top:
        total = total * math.exp(top - m) if top > -np.inf else 0.0
        top = m
    x -= top
    return top, total + float(np.exp(x, out=x).sum())


def _lse_value(acc: tuple) -> float:
    top, total = acc
    return top + math.log(total) if top > -np.inf else -np.inf


def enumeration_work(n: int, degree: int) -> int:
    """Multiply-adds of the exact Ising sum at N = n whose top degree is
    `degree`: 2^N times the feature width sum_{j < P} (N - N // 2)^j, with P
    the degree counted as at least 2. Below degree 2 the product is one
    column wide, and the field and the exponential, whose per-configuration
    cost the degree-2 width stands for, set the pace."""
    tail = n - n // 2
    return 2 ** n * sum(tail ** j for j in range(max(degree, 2)))


def _check_enum_budget(d: DisorderSample) -> None:
    top = max(d.tensors, default=0)
    work = enumeration_work(d.n, top)
    if work > ENUM_WORK_BUDGET:
        raise ResourceBudgetError(
            f"exact enumeration at N={d.n}, degree {top} needs {work} "
            f"multiply-adds (budget {ENUM_WORK_BUDGET})",
            required=work, budget=ENUM_WORK_BUDGET)


def _split_blocks(g: np.ndarray, h: int) -> dict:
    """{k: B_k} for the degree-p tensor g split at spin h: B_k sums, over
    each way of putting k of g's axes on the head (the first h spins) and
    the rest on the tail, the block of g they select with its head axes moved
    first, so it has shape (h,)*k + (N - h,)*(p - k). The part of <g,
    sigma^{tensor p}> with k head axes is then <B_k, x^{tensor k} tensor
    y^{tensor p-k}> for sigma = (x, y). With h = 0 only B_0 = g is left."""
    p = g.ndim
    blocks = {}
    for mask in range(1 << p) if h else (0,):
        head = [i for i in range(p) if mask >> i & 1]
        tail = [i for i in range(p) if not mask >> i & 1]
        block = g[tuple(slice(None, h) if mask >> i & 1 else slice(h, None)
                        for i in range(p))].transpose(head + tail)
        k = len(head)
        blocks[k] = blocks[k] + block if k in blocks else block
    return blocks


def _kron_features(rows: np.ndarray, count: int) -> np.ndarray:
    """[1 | rows | rows^{kron 2} | ...], `count` Kronecker powers of every
    row side by side, each flattened as a C-ordered tensor."""
    powers = [np.ones((len(rows), 1))]
    while len(powers) < count:
        powers.append((powers[-1][:, :, None] * rows[:, None, :]).reshape(len(rows), -1))
    return np.hstack(powers)


def log_partition_exact_ising(d: DisorderSample, f: ExternalField,
                              beta: float) -> PartitionEstimate:
    """log 2^{-N} sum_sigma exp(beta (H + f)(sigma)), exact up to float64.

    Split sum: sigma = (x, y) with x one of the 2^h head patterns of the
    first h = N // 2 spins and y one of the tail patterns of the rest. Each
    degree-p tensor splits into 2^p blocks by which of its axes fall on the
    head; a block with k head axes contributes x^{kron k} B y^{kron p-k}.
    Summed over the blocks, H(x, y) = W[x] . Phi(y) + E_tail(y):
      - W (2^h, sum_{j < P} (N - h)^j) gathers, for each j, the blocks with
        j tail axes and at least one head axis, contracted with every head
        pattern (the degree-0 constant sits in column 0);
      - Phi(y) = [1 | y | y^{kron 2} | ...] holds the tail's Kronecker powers
        up to P - 1 for the top degree P;
      - E_tail(y) gathers the blocks with every axis on the tail, which are
        the same for every head pattern.
    The field sees sigma only through its projections, which split into a
    head and a tail part as well. A chunk of tail patterns is scored against
    every head pattern by one matrix product, at most `_PAIR_BLOCK` values
    at a time, and folded into a running log-sum-exp, so memory stays flat
    in N. Raises DomainError for a disorder of several replicas, a field
    of another dimension or a beta that is not >= 0, and ResourceBudgetError
    past `ENUM_WORK_BUDGET`.
    """
    check_gibbs_parameters(d, f, beta)
    _check_enum_budget(d)
    n = d.n
    h = n // 2
    head, tail = _sign_table(h).T, _sign_table(n - h).T
    top = max(d.tensors, default=0)
    widths = [(n - h) ** j for j in range(max(top, 1))]
    offsets = np.cumsum([0] + widths)
    weights = np.zeros((len(head), offsets[-1]))
    tail_energy = np.zeros(len(tail))
    for p, scale, g in d.terms:
        g = g[0]  # the sample's one replica
        if p == 0:
            weights[:, 0] += scale * g
            continue
        for k, block in _split_blocks(g, h).items():
            if k:
                j = p - k
                weights[:, offsets[j]:offsets[j + 1]] += scale * _contract_rows(
                    block.reshape((1,) + (h,) * k + (-1,)), head)[0]
            else:
                tail_energy += scale * _contract_rows(block[None, ..., None], tail)[0, :, 0]
    # (K, patterns): a chunk's projections are then (K, 2^h, chunk) sums,
    # whose innermost axis is long
    t_head = (f.basis[:, :h] @ head.T) / n
    t_tail = (f.basis[:, h:] @ tail.T) / n
    chunk = max(1, _PAIR_BLOCK >> h)
    acc = (-np.inf, 0.0)
    for lo in range(0, len(tail), chunk):
        hi = lo + chunk
        x = weights @ _kron_features(tail[lo:hi], len(widths)).T
        x += tail_energy[lo:hi]
        t = t_head[:, :, None] + t_tail[:, None, lo:hi]
        x += f.value_from_projections(t.reshape(f.K, -1).T).reshape(x.shape)
        x *= beta
        acc = _lse_merge(acc, x)
    return PartitionEstimate(_lse_value(acc) - n * math.log(2.0), 0.0,
                             "exact_enumeration", 2 ** n)


def _sphere_rng(rng_seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=rng_seed))


# Rows squared at a time by `_to_sphere`: a scratch that stays in cache
_SQUARE_ROWS = 512


def _to_sphere(z: np.ndarray) -> np.ndarray:
    """Rescale the rows of z in place onto the sphere |sigma|^2 = N.

    The arithmetic of `np.linalg.norm(z, axis=1)`, whose squares fill a
    block-sized temporary, with the squares taken `_SQUARE_ROWS` rows at a
    time in one small scratch and the row sums rooted and inverted in place.
    """
    sums = np.empty(len(z))
    scratch = np.empty((min(len(z), _SQUARE_ROWS), z.shape[1]))
    for lo in range(0, len(z), _SQUARE_ROWS):
        x = z[lo:lo + _SQUARE_ROWS]
        np.add.reduce(np.multiply(x, x, out=scratch[:len(x)]), axis=1,
                      out=sums[lo:lo + len(x)])
    np.sqrt(sums, out=sums)
    np.divide(math.sqrt(z.shape[1]), sums, out=sums)
    z *= sums[:, None]
    return z


def log_partition_mc_sphere(d: DisorderSample, f: ExternalField, beta: float,
                            samples: int, rng_seed: int) -> PartitionEstimate:
    """Monte Carlo log E[exp(beta H^f)] over the uniform sphere.

    The estimate is a log-mean-exp over `samples` normalized Gaussian draws;
    std_error comes from the delta method on the log (scale-invariant). It
    is `log_partition_mc_sphere_many` of the block of one problem: the draws
    stream through one reused block of `_ROW_CHUNK` rows, in the order of one
    (samples, N) draw, and each block's log-weights are merged into the
    running estimate, so memory does not grow with `samples`. Raises
    DomainError as `log_partition_exact_ising` does, and for fewer than 100
    samples.
    """
    return log_partition_mc_sphere_many([(d, f, beta)], samples, rng_seed)[0]


def log_partition_mc_sphere_many(problems, samples: int,
                                 rng_seed: int) -> list:
    """`log_partition_mc_sphere` of every (disorder, field, beta) problem of
    a block, all from the one draw of `rng_seed`.

    The disorders, which must share N and xi, are stacked on a replica axis,
    and each chunk of `_ROW_CHUNK // len(problems)` sphere points is scored
    by one stacked energy contraction (whose scratch is then the size of one
    problem's chunk) and one evaluation per distinct field object. Each
    problem's estimate averages the same `samples` iid uniform points, drawn
    independently of its disorder, so it has the law of its own
    `log_partition_mc_sphere`; estimates within a block share the points and
    are correlated. Each chunk's (problems, rows) log-weights are merged
    into a running state by `_mean_exp_merge` as soon as they are scored,
    so memory holds one chunk and four numbers per problem, whatever
    `samples`. The merged estimate rounds differently from a two-pass
    log-mean-exp over all the log-weights, in the last bits. Raises
    DomainError for an empty block, for disorders of different N or xi, for
    fewer than 100 samples and for a disorder of several replicas, a bad
    field or a bad beta in any problem.
    """
    problems = list(problems)
    if not problems:
        raise DomainError("no problems in the block")
    for d, f, beta in problems:
        check_gibbs_parameters(d, f, beta)
    if samples < 100:
        raise DomainError("samples must be >= 100")
    disorder = stack_disorders(d for d, _, _ in problems)
    # each distinct field object is evaluated once per chunk
    fields = {id(f): f for _, f, _ in problems}
    which = [list(fields).index(id(f)) for _, f, _ in problems]
    betas = np.array([beta for _, _, beta in problems], dtype=np.float64)[:, None]
    rows = max(1, _ROW_CHUNK // len(problems))
    rng = _sphere_rng(rng_seed)
    buf = np.empty((min(samples, rows), disorder.n))
    acc = (0, np.full(len(problems), -np.inf), np.zeros(len(problems)),
           np.zeros(len(problems)))
    for start in range(0, samples, rows):
        block = _to_sphere(rng.standard_normal(out=buf[:min(rows, samples - start)]))
        x = _energy_rows(disorder, block)
        x += np.stack([f.value_many(block) for f in fields.values()])[which]
        x *= betas
        acc = _mean_exp_merge(acc, x)
    count, top, mean, m2 = acc
    se = np.sqrt(m2 / (count - 1)) / math.sqrt(count) / mean
    return [PartitionEstimate(float(t) + math.log(float(w)), float(e), "monte_carlo",
                              count, seed=rng_seed)
            for t, w, e in zip(top, mean, se)]


def _mean_exp_merge(acc: tuple, x: np.ndarray) -> tuple:
    """Fold a (R, rows) chunk of log-weights into the running per-row state
    (count, max, mean, M2), overwriting x.

    mean and M2 are the mean and the summed squared deviations of
    exp(x - max) over the values seen so far, for each of the R rows. When a
    row's max rises, its mean is rescaled by exp(old max - new max) and its
    M2 by the square (an earlier state rescaled below the smallest double
    becomes 0); the chunk's own mean and M2 (two passes over the chunk, as
    `np.std` takes them) then join by the pairwise update of Chan, Golub and
    LeVeque (1983). All-equal values keep M2 at exactly 0.
    """
    count, top, mean, m2 = acc
    new_top = np.maximum(top, x.max(axis=1))
    scale = np.exp(top - new_top)
    x -= new_top[:, None]
    w = np.exp(x, out=x)
    rows = w.shape[1]
    chunk_mean = w.sum(axis=1) / rows  # the arithmetic of w.mean(axis=1)
    w -= chunk_mean[:, None]
    chunk_m2 = np.multiply(w, w, out=w).sum(axis=1)
    mean = mean * scale
    total = count + rows
    delta = chunk_mean - mean
    return (total, new_top, mean + delta * (rows / total),
            m2 * (scale * scale) + chunk_m2 + delta * delta * (count * rows / total))


def restricted_log_partition(E: ReferenceMeasure, d: DisorderSample,
                             f: ExternalField, beta: float,
                             predicate: Callable[[np.ndarray], np.ndarray]
                             ) -> PartitionEstimate:
    """log E[1_A exp(beta H^f)] for A given by a vectorized membership test,
    summed exactly over the atoms of E (-inf when no atom passes).

    `predicate` receives an (M, N) block of support points and returns a
    boolean row mask; `effective_count` is the number of atoms that pass.
    Raises DomainError as `log_partition_exact_ising` does, and
    UnsupportedOperationError for the sphere, which has no atoms.
    """
    check_gibbs_parameters(d, f, beta)
    if not E.is_atomic:
        raise UnsupportedOperationError("restricted partitions need an atomic measure")
    pts, wts = E.atoms()
    acc = (-np.inf, 0.0)
    hits = 0
    chunk = 1 << 13
    for start in range(0, len(pts), chunk):
        block = pts[start:start + chunk].astype(np.float64)
        w = wts[start:start + chunk]
        mask = np.asarray(predicate(block), dtype=bool)
        if not mask.any():
            continue
        hits += int(mask.sum())
        members = block[mask]
        x = beta * (energy_many(d, members) + f.value_many(members))
        acc = _lse_merge(acc, x + np.log(w[mask]))
    return PartitionEstimate(_lse_value(acc), 0.0, "exact_enumeration",
                             len(pts), effective_count=hits)


# ---------------------------------------------------------------------------
# Slice measures attached to a cover node
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThinPushforward:
    """The conditioned measure's image under thin_projection: weighted points
    on the slice shell of squared radius 1 - q, plus the origin for members
    whose projection vanishes."""

    points: np.ndarray  # (M, n)
    weights: np.ndarray  # (M,) positive, normalized to sum to 1
    q: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64)
        if len(pts) != len(w) or len(pts) == 0 or np.any(w <= 0):
            raise DomainError("pushforward needs matching points and positive weights")
        radius_sq = (pts ** 2).sum(axis=1) / pts.shape[1]
        on_shell = np.abs(radius_sq - (1.0 - self.q)) <= 1e-9
        if not np.all(on_shell | (radius_sq == 0.0)):
            raise DomainError("pushforward points must lie on the shell of "
                              "squared radius 1 - q or at the origin")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w / w.sum())


@dataclass(frozen=True)
class SliceMeasures:
    mass: float
    thin_pushforward: Optional[ThinPushforward]  # None for an empty region


def node_member_mask(node: CoverNode, block: np.ndarray) -> np.ndarray:
    """E_alpha membership over the rows of `block`.

    The level projections of all rows are rounded as whole columns by the
    array grid rounding (cover.round_down_indices), the same test that
    cover.membership applies to a single vector.
    """
    return region_masks(node, block)[1]


def slice_measures(E: ReferenceMeasure, node: CoverNode) -> SliceMeasures:
    """Mass of E_alpha and the thin-slice image of E conditioned on it, exact
    over the atoms of E (UnsupportedOperationError for the sphere).

    An empty region has mass 0.0 and no image.
    """
    if not E.is_atomic:
        raise UnsupportedOperationError("slice measures need an atomic measure")
    pts, wts = E.atoms()
    mask = node_member_mask(node, pts.astype(np.float64))
    mass = float(wts[mask].sum())
    if mass <= 0.0:
        return SliceMeasures(0.0, None)
    tau = thin_projections(node, pts[mask].astype(np.float64))
    return SliceMeasures(mass, ThinPushforward(tau, wts[mask] / mass, node.q))
