"""Partition functions: exact Ising enumeration, sphere Monte Carlo, restrictions.

The exact Ising value enumerates {-1, 1}^N in blocks of up to 2^12
configurations: a fixed block of the low spins, completed by each pattern of
the high spins, is scored by one batched energy call and folded into a
running log-sum-exp. Sphere estimates draw normalized Gaussians from a
counter-based (Philox) stream, so replica streams are independent and
reproducible. All accumulation is in the log domain; -inf is a first-class
value for empty restrictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cover import CoverNode, region_masks, thin_projections
from .entropy import ReferenceMeasure, _ising_atoms, point_cloud
from .errors import DomainError, ResourceBudgetError
from .hamiltonian import _ROW_CHUNK, DisorderSample, ExternalField, energy_many

ENUM_LIMITS = {2: 24, 3: 16}  # max N per highest interacting degree
# Spins enumerated together as one fixed block by the exact Ising sum.
_LOW_SPINS = 12


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

    def to_json_row(self) -> str:
        return json.dumps({
            "log_value": self.log_value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.sample_count,
            "seed": self.seed,
        }, sort_keys=True)


def _lse_merge(acc: tuple, x: np.ndarray) -> tuple:
    """Fold the values x into a running (max, scaled sum) log-sum-exp."""
    top, total = acc
    m = float(x.max())
    if m > top:
        total = total * math.exp(top - m) if top > -np.inf else 0.0
        top = m
    return top, total + float(np.exp(x - top).sum())


def _lse_value(acc: tuple) -> float:
    top, total = acc
    return top + math.log(total) if top > -np.inf else -np.inf


def _check_enum_budget(d: DisorderSample) -> None:
    degrees = [p for p in d.tensors if p >= 2]
    top = max(degrees) if degrees else 2
    limit = ENUM_LIMITS.get(top)
    if limit is None:
        raise ResourceBudgetError(f"no enumeration path for degree {top}")
    if d.n > limit:
        raise ResourceBudgetError(
            f"N={d.n} exceeds enumeration limit {limit} for degree {top}",
            required=2 ** d.n)


def log_partition_exact_ising(d: DisorderSample, f: ExternalField,
                              beta: float) -> PartitionEstimate:
    """log 2^{-N} sum_sigma exp(beta (H + f)(sigma)), exact up to float64.

    The low b = min(N, 12) spins form one fixed block of all their sign
    patterns; each pattern of the high N - b spins completes it to 2^b
    configurations, scored by one energy_many call and folded into a running
    log-sum-exp, so memory stays flat in N. Configurations are visited in
    index order, bit j of the index giving spin j the sign (-1)^bit.
    """
    _check_enum_budget(d)
    n = d.n
    low = min(n, _LOW_SPINS)
    block = np.empty((2 ** low, n))
    block[:, :low] = _ising_atoms(low)
    acc = (-np.inf, 0.0)
    for spins in _ising_atoms(n - low):
        block[:, low:] = spins
        acc = _lse_merge(acc, beta * (energy_many(d, block) + f.value_many(block)))
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


def _sphere_samples(n: int, count: int, rng_seed: int) -> np.ndarray:
    return _to_sphere(_sphere_rng(rng_seed).standard_normal((count, n)))


def log_partition_mc_sphere(d: DisorderSample, f: ExternalField, beta: float,
                            samples: int, rng_seed: int) -> PartitionEstimate:
    """Monte Carlo log E[exp(beta H^f)] over the uniform sphere.

    The estimate is a log-mean-exp over `samples` normalized Gaussian draws;
    std_error comes from the delta method on the log (scale-invariant). The
    draws stream through one reused block of `_ROW_CHUNK` rows, in the order
    and with the arithmetic of one (samples, N) draw, so only the vector of
    log-weights grows with `samples`.
    """
    if samples < 100:
        raise DomainError("samples must be >= 100")
    rng = _sphere_rng(rng_seed)
    buf = np.empty((min(samples, _ROW_CHUNK), d.n))
    x = np.empty(samples)
    for start in range(0, samples, _ROW_CHUNK):
        block = _to_sphere(rng.standard_normal(
            out=buf[:min(_ROW_CHUNK, samples - start)]))
        x[start:start + len(block)] = beta * (energy_many(d, block)
                                              + f.value_many(block))
    return _mc_estimate(x, rng_seed)


def _mc_estimate(x: np.ndarray, rng_seed: int,
                 effective_count: Optional[int] = None) -> PartitionEstimate:
    """Log-mean-exp of the draws' log-weights x (-inf for a rejected draw,
    at least one finite), with the delta-method standard error of the log."""
    m = float(x.max())
    w = np.exp(x - m)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(len(x)) / mean)
    return PartitionEstimate(m + math.log(mean), se, "monte_carlo", len(x),
                             seed=rng_seed, effective_count=effective_count)


def restricted_log_partition(E: ReferenceMeasure, d: DisorderSample,
                             f: ExternalField, beta: float,
                             predicate: Callable[[np.ndarray], np.ndarray],
                             mc_samples: int = 20000,
                             rng_seed: int = 0) -> PartitionEstimate:
    """log E[1_A exp(beta H^f)] for A given by a vectorized membership test.

    `predicate` receives an (M, N) block of support points and returns a
    boolean row mask. Atomic measures are summed exactly (-inf when no atom
    passes); the sphere uses indicator Monte Carlo and reports the effective
    (accepted) sample count.
    """
    if E.is_atomic:
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
    pts = _sphere_samples(E.n, mc_samples, rng_seed)
    mask = np.asarray(predicate(pts), dtype=bool)
    hits = int(mask.sum())
    if hits == 0:
        return PartitionEstimate(-np.inf, 0.0, "monte_carlo", mc_samples,
                                 seed=rng_seed, effective_count=0)
    x = np.full(mc_samples, -np.inf)
    members = pts[mask]
    x[mask] = beta * (energy_many(d, members) + f.value_many(members))
    return _mc_estimate(x, rng_seed, effective_count=hits)


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
    conditional: Optional[ReferenceMeasure]
    thin_pushforward: Optional[ThinPushforward]
    empty: bool
    mass_std_error: float = 0.0


def node_member_mask(node: CoverNode, block: np.ndarray,
                     eta: Optional[float] = None) -> np.ndarray:
    """E_alpha membership over the rows of `block`.

    The level projections of all rows are rounded as whole columns by the
    array grid rounding (cover.round_down_indices), the same test that
    cover.membership applies to a single vector.
    """
    return region_masks(node, block, eta=eta)[1]


def slice_measures(E: ReferenceMeasure, node: CoverNode,
                   eta: Optional[float] = None, mc_samples: int = 20000,
                   rng_seed: int = 0) -> SliceMeasures:
    """Mass of E_alpha, the conditioned measure, and its thin-slice image.

    Atomic measures are handled exactly; the sphere by Monte Carlo, in which
    case the conditional and pushforward are clouds of accepted samples. An
    empty region is flagged and carries no conditional (mirrors the positive
    mass guard on the conditioned measure).
    """
    if E.is_atomic:
        pts, wts = E.atoms()
        mask = node_member_mask(node, pts.astype(np.float64), eta)
        mass = float(wts[mask].sum())
        if mass <= 0.0:
            return SliceMeasures(0.0, None, None, True)
        members = pts[mask].astype(np.float64)
        w = wts[mask] / mass
        tau = thin_projections(node, members)
        cond = point_cloud(members, w)
        return SliceMeasures(mass, cond, ThinPushforward(tau, w, node.q), False)
    pts = _sphere_samples(E.n, mc_samples, rng_seed)
    mask = node_member_mask(node, pts, eta)
    hits = int(mask.sum())
    mass = hits / mc_samples
    se = math.sqrt(max(mass * (1 - mass), 1e-12) / mc_samples)
    if hits == 0:
        return SliceMeasures(0.0, None, None, True, mass_std_error=se)
    members = pts[mask]
    w = np.full(hits, 1.0 / hits)
    tau = thin_projections(node, members)
    return SliceMeasures(mass, point_cloud(members, w), ThinPushforward(tau, w, node.q),
                         False, mass_std_error=se)

