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

from .cover import CoverNode, region_masks, thin_projection
from .entropy import ReferenceMeasure, _ising_atoms, point_cloud
from .errors import DomainError, ResourceBudgetError
from .hamiltonian import DisorderSample, ExternalField, energy_many

ENUM_LIMITS = {2: 24, 3: 16}  # max N per highest interacting degree
# Spins enumerated together as one fixed block by the exact Ising sum.
_LOW_SPINS = 12


@dataclass(frozen=True)
class PartitionEstimate:
    log_value: float
    std_error: float
    method: str  # exact_enumeration | monte_carlo | quadrature
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


def _sphere_samples(n: int, count: int, rng_seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    z = rng.standard_normal((count, n))
    return z * (math.sqrt(n) / np.linalg.norm(z, axis=1))[:, None]


def log_partition_mc_sphere(d: DisorderSample, f: ExternalField, beta: float,
                            samples: int, rng_seed: int) -> PartitionEstimate:
    """Monte Carlo log E[exp(beta H^f)] over the uniform sphere.

    The estimate is a log-mean-exp over `samples` normalized Gaussian draws;
    std_error comes from the delta method on the log (scale-invariant).
    """
    if samples < 100:
        raise DomainError("samples must be >= 100")
    pts = _sphere_samples(d.n, samples, rng_seed)
    x = beta * (energy_many(d, pts) + f.value_many(pts))
    m = float(x.max())
    w = np.exp(x - m)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(samples) / mean)
    return PartitionEstimate(m + math.log(mean), se, "monte_carlo", samples,
                             seed=rng_seed)


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
            x = beta * (energy_many(d, block[mask]) + f.value_many(block[mask]))
            acc = _lse_merge(acc, x + np.log(w[mask]))
        return PartitionEstimate(_lse_value(acc), 0.0, "exact_enumeration",
                                 len(pts), effective_count=hits)
    pts = _sphere_samples(E.n, mc_samples, rng_seed)
    mask = np.asarray(predicate(pts), dtype=bool)
    hits = int(mask.sum())
    if hits == 0:
        return PartitionEstimate(-np.inf, 0.0, "monte_carlo", mc_samples,
                                 seed=rng_seed, effective_count=0)
    x = beta * (energy_many(d, pts[mask]) + f.value_many(pts[mask]))
    m = float(x.max())
    w = np.zeros(mc_samples)
    w[mask] = np.exp(x - m)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(mc_samples) / mean)
    return PartitionEstimate(m + math.log(mean), se, "monte_carlo", mc_samples,
                             seed=rng_seed, effective_count=hits)


# ---------------------------------------------------------------------------
# Slice measures attached to a cover node
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceMeasures:
    mass: float
    conditional: Optional[ReferenceMeasure]
    thin_pushforward: Optional[ReferenceMeasure]
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
        tau = np.array([thin_projection(node, s) for s in members])
        cond = point_cloud(members, w)
        return SliceMeasures(mass, cond, _raw_cloud(tau, w, node.n), False)
    pts = _sphere_samples(E.n, mc_samples, rng_seed)
    mask = node_member_mask(node, pts, eta)
    hits = int(mask.sum())
    mass = hits / mc_samples
    se = math.sqrt(max(mass * (1 - mass), 1e-12) / mc_samples)
    if hits == 0:
        return SliceMeasures(0.0, None, None, True, mass_std_error=se)
    members = pts[mask]
    w = np.full(hits, 1.0 / hits)
    tau = np.array([thin_projection(node, s) for s in members])
    return SliceMeasures(mass, point_cloud(members, w), _raw_cloud(tau, w, node.n),
                         False, mass_std_error=se)


def _raw_cloud(points: np.ndarray, weights: np.ndarray, n: int) -> ReferenceMeasure:
    """Point cloud off the unit sphere (thin-slice images have radius < 1)."""
    m = ReferenceMeasure.__new__(ReferenceMeasure)
    object.__setattr__(m, "kind", "point_cloud")
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "points", np.asarray(points, dtype=np.float64))
    w = np.asarray(weights, dtype=np.float64)
    object.__setattr__(m, "weights", w / w.sum())
    return m
