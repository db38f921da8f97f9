"""Partition functions: exact Ising enumeration, sphere Monte Carlo, restrictions.

The exact Ising value walks {-1, 1}^N in reflected Gray-code order, updating
the energy in O(N^{p-1}) work per spin flip and accumulating a streaming
log-sum-exp in that fixed order. Sphere estimates draw normalized Gaussians
from a counter-based (Philox) stream, so replica streams are independent and
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
from .entropy import ReferenceMeasure, point_cloud
from .errors import DomainError, ResourceBudgetError
from .hamiltonian import DisorderSample, ExternalField, energy_many

ENUM_LIMITS = {2: 24, 3: 16}  # max N per highest interacting degree


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


class _StreamingLogSumExp:
    """Running log(sum exp(x_i)) in a fixed arrival order."""

    def __init__(self):
        self.max = -np.inf
        self.sum = 0.0

    def add(self, x: float) -> None:
        if x == -np.inf:
            return
        if x > self.max:
            self.sum = self.sum * math.exp(self.max - x) + 1.0 if self.max > -np.inf else 1.0
            self.max = x
        else:
            self.sum += math.exp(x - self.max)

    def value(self) -> float:
        if self.max == -np.inf:
            return -np.inf
        return self.max + math.log(self.sum)


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


class _GrayEnergy:
    """Energy of the current configuration, updated per Gray-code flip.

    Degree 2 recomputes one row/column contraction per flip; degree 3 keeps
    the precomputed index-pair diagonals so a flip costs one matrix-vector
    product plus O(N) corrections.
    """

    def __init__(self, d: DisorderSample):
        a = d.model.series.coefficients
        n = d.n
        self.n = n
        self.sigma = -np.ones(n)
        self.scales = {p: math.sqrt(a[p]) * n ** ((1 - p) / 2) for p in d.tensors}
        self.const = self.scales[0] * d.tensors[0] if 0 in d.tensors else 0.0
        self.g1 = d.tensors.get(1)
        self.value = self.const
        if self.g1 is not None:
            self.value += self.scales[1] * float(self.g1 @ self.sigma)
        self.g2 = d.tensors.get(2)
        if self.g2 is not None:
            self.rc2 = self.g2 + self.g2.T
            self.diag2 = np.diag(self.g2).copy()
            self.value += self.scales[2] * float(self.sigma @ self.g2 @ self.sigma)
        self.g3 = d.tensors.get(3)
        if self.g3 is not None:
            g3 = self.g3
            self.t3_a = g3                      # slice [i, :, :]
            self.t3_b = np.ascontiguousarray(g3.transpose(1, 0, 2))
            self.t3_c = np.ascontiguousarray(g3.transpose(2, 0, 1))
            self.d12 = np.array([g3[i, i, :] for i in range(n)])
            self.d13 = np.array([g3[i, :, i] for i in range(n)])
            self.d23 = np.array([g3[:, i, i] for i in range(n)])
            self.diag3 = np.array([g3[i, i, i] for i in range(n)])
            s = self.sigma
            self.value += self.scales[3] * float(np.einsum("abc,a,b,c->", g3, s, s, s))

    def flip(self, i: int) -> float:
        s = self.sigma
        old = s[i]
        dlt = -2.0 * old
        if self.g1 is not None:
            self.value += self.scales[1] * self.g1[i] * dlt
        if self.g2 is not None:
            self.value += self.scales[2] * (
                dlt * float(self.rc2[i] @ s) + dlt * dlt * self.diag2[i])
        if self.g3 is not None:
            lin = (float(s @ self.t3_a[i] @ s) + float(s @ self.t3_b[i] @ s)
                   + float(s @ self.t3_c[i] @ s))
            quad = (float(self.d12[i] @ s) + float(self.d13[i] @ s)
                    + float(self.d23[i] @ s))
            self.value += self.scales[3] * (
                dlt * lin + dlt * dlt * quad + dlt ** 3 * self.diag3[i])
        s[i] = -old
        return self.value


def _gray_flip_order(n: int):
    for t in range(1, 2 ** n):
        yield (t & -t).bit_length() - 1


def log_partition_exact_ising(d: DisorderSample, f: ExternalField,
                              beta: float) -> PartitionEstimate:
    """log 2^{-N} sum_sigma exp(beta (H + f)(sigma)), exact up to float64.

    Gray-code enumeration with incremental energy updates and a streaming
    log-sum-exp; the linear and spike fields update in O(1) via the running
    spin sum.
    """
    _check_enum_budget(d)
    n = d.n
    state = _GrayEnergy(d)
    lse = _StreamingLogSumExp()
    if f.kind in ("none", "linear", "quadratic_spike"):
        spin_sum = float(state.sigma.sum())
        h = f.h

        def field_of(_):
            if f.kind == "none":
                return 0.0
            if f.kind == "linear":
                return h * spin_sum
            return h / n * spin_sum ** 2
    else:
        def field_of(s):
            return f.value(s)
        spin_sum = None
    lse.add(beta * (state.value + field_of(state.sigma)))
    for i in _gray_flip_order(n):
        old = state.sigma[i]
        e = state.flip(i)
        if spin_sum is not None:
            spin_sum -= 2.0 * old
        lse.add(beta * (e + field_of(state.sigma)))
    return PartitionEstimate(lse.value() - n * math.log(2.0), 0.0,
                             "exact_enumeration", 2 ** n)


def _ising_configurations(n: int, chunk: int = 1 << 13):
    for start in range(0, 2 ** n, chunk):
        idx = np.arange(start, min(start + chunk, 2 ** n), dtype=np.uint32)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
        yield 1.0 - 2.0 * bits.astype(np.float64)


def log_partition_naive_ising(d: DisorderSample, f: ExternalField,
                              beta: float) -> PartitionEstimate:
    """Independent non-incremental enumerator (oracle for the Gray-code path)."""
    _check_enum_budget(d)
    n = d.n
    pieces = []
    for block in _ising_configurations(n):
        x = beta * (energy_many(d, block) + f.value_many(block))
        pieces.append(x)
    allx = np.concatenate(pieces)
    m = float(allx.max())
    log_sum = m + math.log(float(np.exp(allx - m).sum()))
    return PartitionEstimate(log_sum - n * math.log(2.0), 0.0,
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
        lse_max = -np.inf
        total = 0.0
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
            x = x + np.log(w[mask])
            m = float(x.max())
            if m > lse_max:
                total = total * math.exp(lse_max - m) if lse_max > -np.inf else 0.0
                lse_max = m
            total += float(np.exp(x - lse_max).sum())
        log_val = lse_max + math.log(total) if lse_max > -np.inf else -np.inf
        return PartitionEstimate(log_val, 0.0, "exact_enumeration", len(pts),
                                 effective_count=hits)
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
