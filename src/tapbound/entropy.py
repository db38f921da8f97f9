"""Reference measures on the unit sphere and their entropy functionals.

Measures: the uniform distributions on {-1, 1}^N and on the normalized unit
sphere, plus finite weighted point clouds. Entropy functionals:

  J(m)                extended binary entropy, capped at log 2 off [-1, 1]
  ising_entropy(m)    -sum_i J(m_i)
  spherical_entropy   (N/2) log(1 - ||m||^2)
  halfspace_log_mass  r_delta(m, lambda) = log E[<lambda, sigma - m> >= -delta]
  lambda_min_entropy  a deterministic near-minimizer of r_delta(m, .)
  general_entropy_upper   r_delta at the chosen direction; an upper bound of
                          inf_{||lambda||=1} r_delta(m, lambda)

The sphere half-space mass is the 1-D cap integral with density
(1/sqrt(pi)) Gamma(N/2)/Gamma((N-1)/2) (1 - x^2)^{(N-3)/2}, evaluated by
adaptive quadrature to 1e-12 absolute on the probability; log taken after.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, xlogy

from .errors import DomainError
from .geometry import inner, norm, normalize

LOG2 = float(np.log(2.0))
ISING_ENUM_MAX_N = 22

_ATOM_CACHE: dict[int, np.ndarray] = {}
# Atoms per block in the batched half-space sums: caps their scratch memory
# at a few MB whatever N, the support size and the number of directions.
_ATOM_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceMeasure:
    """A probability measure supported on the normalized unit sphere."""

    kind: str  # "ising" | "sphere" | "point_cloud"
    n: int
    points: Optional[np.ndarray] = None   # (M, n) unit rows, atom kinds only
    weights: Optional[np.ndarray] = None  # (M,) positive, sums to 1

    def __post_init__(self):
        if self.kind not in ("ising", "sphere", "point_cloud"):
            raise DomainError(f"unknown measure kind {self.kind!r}")
        if self.kind == "point_cloud":
            pts = np.ascontiguousarray(np.atleast_2d(
                np.asarray(self.points, dtype=np.float64)))
            w = np.asarray(self.weights, dtype=np.float64)
            if len(pts) != len(w) or len(pts) == 0:
                raise DomainError("point cloud needs matching points and weights")
            if np.any(w <= 0):
                raise DomainError("point cloud weights must be positive")
            radii = np.sqrt((pts ** 2).sum(axis=1) / self.n)
            if np.abs(radii - 1.0).max() > 1e-9:
                raise DomainError("point cloud atoms must lie on the unit sphere")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "weights", w / w.sum())

    @property
    def is_atomic(self) -> bool:
        return self.kind in ("ising", "point_cloud")

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points and weights for atomic measures."""
        if self.kind == "point_cloud":
            return self.points, self.weights
        if self.kind == "ising":
            atoms = _ising_atoms(self.n)
            # A read-only broadcast of one scalar: no 2^N vector per call
            return atoms, np.broadcast_to(2.0 ** (-self.n), len(atoms))
        raise DomainError("sphere measure has no atom list")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "sphere":
            z = rng.standard_normal((count, self.n))
            return z * (np.sqrt(self.n) / np.linalg.norm(z, axis=1))[:, None]
        pts, w = self.atoms()
        idx = rng.choice(len(pts), size=count, p=w)
        return pts[idx].astype(np.float64)


def _ising_atoms(n: int) -> np.ndarray:
    """All of {-1, 1}^n as an int8 matrix; row index bit b -> sign (-1)^bit."""
    if n > ISING_ENUM_MAX_N:
        raise DomainError(f"ising enumeration capped at N={ISING_ENUM_MAX_N}")
    if n not in _ATOM_CACHE:
        idx = np.arange(2 ** n, dtype=np.uint32)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
        _ATOM_CACHE[n] = (1 - 2 * bits.astype(np.int8))
    return _ATOM_CACHE[n]


def ising_uniform(n: int) -> ReferenceMeasure:
    return ReferenceMeasure("ising", n)


def sphere_uniform(n: int) -> ReferenceMeasure:
    return ReferenceMeasure("sphere", n)


def point_cloud(points, weights) -> ReferenceMeasure:
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return ReferenceMeasure("point_cloud", points.shape[1], points, weights)


def point_cloud_from_csv(path) -> ReferenceMeasure:
    """Rows of `v_1, ..., v_N, weight`, atoms on the unit sphere."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            rows.append([float(x) for x in row])
    arr = np.asarray(rows, dtype=np.float64)
    return point_cloud(arr[:, :-1], arr[:, -1])


# ---------------------------------------------------------------------------
# Entropy functions
# ---------------------------------------------------------------------------

def binary_entropy(m) -> float:
    """Extended J: ((1+m)/2) log(1+m) + ((1-m)/2) log(1-m), log 2 off [-1,1]."""
    m = np.asarray(m, dtype=np.float64)
    clipped = np.clip(m, -1.0, 1.0)
    inside = xlogy((1.0 + clipped) / 2.0, 1.0 + clipped) + xlogy(
        (1.0 - clipped) / 2.0, 1.0 - clipped)
    out = np.where(np.abs(m) >= 1.0, LOG2, inside)
    return float(out) if out.ndim == 0 else out


def ising_entropy(m: np.ndarray) -> float:
    """-sum_i J(m_i) <= 0, using the extended J (defined on all of R^N)."""
    return -float(np.sum(binary_entropy(np.asarray(m, dtype=np.float64))))


def spherical_entropy(m: np.ndarray) -> float:
    """(N/2) log(1 - ||m||^2) for ||m|| < 1."""
    m = np.asarray(m, dtype=np.float64)
    q = float(m @ m) / m.shape[0]
    if q >= 1.0:
        raise DomainError(f"||m||^2 = {q} not inside the open unit ball")
    return 0.5 * m.shape[0] * float(np.log1p(-q))


# ---------------------------------------------------------------------------
# Half-space log-masses
# ---------------------------------------------------------------------------

def _cap_log_mass(n: int, threshold: float) -> float:
    """log of the uniform-sphere mass of {<sigma, u> >= threshold}."""
    if threshold <= -1.0:
        return 0.0
    if threshold > 1.0:
        return -np.inf
    log_c = -0.5 * np.log(np.pi) + gammaln(n / 2.0) - gammaln((n - 1) / 2.0)
    c = np.exp(log_c)
    mass, _ = quad(lambda x: c * (1.0 - x * x) ** ((n - 3) / 2.0),
                   threshold, 1.0, epsabs=1e-12, limit=200)
    if mass <= 0.0:
        return -np.inf
    return float(np.log(min(mass, 1.0)))


def _check_unit_lambda(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.float64)
    if abs(norm(lam) - 1.0) > 1e-9:
        raise DomainError("lambda must have unit normalized norm")
    return lam


def halfspace_log_mass(E: ReferenceMeasure, lam: np.ndarray, m: np.ndarray,
                       delta: float) -> float:
    """r_delta(m, lambda) = log E[<lambda, sigma - m> >= -delta]; may be -inf.

    Atomic measures are summed exactly (closed inequality, with a 1e-12
    tie guard) over chunks of the support; the sphere uses the cap quadrature.
    """
    lam = _check_unit_lambda(lam)
    m = np.asarray(m, dtype=np.float64)
    threshold = inner(lam, m) - delta
    if E.kind == "sphere":
        return _cap_log_mass(E.n, threshold)
    return float(_log_mass_above(E, lam[None, :], np.array([threshold]))[0])


def _halfspace_log_mass_many(E: ReferenceMeasure, lams: np.ndarray,
                             m: np.ndarray, delta: float) -> np.ndarray:
    """Batched r_delta over the rows of `lams` (atomic measures only)."""
    return _log_mass_above(E, lams, (lams @ m) / E.n - delta)


def _log_mass_above(E: ReferenceMeasure, lams: np.ndarray,
                    thresholds: np.ndarray) -> np.ndarray:
    """log E[<lams_j, sigma> >= thresholds_j - 1e-12] for each row j.

    Atoms are visited _ATOM_CHUNK at a time, so scratch memory is bounded
    by the chunk, not by the support size. The uniform Ising mass is the hit
    count times 2^-N, which equals the weighted sum exactly: every partial
    sum is a multiple of 2^-N below 1. Point clouds sum their weights.
    """
    cut = thresholds - 1e-12
    if E.kind == "ising":
        atoms = _ising_atoms(E.n)
        hits = np.zeros(len(lams), dtype=np.int64)
        for start in range(0, len(atoms), _ATOM_CHUNK):
            block = atoms[start:start + _ATOM_CHUNK].astype(np.float64)
            # One row per direction, so each count runs over contiguous memory
            proj = lams @ block.T
            proj /= E.n
            hit = proj >= cut[:, None]
            hits += [np.count_nonzero(row) for row in hit]
        masses = hits * 2.0 ** (-E.n)
    else:
        pts, w = E.atoms()
        masses = np.zeros(len(lams))
        for start in range(0, len(pts), _ATOM_CHUNK):
            proj = pts[start:start + _ATOM_CHUNK] @ lams.T
            proj /= E.n
            hit_w = np.where(proj >= cut, w[start:start + _ATOM_CHUNK, None], 0.0)
            # Stacking the running total on top continues numpy's row-by-row
            # column sum, so the result equals one sum over the whole cloud.
            masses = np.vstack((masses, hit_w)).sum(axis=0)
    with np.errstate(divide="ignore"):
        return np.log(masses)


# ---------------------------------------------------------------------------
# Minimal-entropy hyperplane normal
# ---------------------------------------------------------------------------

LOCAL_SEARCH_ITERATIONS = 200
LOCAL_SEARCH_STEP = 0.25
LOCAL_SEARCH_MIN_STEP = 1e-4


def _candidate_directions(E, m, delta, extra_directions):
    n = E.n
    cands = []
    clipped = np.clip(m, -(1.0 - delta), 1.0 - delta)
    atanh_dir = np.arctanh(clipped)
    if norm(atanh_dir) > 1e-12:
        cands.append(normalize(atanh_dir))
    if norm(m) > 1e-12:
        cands.append(normalize(m))
    if E.kind == "ising":
        # Separating direction when m sits strictly outside [-1, 1]^N: makes
        # the half-space empty once the box distance exceeds delta.
        box = np.clip(m, -1.0, 1.0)
        w = m - box
        if norm(w) > 1e-12:
            cands.append(normalize(w))
    for v in extra_directions:
        v = np.asarray(v, dtype=np.float64)
        if norm(v) > 1e-12:
            cands.append(normalize(v))
    scale = np.sqrt(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = scale
        cands.append(e)
        cands.append(-e)
    return cands


def lambda_min_entropy(E: ReferenceMeasure, m: np.ndarray, delta: float,
                       extra_directions=()) -> np.ndarray:
    """Deterministic unit normal nearly minimizing r_delta(m, .).

    Sphere: m/||m|| exactly (first standard direction, unit-scaled, at m = 0).
    Atomic: best of a fixed candidate list (clipped-atanh direction, m itself,
    supplied extra directions, signed standard directions) refined by
    coordinate-wise perturbation descent with shrinking step, re-normalized to
    the unit sphere each move. Iteration `it` probes lam +- step along
    coordinate it % N and moves to the better probe if it lowers r_delta by
    more than 1e-15; N failures in a row halve the step.

    A failed probe leaves lam and the step unchanged, so the descent is
    evaluated a window at a time: the next min(N, iterations left) probes
    are all scored against the current lam in one batched pass, the first
    success in iteration order is taken and the next window starts after
    it, and a window without success halves the step. This visits the same
    lams with the same arithmetic as probing one iteration at a time.
    """
    m = np.asarray(m, dtype=np.float64)
    n = E.n
    if E.kind == "sphere":
        if norm(m) > 1e-12:
            return normalize(m)
        lam = np.zeros(n)
        lam[0] = np.sqrt(n)
        return lam

    cands = np.array(_candidate_directions(E, m, delta, extra_directions))
    values = _halfspace_log_mass_many(E, cands, m, delta)
    best_idx = int(np.argmin(values))
    lam, best = cands[best_idx], float(values[best_idx])
    if best == -np.inf:
        return lam

    step = LOCAL_SEARCH_STEP
    scale = np.sqrt(n)
    it = 0
    while it < LOCAL_SEARCH_ITERATIONS:
        width = min(n, LOCAL_SEARCH_ITERATIONS - it)
        trials = np.empty((width, 2, n))
        for k in range(width):
            probe = np.zeros(n)
            probe[(it + k) % n] = scale * step
            trials[k] = (normalize(lam + probe), normalize(lam - probe))
        # Thresholds pair by pair: a (2, N) product rounds differently from
        # the same rows inside a taller one.
        thresholds = np.concatenate([(pair @ m) / n - delta for pair in trials])
        vals = _log_mass_above(E, trials.reshape(2 * width, n),
                               thresholds).reshape(width, 2)
        j = np.argmin(vals, axis=1)
        pair_best = vals[np.arange(width), j]
        better = np.flatnonzero(pair_best < best - 1e-15)
        if len(better):
            k = int(better[0])
            lam, best = trials[k, j[k]].copy(), float(pair_best[k])
            it += k + 1
            if best == -np.inf:
                break
        else:
            it += width
            step *= 0.5
            if step < LOCAL_SEARCH_MIN_STEP:
                break
    return lam


def general_entropy_upper(E: ReferenceMeasure, m: np.ndarray, delta: float,
                          extra_directions=()) -> float:
    """r_delta(m, lambda) at the deterministic lambda rule.

    An upper bound of the true infimum over unit normals; every use in the
    bound checks only needs this direction, since a larger entropy term only
    loosens the verified inequality.
    """
    lam = lambda_min_entropy(E, m, delta, extra_directions)
    return halfspace_log_mass(E, lam, m, delta)
