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

The uniform Ising half-space mass is a subset-sum count: how many sign
vectors have lambda . sigma >= N t. It is counted meet-in-the-middle
(Horowitz and Sahni 1974): the first floor(N/2) coordinates of lambda against
all of their sign patterns give the partial sums A, the other coordinates
give B, and the count is the number of pairs with B_b >= N t - A_a, found by
one stable sort of [N t - A | B] per direction. That touches 2^(N/2) sums per
half instead of N 2^N products, so the mass, `lambda_min_entropy` and
`general_entropy_upper` reach past ISING_ENUM_MAX_N; `atoms()` still
enumerates the whole support and is capped there.

The sphere half-space mass is the cap mass of <sigma, u>, whose density is
proportional to (1 - x^2)^{(N-3)/2}: in closed form the regularized incomplete
beta function (1/2) I_{1-t^2}((N-1)/2, 1/2) for t >= 0, complemented for t < 0.
That cap mass is the only use of scipy.special, which is imported there on
first call, so a run that never asks for it does not pay for loading it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import inner, norm, normalize

LOG2 = float(np.log(2.0))
ISING_ENUM_MAX_N = 22

_ATOM_CACHE: dict[int, np.ndarray] = {}
_SIGN_CACHE: dict[int, np.ndarray] = {}
# Atoms (point clouds) or sort keys (Ising) per block in the batched
# half-space sums: caps their scratch memory at a few MB whatever N, the
# support size and the number of directions.
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


def _ising_atoms(n: int) -> np.ndarray:
    """All of {-1, 1}^n as an int8 matrix; row index bit b -> sign (-1)^bit."""
    if n > ISING_ENUM_MAX_N:
        raise DomainError(f"ising enumeration capped at N={ISING_ENUM_MAX_N}")
    if n not in _ATOM_CACHE:
        idx = np.arange(2 ** n, dtype=np.uint32)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
        _ATOM_CACHE[n] = (1 - 2 * bits.astype(np.int8))
    return _ATOM_CACHE[n]


def _sign_table(h: int) -> np.ndarray:
    """_ising_atoms(h) transposed, as floats: (h, 2^h), one pattern a column."""
    if h not in _SIGN_CACHE:
        _SIGN_CACHE[h] = np.ascontiguousarray(_ising_atoms(h).T, dtype=np.float64)
    return _SIGN_CACHE[h]


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
    # At |m| = 1 one term is 0 * log 0 = nan, but np.where replaces every
    # |m| >= 1 entry by log 2; a NaN m stays NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = ((1.0 + clipped) / 2.0 * np.log(1.0 + clipped)
                  + (1.0 - clipped) / 2.0 * np.log(1.0 - clipped))
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
    """log of the uniform-sphere mass of {<sigma, u> >= threshold}.

    For t >= 0 the mass is (1/2) I_{1-t^2}((N-1)/2, 1/2), and 1 minus that
    at -t for t < 0; at N = 1 (the two points +-1) it is 1/2 on (-1, 1).
    Where that mass is below the smallest normal float64 it is taken in log
    space, so the result is finite for every t < 1.
    """
    if threshold <= -1.0:
        return 0.0
    if threshold > 1.0:
        return -np.inf
    from scipy.special import betainc

    a, x = (n - 1) / 2.0, 1.0 - threshold * threshold
    half = 0.5 * betainc(a, 0.5, x)
    if threshold >= 0.0 and x > 0.0 and half < np.finfo(np.float64).tiny:
        return _log_half_betainc_tail(a, x)
    with np.errstate(divide="ignore"):
        return float(np.log(half) if threshold >= 0.0 else np.log1p(-half))


def _log_half_betainc_tail(a: float, x: float) -> float:
    """log((1/2) I_x(a, 1/2)) for x below the mean of Beta(a, 1/2).

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times a continued fraction,
    summed by the modified Lentz method (Numerical Recipes, betacf), which
    converges fast there; only its logarithm is formed, so nothing underflows.
    """
    from scipy.special import betaln

    b = 0.5
    tiny = 1e-300

    def guard(v):
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return float(a * np.log(x) + b * np.log1p(-x) - betaln(a, b)
                 + np.log(h) - np.log(a) - np.log(2.0))


def _check_unit_lambda(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.float64)
    if abs(norm(lam) - 1.0) > 1e-9:
        raise DomainError("lambda must have unit normalized norm")
    return lam


def halfspace_log_mass(E: ReferenceMeasure, lam: np.ndarray, m: np.ndarray,
                       delta: float) -> float:
    """r_delta(m, lambda) = log E[<lambda, sigma - m> >= -delta]; may be -inf.

    Atomic measures are counted exactly (closed inequality, with a 1e-12
    tie guard): the uniform Ising measure by split sums, point clouds over
    chunks of the support; the sphere uses the closed-form cap mass.
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

    The uniform Ising mass is the hit count of _ising_hits times 2^-N, which
    equals the weighted sum exactly: every partial sum is a multiple of 2^-N
    below 1. Point clouds sum their weights over _ATOM_CHUNK atoms at a
    time, so scratch memory is bounded by the chunk, not by the support size.
    """
    cut = thresholds - 1e-12
    if E.kind == "ising":
        masses = _ising_hits(lams, cut) * 2.0 ** (-E.n)
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


def _ising_hits(lams: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """#{sigma in {-1, 1}^N : <lams_j, sigma> >= cut_j} for each row j.

    Split sums (Horowitz and Sahni 1974): with h = floor(N/2), A holds
    lams_j[:h] . s over the 2^h sign patterns s of the first h coordinates
    and B the same over the last N - h, and the count is the number of pairs
    (a, b) with B_b >= N cut_j - A_a. Both halves are sorted, so the
    per-direction keys [N cut_j - A | B] are two ascending runs, and one
    stable argsort merges them with every target ahead of the B sums equal
    to it. The k-th target then sits at position p_k with p_k - k smaller B
    sums before it, and the misses sum to sum_k p_k - 2^h (2^h - 1) / 2.

    Directions are taken a block at a time, at most _ATOM_CHUNK keys per
    block (one direction when a row alone has more), so scratch memory stays
    a few MB whatever N and the number of directions.

    The sums A_a + B_b and N cut_j - A_a round differently from the one dot
    product over all N coordinates that a direct count takes. For a unit
    direction sum_i |lambda_i| <= N, so each half sum of N/2 terms is off by
    less than (N/2) N 2^-53, and the comparison by about N^2 2^-52 in
    lambda . sigma, that is N 2^-52 (7e-15 at N = 32) in <lambda, sigma>
    = lambda . sigma / N. A count can move only for an atom whose
    projection lies that close to cut_j itself, which the callers put 1e-12
    below the threshold: an atom tied with the threshold is counted by
    either sum.
    """
    n = lams.shape[1]
    h = n // 2
    lo, hi = 1 << h, 1 << (n - h)
    head, tail = _sign_table(h), _sign_table(n - h)
    positions = np.arange(lo + hi)
    rows = max(1, _ATOM_CHUNK // (lo + hi))
    target_positions = np.empty(len(lams), dtype=np.int64)
    for start in range(0, len(lams), rows):
        block = lams[start:start + rows]
        a = block[:, :h] @ head
        b = block[:, h:] @ tail
        a.sort(axis=1)
        b.sort(axis=1)
        targets = (n * cut[start:start + rows])[:, None] - a[:, ::-1]
        order = np.argsort(np.concatenate((targets, b), axis=1), axis=1,
                           kind="stable")
        target_positions[start:start + rows] = np.where(
            order < lo, positions, 0).sum(axis=1)
    return lo * hi - (target_positions - lo * (lo - 1) // 2)


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
        k_idx = np.arange(width)
        coord = (it + k_idx) % n
        # lam +- probe with a zero-padded probe: lam + 0.0 off the probed
        # coordinate turns a -0.0 entry into +0.0, lam - 0.0 keeps it
        trials = np.empty((width, 2, n))
        trials[:, 0] = lam + 0.0
        trials[:, 1] = lam
        trials[k_idx, 0, coord] = lam[coord] + scale * step
        trials[k_idx, 1, coord] = lam[coord] - scale * step
        # Stacked one-row products: the same dot per row as geometry.norm,
        # and the same (2, N) product per pair as one pair at a time, which
        # a (2 width, N) product would not round like.
        norms = np.sqrt((trials[:, :, None, :] @ trials[:, :, :, None])[..., 0] / n)
        if not norms.all():
            raise ValueError("cannot normalize the zero vector")
        trials /= norms
        thresholds = (trials @ m) / n - delta
        vals = _log_mass_above(E, trials.reshape(2 * width, n),
                               thresholds.ravel()).reshape(width, 2)
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
