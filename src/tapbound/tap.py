"""TAP energy functionals and their maximizers.

For a magnetization m the energy is

    beta * (H + f)(m) + I(m) + (beta^2 / 2) * N * On(||m||^2),

where a `TapProblem` holds the disorder H, the field f and beta, and n and
the On of xi come from the disorder's model, the law of H. I is the Ising
entropy -sum_i J(m_i) on (-1,1)^N, the spherical entropy
(N/2) log(1 - ||m||^2) on the open ball, or the half-space log-mass surrogate
for a general reference measure on the closed ball. All terms are extensive
(order N); per-spin values are reported alongside, never mixed in. Each
term is computed once, row-batched, by `tap_energy_many` and
`tap_gradient_many` (the general flavor has no gradient); `tap_energy` and
`tap_gradient` are their one-row calls.

Maximization is multi-start projected L-BFGS (Nocedal & Wright, Numerical
Optimization, ch. 7), for the ising and spherical flavors and a block of
problems at once (`maximize_tap_many`; `maximize_tap` is its block of one).
The problems share n, flavor and covariance series; their starts advance
together as the rows of one array, problem-major. Only the disorder and
field kernels run per problem, on its contiguous run of rows; the domain
check, beta scaling, Onsager and entropy terms, projection, two-loop
recursion and Armijo bookkeeping are one call over the stack, and the
term bodies behind `tap_energy_many` and `tap_gradient_many` are the same
stacked bodies, called for a block of one. Each row keeps its own curvature
history, backtracking Armijo search on the projected candidate and stopping
state, so a start follows the same rules as if it ran alone, and each
problem's result is bit for bit the one it gets alone; ties break toward
the lowest start index. The ascent's gradients skip the domain check: every
row has passed the energy's. The earlier projected gradient ascent and the
per-problem L-BFGS are kept as test oracles. The general flavor has no
gradient and no maximizer. The best value found is a lower bound on
the true supremum and is used as the sup surrogate by the bound experiments
(cross-checked against an exhaustive grid oracle at tiny N).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy import ReferenceMeasure, binary_entropy, general_entropy_upper
from .errors import DomainError, ResourceBudgetError, UnsupportedOperationError
from .geometry import norm
from .hamiltonian import DisorderSample, ExternalField, energy_many, gradient_many

FLAVORS = ("ising", "spherical", "general")

MAX_ITERATIONS = 500
HISTORY = 8  # L-BFGS curvature pairs kept per start
INITIAL_STEP = 0.1
BACKTRACK_FACTOR = 0.5
GRAD_TOLERANCE = 1e-8
DOMAIN_MARGIN = 1e-9
START_SHRINK = 0.9


@dataclass(frozen=True)
class TapProblem:
    """The TAP functional of one disorder at inverse temperature `beta` with
    external field `field`; n and xi are those of `disorder.model`."""

    disorder: DisorderSample
    field: ExternalField
    beta: float
    flavor: str
    measure: Optional[ReferenceMeasure] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise DomainError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "general" and (self.measure is None or self.delta is None):
            raise DomainError("general flavor needs a measure and a delta")
        if self.field.n != self.disorder.n:
            raise DomainError(f"field of dimension {self.field.n} for a disorder "
                              f"of dimension {self.disorder.n}")
        # written so that a NaN beta fails
        if not self.beta >= 0:
            raise DomainError("beta must be >= 0")

    @property
    def n(self) -> int:
        return self.disorder.n


def _check_domain_many(p: TapProblem, M: np.ndarray) -> np.ndarray:
    """The rows of M, each checked against the flavor's domain: (-1, 1)^N
    (ising), the open ball (spherical) or the closed ball up to 1e-12
    (general). Each comparison is written so that a NaN entry fails it."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != p.n:
        raise DomainError(f"expected magnetization rows of length {p.n}")
    if p.flavor == "ising":
        if not np.all(np.abs(M) < 1.0):
            raise DomainError("ising magnetization must lie in (-1, 1)^N")
    elif p.flavor == "spherical":
        if not np.all(_row_norms(M) < 1.0):
            raise DomainError("spherical magnetization must lie in the open ball")
    elif not np.all(_row_norms(M) <= 1.0 + 1e-12):
        raise DomainError("general magnetization must lie in the closed ball")
    return M


def _row_norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt((M * M).sum(axis=1) / M.shape[1])


def tap_energy(p: TapProblem, m: np.ndarray) -> float:
    """Extensive TAP energy of one magnetization (a one-row `tap_energy_many`)."""
    return float(tap_energy_many(p, np.asarray(m)[None])[0])


def tap_energy_per_spin(p: TapProblem, m: np.ndarray) -> float:
    return tap_energy(p, m) / p.n


def tap_energy_many(p: TapProblem, M: np.ndarray) -> np.ndarray:
    """Extensive TAP energy of every magnetization row (a block-of-one
    `_energy_block`).

    The general flavor's entropy term, the half-space surrogate, is
    evaluated one row at a time.
    """
    M = _check_domain_many(p, M)
    return _energy_block(_Block((p,)), M, np.array([len(M)]))


def tap_gradient(p: TapProblem, m: np.ndarray) -> np.ndarray:
    """Analytic gradient at one magnetization (a one-row `tap_gradient_many`)."""
    return tap_gradient_many(p, np.asarray(m)[None])[0]


def tap_gradient_many(p: TapProblem, M: np.ndarray) -> np.ndarray:
    """Analytic gradient of every row, for the ising and spherical flavors
    (a block-of-one `_gradient_block`).

    d/dm_i of the Onsager term is beta^2 On'(q) m_i with On'(q) = -(1-q) xi''(q);
    the entropy gradients are -atanh(m_i) and -m_i / (1 - q). Custom fields
    without a gradient callback fall back to central differences.
    """
    if p.flavor == "general":
        raise UnsupportedOperationError("general flavor exposes no gradient")
    M = _check_domain_many(p, M)
    return _gradient_block(_Block((p,)), M, np.array([len(M)]))


class _Block:
    """Problems that share n, flavor and covariance series, with the
    per-problem coefficients of the stacked term bodies. Rows handed to the
    bodies are problem-major: `counts[j]` rows of problem j, then those of
    problem j + 1."""

    def __init__(self, problems):
        self.problems = problems
        self.n = problems[0].n
        self.flavor = problems[0].flavor
        self.series = problems[0].disorder.model.series
        # each problem's scalars, formed as its own term bodies formed them
        self.beta = np.array([p.beta for p in problems], dtype=np.float64)
        self.onsager = np.array([0.5 * p.beta ** 2 * p.n for p in problems],
                                dtype=np.float64)
        self.onsager_grad = np.array([p.beta ** 2 for p in problems],
                                     dtype=np.float64)

    def runs(self, counts: np.ndarray):
        """(problem, lo, hi) for every problem with rows, over its
        contiguous run lo:hi."""
        hi = 0
        for p, count in zip(self.problems, counts.tolist()):
            lo, hi = hi, hi + count
            if count:
                yield p, lo, hi


def _energy_block(block: _Block, M: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """TAP energy of the problem-major rows of M, which have passed the
    domain check. The disorder and field kernels run once per problem on
    its run of rows; every other term is one call over all rows."""
    n = block.n
    vals = np.empty(len(M))
    for p, lo, hi in block.runs(counts):
        X = M[lo:hi]
        vals[lo:hi] = energy_many(p.disorder, X) + p.field.value_many(X)
    vals *= np.repeat(block.beta, counts)
    q = np.minimum(1.0, (M ** 2).sum(axis=1) / n)
    vals += np.repeat(block.onsager, counts) * block.series._onsager_rows(q)
    if block.flavor == "ising":
        vals -= binary_entropy(M).sum(axis=1)
    elif block.flavor == "spherical":
        vals += 0.5 * n * np.log1p(-q)
    else:
        vals += [general_entropy_upper(p.measure, m, p.delta,
                                       extra_directions=p.field.basis)
                 for p, lo, hi in block.runs(counts) for m in M[lo:hi]]
    return vals


def _gradient_block(block: _Block, M: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """TAP gradient of the problem-major rows of M (ising or spherical),
    which have passed the domain check; kernels run as in `_energy_block`."""
    g = np.empty(M.shape)
    for p, lo, hi in block.runs(counts):
        X = M[lo:hi]
        g[lo:hi] = gradient_many(p.disorder, X) + p.field.gradient_many(X)
    g *= np.repeat(block.beta, counts)[:, None]
    q = np.minimum(1.0, (M ** 2).sum(axis=1) / block.n)
    g += (np.repeat(block.onsager_grad, counts)
          * block.series._onsager_derivative_rows(q))[:, None] * M
    if block.flavor == "ising":
        g -= np.arctanh(M)
    else:
        g -= M / (1.0 - q)[:, None]
    return g


def _project(p: TapProblem, M: np.ndarray) -> np.ndarray:
    """Pull every row of M back to the domain, DOMAIN_MARGIN inside its edge."""
    limit = 1.0 - DOMAIN_MARGIN
    if p.flavor == "ising":
        return np.clip(M, -limit, limit)
    return M * (limit / np.maximum(_row_norms(M), limit))[:, None]


def _draw_start(p: TapProblem, rng: np.random.Generator) -> np.ndarray:
    if p.flavor == "ising":
        return rng.uniform(-START_SHRINK, START_SHRINK, size=p.n)
    z = rng.standard_normal(p.n)
    radius = START_SHRINK * rng.uniform() ** (1.0 / p.n)
    return z * (radius / norm(z))


@dataclass
class TraceRow:
    start: int
    iteration: int
    value: float
    grad_norm: float
    step: float


@dataclass
class MaximizeResult:
    m_star: np.ndarray
    value: float
    trace: list
    best_start: int
    converged: bool


def maximize_tap(p: TapProblem, starts: int, rng_seed: int) -> MaximizeResult:
    """Best magnetization over multi-start projected L-BFGS (a block-of-one
    `maximize_tap_many`). The returned value is a lower bound of the true
    supremum."""
    return maximize_tap_many([p], starts, [rng_seed])[0]


def maximize_tap_many(problems, starts: int, rng_seeds) -> list:
    """`MaximizeResult`s of multi-start projected L-BFGS for a block of
    problems, one ascent over all their starts.

    The problems must share n, the flavor (ising or spherical) and the
    covariance series (DomainError otherwise; the general flavor raises
    UnsupportedOperationError); each keeps its own beta, field and
    disorder. Problem j's starts are seeded from `rng_seeds[j]` and stacked
    problem-major as rows of one (problems * starts, N) array. The disorder
    and field kernels run once per problem on its contiguous run of rows;
    every other step is one call over the whole stack. Each row keeps its
    own curvature history, line search and stopping state, and each kernel
    sees the rows it would see for its problem alone, so every result is
    bit for bit the one its problem gets alone, and a start follows the same
    rules as if it ran alone up to rounding (the batched kernels can differ
    in the last bit at different batch heights).

    Up to 500 iterations each record a trace row (the step column is the t
    accepted at the previous iteration, `INITIAL_STEP` at the first) and
    stop the start once the normalized gradient norm drops below 1e-8.
    Otherwise the direction D is the L-BFGS two-loop product of the row's
    last `HISTORY` curvature pairs with its gradient (`INITIAL_STEP` times
    the gradient without pairs, or when D is no ascent direction), and t = 1
    is halved until the projected candidate `_project(M + t D)` passes
    Armijo on the slope <g, D>; a start with no acceptable t above 1e-14
    stops, converged when its gradient norm is below 1e-6. A problem's trace
    lists all of its start 0, then start 1, and so on. Ties between starts
    break toward the lowest start index. Each returned value is a lower
    bound of its problem's true supremum.
    """
    problems, rng_seeds = list(problems), list(rng_seeds)
    if starts < 1:
        raise DomainError("starts must be >= 1")
    if not problems:
        raise DomainError("a block needs at least one problem")
    if len(rng_seeds) != len(problems):
        raise DomainError(f"{len(rng_seeds)} seeds for {len(problems)} problems")
    if any(p.flavor == "general" for p in problems):
        raise UnsupportedOperationError("the general flavor has no gradient ascent")
    first = problems[0]
    if any(p.n != first.n or p.flavor != first.flavor
           or p.disorder.model.series != first.disorder.model.series
           for p in problems):
        raise DomainError("a block's problems must share n, flavor and series")
    block = _Block(problems)
    n = first.n

    def counts(rows):
        return np.bincount(rows // starts, minlength=len(problems))

    M = _project(first, np.array([
        _draw_start(p, np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(s,))))
        for p, seed in zip(problems, rng_seeds) for s in range(starts)]))
    active = np.arange(len(M))
    val = _energy_block(block, _check_domain_many(first, M), counts(active))
    step = np.full(len(M), INITIAL_STEP)
    converged = np.zeros(len(M), dtype=bool)
    # Curvature pairs of -TAP, newest last; an empty slot has rho = 0.
    hist_s = np.zeros((len(M), HISTORY, n))
    hist_y = np.zeros((len(M), HISTORY, n))
    rho = np.zeros((len(M), HISTORY))
    gamma = np.full(len(M), INITIAL_STEP)
    M_prev = np.empty_like(M)
    g_prev = np.empty_like(M)
    records = []  # per iteration: (rows, iteration, values, gradient norms, steps)
    for it in range(MAX_ITERATIONS):
        if not len(active):
            break
        # every row of M passed the domain check
        g = _gradient_block(block, M[active], counts(active))
        if it:
            _push_pairs(active, M[active] - M_prev[active], g_prev[active] - g,
                        hist_s, hist_y, rho, gamma)
        gn = _row_norms(g)
        records.append((active, np.full(len(active), it), val[active], gn, step[active]))
        small = gn < GRAD_TOLERANCE
        converged[active[small]] = True
        rows, g, gn = active[~small], g[~small], gn[~small]
        M_prev[rows], g_prev[rows] = M[rows], g
        # a row has at most `it` pairs, all in the newest slots
        k = min(it, HISTORY)
        D = _two_loop(g, hist_s[rows, HISTORY - k:], hist_y[rows, HISTORY - k:],
                      rho[rows, HISTORY - k:], gamma[rows])
        slope = _dot_rows(g, D) / n
        uphill = ~(slope > 0.0)
        D[uphill] = INITIAL_STEP * g[uphill]
        slope[uphill] = INITIAL_STEP * gn[uphill] ** 2
        trial = np.ones(len(rows))
        accepted = np.zeros(len(rows), dtype=bool)
        pending = np.arange(len(rows))
        while len(pending):
            idx = rows[pending]
            cand = _project(first, M[idx] + trial[pending, None] * D[pending])
            cand_val = _energy_block(block, _check_domain_many(first, cand),
                                     counts(idx))
            ok = cand_val > val[idx] + 1e-4 * trial[pending] * slope[pending]
            M[idx[ok]] = cand[ok]
            val[idx[ok]] = cand_val[ok]
            step[idx[ok]] = trial[pending[ok]]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            trial[pending] *= BACKTRACK_FACTOR
            pending = pending[trial[pending] > 1e-14]
        converged[rows[~accepted]] = gn[~accepted] < 1e-6
        active = rows[accepted]
    traces = _trace_rows(records, starts, len(problems))
    converged = converged.reshape(-1, starts).any(axis=1)
    results = []
    for j, best in enumerate(val.reshape(-1, starts).argmax(axis=1).tolist()):
        row = j * starts + best
        results.append(MaximizeResult(M[row].copy(), float(val[row]), traces[j],
                                      best, bool(converged[j])))
    return results


def _push_pairs(rows, s, y, hist_s, hist_y, rho, gamma) -> None:
    """Append each row's pair (s, y) to its history, dropping the oldest;
    a pair without curvature, s.y <= 1e-12 |s| |y|, is skipped."""
    sy = _dot_rows(s, y)
    yy = _dot_rows(y, y)
    keep = sy > 1e-12 * np.sqrt(_dot_rows(s, s) * yy)
    rows, s, y, sy, yy = rows[keep], s[keep], y[keep], sy[keep], yy[keep]
    for hist, new in ((hist_s, s), (hist_y, y), (rho, 1.0 / sy)):
        hist[rows, :-1] = hist[rows, 1:]
        hist[rows, -1] = new
    gamma[rows] = sy / yy


def _two_loop(g, hist_s, hist_y, rho, gamma) -> np.ndarray:
    """Row-wise L-BFGS product of the inverse-Hessian estimate of -TAP with
    g, over pairs newest to oldest and back."""
    q = g.copy()
    alpha = np.empty(rho.shape)
    for i in reversed(range(rho.shape[1])):
        alpha[:, i] = rho[:, i] * _dot_rows(hist_s[:, i], q)
        q -= alpha[:, i, None] * hist_y[:, i]
    r = gamma[:, None] * q
    for i in range(rho.shape[1]):
        b = rho[:, i] * _dot_rows(hist_y[:, i], r)
        r += (alpha[:, i] - b)[:, None] * hist_s[:, i]
    return r


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _trace_rows(records: list, starts: int, problems: int) -> list:
    """Per-iteration records of stacked rows as one list of TraceRows of
    Python numbers per problem, start-major (each start's rows in iteration
    order)."""
    rows, *cols = [np.concatenate(col) for col in zip(*records)]
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    trace = [TraceRow(*row) for row in zip((rows % starts).tolist(),
                                           *(c[order].tolist() for c in cols))]
    ends = np.cumsum(np.bincount(rows // starts, minlength=problems)).tolist()
    return [trace[lo:hi] for lo, hi in zip([0] + ends, ends)]


def export_trace_csv(result: MaximizeResult, path) -> None:
    """Write the winning start's iterations as (iteration, value, gradient norm, step)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "value", "gradient_norm", "step"])
        for row in result.trace:
            if row.start == result.best_start:
                writer.writerow([row.iteration, repr(row.value),
                                 repr(row.grad_norm), repr(row.step)])


_GRID_CHUNK = 8192


@dataclass(frozen=True)
class BruteForceResult:
    m_star: np.ndarray
    value: float
    points_evaluated: int


def brute_force_tap_max(p: TapProblem, grid_step: float,
                        budget: int = 2_000_000,
                        direction_count: int = 256,
                        rng_seed: int = 0) -> BruteForceResult:
    """Exhaustive grid evaluation (oracle for the maximizer).

    Ising: a symmetric product grid containing 0 over (-1, 1)^N, with the
    grid_size^N budget enforced, visited in `itertools.product` order in
    chunks of 8192 points; the first point with the largest value wins.
    Spherical: radial shells crossed with a seeded set of random directions.
    """
    if grid_step <= 0:
        raise DomainError("grid_step must be positive")
    n = p.n
    if p.flavor == "ising":
        t_max = int(math.floor((1.0 - DOMAIN_MARGIN) / grid_step))
        axis = grid_step * np.arange(-t_max, t_max + 1)
        total = len(axis) ** n
        if total > budget:
            raise ResourceBudgetError(
                f"{len(axis)}^{n} = {total} grid points exceed budget {budget}",
                required=total, budget=budget)
        best_val = -np.inf
        best_m = None
        # grid point i has digit (i // K^(n-1-j)) % K in coordinate j: the
        # itertools.product order, the last coordinate varying fastest
        powers = len(axis) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        for lo in range(0, total, _GRID_CHUNK):
            idx = np.arange(lo, min(lo + _GRID_CHUNK, total), dtype=np.int64)
            M = axis[(idx[:, None] // powers) % len(axis)]
            vals = tap_energy_many(p, M)
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_m = float(vals[i]), M[i].copy()
        return BruteForceResult(best_m, float(best_val), total)
    if p.flavor == "spherical":
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(7,)))
        z = rng.standard_normal((direction_count, n))
        dirs = z / np.sqrt((z ** 2).sum(axis=1) / n)[:, None]
        radii = np.arange(0.0, 1.0 - DOMAIN_MARGIN, grid_step)
        pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        vals = tap_energy_many(p, pts)
        idx = int(np.argmax(vals))
        return BruteForceResult(pts[idx], float(vals[idx]), len(pts))
    raise UnsupportedOperationError("grid oracle covers ising and spherical only")
