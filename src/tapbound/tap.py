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

Maximization is multi-start projected Newton ascent with a modified
Hessian (Nocedal & Wright, Numerical Optimization, section 3.4), for the
ising and spherical flavors and a block of problems at once
(`maximize_tap_many`; `maximize_tap` is its block of one). The problems
share n, flavor and covariance series; their starts advance together as the
rows of one array, problem-major. Only the disorder and field kernels run
per problem, on its contiguous run of rows; the domain check, beta scaling,
Onsager and entropy terms, projection, Hessian shifts and solves and Armijo
bookkeeping are one call over the stack, and the term bodies behind
`tap_energy_many` and `tap_gradient_many` are the same stacked bodies,
called for a block of one. The Hessian is exact: `_hessian_block` adds beta
times the disorder and field Hessians, the Onsager term's and the
entropy's. Each row's direction solves its own shifted Newton system
(`_newton_directions`), and each row keeps its own backtracking Armijo
search on the projected candidate and stopping state, so a start follows
the same rules as if it ran alone, and each problem's result is bit for bit
the one it gets alone; ties break toward the lowest start index. The
ascent's gradients and Hessians skip the domain check: every row has passed
the energy's. The earlier projected gradient ascent and block L-BFGS ascent
are kept as test oracles. The general flavor has no gradient and no
maximizer. The best value found is a lower bound on the true supremum and
is used as the sup surrogate by the bound experiments; the tests check it
against an exhaustive grid oracle at tiny N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy import ReferenceMeasure, binary_entropy, general_entropy_upper
from .errors import DomainError, UnsupportedOperationError
from .geometry import norm
from .hamiltonian import (
    DisorderSample,
    ExternalField,
    _check_seed,
    check_gibbs_parameters,
    energy_many,
    gradient_many,
    hessian_many,
)

FLAVORS = ("ising", "spherical", "general")

MAX_ITERATIONS = 500
CURVATURE_FLOOR = 1e-3  # least eigenvalue of each row's shifted -Hessian
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
        check_gibbs_parameters(self.disorder, self.field, self.beta)

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


def _hessian_block(block: _Block, M: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """TAP Hessian of the problem-major rows of M (ising or spherical),
    which have passed the domain check: shape (rows, N, N). The disorder
    and field Hessians run per problem as in `_energy_block`; the beta
    scaling, the Onsager term beta^2 [On'(q) I + (2/N) On''(q) m m^T] and
    the entropy term, -diag(1 / (1 - m_i^2)) or
    -I / (1 - q) - (2/N) m m^T / (1 - q)^2, are one call over all rows."""
    n = block.n
    hess = np.empty((len(M), n, n))
    for p, lo, hi in block.runs(counts):
        X = M[lo:hi]
        hess[lo:hi] = hessian_many(p.disorder, X) + p.field.hessian_many(X)
    hess *= np.repeat(block.beta, counts)[:, None, None]
    q = np.minimum(1.0, (M ** 2).sum(axis=1) / n)
    beta2 = np.repeat(block.onsager_grad, counts)
    diag = beta2 * block.series._onsager_derivative_rows(q)
    outer = beta2 * block.series._onsager_second_derivative_rows(q) * (2.0 / n)
    if block.flavor == "ising":
        diag = diag[:, None] - 1.0 / (1.0 - M ** 2)
    else:
        diag = (diag - 1.0 / (1.0 - q))[:, None]
        outer -= (2.0 / n) / (1.0 - q) ** 2
    hess += outer[:, None, None] * (M[:, :, None] * M[:, None, :])
    diagonal = np.arange(n)
    hess[:, diagonal, diagonal] += diag
    return hess


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
    """Best magnetization over multi-start projected Newton ascent (a
    block-of-one `maximize_tap_many`). The returned value is a lower bound of
    the true supremum."""
    return maximize_tap_many([p], starts, [rng_seed])[0]


def maximize_tap_many(problems, starts: int, rng_seeds) -> list:
    """`MaximizeResult`s of multi-start projected Newton ascent for a block
    of problems, one ascent over all their starts.

    The problems must share n, the flavor (ising or spherical) and the
    covariance series (DomainError otherwise; the general flavor raises
    UnsupportedOperationError); each keeps its own beta, field and
    disorder. Problem j's start s is drawn from the PCG64 stream of
    SeedSequence(rng_seeds[j], spawn_key=(s,)), a seed in [0, 2**64)
    (DomainError otherwise); the streams of the whole block are hashed at
    once. The starts are stacked problem-major as rows of one
    (problems * starts, N) array. The disorder and field kernels run once
    per problem on its contiguous run of rows; every other step is one call
    over the whole stack. Each row keeps its own line search and stopping
    state, each kernel sees the rows it would see for its problem alone, and
    LAPACK factors each row's matrix on its own, so every result is bit for
    bit the one its problem gets alone, and a start follows the same rules
    as if it ran alone up to rounding (the batched kernels can differ in the
    last bit at different batch heights).

    Up to 500 iterations each record a trace row (the step column is the t
    accepted at the previous iteration, `INITIAL_STEP` at the first) and
    stop the start once the normalized gradient norm drops below 1e-8.
    Otherwise the direction is the modified Newton step of
    `_newton_directions` on the exact Hessian of `_hessian_block` (Nocedal
    & Wright, Numerical Optimization, section 3.4), or `INITIAL_STEP` times
    the gradient when that is no ascent direction, and t = 1 is halved
    until the projected candidate `_project(M + t D)` passes Armijo on the
    slope <g, D>; a start with no acceptable t above 1e-14 stops, converged
    when its gradient norm is below 1e-6. A problem's trace lists all of
    its start 0, then start 1, and so on. Ties between starts break toward
    the lowest start index. Each returned value is a lower bound of its
    problem's true supremum.
    """
    # Imported here so that importing the package does not load numpy.random
    from .seeding import pcg64, spawned_states

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

    seeds = np.array([_check_seed(seed) for seed in rng_seeds], dtype=np.uint64)
    states = spawned_states(seeds[:, None], (np.arange(starts),), 4)
    M = _project(first, np.array([_draw_start(p, pcg64(state))
                                  for p, row in zip(problems, states) for state in row]))
    active = np.arange(len(M))
    val = _energy_block(block, _check_domain_many(first, M), counts(active))
    step = np.full(len(M), INITIAL_STEP)
    converged = np.zeros(len(M), dtype=bool)
    records = []  # per iteration: (rows, iteration, values, gradient norms, steps)
    for it in range(MAX_ITERATIONS):
        if not len(active):
            break
        # every row of M passed the domain check
        g = _gradient_block(block, M[active], counts(active))
        gn = _row_norms(g)
        records.append((active, np.full(len(active), it), val[active], gn, step[active]))
        small = gn < GRAD_TOLERANCE
        converged[active[small]] = True
        rows, g, gn = active[~small], g[~small], gn[~small]
        D = _newton_directions(-_hessian_block(block, M[rows], counts(rows)), g)
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


def _newton_directions(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(A_r + tau_r I)^{-1} g_r for every row r of the stacks A (rows, N, N)
    and g (rows, N), with tau_r = max(0, CURVATURE_FLOOR - lambda_min(A_r)).

    A is minus the TAP Hessian, so the shift lifts each row's least
    eigenvalue to at least the floor and the direction is uphill. When one
    Cholesky factorization of A - CURVATURE_FLOOR I over the whole stack
    succeeds, every tau is 0 and no eigenvalue is computed; otherwise every
    row's tau comes from its eigenvalues, and a row whose shifted
    factorization would have succeeded gets tau = 0 again (unless its least
    eigenvalue lies within rounding of the floor). LAPACK factors each
    matrix of a stack on its own, so a row's direction does not depend on
    the other rows.
    """
    diagonal = np.arange(A.shape[-1])
    try:
        np.linalg.cholesky(A - CURVATURE_FLOOR * np.eye(A.shape[-1]))
    except np.linalg.LinAlgError:
        tau = np.maximum(0.0, CURVATURE_FLOOR - np.linalg.eigvalsh(A)[:, 0])
        A = A.copy()
        A[:, diagonal, diagonal] += tau[:, None]
    return np.linalg.solve(A, g[:, :, None])[:, :, 0]


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
