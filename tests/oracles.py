"""Independent reference implementations the production kernels are checked
against. They share no contraction or enumeration code with the package:
energies are explicit per-degree `einsum` contractions, the exact Ising
sum visits one configuration at a time in Python floats, and the TAP energy
and gradient of one magnetization are assembled from those energies, the
closed forms of the field kinds and entropies, and On(q) = xi(1) -
(1-q) xi'(q) - xi(q) taken straight from the series coefficients. Only the
general flavor's entropy surrogate and the central-difference gradient of a
custom field without partials, which have no closed form, are the
package's own. The sequential TAP ascent runs one start at a time on
`tap_energy` and `tap_gradient`, the one-row calls of the batched
functionals. The exhaustive grid oracle of the maximizer,
`brute_force_tap_max`, lives here: a mixed-radix walk of the Ising grid and
radial shells of seeded directions on the sphere. The batched projected
gradient ascent, the block L-BFGS ascent and the `itertools.product` grid
walk are production paths that the L-BFGS maximizer, the Newton maximizer
and the mixed-radix grid walk replaced; they stay here as references for
them. So does the full-array sphere Monte Carlo estimator
that the streamed one replaced; it scores its draws with the package's
`energy_many`, so that the two can be compared bit for bit. The row
contraction that multiplied each axis step into a second block-sized
array, before the kernel learned to multiply in place, is kept too, with
`energy_many` and `gradient_many` rebuilt on it, as a bit-equality
reference for the production kernel. The uniform Ising half-space count
that the split-sum count replaced, one BLAS product of every direction
against every atom in chunks, is the reference for exact hit counts, on its
own enumeration of the atoms; and the per-vector thin projection that the
stacked one replaced is a bit-equality reference for it. The blocked
exact Ising sum, a fixed block of the low spins completed by each pattern of
the high spins and scored by `energy_many`, is the reference of the split
sum that replaced it. The law
experiments' per-replica features, each replica with its own numpy
SeedSequence disorder and one-sample kernel calls, are the bit-equality
references of their replica blocks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from tapbound import tap
from tapbound.entropy import _ising_atoms, general_entropy_upper
from tapbound.errors import DomainError, ResourceBudgetError, UnsupportedOperationError
from tapbound.geometry import norm
from tapbound.hamiltonian import (
    _ROW_CHUNK,
    energy,
    energy_many,
    gradient,
    gradient_many,
)
from tapbound.harness import experiments
from tapbound.partition import _lse_merge, _lse_value


def _scale(d, p):
    return np.sqrt(d.model.series.coefficients[p]) * d.n ** ((1 - p) / 2)


# einsum index letters of a tensor's axes, one per axis (any degree up to 8)
_AXES = "abcdefgh"


def oracle_energy(d, sigma):
    """H(sigma) by per-degree einsum contractions (any degree)."""
    s = np.asarray(sigma, dtype=np.float64)
    total = 0.0
    for p, g in d.tensors.items():
        if p == 0:
            contr = g
        elif p == 1:
            contr = g @ s
        elif p == 2:
            contr = s @ g @ s
        else:
            axes = _AXES[:p]
            contr = np.einsum(f"{axes},{','.join(axes)}->", g, *[s] * p)
        total += _scale(d, p) * contr
    return float(total)


def oracle_energy_many(d, sigmas):
    """H over the rows of `sigmas` by batched einsum contractions."""
    X = np.asarray(sigmas, dtype=np.float64)
    total = np.zeros(len(X))
    for p, g in d.tensors.items():
        if p == 0:
            contr = np.full(len(X), g)
        elif p == 1:
            contr = X @ g
        elif p == 2:
            contr = np.einsum("ri,ij,rj->r", X, g, X)
        else:
            axes = _AXES[:p]
            contr = np.einsum(f"{axes},{','.join('r' + a for a in axes)}->r",
                              g, *[X] * p)
        total += _scale(d, p) * contr
    return total


def oracle_gradient(d, sigma):
    """grad H(sigma): the p partial contractions of each non-symmetrized tensor."""
    s = np.asarray(sigma, dtype=np.float64)
    grad = np.zeros(d.n)
    for p, g in d.tensors.items():
        if p == 0:
            continue
        if p == 1:
            part = g
        elif p == 2:
            part = g @ s + g.T @ s
        else:
            # the derivative index i in place of each axis k in turn
            axes = _AXES[:p]
            part = 0.0
            for k in range(p):
                rest = axes[:k] + axes[k + 1:]
                part = part + np.einsum(f"{axes[:k]}i{axes[k + 1:]},{','.join(rest)}->i",
                                        g, *[s] * (p - 1))
        grad += _scale(d, p) * part
    return grad


def _contract_rows(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Contraction of g with every row x of X at all axes but the last:
    shape (rows, g.shape[-1]), for g.ndim >= 2.

    One matmul contracts the first axis; each further axis is a
    reshape-multiply-sum against the rows. A trailing axis of length 1,
    g[..., None], gives <g, x^{tensor p}>.
    """
    n = X.shape[1]
    out = np.empty((len(X), g.shape[-1]))
    for start in range(0, len(X), _ROW_CHUNK):
        x = X[start:start + _ROW_CHUNK]
        t = x @ g.reshape(n, -1)
        for _ in range(g.ndim - 2):
            t = (t.reshape(len(x), n, -1) * x[:, :, None]).sum(axis=1)
        out[start:start + len(x)] = t
    return out


def oracle_energy_many_blocked(d, sigmas):
    """`energy_many` on the out-of-place row contraction above."""
    X = np.asarray(sigmas, dtype=np.float64)
    total = np.zeros(len(X))
    for p, scale, g in d.terms:
        total += scale * (g if p == 0 else _contract_rows(g[..., None], X)[:, 0])
    return total


def oracle_gradient_many_blocked(d, sigmas):
    """`gradient_many` on the out-of-place row contraction above."""
    X = np.asarray(sigmas, dtype=np.float64)
    grad = np.zeros(X.shape)
    for p, scale, s in d.gradient_terms:  # s[0]: the sample's one replica
        grad += scale * (s[0] if p == 1 else _contract_rows(s[0], X))
    return grad


def oracle_log_partition_ising(d, f, beta):
    """log 2^{-N} sum_sigma exp(beta (H + f)(sigma)), one configuration at a
    time: itertools.product, the einsum energy, the field's scalar value and a
    two-pass log-sum-exp in Python floats."""
    n = d.n
    xs = [beta * (oracle_energy(d, s) + f.value(s))
          for s in (np.array(c) for c in itertools.product((-1.0, 1.0), repeat=n))]
    top = max(xs)
    return top + math.log(math.fsum(math.exp(x - top) for x in xs)) - n * math.log(2.0)


def log_partition_exact_ising_blocked(d, f, beta, low_spins=12):
    """The blocked exact Ising sum that the split sum replaced: the low
    b = min(N, low_spins) spins form one fixed block of all their sign
    patterns; each pattern of the high N - b spins completes it to 2^b
    configurations, scored by one energy_many call and folded into a running
    log-sum-exp. Configurations are visited in index order, bit j of the
    index giving spin j the sign (-1)^bit. Returns the log value."""
    n = d.n
    low = min(n, low_spins)
    block = np.empty((2 ** low, n))
    block[:, :low] = _ising_atoms(low)
    acc = (-np.inf, 0.0)
    for spins in _ising_atoms(n - low):
        block[:, low:] = spins
        acc = _lse_merge(acc, beta * (energy_many(d, block) + f.value_many(block)))
    return _lse_value(acc) - n * math.log(2.0)


def oracle_log_partition_mc_sphere(d, f, beta, samples, rng_seed):
    """(log value, std error) of the sphere Monte Carlo estimate from one full
    (samples, N) Philox draw, rescaled into a new array and scored in one
    energy_many call, with the log-mean-exp and delta-method error written
    out."""
    z = np.random.Generator(np.random.Philox(key=rng_seed)).standard_normal(
        (samples, d.n))
    pts = z * (math.sqrt(d.n) / np.linalg.norm(z, axis=1))[:, None]
    x = beta * (energy_many(d, pts) + f.value_many(pts))
    w = np.exp(x - x.max())
    return (float(x.max()) + math.log(float(w.mean())),
            float(w.std(ddof=1) / math.sqrt(samples) / w.mean()))


def oracle_onsager(coefficients, q):
    """On(q) = xi(1) - (1-q) xi'(q) - xi(q), with xi and xi' summed term by
    term from the coefficients."""
    xi = sum(a * q ** k for k, a in enumerate(coefficients))
    xi_prime = sum(k * a * q ** (k - 1) for k, a in enumerate(coefficients) if k)
    return sum(coefficients) - (1.0 - q) * xi_prime - xi


def oracle_onsager_derivative(coefficients, q):
    """On'(q) = -(1-q) xi''(q), with xi'' summed term by term."""
    return -(1.0 - q) * sum(k * (k - 1) * a * q ** (k - 2)
                            for k, a in enumerate(coefficients) if k >= 2)


def oracle_onsager_second_derivative(coefficients, q):
    """On''(q) = xi''(q) - (1-q) xi^(3)(q), with both derivatives summed term
    by term."""
    xi2 = sum(k * (k - 1) * a * q ** (k - 2) for k, a in enumerate(coefficients) if k >= 2)
    xi3 = sum(k * (k - 1) * (k - 2) * a * q ** (k - 3)
              for k, a in enumerate(coefficients) if k >= 3)
    return xi2 - (1.0 - q) * xi3


def _field_closed_form(f, m):
    if f.kind == "none":
        return 0.0
    if f.kind == "linear":
        return f.h * m.sum()
    if f.kind == "quadratic_spike":
        return f.h * m.sum() ** 2 / f.n
    return float(f.func(f.basis @ m / f.n))


def _field_gradient_closed_form(f, m):
    if f.kind == "none":
        return np.zeros(f.n)
    if f.kind == "linear":
        return np.full(f.n, f.h)
    if f.kind == "quadratic_spike":
        return np.full(f.n, 2.0 * f.h * m.sum() / f.n)
    if f.func_grad is not None:
        return np.asarray(f.func_grad(f.basis @ m / f.n)) @ f.basis / f.n
    # A custom field without partials has no closed form: its gradient is
    # defined as the package's central differences, which tests check
    # against the analytic derivative to their own accuracy (1e-8). An
    # independent difference quotient differs from it by ~4e-11 at N = 6
    # through rounding alone, above the TAP row tests' 1e-12.
    return f.gradient(m)


def oracle_tap_energy(p, m):
    """Extensive TAP energy of one magnetization: the einsum energy, the
    field's closed form, the entropy -sum_i J(m_i), (N/2) log(1 - q) or the
    general surrogate, and (beta^2 / 2) N On(q) from the coefficients."""
    m = np.asarray(m, dtype=np.float64)
    n, beta = p.n, p.beta
    q = min(1.0, float(m @ m) / n)
    if p.flavor == "ising":
        entropy = -math.fsum((1 + x) / 2 * math.log1p(x) + (1 - x) / 2 * math.log1p(-x)
                             for x in m)
    elif p.flavor == "spherical":
        entropy = 0.5 * n * math.log1p(-q)
    else:
        entropy = general_entropy_upper(p.measure, m, p.delta,
                                        extra_directions=p.field.basis)
    return (beta * (oracle_energy(p.disorder, m) + _field_closed_form(p.field, m))
            + entropy
            + 0.5 * beta ** 2 * n * oracle_onsager(p.disorder.model.series.coefficients, q))


def oracle_tap_gradient(p, m):
    """Gradient of `oracle_tap_energy` (ising and spherical): the einsum
    gradient, the field's closed-form gradient (a custom field without
    partials takes the package's central differences), beta^2 On'(q) m, and
    -atanh(m_i) = -log((1 + m_i) / (1 - m_i)) / 2 or -m / (1 - q)."""
    m = np.asarray(m, dtype=np.float64)
    beta = p.beta
    q = min(1.0, float(m @ m) / p.n)
    g = beta * (oracle_gradient(p.disorder, m) + _field_gradient_closed_form(p.field, m))
    g += beta ** 2 * oracle_onsager_derivative(p.disorder.model.series.coefficients, q) * m
    if p.flavor == "ising":
        return g - 0.5 * (np.log1p(m) - np.log1p(-m))
    return g - m / (1.0 - q)


def _project_one(p, m):
    if p.flavor == "ising":
        return np.clip(m, -1.0 + tap.DOMAIN_MARGIN, 1.0 - tap.DOMAIN_MARGIN)
    r = norm(m)
    limit = 1.0 - tap.DOMAIN_MARGIN
    return m * (limit / r) if r > limit else m


def maximize_tap_sequential(p, starts, rng_seed):
    """`maximize_tap` for the ising and spherical flavors, one start after the
    other on the scalar energy and gradient, with the same seeded starts and
    per-start rules; the trace comes out start-major."""
    best_val = -np.inf
    best_m = None
    best_start = -1
    converged_any = False
    trace = []
    for s in range(starts):
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(s,)))
        m = _project_one(p, tap._draw_start(p, rng))
        val = tap.tap_energy(p, m)
        step = tap.INITIAL_STEP
        converged = False
        for it in range(tap.MAX_ITERATIONS):
            g = tap.tap_gradient(p, m)
            gn = norm(g)
            trace.append(tap.TraceRow(s, it, val, gn, step))
            if gn < tap.GRAD_TOLERANCE:
                converged = True
                break
            accepted = False
            trial_step = step if it == 0 else step * 2.0
            while trial_step > 1e-14:
                cand = _project_one(p, m + trial_step * g)
                cand_val = tap.tap_energy(p, cand)
                if cand_val > val + 1e-4 * trial_step * gn ** 2:
                    m, val, step = cand, cand_val, trial_step
                    accepted = True
                    break
                trial_step *= tap.BACKTRACK_FACTOR
            if not accepted:
                converged = gn < 1e-6
                break
        converged_any = converged_any or converged
        if val > best_val:
            best_val, best_m, best_start = val, m, s
    return tap.MaximizeResult(best_m, float(best_val), trace, best_start, converged_any)


def maximize_tap_projected_ascent(p, starts, rng_seed):
    """The batched multi-start projected gradient ascent that `maximize_tap`
    ran before L-BFGS: all starts as one (S, N) array, each row with its own
    step (doubled after iteration 0), Armijo test on t ||g||^2, halving down
    to 1e-14, 1e-8 gradient stop and 500-iteration cap."""
    M = tap._project(p, np.array([
        tap._draw_start(p, np.random.default_rng(
            np.random.SeedSequence(rng_seed, spawn_key=(s,))))
        for s in range(starts)]))
    val = tap.tap_energy_many(p, M)
    step = np.full(starts, tap.INITIAL_STEP)
    converged = np.zeros(starts, dtype=bool)
    active = np.arange(starts)
    records = []  # per iteration: (starts, iteration, values, gradient norms, steps)
    for it in range(tap.MAX_ITERATIONS):
        if not len(active):
            break
        g = tap.tap_gradient_many(p, M[active])
        gn = tap._row_norms(g)
        records.append((active, np.full(len(active), it), val[active], gn, step[active]))
        small = gn < tap.GRAD_TOLERANCE
        converged[active[small]] = True
        rows, g, gn = active[~small], g[~small], gn[~small]
        trial = step[rows] if it == 0 else step[rows] * 2.0
        accepted = np.zeros(len(rows), dtype=bool)
        pending = np.flatnonzero(trial > 1e-14)
        while len(pending):
            idx = rows[pending]
            cand = tap._project(p, M[idx] + trial[pending, None] * g[pending])
            cand_val = tap.tap_energy_many(p, cand)
            ok = cand_val > val[idx] + 1e-4 * trial[pending] * gn[pending] ** 2
            M[idx[ok]] = cand[ok]
            val[idx[ok]] = cand_val[ok]
            step[idx[ok]] = trial[pending[ok]]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            trial[pending] *= tap.BACKTRACK_FACTOR
            pending = pending[trial[pending] > 1e-14]
        converged[rows[~accepted]] = gn[~accepted] < 1e-6
        active = rows[accepted]
    best = int(np.argmax(val))
    return tap.MaximizeResult(M[best].copy(), float(val[best]), _trace_rows(records),
                              best, bool(converged.any()))


def _trace_rows(records):
    """Per-iteration records of one problem's starts as TraceRows of Python
    numbers, start-major (each start's rows in iteration order)."""
    cols = [np.concatenate(col) for col in zip(*records)]
    order = np.argsort(cols[0], kind="stable")
    return [tap.TraceRow(*row) for row in zip(*(c[order].tolist() for c in cols))]


# L-BFGS curvature pairs kept per start by `maximize_tap_lbfgs`
HISTORY = 8


def maximize_tap_lbfgs(problems, starts, rng_seeds):
    """The block ascent that `maximize_tap_many` ran before Newton's method:
    multi-start projected L-BFGS (Nocedal & Wright, Numerical Optimization,
    ch. 7) over all starts of a block of problems as one array, with each
    start seeded by its own numpy SeedSequence. Each row keeps its own
    curvature history, Armijo backtracking on the projected candidate and
    stopping state; the direction is the two-loop product of the row's last
    `HISTORY` pairs with its gradient (`INITIAL_STEP` times the gradient
    without pairs, or when that is no ascent direction)."""
    problems, rng_seeds = list(problems), list(rng_seeds)
    first = problems[0]
    block = tap._Block(problems)
    n = first.n

    def counts(rows):
        return np.bincount(rows // starts, minlength=len(problems))

    M = tap._project(first, np.array([
        tap._draw_start(p, np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(s,))))
        for p, seed in zip(problems, rng_seeds) for s in range(starts)]))
    active = np.arange(len(M))
    val = tap._energy_block(block, tap._check_domain_many(first, M), counts(active))
    step = np.full(len(M), tap.INITIAL_STEP)
    converged = np.zeros(len(M), dtype=bool)
    # Curvature pairs of -TAP, newest last; an empty slot has rho = 0.
    hist_s = np.zeros((len(M), HISTORY, n))
    hist_y = np.zeros((len(M), HISTORY, n))
    rho = np.zeros((len(M), HISTORY))
    gamma = np.full(len(M), tap.INITIAL_STEP)
    M_prev = np.empty_like(M)
    g_prev = np.empty_like(M)
    records = []  # per iteration: (rows, iteration, values, gradient norms, steps)
    for it in range(tap.MAX_ITERATIONS):
        if not len(active):
            break
        # every row of M passed the domain check
        g = tap._gradient_block(block, M[active], counts(active))
        if it:
            _push_pairs(active, M[active] - M_prev[active], g_prev[active] - g,
                        hist_s, hist_y, rho, gamma)
        gn = tap._row_norms(g)
        records.append((active, np.full(len(active), it), val[active], gn, step[active]))
        small = gn < tap.GRAD_TOLERANCE
        converged[active[small]] = True
        rows, g, gn = active[~small], g[~small], gn[~small]
        M_prev[rows], g_prev[rows] = M[rows], g
        # a row has at most `it` pairs, all in the newest slots
        k = min(it, HISTORY)
        D = _two_loop(g, hist_s[rows, HISTORY - k:], hist_y[rows, HISTORY - k:],
                      rho[rows, HISTORY - k:], gamma[rows])
        slope = tap._dot_rows(g, D) / n
        uphill = ~(slope > 0.0)
        D[uphill] = tap.INITIAL_STEP * g[uphill]
        slope[uphill] = tap.INITIAL_STEP * gn[uphill] ** 2
        trial = np.ones(len(rows))
        accepted = np.zeros(len(rows), dtype=bool)
        pending = np.arange(len(rows))
        while len(pending):
            idx = rows[pending]
            cand = tap._project(first, M[idx] + trial[pending, None] * D[pending])
            cand_val = tap._energy_block(block, tap._check_domain_many(first, cand),
                                         counts(idx))
            ok = cand_val > val[idx] + 1e-4 * trial[pending] * slope[pending]
            M[idx[ok]] = cand[ok]
            val[idx[ok]] = cand_val[ok]
            step[idx[ok]] = trial[pending[ok]]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            trial[pending] *= tap.BACKTRACK_FACTOR
            pending = pending[trial[pending] > 1e-14]
        converged[rows[~accepted]] = gn[~accepted] < 1e-6
        active = rows[accepted]
    traces = tap._trace_rows(records, starts, len(problems))
    converged = converged.reshape(-1, starts).any(axis=1)
    results = []
    for j, best in enumerate(val.reshape(-1, starts).argmax(axis=1).tolist()):
        row = j * starts + best
        results.append(tap.MaximizeResult(M[row].copy(), float(val[row]), traces[j],
                                          best, bool(converged[j])))
    return results


def _push_pairs(rows, s, y, hist_s, hist_y, rho, gamma) -> None:
    """Append each row's pair (s, y) to its history, dropping the oldest;
    a pair without curvature, s.y <= 1e-12 |s| |y|, is skipped."""
    sy = tap._dot_rows(s, y)
    yy = tap._dot_rows(y, y)
    keep = sy > 1e-12 * np.sqrt(tap._dot_rows(s, s) * yy)
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
        alpha[:, i] = rho[:, i] * tap._dot_rows(hist_s[:, i], q)
        q -= alpha[:, i, None] * hist_y[:, i]
    r = gamma[:, None] * q
    for i in range(rho.shape[1]):
        b = rho[:, i] * tap._dot_rows(hist_y[:, i], r)
        r += (alpha[:, i] - b)[:, None] * hist_s[:, i]
    return r


_GRID_CHUNK = 8192


@dataclass(frozen=True)
class BruteForceResult:
    m_star: np.ndarray
    value: float
    points_evaluated: int


def brute_force_tap_max(p, grid_step: float, budget: int = 2_000_000,
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
        t_max = int(math.floor((1.0 - tap.DOMAIN_MARGIN) / grid_step))
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
            vals = tap.tap_energy_many(p, M)
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_m = float(vals[i]), M[i].copy()
        return BruteForceResult(best_m, float(best_val), total)
    if p.flavor == "spherical":
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(7,)))
        z = rng.standard_normal((direction_count, n))
        dirs = z / np.sqrt((z ** 2).sum(axis=1) / n)[:, None]
        radii = np.arange(0.0, 1.0 - tap.DOMAIN_MARGIN, grid_step)
        pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        vals = tap.tap_energy_many(p, pts)
        idx = int(np.argmax(vals))
        return BruteForceResult(pts[idx], float(vals[idx]), len(pts))
    raise UnsupportedOperationError("grid oracle covers ising and spherical only")


def brute_force_tap_max_product(p, grid_step, budget=2_000_000):
    """The Ising grid oracle as an `itertools.product` walk in chunks of
    8192 points, keeping the first strict improvement."""
    t_max = int(math.floor((1.0 - tap.DOMAIN_MARGIN) / grid_step))
    axis = grid_step * np.arange(-t_max, t_max + 1)
    total = len(axis) ** p.n
    if total > budget:
        raise ValueError(f"{total} grid points exceed budget {budget}")
    best_val = -np.inf
    best_m = None
    count = 0
    chunk = []
    for combo in itertools.product(axis, repeat=p.n):
        chunk.append(combo)
        if len(chunk) == 8192:
            best_val, best_m = _scan_chunk(p, chunk, best_val, best_m)
            count += len(chunk)
            chunk = []
    if chunk:
        best_val, best_m = _scan_chunk(p, chunk, best_val, best_m)
        count += len(chunk)
    return BruteForceResult(best_m, float(best_val), count)


def _scan_chunk(p, chunk, best_val, best_m):
    M = np.asarray(chunk, dtype=np.float64)
    vals = tap.tap_energy_many(p, M)
    i = int(np.argmax(vals))
    if vals[i] > best_val:
        return float(vals[i]), M[i].copy()
    return best_val, best_m


# Atoms per chunk of the Ising half-space count below
_ISING_CHUNK = 1 << 14


def oracle_ising_hits(lams, cut):
    """#{sigma in {-1, 1}^N : <lams_j, sigma> >= cut_j} for each row j.

    Atoms are built _ISING_CHUNK at a time from the bits of their index (bit
    b -> sign (-1)^bit of coordinate b), cast from int8 to floats, and
    projected on every direction with one matmul per chunk; each row's hits
    are counted over its contiguous projections.
    """
    lams = np.asarray(lams, dtype=np.float64)
    n = lams.shape[1]
    shifts = np.arange(n, dtype=np.uint32)
    hits = np.zeros(len(lams), dtype=np.int64)
    for start in range(0, 2 ** n, _ISING_CHUNK):
        idx = np.arange(start, min(start + _ISING_CHUNK, 2 ** n), dtype=np.uint32)
        atoms = 1 - 2 * ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        proj = lams @ atoms.astype(np.float64).T
        proj /= n
        hit = proj >= np.asarray(cut)[:, None]
        hits += [np.count_nonzero(row) for row in hit]
    return hits


def oracle_thin_projection(node, sigma):
    """sqrt(1 - q) P_Vbar(sigma) / ||P_Vbar(sigma)||, zero if the projection
    vanishes: project_off and norm on one vector."""
    resid = node.project_out(sigma)
    r = norm(resid)
    if r < 1e-12:
        return np.zeros(node.n)
    return math.sqrt(max(0.0, 1.0 - node.q)) * resid / r


def gaussian_law_replica(cfg, r):
    """The gaussian-law features of replica r alone: products of the energies
    at the ten probe pairs, of gradient entries at m and m', and of the
    energy at a0 with gradient entries at m'. Both gradients come from one
    two-row `gradient_many`, the row count the block contracts: numpy sends
    a one-row matmul to a matrix-vector BLAS call, which can round
    differently."""
    pairs, m, mp, pts, _ = experiments._gaussian_law_probes(cfg)
    d = experiments._disorder(cfg, r, cfg.xi, cfg.n)
    vals = energy_many(d, pts)
    gm, gmp = gradient_many(d, np.array([m, mp]))
    feats = []
    for k in range(10):
        feats.append(vals[2 * k] * vals[2 * k + 1])           # H(a) H(b)
    for (i, j) in ((0, 0), (1, 1), (0, 3), (2, 1)):
        feats.append(gm[i] * gmp[j])                          # dH_i(m) dH_j(m')
    for i in (0, 2, 5):
        feats.append(vals[0] * gmp[i])                        # H(a0) dH_i(m')
    return feats


def recentering_replica(cfg, r):
    """The recentering-law features of replica r alone: the recentered field
    at m + s_k, the energy at m and the gradient's component orthogonal to m
    along w, multiplied in pairs."""
    m, (s1, s2, s3), w = experiments._recentering_probes(cfg)
    d = experiments._disorder(cfg, r, cfg.xi, cfg.n)
    g = gradient(d, m)
    hm = energy(d, m)
    pts = np.array([m + s1, m + s2, m + s3])
    e = energy_many(d, pts)
    rec = [e[i] - g @ s - hm for i, s in enumerate((s1, s2, s3))]
    mhat = m / np.sqrt(m @ m)
    g_perp = g - (g @ mhat) * mhat
    t = float(g_perp @ w)
    return [rec[0] * rec[1], rec[0] * rec[2], rec[0] * rec[0],
            rec[0] * hm, rec[1] * t, hm * t]
