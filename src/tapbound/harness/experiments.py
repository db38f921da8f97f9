"""The verification experiments behind each acceptance criterion.

Every experiment is a pure function of its config (master seed included) and
returns an ExperimentReport; replica work is parallelizable with results
reduced in replica order, so reports are identical for any worker count.

Seed scheme: replica r of stream s uses the 64-bit integer drawn from
SeedSequence(master_seed, spawn_key=(s, r)) (`derive_seed`). Probe points
and atom picks are drawn from the generator of a substream key, spawned from
the master seed (`_stream_rng`). Streams: 0 disorder, 1 probe points,
2 maximizer starts, 3 Monte Carlo, 4 atom picks.

Models and fields are cached per process: every replica with the same n and
xi samples its disorder for one shared, immutable MixedModel (the law of H),
every case with the same field kind, h and n reads one shared ExternalField,
and a process pool builds one cache per worker. Beta and the field are passed
beside the disorder to the partition functions, the cover and `TapProblem`.

The two law experiments (gaussian-law, recentering-law) run their replicas
in blocks of REPLICA_BLOCK. A run hashes the disorder seeds and per-degree
streams of all its replicas by two array hashes (`derive_seeds`, then the
stream states `sample_disorders` would compute) and builds its probe points:
once per run, handed to each block. Each block draws its tensors from its
slice of the streams straight into arrays stacked on a leading replica axis,
and computes every energy and gradient of the block as one stacked
contraction. Each replica's features are bit-equal to those of the replica
computed alone, so the reports do not depend on the block size or the
worker count.

The two gap experiments (bound-ising, bound-sphere) run the problems of their
beta x h grid in blocks of REPLICA_BLOCK as well: each block computes its
partition estimates, then makes one `maximize_tap_many` call over all its
problems, whose results are bit-equal to one `maximize_tap` per problem.
bound-ising enumerates each problem's exact log Z; bound-sphere scores all
of a block's problems on one Monte Carlo draw, seeded from the block's first
case, so its reports depend on the block boundaries, not on the worker
count.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..covariance import CovarianceSeries
from ..cover import CoverBuilder, max_levels, membership, thin_projection
from ..entropy import (
    binary_entropy,
    general_entropy_upper,
    halfspace_log_mass,
    ising_entropy,
    ising_uniform,
    sphere_uniform,
)
from ..errors import ConfigError, DomainError
from ..geometry import inner, inner_many, norm, normalize
from ..hamiltonian import (
    MixedModel,
    _check_ball,
    _dots,
    _energy_rows,
    _fill_disorders,
    _gradient_rows,
    _recentered_rows,
    _stream_states,
    energy,
    field_linear,
    field_none,
    field_quadratic_spike,
    gradient,
    recentered_energy,
    sample_disorder,
)
from ..partition import (
    log_partition_exact_ising,
    log_partition_mc_sphere_many,
    slice_measures,
)
from ..tap import TapProblem, maximize_tap, maximize_tap_many, tap_energy
from .config import ExperimentConfig
from .report import Criterion, ExperimentReport

STREAM_DISORDER = 0
STREAM_PROBE = 1
STREAM_STARTS = 2
STREAM_MC = 3
STREAM_ATOM = 4


# Replicas per task of the law experiments, which run their replicas as
# blocks stacked on a leading axis, and problems per task of the gap
# experiments, which run one TAP ascent per block
REPLICA_BLOCK = 64


def derive_seed(master: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=(stream, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _stream_rng(cfg: ExperimentConfig, *key: int) -> np.random.Generator:
    """The generator of the run's substream `key`, whose first entry names
    the stream: default_rng(SeedSequence(cfg.seed, spawn_key=key))."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=key))


def derive_seeds(master: int, stream: int, indices) -> np.ndarray:
    """`derive_seed(master, stream, r)` for every r in `indices`, as uint64,
    by one array hash. Indices must lie in [0, 2**32) (DomainError
    otherwise)."""
    # Imported here so that importing the harness does not load numpy.random
    from ..seeding import spawned_states

    return spawned_states(master, (stream, np.asarray(indices)), 1)[..., 0]


@functools.lru_cache(maxsize=32)
def make_field(kind: str, h: float, n: int):
    """The external field of one kind, built once per process and shared
    (fields and their bases are immutable)."""
    if kind == "none":
        return field_none(n)
    if kind == "linear":
        return field_linear(h, n)
    if kind == "quadratic_spike":
        return field_quadratic_spike(h, n)
    raise ConfigError([f"unknown field kind {kind!r}"])


@functools.lru_cache(maxsize=32)
def _model(n: int, xi: tuple) -> MixedModel:
    """The law of H for (n, xi), built once per process and shared by every
    replica that samples from it (models are immutable)."""
    return MixedModel(n, CovarianceSeries(xi))


def _disorder(cfg: ExperimentConfig, r: int, xi, n: int):
    """Replica r's disorder, drawn from the disorder stream for the cached
    model of (n, xi) (attached as its `.model`)."""
    return sample_disorder(_model(n, tuple(xi)),
                           derive_seed(cfg.seed, STREAM_DISORDER, r))


def _replicas(cfg: ExperimentConfig) -> list:
    return [(r,) for r in range(cfg.replicas)]


def _blocks(count: int) -> list:
    """(start, stop) slices of range(count), REPLICA_BLOCK long but the last."""
    return [(start, min(start + REPLICA_BLOCK, count))
            for start in range(0, count, REPLICA_BLOCK)]


def _replica_blocks(cfg: ExperimentConfig) -> list:
    return _blocks(cfg.replicas)


def _map_replicas(func, cfg: ExperimentConfig, tasks: list) -> list:
    """[func(cfg, *task) for task in tasks], in order; a process pool when
    cfg.workers > 1."""
    if cfg.workers <= 1 or len(tasks) <= 1:
        return [func(cfg, *task) for task in tasks]
    # Imported here so that a single-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(func, itertools.repeat(cfg, len(tasks)), *zip(*tasks),
                             chunksize=max(1, len(tasks) // (4 * cfg.workers))))


# ---------------------------------------------------------------------------
# 1. beta0-exact: at beta = 0 the bound is an identity
# ---------------------------------------------------------------------------

def _beta0_case(cfg, r, n, xi):
    d = _disorder(cfg, r, xi, n)
    f = make_field("none", 0.0, n)
    log_z = log_partition_exact_ising(d, f, 0.0).log_value
    sup = maximize_tap(TapProblem(d, f, 0.0, "ising"), starts=2,
                       rng_seed=derive_seed(cfg.seed, STREAM_STARTS, r))
    gap = (log_z - sup.value) / n
    return [n, repr(list(xi)), r, log_z, sup.value, gap]


def run_beta0_exact(cfg: ExperimentConfig) -> ExperimentReport:
    sizes = ((4, (0.0,)), (4, (0.3, 0.2, 1.0, 0.5)), (9, cfg.xi),
             (min(cfg.n, 16), cfg.xi))
    cases = [size for size in sizes for _ in range(max(1, cfg.replicas // 4))]
    rows = _map_replicas(_beta0_case, cfg,
                         [(r, n, xi) for r, (n, xi) in enumerate(cases)])
    gaps = np.array([abs(row[5]) for row in rows])
    crit = Criterion("beta0-gap", bool(np.all(gaps <= 1e-10)), float(gaps.max()),
                     1e-10, "per-spin |log Z - sup| <= 1e-10 at beta=0", len(rows))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["n", "xi", "replica", "log_z", "tap_sup", "gap"],
                            rows, [crit],
                            {"max_gap": float(gaps.max())})


# ---------------------------------------------------------------------------
# 2. zero-disorder: xi = 0 makes both sides N log cosh(beta h)
# ---------------------------------------------------------------------------

def run_zero_disorder(cfg: ExperimentConfig) -> ExperimentReport:
    n = cfg.n
    rows = []
    z_errs, tap_errs = [], []
    for i, h in enumerate(cfg.h):
        for b in cfg.beta:
            d = _disorder(cfg, i, (0.0,), n)
            f = make_field("linear", h, n)
            target = n * math.log(math.cosh(b * h))
            log_z = log_partition_exact_ising(d, f, b).log_value
            sup = maximize_tap(TapProblem(d, f, b, "ising"), starts=cfg.starts,
                               rng_seed=derive_seed(cfg.seed, STREAM_STARTS, i))
            z_errs.append(abs(log_z - target))
            tap_errs.append(abs(sup.value - target))
            rows.append([h, b, target, log_z, sup.value])
    # np.max keeps a NaN, which then fails the check; Python's max drops it
    z_err, tap_err = float(np.max(z_errs)), float(np.max(tap_errs))
    crits = [
        Criterion("partition-closed-form", z_err <= 1e-9, z_err, 1e-9,
                  "|log Z - N log cosh(beta h)| <= 1e-9", len(rows)),
        Criterion("tap-sup-closed-form", tap_err <= 1e-6, tap_err, 1e-6,
                  "|sup TAP - N log cosh(beta h)| <= 1e-6", len(rows)),
    ]
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["h", "beta", "target", "log_z", "tap_sup"],
                            rows, crits)


# ---------------------------------------------------------------------------
# 3. gaussian-law: covariances of the field and its first derivatives
# ---------------------------------------------------------------------------

def _gaussian_law_probes(cfg: ExperimentConfig) -> tuple:
    """(pairs, m, m', pts, ms): ten probe pairs (a, b), the points m and m',
    the (20, n) array of pair points a block scores in one stacked
    contraction, and the (2, n) array of m and m', checked to lie in the
    open ball, at which a block takes both gradients in one call."""
    n = cfg.n
    rng = _stream_rng(cfg, STREAM_PROBE)
    pairs = [(normalize(rng.standard_normal(n)), normalize(rng.standard_normal(n)))
             for _ in range(10)]
    m = 0.6 * normalize(rng.standard_normal(n))
    mp = 0.5 * normalize(rng.standard_normal(n))
    ms = np.array([_check_ball(x, n, open_ball=True) for x in (m, mp)])
    return pairs, m, mp, np.array([p for ab in pairs for p in ab]), ms


def _law_streams(cfg: ExperimentConfig) -> tuple:
    """(seeds, states): `derive_seeds` of every replica of a law run on the
    disorder stream, and their `_stream_states` for the degrees of xi."""
    seeds = derive_seeds(cfg.seed, STREAM_DISORDER, np.arange(cfg.replicas))
    return seeds, _stream_states(_model(cfg.n, tuple(cfg.xi)).active_degrees, seeds)


def _five_se_report(cfg, block, probes, names, expected, criterion, tolerance,
                    aggregates) -> ExperimentReport:
    """Replica means of the features against their expected values: passes
    when every mean lies within 5 standard errors. The run's streams are
    hashed once; `block(cfg, seeds, states, probes)` gives the features of
    the replicas of one slice of them, one row each."""
    seeds, states = _law_streams(cfg)
    tasks = [(seeds[start:stop], states[start:stop], probes)
             for start, stop in _replica_blocks(cfg)]
    feats = np.concatenate(_map_replicas(block, cfg, tasks))
    means = feats.mean(axis=0)
    ses = feats.std(axis=0, ddof=1) / math.sqrt(len(feats))
    zs = np.abs(means - np.array(expected)) / np.maximum(ses, 1e-300)
    rows = [[nm, float(mu), float(ex), float(se), float(z)]
            for nm, mu, ex, se, z in zip(names, means, expected, ses, zs)]
    crit = Criterion(criterion, bool(np.all(zs <= 5.0)), float(zs.max()),
                     5.0, tolerance, cfg.replicas)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["statistic", "empirical", "expected", "se", "z"],
                            rows, [crit], {"max_z": float(zs.max()), **aggregates})


# dH_i(m) dH_j(m') for these (i, j), and H(a0) dH_i(m') for these i
_GRAD_PAIRS = ((0, 0), (1, 1), (0, 3), (2, 1))
_CROSS_INDICES = (0, 2, 5)


def _gaussian_law_block(cfg, seeds, states, probes):
    _, _, _, pts, ms = probes
    d = _fill_disorders(_model(cfg.n, tuple(cfg.xi)), seeds, states)
    vals = _energy_rows(d, pts)
    grads = _gradient_rows(d, ms)
    gm, gmp = grads[:, 0], grads[:, 1]
    feats = [vals[:, 2 * k] * vals[:, 2 * k + 1] for k in range(10)]  # H(a) H(b)
    feats += [gm[:, i] * gmp[:, j] for i, j in _GRAD_PAIRS]
    feats += [vals[:, 0] * gmp[:, i] for i in _CROSS_INDICES]
    return np.stack(feats, axis=1)


def run_gaussian_law(cfg: ExperimentConfig) -> ExperimentReport:
    n = cfg.n
    series = CovarianceSeries(cfg.xi)
    probes = _gaussian_law_probes(cfg)
    pairs, m, mp, _, _ = probes
    names, expected = [], []
    for k, (a, b) in enumerate(pairs):
        names.append(f"cov-energy-pair{k}")
        expected.append(n * series.evaluate(inner(a, b)))
    q = inner(m, mp)
    xi1, xi2 = series.evaluate(q, 1), series.evaluate(q, 2)
    for (i, j) in _GRAD_PAIRS:
        names.append(f"cov-grad{i}{j}")
        expected.append((i == j) * xi1 + m[j] * mp[i] / n * xi2)
    a0 = pairs[0][0]
    xi1_cross = series.evaluate(inner(a0, mp), 1)
    for i in _CROSS_INDICES:
        names.append(f"cov-energy-grad{i}")
        expected.append(a0[i] * xi1_cross)
    return _five_se_report(cfg, _gaussian_law_block, probes, names, expected,
                           "covariance-5se", "all empirical covariances within 5 SE",
                           {})


# ---------------------------------------------------------------------------
# 4. recentering-law: the recentered field on the orthogonal slice
# ---------------------------------------------------------------------------

def _recentering_probes(cfg: ExperimentConfig) -> tuple:
    """(m, (s1, s2, s3), w): the point m with ||m||^2 = 0.25, three slice
    points orthogonal to m on the slice shell, and a test functional w
    orthogonal to m."""
    n = cfg.n
    rng = _stream_rng(cfg, STREAM_PROBE, 1)
    m = np.zeros(n)
    m[0] = math.sqrt(0.25 * n)  # ||m||^2 = 0.25
    radius = math.sqrt(1 - 0.25)

    def ortho():
        v = np.concatenate([[0.0], rng.standard_normal(n - 1)])
        return radius * normalize(v)

    s1, s2, s3 = ortho(), ortho(), ortho()
    w = np.concatenate([[0.0], rng.standard_normal(n - 1)])  # test functional
    return m, (s1, s2, s3), w


def _recentering_block(cfg, seeds, states, probes):
    m, (s1, s2, s3), w = probes
    d = _fill_disorders(_model(cfg.n, tuple(cfg.xi)), seeds, states)
    rec, g, hm = _recentered_rows(d, m, np.array([s1, s2, s3]))  # checks m
    rec = rec.T
    mhat = m / np.sqrt(m @ m)
    g_perp = g - _dots(g, mhat)[:, None] * mhat
    t = _dots(g_perp, w)
    return np.stack([rec[0] * rec[1], rec[0] * rec[2], rec[0] * rec[0],
                     rec[0] * hm, rec[1] * t, hm * t], axis=1)


def run_recentering_law(cfg: ExperimentConfig) -> ExperimentReport:
    n = cfg.n
    probes = _recentering_probes(cfg)
    m, (s1, s2, s3), w = probes
    q = inner(m, m)
    xi_q = CovarianceSeries(cfg.xi).recenter(q)
    names = ["cov-rec-12", "cov-rec-13", "var-rec-1",
             "cross-rec-energy", "cross-rec-gradperp", "cross-energy-gradperp"]
    expected = [n * xi_q(inner(s1, s2)), n * xi_q(inner(s1, s3)),
                n * xi_q(inner(s1, s1)), 0.0, 0.0, 0.0]
    return _five_se_report(cfg, _recentering_block, probes, names, expected,
                           "recentering-5se",
                           "recentered covariances and cross terms within 5 SE",
                           {"q": q})


# ---------------------------------------------------------------------------
# 5. gradient-check: analytic gradient vs central differences
# ---------------------------------------------------------------------------

def run_gradient_check(cfg: ExperimentConfig) -> ExperimentReport:
    rng = _stream_rng(cfg, STREAM_PROBE, 2)
    step = 1e-5
    rows = []
    for trial in range(cfg.replicas):
        n = int(rng.integers(4, 10))
        d = _disorder(cfg, trial, cfg.xi, n)
        sigma = rng.uniform(0.2, 0.9) * normalize(rng.standard_normal(n))
        g = gradient(d, sigma)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd[i] = (energy(d, sigma + e) - energy(d, sigma - e)) / (2 * step)
        rel = float(np.abs(g - fd).max() / max(1.0, float(np.abs(g).max())))
        rows.append([trial, n, rel])
    worst = float(np.max([row[2] for row in rows]))  # a NaN stays and fails
    crit = Criterion("gradient-fd", worst <= 1e-6, worst, 1e-6,
                     "max relative error vs central differences <= 1e-6",
                     cfg.replicas)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["trial", "n", "relative_error"], rows, [crit])


# ---------------------------------------------------------------------------
# 6. cover-property: classification covers the sphere with controlled geometry
# ---------------------------------------------------------------------------

def _cover_field(cfg: ExperimentConfig, n: int):
    return make_field("linear", cfg.h[0], n)


def _cover_sphere_replica(cfg, r):
    n = cfg.n
    d = _disorder(cfg, r, cfg.xi, n)
    builder = CoverBuilder(d, sphere_uniform(n), _cover_field(cfg, n), cfg.epsilon,
                           cfg.delta)
    rng = _stream_rng(cfg, STREAM_PROBE, r)
    out = []
    for _ in range(max(1, cfg.points // cfg.replicas)):
        sigma = normalize(rng.standard_normal(n))
        alpha, node = builder.classify(sigma, cfg.eta)
        sigma_hat = sigma - node.m
        rows = node.basis_rows
        proj_u = inner_many(rows, sigma_hat) @ rows
        heff = gradient(d, node.m)
        resid = node.project_out(sigma)
        chk = membership(node, sigma)
        tau = thin_projection(node, sigma)
        out.append([r, alpha.k, int(chk.in_e), norm(proj_u),
                    abs(inner(sigma_hat, heff)) / max(norm(heff), 1e-300),
                    abs(norm(resid) - math.sqrt(1 - node.q)),
                    norm(sigma_hat - tau)])
    return out


def run_cover_property(cfg: ExperimentConfig) -> ExperimentReport:
    eta = cfg.eta
    chunks = _map_replicas(_cover_sphere_replica, cfg, _replicas(cfg))
    rows = [row for chunk in chunks for row in chunk]
    arr = np.array([row[1:] for row in rows], dtype=np.float64)
    k_cap = math.floor(5.0 / eta ** 2)
    crits = [
        Criterion("classify-success", bool(np.all(arr[:, 1] == 1)),
                  float(arr[:, 1].mean()), 1.0,
                  "every point classified with verified membership", len(rows)),
        Criterion("stopping-depth", bool(np.all(arr[:, 0] <= k_cap)),
                  float(arr[:, 0].max()), k_cap, "k <= 5/eta^2", len(rows)),
        Criterion("thickness", bool(np.all(arr[:, 2] <= 4 * eta + 1e-9)),
                  float(arr[:, 2].max()), 4 * eta,
                  "||P_Ubar(sigma - m)|| <= 4 eta", len(rows)),
        Criterion("effective-field", bool(np.all(arr[:, 3] <= 4 * eta + 1e-9)),
                  float(arr[:, 3].max()), 4 * eta,
                  "|<sigma - m, h_eff>| <= 4 eta ||h_eff||", len(rows)),
        Criterion("radius-control", bool(np.all(arr[:, 4] <= 8 * eta ** 0.25 + 1e-9)),
                  float(arr[:, 4].max()), 8 * eta ** 0.25,
                  "| ||P_Vbar sigma|| - sqrt(1-q) | <= 8 eta^(1/4)", len(rows)),
        Criterion("thin-projection", bool(np.all(arr[:, 5] <= 12 * eta ** 0.25 + 1e-9)),
                  float(arr[:, 5].max()), 12 * eta ** 0.25,
                  "||sigma - m - tau|| <= 12 eta^(1/4)", len(rows)),
    ]
    # exhaustive check over all ising atoms at a smaller size; eta is widened
    # so the stopping rule can fire before the dimensions run out
    n2, eta2 = 12, 0.8
    d2 = _disorder(cfg, 10**6, cfg.xi, n2)
    E2 = ising_uniform(n2)
    builder2 = CoverBuilder(d2, E2, _cover_field(cfg, n2), cfg.epsilon, cfg.delta)
    atoms, _ = E2.atoms()
    ok = 0
    kmax2 = 0
    for sigma in atoms.astype(np.float64):
        alpha, node = builder2.classify(sigma, eta2)
        kmax2 = max(kmax2, alpha.k)
        if membership(node, sigma).in_e:
            ok += 1
    crits.append(Criterion("exhaustive-ising-atoms", ok == len(atoms),
                           ok / len(atoms), 1.0,
                           f"all 2^{n2} atoms classified, eta={eta2}", len(atoms)))
    crits.append(Criterion("exhaustive-depth", kmax2 <= max_levels(n2, 1),
                           kmax2, max_levels(n2, 1),
                           "atom classification depth within level budget",
                           len(atoms)))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["replica", "k", "in_e", "thickness", "eff_field",
                             "radius_err", "thin_dist"],
                            rows, crits,
                            {"k_max_sphere": int(arr[:, 0].max()),
                             "k_max_atoms": int(kmax2)})


# ---------------------------------------------------------------------------
# 7. slice-entropy: region mass vs the entropy surrogate at its center
# ---------------------------------------------------------------------------

def _classified_atom(cfg, r):
    """Replica r's Ising cover builder and the (alpha, node) of one uniformly
    drawn atom."""
    n = cfg.n
    d = _disorder(cfg, r, cfg.xi, n)
    E = ising_uniform(n)
    builder = CoverBuilder(d, E, _cover_field(cfg, n), cfg.epsilon, cfg.delta)
    atoms, _ = E.atoms()
    rng = _stream_rng(cfg, STREAM_ATOM, r)
    sigma = atoms[int(rng.integers(len(atoms)))].astype(np.float64)
    alpha, node = builder.classify(sigma, cfg.eta)
    return builder, alpha, node


def _slice_entropy_replica(cfg, r):
    builder, alpha, node = _classified_atom(cfg, r)
    E, delta = builder.measure, cfg.delta
    mass = slice_measures(E, node).mass
    upper = general_entropy_upper(E, node.m, delta,
                                  extra_directions=builder.field.basis)
    log_mass = math.log(mass) if mass > 0 else -math.inf
    return [r, alpha.k, mass, log_mass, upper, float(log_mass <= upper + delta + 1e-10)]


def run_slice_entropy(cfg: ExperimentConfig) -> ExperimentReport:
    rows = _map_replicas(_slice_entropy_replica, cfg, _replicas(cfg))
    ok = all(row[5] == 1.0 for row in rows)
    exceptions = sum(1 for row in rows if row[5] != 1.0)
    crit = Criterion("slice-entropy-bound", ok, float(exceptions), 0.0,
                     "log E[E_alpha] <= entropy surrogate + delta, zero exceptions",
                     len(rows))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["replica", "k", "mass", "log_mass",
                             "entropy_upper", "holds"],
                            rows, [crit])


# ---------------------------------------------------------------------------
# 8. onsager-markov: slice partition functions vs the Onsager exponent
# ---------------------------------------------------------------------------

def _onsager_replica(cfg, r):
    n, beta = cfg.n, cfg.beta[0]
    builder, alpha, node = _classified_atom(cfg, r)
    d = builder.disorder
    # the recentered Hamiltonian H^m(tau) on the thin-slice image of the region
    taus = slice_measures(builder.measure, node).thin_pushforward.points
    vals = beta * recentered_energy(d, node.m, taus)[0]
    mx = float(vals.max())
    log_mean = mx + math.log(float(np.exp(vals - mx).mean()))
    threshold = 0.5 * beta ** 2 * n * d.model.series.onsager(node.q) + cfg.delta * n
    return [r, alpha.k, node.q, len(taus), log_mean, threshold,
            float(log_mean >= threshold)]


def run_onsager_markov(cfg: ExperimentConfig) -> ExperimentReport:
    rows = _map_replicas(_onsager_replica, cfg, _replicas(cfg))
    viol = np.array([row[6] for row in rows])
    freq = float(viol.mean())
    p0 = math.exp(-cfg.delta * cfg.n)
    bound = p0 + 3 * math.sqrt(p0 * (1 - p0) / len(rows))
    crit = Criterion("onsager-markov-frequency", freq <= bound, freq, bound,
                     "violation frequency <= exp(-delta N) + 3 binomial SE",
                     len(rows))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["replica", "k", "q_alpha", "slice_atoms",
                             "log_slice_mgf", "threshold", "violated"],
                            rows, [crit], {"violation_frequency": freq})


# ---------------------------------------------------------------------------
# 9a/9b. bound-ising / bound-sphere: free energy vs the TAP sup surrogate
# ---------------------------------------------------------------------------

def _maximizer_diagnostics(sup, n: int) -> tuple:
    """(converged, per-start iteration counts, starts within 1e-6 N of the best).

    A start's iterations are its trace rows and its final value is its last
    row's value, the definitions perfbench/tracer.py counts `maximize_tap`
    calls by. The two can be cross-checked only where `maximize_tap` is
    called: the bound experiments call `maximize_tap_many`, which the tracer
    does not wrap, so on their runs its `tap.maximize_tap.*` metrics read 0.
    """
    iterations, final = {}, {}
    for row in sup.trace:
        iterations[row.start] = iterations.get(row.start, 0) + 1
        final[row.start] = row.value
    at_best = sum(1 for v in final.values() if v >= sup.value - 1e-6 * n)
    return bool(sup.converged), list(iterations.values()), at_best


def _maximizer_aggregates(diagnostics) -> dict:
    iterations = [k for _, counts, _ in diagnostics for k in counts]
    return {
        "maximizer_converged_fraction":
            sum(c for c, _, _ in diagnostics) / len(diagnostics),
        "maximizer_iterations_median": float(np.median(iterations)),
        "maximizer_iterations_max": max(iterations),
        "maximizer_starts_at_best_fraction":
            sum(b for _, _, b in diagnostics) / len(iterations),
    }


def _bound_grid(cfg: ExperimentConfig) -> list:
    """(beta, h, replica) cases over the beta x h grid, cfg.replicas per cell,
    replicas numbered across the whole grid."""
    cells = itertools.product(cfg.beta, cfg.h, range(cfg.replicas))
    return [(beta, h, r) for r, (beta, h, _) in enumerate(cells)]


def _bound_blocks(cfg: ExperimentConfig) -> list:
    return _blocks(len(_bound_grid(cfg)))


def _bound_block(cfg, start, stop, flavor, log_partitions):
    """Rows and maximizer diagnostics of grid cases start..stop-1: the
    partition estimates `log_partitions(problems)` of the block's problems,
    a tuple led by log Z each, then one TAP ascent over all of them."""
    n = cfg.n
    cases = _bound_grid(cfg)[start:stop]
    problems = [TapProblem(_disorder(cfg, r, cfg.xi, n), make_field(cfg.field, h, n),
                           beta, flavor)
                for beta, h, r in cases]
    estimates = log_partitions(problems)
    seeds = [derive_seed(cfg.seed, STREAM_STARTS, r) for _, _, r in cases]
    sups = maximize_tap_many(problems, cfg.starts, seeds)
    return [([beta, h, r, *est, sup.value, (est[0] - sup.value) / n],
             _maximizer_diagnostics(sup, n))
            for (beta, h, r), est, sup in zip(cases, estimates, sups)]


def _bound_ising_block(cfg, start, stop):
    def log_z(problems):
        return [(log_partition_exact_ising(p.disorder, p.field, p.beta).log_value,)
                for p in problems]

    return _bound_block(cfg, start, stop, "ising", log_z)


def _bound_sphere_block(cfg, start, stop):
    """bound-sphere rows of grid cases start..stop-1, whose Monte Carlo
    estimates share the draw of the block's first case,
    `derive_seed(cfg.seed, STREAM_MC, start)`: correlated estimates, each
    with the law of one drawn alone (see `run_bound_sphere`)."""
    def log_z(problems):
        estimates = log_partition_mc_sphere_many(
            [(p.disorder, p.field, p.beta) for p in problems], cfg.mc_samples,
            derive_seed(cfg.seed, STREAM_MC, start))
        return [(est.log_value, est.std_error) for est in estimates]

    return _bound_block(cfg, start, stop, "spherical", log_z)


def _bound_rows(block, cfg: ExperimentConfig) -> tuple:
    """(rows, diagnostics) of every grid case, in grid order."""
    return tuple(zip(*(case for cases in _map_replicas(block, cfg, _bound_blocks(cfg))
                       for case in cases)))


def run_bound_ising(cfg: ExperimentConfig) -> ExperimentReport:
    rows, diagnostics = _bound_rows(_bound_ising_block, cfg)
    gaps = np.array([row[5] for row in rows])
    crit = Criterion("gap-bound", bool(np.all(gaps <= cfg.delta_check)),
                     float(gaps.max()), cfg.delta_check,
                     "per-spin log Z - sup TAP <= delta_check "
                     "(sup surrogate: multi-start projected Newton ascent)", len(rows))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["beta", "h", "replica", "log_z", "tap_sup", "gap"],
                            list(rows), [crit],
                            {"max_gap": float(gaps.max()),
                             "mean_gap": float(gaps.mean()),
                             "gap_histogram_values": [float(g) for g in gaps],
                             **_maximizer_aggregates(diagnostics)})


def run_bound_sphere(cfg: ExperimentConfig) -> ExperimentReport:
    """The gap bound with Monte Carlo log Z over the sphere.

    The problems of one block of REPLICA_BLOCK grid cases share one draw of
    cfg.mc_samples points, so their estimates are correlated. Each still
    averages that many iid uniform sphere points drawn independently of its
    disorder, so its law is that of an estimate drawn alone, and the
    criterion allows each problem 3 of its own SE. The bytes depend on the
    block boundaries, not on the worker count."""
    rows, diagnostics = _bound_rows(_bound_sphere_block, cfg)
    gaps = np.array([row[6] for row in rows])
    slack = np.array([3 * row[4] / cfg.n for row in rows])
    adjusted = gaps - slack
    crit = Criterion("gap-bound-mc", bool(np.all(adjusted <= cfg.delta_check)),
                     float(adjusted.max()), cfg.delta_check,
                     "per-spin gap <= delta_check within 3 SE of the MC "
                     "partition estimate (each an iid estimate; the problems "
                     "of a block share one draw, so their estimates are "
                     "correlated)", len(rows))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["beta", "h", "replica", "log_z", "log_z_se",
                             "tap_sup", "gap"],
                            list(rows), [crit],
                            {"max_gap": float(gaps.max()),
                             "gap_histogram_values": [float(g) for g in gaps],
                             **_maximizer_aggregates(diagnostics)})


# ---------------------------------------------------------------------------
# 10. entropy-lemmas: the deterministic inequalities
# ---------------------------------------------------------------------------

def run_entropy_lemmas(cfg: ExperimentConfig) -> ExperimentReport:
    rng = _stream_rng(cfg, STREAM_PROBE, 3)
    n = cfg.n
    rows = []
    # (a) binary entropy difference bound on 1e4 pairs
    m = rng.uniform(-2, 2, size=10000)
    mt = rng.uniform(-2, 2, size=10000)
    d = np.abs(m - mt)
    keep = d > 0
    lhs = np.abs(binary_entropy(m) - binary_entropy(mt))[keep]
    rhs = d[keep] * np.log(2 * np.e / np.minimum(d[keep], 1.0))
    ok_j = bool(np.all(lhs <= rhs + 1e-12))
    rows.append(["binary-entropy-difference", float((rhs - lhs).min()), int(keep.sum())])
    # (b) vector entropy continuity on 1e4 pairs in the unit ball
    margins = []
    for _ in range(10000):
        a = rng.standard_normal(n)
        a *= rng.uniform(0, 1) / max(norm(a), 1e-12)
        b = rng.standard_normal(n)
        b *= rng.uniform(0, 1) / max(norm(b), 1e-12)
        dd = norm(a - b)
        if dd == 0:
            continue
        margins.append(2 * n * dd * math.log(4 * math.e / dd) - abs(
            ising_entropy(a) - ising_entropy(b)))
    count = len(margins)
    worst_margin = float(np.min(margins, initial=np.inf))  # a NaN stays and fails
    ok_cont = worst_margin >= -1e-10
    rows.append(["ising-entropy-continuity", float(worst_margin), count])
    # (c) the surrogate returns -inf far outside the cube
    E = ising_uniform(n)
    hit = 0
    for _ in range(100):
        v = rng.uniform(-0.5, 0.5, size=n)
        i = int(rng.integers(n))
        v[i] = 1.0 + 1.5 * cfg.delta * math.sqrt(n)
        if general_entropy_upper(E, v, cfg.delta) == -np.inf:
            hit += 1
    rows.append(["outside-box-minus-infinity", float(hit), 100])
    # (d) sphere cap mass against the closed-form upper bound
    n_cap = 20
    lam = np.zeros(n_cap)
    lam[0] = math.sqrt(n_cap)
    cap_ok = True
    cap_margins = []
    for alpha in np.linspace(0.0, 1.0 - cfg.delta, 50):
        log_mass = halfspace_log_mass(sphere_uniform(n_cap), lam, alpha * lam, 0.0)
        bound = 0.5 * math.log(n_cap / (2 * math.pi)) \
            + ((n_cap - 3) / 2) * math.log1p(-alpha ** 2)
        cap_margins.append(bound - log_mass)
        cap_ok = cap_ok and log_mass <= bound + 1e-10
    worst_cap = float(np.min(cap_margins))  # a NaN stays
    rows.append(["sphere-cap-bound", worst_cap, 50])
    # (e) sphere-measure entropy surrogate dominated by the radial closed form
    # (N/2) log(1 - q + 2 delta ||m||) + delta N on radii where the dimension
    # prefactor is absorbed (N = 20 suffices up to ||m|| = 0.85 at delta = 0.1)
    sph = sphere_uniform(n_cap)
    dom_ok = True
    dom_margins = []
    e1 = np.zeros(n_cap)
    e1[0] = math.sqrt(n_cap)
    for radius in np.linspace(0.1, 0.85, 16):
        m_vec = radius * e1
        got = general_entropy_upper(sph, m_vec, cfg.delta)
        bound = 0.5 * n_cap * math.log(1 - radius ** 2 + 2 * cfg.delta * radius) \
            + cfg.delta * n_cap
        dom_margins.append(bound - got)
        dom_ok = dom_ok and got <= bound + 1e-10
    worst_dom = float(np.min(dom_margins))  # a NaN stays
    rows.append(["spherical-entropy-domination", worst_dom, 16])
    crits = [
        Criterion("binary-entropy-difference", ok_j, float(rows[0][1]), 0.0,
                  "|J(m)-J(m~)| <= |m-m~| log(2e/(|m-m~|^1)), exact", 10000),
        Criterion("ising-entropy-continuity", bool(ok_cont), float(worst_margin),
                  0.0, "2N||dm|| log(4e/||dm||) dominates, exact", count),
        Criterion("outside-box", hit == 100, float(hit), 100.0,
                  "entropy surrogate -inf when d(m, cube) > delta", 100),
        Criterion("sphere-cap-bound", bool(cap_ok), worst_cap, 0.0,
                  "cap mass <= sqrt(N/2pi)(1-a^2)^((N-3)/2)", 50),
        Criterion("spherical-entropy-domination", bool(dom_ok), worst_dom,
                  0.0, "surrogate <= (N/2) log(1-q+2 delta ||m||) + delta N", 16),
    ]
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["check", "worst_margin", "sample_size"],
                            rows, crits)


# ---------------------------------------------------------------------------
# tap-continuity: the log-Lipschitz modulus of the Ising energy functional
# ---------------------------------------------------------------------------

def _tap_pairs(rng, n, count):
    pairs = []
    while len(pairs) < count:
        a = np.clip(0.9 * rng.uniform(0.05, 1.0) * normalize(rng.standard_normal(n)),
                    -0.95, 0.95)
        b = np.clip(a + rng.standard_normal(n) * rng.uniform(0.001, 0.3),
                    -0.95, 0.95)
        if norm(a - b) > 1e-9:
            pairs.append((a, b))
    return pairs


def run_tap_continuity(cfg: ExperimentConfig) -> ExperimentReport:
    """|dTAP| <= c (1 + L^3) N ||dm|| log(c' / ||dm||), with the constant
    probed on one batch of pairs per replica and asserted at 10x on a fresh
    batch (reported alongside)."""
    n = cfg.n
    series = CovarianceSeries(cfg.xi)
    L_xi = math.sqrt(series.evaluate(1.0, 3)) if series.degree >= 3 else \
        math.sqrt(max(series.evaluate(1.0, 2), 1.0))
    rows = []
    ok = True
    for r in range(cfg.replicas):
        beta = cfg.beta[r % len(cfg.beta)]
        h = cfg.h[r % len(cfg.h)]
        problem = TapProblem(_disorder(cfg, r, cfg.xi, n), make_field("linear", h, n),
                             beta, "ising")
        L = max(beta, L_xi, 1.0)
        rng = _stream_rng(cfg, STREAM_PROBE, 5, r)

        def modulus(dist):
            return (1 + L ** 3) * n * dist * math.log(math.e + 1.0 / dist)

        # np.max keeps a NaN, which then fails the check; Python's max drops it
        probe = _tap_pairs(rng, n, 30)
        c_hat = float(np.max([abs(tap_energy(problem, a) - tap_energy(problem, b))
                              / modulus(norm(a - b)) for a, b in probe]))
        fresh = _tap_pairs(rng, n, 30)
        worst = float(np.max([abs(tap_energy(problem, a) - tap_energy(problem, b))
                              / (10 * c_hat * modulus(norm(a - b)))
                              for a, b in fresh]))
        ok = ok and worst <= 1.0
        rows.append([r, beta, h, c_hat, worst])
    worst_ratio = float(np.max([row[4] for row in rows]))
    crit = Criterion("tap-lipschitz-modulus", ok, worst_ratio, 1.0,
                     "fresh pairs within 10x the probed modulus constant",
                     len(rows) * 30)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["replica", "beta", "h", "probed_constant",
                             "worst_ratio_vs_10x"],
                            rows, [crit],
                            {"max_probed_constant": float(np.max([r[3] for r in rows]))})


# ---------------------------------------------------------------------------
# 11. series-identities
# ---------------------------------------------------------------------------

def run_series_identities(cfg: ExperimentConfig) -> ExperimentReport:
    rng = _stream_rng(cfg, STREAM_PROBE, 4)
    onsager_errs, comp_errs = [], []
    trials = 1000
    for _ in range(trials):
        degree = int(rng.integers(1, 6))
        coeffs = rng.uniform(0, 1.5, size=degree + 1)
        coeffs[rng.uniform(size=degree + 1) < 0.3] = 0.0
        xi = CovarianceSeries(tuple(coeffs))
        q = float(rng.uniform(0, 1))
        scale = max(1.0, abs(xi.onsager(q)))
        onsager_errs.append(abs(xi.onsager(q) - xi.recenter(q)(1 - q)) / scale)
        q1 = float(rng.uniform(0, 0.6))
        q2 = float(rng.uniform(0, 1 - q1))
        z = float(rng.uniform(-(q1 + q2), 1 - q1 - q2))
        lhs = xi.recenter(q1).recenter(q2)(z)
        rhs = xi.recenter(q1 + q2)(z)
        comp_errs.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    # np.max keeps a NaN, which then fails the check; Python's max drops it
    worst_onsager, worst_comp = float(np.max(onsager_errs)), float(np.max(comp_errs))
    crits = [
        Criterion("onsager-recenter-identity", worst_onsager <= 1e-12,
                  worst_onsager, 1e-12, "On(q) == xi_q(1-q), relative 1e-12",
                  trials),
        Criterion("recenter-composition", worst_comp <= 1e-12, worst_comp,
                  1e-12, "(xi_q)_q' == xi_(q+q'), relative 1e-12", trials),
    ]
    rows = [["onsager-recenter", worst_onsager], ["composition", worst_comp]]
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["identity", "worst_relative_error"], rows, crits)


# ---------------------------------------------------------------------------
# tap-max utility: maximize one configured problem, export artifacts
# ---------------------------------------------------------------------------

def _radial_slice(problem: TapProblem, direction, ts) -> list:
    """TAP energy at t * direction for every t, NaN where the point leaves
    the flavor's domain (any other error propagates)."""
    values = []
    for t in ts:
        try:
            values.append(tap_energy(problem, t * direction))
        except DomainError:
            values.append(float("nan"))
    return values


def run_tap_max(cfg: ExperimentConfig) -> ExperimentReport:
    n = cfg.n
    flavor = "ising" if cfg.measure == "ising" else "spherical"
    problem = TapProblem(_disorder(cfg, 0, cfg.xi, n), make_field(cfg.field, cfg.h[0], n),
                         cfg.beta[0], flavor)
    out = maximize_tap(problem, starts=cfg.starts,
                       rng_seed=derive_seed(cfg.seed, STREAM_STARTS, 0))
    rows = [[row.start, row.iteration, row.value, row.grad_norm, row.step]
            for row in out.trace]
    crit = Criterion("maximizer-finished", True, out.value, out.value,
                     "best value over multi-start projected Newton ascent "
                     "(reported, not asserted)",
                     cfg.starts)
    direction = out.m_star / max(norm(out.m_star), 1e-12)
    ts = np.linspace(0.0, 0.999 if flavor == "spherical" else 0.99, 120)
    slice_vals = _radial_slice(problem, direction, ts)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["start", "iteration", "value", "grad_norm", "step"],
                            rows, [crit],
                            {"value": out.value, "per_spin": out.value / n,
                             "radial_ts": [float(t) for t in ts],
                             "radial_values": [float(v) for v in slice_vals]})


EXPERIMENTS = {
    "beta0-exact": run_beta0_exact,
    "zero-disorder": run_zero_disorder,
    "gaussian-law": run_gaussian_law,
    "recentering-law": run_recentering_law,
    "gradient-check": run_gradient_check,
    "cover-property": run_cover_property,
    "slice-entropy": run_slice_entropy,
    "onsager-markov": run_onsager_markov,
    "bound-ising": run_bound_ising,
    "tap-continuity": run_tap_continuity,
    "bound-sphere": run_bound_sphere,
    "entropy-lemmas": run_entropy_lemmas,
    "series-identities": run_series_identities,
    "tap-max": run_tap_max,
}

EXPERIMENT_DEFAULTS = {
    "beta0-exact": dict(n=16, xi=(0.0, 0.0, 1.0), replicas=4),
    "zero-disorder": dict(n=16, xi=(0.0,), beta=(1.0,), h=(0.1, 0.4, 1.0),
                          replicas=1, starts=2),
    "gaussian-law": dict(n=8, xi=(0.0, 0.0, 1.0, 0.5), replicas=20000),
    "recentering-law": dict(n=8, xi=(0.0, 0.0, 1.0), replicas=20000),
    "gradient-check": dict(xi=(0.0, 0.0, 1.0, 0.5), replicas=100),
    "cover-property": dict(n=16, xi=(0.0, 0.0, 1.0), epsilon=0.05, eta=0.4,
                           delta=0.1, h=(0.3,), replicas=4, points=1000),
    "slice-entropy": dict(n=12, xi=(0.0, 0.0, 1.0), epsilon=0.000625, eta=0.025,
                          delta=0.1, h=(0.25,), replicas=50),
    "onsager-markov": dict(n=14, xi=(0.0, 0.0, 1.0), beta=(0.3,), epsilon=0.05,
                           eta=0.4, delta=0.2, h=(0.3,), replicas=200),
    "bound-ising": dict(n=14, xi=(0.0, 0.0, 1.0), beta=(0.2, 0.4), h=(0.0, 0.3),
                        replicas=100, delta_check=0.5, starts=6),
    "tap-continuity": dict(n=10, xi=(0.0, 0.0, 1.0), beta=(0.3, 0.5),
                           h=(0.0, 0.3), replicas=8),
    "bound-sphere": dict(n=16, xi=(0.0, 0.0, 1.0), beta=(0.2, 0.4), h=(0.0, 0.3),
                         replicas=100, mc_samples=100000, delta_check=0.5,
                         starts=6),
    "entropy-lemmas": dict(n=8, delta=0.1),
    "series-identities": dict(),
    "tap-max": dict(n=12, xi=(0.0, 0.0, 1.0), beta=(0.4,), h=(0.3,), starts=8),
}
