"""The verification experiments behind each acceptance criterion.

Every experiment is a pure function of its config (master seed included) and
returns an ExperimentReport; replica work is parallelizable with results
reduced in replica order, so reports are identical for any worker count.

Seed scheme: replica r of stream s uses the 64-bit integer drawn from
SeedSequence(master_seed, spawn_key=(s, r)). Streams: 0 disorder, 1 probe
points, 2 maximizer starts, 3 Monte Carlo, 4 atom picks.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..covariance import CovarianceSeries
from ..cover import CoverBuilder, max_levels
from ..entropy import (
    binary_entropy,
    general_entropy_upper,
    ising_entropy,
    ising_uniform,
    sphere_uniform,
)
from ..errors import ConfigError
from ..geometry import inner, inner_many, norm, normalize
from ..hamiltonian import (
    MixedModel,
    energy,
    energy_many,
    field_linear,
    field_none,
    field_quadratic_spike,
    gradient,
    sample_disorder,
)
from ..partition import (
    log_partition_exact_ising,
    log_partition_mc_sphere,
    node_member_mask,
)
from ..tap import TapProblem, maximize_tap, tap_energy
from .config import ExperimentConfig
from .report import Criterion, ExperimentReport

STREAM_DISORDER = 0
STREAM_PROBE = 1
STREAM_STARTS = 2
STREAM_MC = 3
STREAM_ATOM = 4


def derive_seed(master: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=(stream, index))
    return int(ss.generate_state(1, np.uint64)[0])


def make_field(kind: str, h: float, n: int):
    if kind == "none" or h == 0.0:
        return field_none(n) if kind == "none" else field_linear(h, n)
    if kind == "linear":
        return field_linear(h, n)
    if kind == "quadratic_spike":
        return field_quadratic_spike(h, n)
    raise ConfigError([f"unknown field kind {kind!r}"])


def _map_replicas(func, args_list, workers: int):
    """Order-preserving map; a process pool when workers > 1."""
    if workers <= 1 or len(args_list) <= 1:
        return [func(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, args_list, chunksize=max(1, len(args_list) // (4 * workers))))


# ---------------------------------------------------------------------------
# 1. beta0-exact: at beta = 0 the bound is an identity
# ---------------------------------------------------------------------------

def _beta0_case(args):
    n, xi, master, r = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=0.0, field=field_none(n))
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    log_z = log_partition_exact_ising(d, model.field, 0.0).log_value
    problem = TapProblem(model, d, "ising")
    sup = maximize_tap(problem, starts=2,
                       rng_seed=derive_seed(master, STREAM_STARTS, r))
    gap = (log_z - sup.value) / n
    return [n, repr(list(xi)), r, log_z, sup.value, gap]


def run_beta0_exact(cfg: ExperimentConfig) -> ExperimentReport:
    cases = []
    r = 0
    for n, xi in ((4, (0.0,)), (4, (0.3, 0.2, 1.0, 0.5)), (9, tuple(cfg.xi)),
                  (min(cfg.n, 16), tuple(cfg.xi))):
        for _ in range(max(1, cfg.replicas // 4)):
            cases.append((n, xi, cfg.seed, r))
            r += 1
    rows = _map_replicas(_beta0_case, cases, cfg.workers)
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
    series = CovarianceSeries((0.0,))
    rows = []
    z_errs, tap_errs = [], []
    for i, h in enumerate(cfg.h):
        for b in cfg.beta:
            model = MixedModel(n, series, beta=b, field=field_linear(h, n))
            d = sample_disorder(model, derive_seed(cfg.seed, STREAM_DISORDER, i))
            target = n * math.log(math.cosh(b * h))
            log_z = log_partition_exact_ising(d, model.field, b).log_value
            sup = maximize_tap(TapProblem(model, d, "ising"), starts=cfg.starts,
                               rng_seed=derive_seed(cfg.seed, STREAM_STARTS, i))
            z_errs.append(abs(log_z - target))
            tap_errs.append(abs(sup.value - target))
            rows.append([h, b, target, log_z, sup.value])
    crits = [
        Criterion("partition-closed-form", max(z_errs) <= 1e-9, max(z_errs), 1e-9,
                  "|log Z - N log cosh(beta h)| <= 1e-9", len(rows)),
        Criterion("tap-sup-closed-form", max(tap_errs) <= 1e-6, max(tap_errs), 1e-6,
                  "|sup TAP - N log cosh(beta h)| <= 1e-6", len(rows)),
    ]
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["h", "beta", "target", "log_z", "tap_sup"],
                            rows, crits)


# ---------------------------------------------------------------------------
# 3. gaussian-law: covariances of the field and its first derivatives
# ---------------------------------------------------------------------------

def _gaussian_law_probes(n, master):
    rng = np.random.default_rng(
        np.random.SeedSequence(master, spawn_key=(STREAM_PROBE,)))
    pairs = []
    for _ in range(10):
        a = normalize(rng.standard_normal(n))
        b = normalize(rng.standard_normal(n))
        pairs.append((a, b))
    m = 0.6 * normalize(rng.standard_normal(n))
    mp = 0.5 * normalize(rng.standard_normal(n))
    return pairs, m, mp


def _gaussian_law_replica(args):
    master, r, n, xi = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=1.0, field=field_none(n))
    pairs, m, mp = _gaussian_law_probes(n, master)
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    pts = np.array([p for ab in pairs for p in ab])
    vals = energy_many(d, pts)
    gm = gradient(d, m)
    gmp = gradient(d, mp)
    feats = []
    for k in range(10):
        feats.append(vals[2 * k] * vals[2 * k + 1])           # H(a) H(b)
    for (i, j) in ((0, 0), (1, 1), (0, 3), (2, 1)):
        feats.append(gm[i] * gmp[j])                          # dH_i(m) dH_j(m')
    for i in (0, 2, 5):
        feats.append(vals[0] * gmp[i])                        # H(a0) dH_i(m')
    return feats


def run_gaussian_law(cfg: ExperimentConfig) -> ExperimentReport:
    n, xi = cfg.n, tuple(cfg.xi)
    series = CovarianceSeries(xi)
    pairs, m, mp = _gaussian_law_probes(n, cfg.seed)
    args = [(cfg.seed, r, n, xi) for r in range(cfg.replicas)]
    feats = np.array(_map_replicas(_gaussian_law_replica, args, cfg.workers))
    names, expected = [], []
    for k, (a, b) in enumerate(pairs):
        names.append(f"cov-energy-pair{k}")
        expected.append(n * series.evaluate(inner(a, b)))
    q = inner(m, mp)
    xi1, xi2 = series.evaluate(q, 1), series.evaluate(q, 2)
    for (i, j) in ((0, 0), (1, 1), (0, 3), (2, 1)):
        names.append(f"cov-grad{i}{j}")
        expected.append((i == j) * xi1 + m[j] * mp[i] / n * xi2)
    a0 = pairs[0][0]
    xi1_cross = series.evaluate(inner(a0, mp), 1)
    for i in (0, 2, 5):
        names.append(f"cov-energy-grad{i}")
        expected.append(a0[i] * xi1_cross)
    means = feats.mean(axis=0)
    ses = feats.std(axis=0, ddof=1) / math.sqrt(len(feats))
    zs = np.abs(means - np.array(expected)) / np.maximum(ses, 1e-300)
    rows = [[nm, float(mu), float(ex), float(se), float(z)]
            for nm, mu, ex, se, z in zip(names, means, expected, ses, zs)]
    crit = Criterion("covariance-5se", bool(np.all(zs <= 5.0)), float(zs.max()),
                     5.0, "all empirical covariances within 5 SE", cfg.replicas)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["statistic", "empirical", "expected", "se", "z"],
                            rows, [crit], {"max_z": float(zs.max())})


# ---------------------------------------------------------------------------
# 4. recentering-law: the recentered field on the orthogonal slice
# ---------------------------------------------------------------------------

def _recentering_probes(n, master):
    rng = np.random.default_rng(
        np.random.SeedSequence(master, spawn_key=(STREAM_PROBE, 1)))
    m = np.zeros(n)
    m[0] = math.sqrt(0.25 * n)  # ||m||^2 = 0.25
    radius = math.sqrt(1 - 0.25)

    def ortho():
        v = np.concatenate([[0.0], rng.standard_normal(n - 1)])
        return radius * normalize(v)

    s1, s2, s3 = ortho(), ortho(), ortho()
    w = np.concatenate([[0.0], rng.standard_normal(n - 1)])  # test functional
    return m, (s1, s2, s3), w


def _recentering_replica(args):
    master, r, n, xi = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=1.0, field=field_none(n))
    m, (s1, s2, s3), w = _recentering_probes(n, master)
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
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


def run_recentering_law(cfg: ExperimentConfig) -> ExperimentReport:
    n, xi = cfg.n, tuple(cfg.xi)
    series = CovarianceSeries(xi)
    m, (s1, s2, s3), w = _recentering_probes(n, cfg.seed)
    q = inner(m, m)
    xi_q = series.recenter(q)
    args = [(cfg.seed, r, n, xi) for r in range(cfg.replicas)]
    feats = np.array(_map_replicas(_recentering_replica, args, cfg.workers))
    names = ["cov-rec-12", "cov-rec-13", "var-rec-1",
             "cross-rec-energy", "cross-rec-gradperp", "cross-energy-gradperp"]
    expected = [n * xi_q(inner(s1, s2)), n * xi_q(inner(s1, s3)),
                n * xi_q(inner(s1, s1)), 0.0, 0.0, 0.0]
    means = feats.mean(axis=0)
    ses = feats.std(axis=0, ddof=1) / math.sqrt(len(feats))
    zs = np.abs(means - np.array(expected)) / np.maximum(ses, 1e-300)
    rows = [[nm, float(mu), float(ex), float(se), float(z)]
            for nm, mu, ex, se, z in zip(names, means, expected, ses, zs)]
    crit = Criterion("recentering-5se", bool(np.all(zs <= 5.0)), float(zs.max()),
                     5.0, "recentered covariances and cross terms within 5 SE",
                     cfg.replicas)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["statistic", "empirical", "expected", "se", "z"],
                            rows, [crit], {"max_z": float(zs.max()), "q": q})


# ---------------------------------------------------------------------------
# 5. gradient-check: analytic gradient vs central differences
# ---------------------------------------------------------------------------

def run_gradient_check(cfg: ExperimentConfig) -> ExperimentReport:
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(STREAM_PROBE, 2)))
    series = CovarianceSeries(cfg.xi)
    step = 1e-5
    rows = []
    worst = 0.0
    for trial in range(cfg.replicas):
        n = int(rng.integers(4, 10))
        model = MixedModel(n, series, beta=1.0, field=field_none(n))
        d = sample_disorder(model, derive_seed(cfg.seed, STREAM_DISORDER, trial))
        sigma = rng.uniform(0.2, 0.9) * normalize(rng.standard_normal(n))
        g = gradient(d, sigma)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd[i] = (energy(d, sigma + e) - energy(d, sigma - e)) / (2 * step)
        rel = float(np.abs(g - fd).max() / max(1.0, float(np.abs(g).max())))
        worst = max(worst, rel)
        rows.append([trial, n, rel])
    crit = Criterion("gradient-fd", worst <= 1e-6, worst, 1e-6,
                     "max relative error vs central differences <= 1e-6",
                     cfg.replicas)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["trial", "n", "relative_error"], rows, [crit])


# ---------------------------------------------------------------------------
# 6. cover-property: classification covers the sphere with controlled geometry
# ---------------------------------------------------------------------------

def _cover_sphere_replica(args):
    (master, r, n, xi, eps, eta, delta, h, count) = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=1.0, field=field_linear(h, n))
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    builder = CoverBuilder(d, sphere_uniform(n), model.field, eps, delta)
    rng = np.random.default_rng(
        np.random.SeedSequence(master, spawn_key=(STREAM_PROBE, r)))
    out = []
    for _ in range(count):
        sigma = normalize(rng.standard_normal(n))
        alpha, node = builder.classify(sigma, eta)
        sigma_hat = sigma - node.m
        rows = node.basis_rows
        proj_u = inner_many(rows, sigma_hat) @ rows
        heff = gradient(d, node.m)
        resid = node.project_out(sigma)
        from ..cover import membership, thin_projection
        chk = membership(node, sigma)
        tau = thin_projection(node, sigma)
        out.append([r, alpha.k, int(chk.in_e), norm(proj_u),
                    abs(inner(sigma_hat, heff)) / max(norm(heff), 1e-300),
                    abs(norm(resid) - math.sqrt(1 - node.q)),
                    norm(sigma_hat - tau)])
    return out


def run_cover_property(cfg: ExperimentConfig) -> ExperimentReport:
    n, eps, eta, delta = cfg.n, cfg.epsilon, cfg.eta, cfg.delta
    h = cfg.h[0] if cfg.h else 0.3
    per = max(1, cfg.points // cfg.replicas)
    args = [(cfg.seed, r, n, tuple(cfg.xi), eps, eta, delta, h, per)
            for r in range(cfg.replicas)]
    chunks = _map_replicas(_cover_sphere_replica, args, cfg.workers)
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
    model2 = MixedModel(n2, CovarianceSeries(cfg.xi), beta=1.0,
                        field=field_linear(h, n2))
    d2 = sample_disorder(model2, derive_seed(cfg.seed, STREAM_DISORDER, 10**6))
    E2 = ising_uniform(n2)
    builder2 = CoverBuilder(d2, E2, model2.field, eps, delta)
    atoms, _ = E2.atoms()
    ok = 0
    kmax2 = 0
    from ..cover import membership as _membership
    for sigma in atoms.astype(np.float64):
        alpha, node = builder2.classify(sigma, eta2)
        kmax2 = max(kmax2, alpha.k)
        if _membership(node, sigma).in_e:
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

def _slice_entropy_replica(args):
    master, r, n, xi, eps, eta, delta, h = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=1.0, field=field_linear(h, n))
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    E = ising_uniform(n)
    builder = CoverBuilder(d, E, model.field, eps, delta)
    atoms, _ = E.atoms()
    rng = np.random.default_rng(
        np.random.SeedSequence(master, spawn_key=(STREAM_ATOM, r)))
    sigma = atoms[int(rng.integers(len(atoms)))].astype(np.float64)
    alpha, node = builder.classify(sigma, eta)
    mask = node_member_mask(node, atoms.astype(np.float64))
    mass = mask.mean()  # uniform atoms
    upper = general_entropy_upper(E, node.m, delta,
                                  extra_directions=model.field.basis)
    log_mass = math.log(mass) if mass > 0 else -math.inf
    return [r, alpha.k, mass, log_mass, upper, float(log_mass <= upper + delta + 1e-10)]


def run_slice_entropy(cfg: ExperimentConfig) -> ExperimentReport:
    args = [(cfg.seed, r, cfg.n, tuple(cfg.xi), cfg.epsilon, cfg.eta, cfg.delta,
             cfg.h[0] if cfg.h else 0.3) for r in range(cfg.replicas)]
    rows = _map_replicas(_slice_entropy_replica, args, cfg.workers)
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

def _onsager_replica(args):
    master, r, n, xi, beta, eps, eta, delta, h = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=beta, field=field_linear(h, n))
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    E = ising_uniform(n)
    builder = CoverBuilder(d, E, model.field, eps, delta)
    atoms, _ = E.atoms()
    rng = np.random.default_rng(
        np.random.SeedSequence(master, spawn_key=(STREAM_ATOM, r)))
    sigma = atoms[int(rng.integers(len(atoms)))].astype(np.float64)
    alpha, node = builder.classify(sigma, eta)
    mask = node_member_mask(node, atoms.astype(np.float64))
    members = atoms[mask].astype(np.float64)
    # thin-slice pushforward then the recentered Hamiltonian on it
    from ..cover import thin_projection
    taus = np.array([thin_projection(node, s) for s in members])
    g = gradient(d, node.m)
    hm = energy(d, node.m)
    vals = beta * (energy_many(d, node.m + taus) - taus @ g - hm)
    mx = float(vals.max())
    log_mean = mx + math.log(float(np.exp(vals - mx).mean()))
    threshold = 0.5 * beta ** 2 * n * series.onsager(node.q) + delta * n
    return [r, alpha.k, node.q, len(members), log_mean, threshold,
            float(log_mean >= threshold)]


def run_onsager_markov(cfg: ExperimentConfig) -> ExperimentReport:
    beta = cfg.beta[0]
    args = [(cfg.seed, r, cfg.n, tuple(cfg.xi), beta, cfg.epsilon, cfg.eta,
             cfg.delta, cfg.h[0] if cfg.h else 0.3)
            for r in range(cfg.replicas)]
    rows = _map_replicas(_onsager_replica, args, cfg.workers)
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
    row's value, the definitions perfbench/tracer.py counts maximize_tap
    calls by, so the two can be cross-checked.
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


def _bound_ising_replica(args):
    master, r, n, xi, beta, h, starts = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=beta, field=make_field("linear", h, n))
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    log_z = log_partition_exact_ising(d, model.field, beta).log_value
    sup = maximize_tap(TapProblem(model, d, "ising"), starts=starts,
                       rng_seed=derive_seed(master, STREAM_STARTS, r))
    return ([beta, h, r, log_z, sup.value, (log_z - sup.value) / n],
            _maximizer_diagnostics(sup, n))


def run_bound_ising(cfg: ExperimentConfig) -> ExperimentReport:
    args = []
    r = 0
    for beta in cfg.beta:
        for h in cfg.h:
            for _ in range(cfg.replicas):
                args.append((cfg.seed, r, cfg.n, tuple(cfg.xi), beta, h,
                             cfg.starts))
                r += 1
    rows, diagnostics = zip(*_map_replicas(_bound_ising_replica, args, cfg.workers))
    gaps = np.array([row[5] for row in rows])
    crit = Criterion("gap-bound", bool(np.all(gaps <= cfg.delta_check)),
                     float(gaps.max()), cfg.delta_check,
                     "per-spin log Z - sup TAP <= delta_check "
                     "(sup surrogate: multi-start ascent)", len(rows))
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["beta", "h", "replica", "log_z", "tap_sup", "gap"],
                            list(rows), [crit],
                            {"max_gap": float(gaps.max()),
                             "mean_gap": float(gaps.mean()),
                             "gap_histogram_values": [float(g) for g in gaps],
                             **_maximizer_aggregates(diagnostics)})


def _bound_sphere_replica(args):
    master, r, n, xi, beta, h, starts, mc = args
    series = CovarianceSeries(xi)
    model = MixedModel(n, series, beta=beta, field=make_field("linear", h, n))
    d = sample_disorder(model, derive_seed(master, STREAM_DISORDER, r))
    est = log_partition_mc_sphere(d, model.field, beta, mc,
                                  derive_seed(master, STREAM_MC, r))
    sup = maximize_tap(TapProblem(model, d, "spherical"), starts=starts,
                       rng_seed=derive_seed(master, STREAM_STARTS, r))
    gap = (est.log_value - sup.value) / n
    return ([beta, h, r, est.log_value, est.std_error, sup.value, gap],
            _maximizer_diagnostics(sup, n))


def run_bound_sphere(cfg: ExperimentConfig) -> ExperimentReport:
    args = []
    r = 0
    for beta in cfg.beta:
        for h in cfg.h:
            for _ in range(cfg.replicas):
                args.append((cfg.seed, r, cfg.n, tuple(cfg.xi), beta, h,
                             cfg.starts, cfg.mc_samples))
                r += 1
    rows, diagnostics = zip(*_map_replicas(_bound_sphere_replica, args, cfg.workers))
    gaps = np.array([row[6] for row in rows])
    slack = np.array([3 * row[4] / cfg.n for row in rows])
    adjusted = gaps - slack
    crit = Criterion("gap-bound-mc", bool(np.all(adjusted <= cfg.delta_check)),
                     float(adjusted.max()), cfg.delta_check,
                     "per-spin gap <= delta_check within 3 SE of the MC "
                     "partition estimate", len(rows))
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
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(STREAM_PROBE, 3)))
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
    worst_margin = np.inf
    count = 0
    for _ in range(10000):
        a = rng.standard_normal(n)
        a *= rng.uniform(0, 1) / max(norm(a), 1e-12)
        b = rng.standard_normal(n)
        b *= rng.uniform(0, 1) / max(norm(b), 1e-12)
        dd = norm(a - b)
        if dd == 0:
            continue
        count += 1
        margin = 2 * n * dd * math.log(4 * math.e / dd) - abs(
            ising_entropy(a) - ising_entropy(b))
        worst_margin = min(worst_margin, margin)
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
    from ..entropy import halfspace_log_mass
    lam = np.zeros(n_cap)
    lam[0] = math.sqrt(n_cap)
    cap_ok = True
    worst_cap = np.inf
    for alpha in np.linspace(0.0, 1.0 - cfg.delta, 50):
        log_mass = halfspace_log_mass(sphere_uniform(n_cap), lam, alpha * lam, 0.0)
        bound = 0.5 * math.log(n_cap / (2 * math.pi)) \
            + ((n_cap - 3) / 2) * math.log1p(-alpha ** 2)
        worst_cap = min(worst_cap, bound - log_mass)
        cap_ok = cap_ok and log_mass <= bound + 1e-10
    rows.append(["sphere-cap-bound", float(worst_cap), 50])
    # (e) sphere-measure entropy surrogate dominated by the radial closed form
    # (N/2) log(1 - q + 2 delta ||m||) + delta N on radii where the dimension
    # prefactor is absorbed (N = 20 suffices up to ||m|| = 0.85 at delta = 0.1)
    sph = sphere_uniform(n_cap)
    dom_ok = True
    worst_dom = np.inf
    e1 = np.zeros(n_cap)
    e1[0] = math.sqrt(n_cap)
    for radius in np.linspace(0.1, 0.85, 16):
        m_vec = radius * e1
        got = general_entropy_upper(sph, m_vec, cfg.delta)
        bound = 0.5 * n_cap * math.log(1 - radius ** 2 + 2 * cfg.delta * radius) \
            + cfg.delta * n_cap
        worst_dom = min(worst_dom, bound - got)
        dom_ok = dom_ok and got <= bound + 1e-10
    rows.append(["spherical-entropy-domination", float(worst_dom), 16])
    crits = [
        Criterion("binary-entropy-difference", ok_j, float(rows[0][1]), 0.0,
                  "|J(m)-J(m~)| <= |m-m~| log(2e/(|m-m~|^1)), exact", 10000),
        Criterion("ising-entropy-continuity", bool(ok_cont), float(worst_margin),
                  0.0, "2N||dm|| log(4e/||dm||) dominates, exact", count),
        Criterion("outside-box", hit == 100, float(hit), 100.0,
                  "entropy surrogate -inf when d(m, cube) > delta", 100),
        Criterion("sphere-cap-bound", bool(cap_ok), float(worst_cap), 0.0,
                  "cap quadrature <= sqrt(N/2pi)(1-a^2)^((N-3)/2)", 50),
        Criterion("spherical-entropy-domination", bool(dom_ok), float(worst_dom),
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
        model = MixedModel(n, series, beta=beta, field=make_field("linear", h, n))
        d = sample_disorder(model, derive_seed(cfg.seed, STREAM_DISORDER, r))
        problem = TapProblem(model, d, "ising")
        L = max(beta, L_xi, 1.0)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(STREAM_PROBE, 5, r)))

        def modulus(dist):
            return (1 + L ** 3) * n * dist * math.log(math.e + 1.0 / dist)

        probe = _tap_pairs(rng, n, 30)
        c_hat = max(abs(tap_energy(problem, a) - tap_energy(problem, b))
                    / modulus(norm(a - b)) for a, b in probe)
        fresh = _tap_pairs(rng, n, 30)
        worst = max(abs(tap_energy(problem, a) - tap_energy(problem, b))
                    / (10 * c_hat * modulus(norm(a - b))) for a, b in fresh)
        ok = ok and worst <= 1.0
        rows.append([r, beta, h, c_hat, worst])
    worst_ratio = max(row[4] for row in rows)
    crit = Criterion("tap-lipschitz-modulus", ok, worst_ratio, 1.0,
                     "fresh pairs within 10x the probed modulus constant",
                     len(rows) * 30)
    return ExperimentReport(cfg.experiment, cfg.asdict(),
                            ["replica", "beta", "h", "probed_constant",
                             "worst_ratio_vs_10x"],
                            rows, [crit],
                            {"max_probed_constant": max(r[3] for r in rows)})


# ---------------------------------------------------------------------------
# 11. series-identities
# ---------------------------------------------------------------------------

def run_series_identities(cfg: ExperimentConfig) -> ExperimentReport:
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(STREAM_PROBE, 4)))
    worst_onsager = 0.0
    worst_comp = 0.0
    trials = 1000
    for _ in range(trials):
        degree = int(rng.integers(1, 6))
        coeffs = rng.uniform(0, 1.5, size=degree + 1)
        coeffs[rng.uniform(size=degree + 1) < 0.3] = 0.0
        xi = CovarianceSeries(tuple(coeffs))
        q = float(rng.uniform(0, 1))
        scale = max(1.0, abs(xi.onsager(q)))
        worst_onsager = max(worst_onsager,
                            abs(xi.onsager(q) - xi.recenter(q)(1 - q)) / scale)
        q1 = float(rng.uniform(0, 0.6))
        q2 = float(rng.uniform(0, 1 - q1))
        z = float(rng.uniform(-(q1 + q2), 1 - q1 - q2))
        lhs = xi.recenter(q1).recenter(q2)(z)
        rhs = xi.recenter(q1 + q2)(z)
        worst_comp = max(worst_comp, abs(lhs - rhs) / max(1.0, abs(rhs)))
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

def run_tap_max(cfg: ExperimentConfig) -> ExperimentReport:
    n = cfg.n
    series = CovarianceSeries(cfg.xi)
    beta = cfg.beta[0]
    h = cfg.h[0] if cfg.h else 0.0
    model = MixedModel(n, series, beta=beta, field=make_field(cfg.field, h, n))
    d = sample_disorder(model, derive_seed(cfg.seed, STREAM_DISORDER, 0))
    flavor = "ising" if cfg.measure == "ising" else "spherical"
    problem = TapProblem(model, d, flavor)
    out = maximize_tap(problem, starts=cfg.starts,
                       rng_seed=derive_seed(cfg.seed, STREAM_STARTS, 0))
    rows = [[row.start, row.iteration, row.value, row.grad_norm, row.step]
            for row in out.trace]
    crit = Criterion("maximizer-finished", True, out.value, out.value,
                     "best value over multi-start ascent (reported, not asserted)",
                     cfg.starts)
    direction = out.m_star / max(norm(out.m_star), 1e-12)
    ts = np.linspace(0.0, 0.999 if flavor == "spherical" else 0.99, 120)
    slice_vals = []
    for t in ts:
        try:
            slice_vals.append(tap_energy(problem, t * direction))
        except Exception:
            slice_vals.append(float("nan"))
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
