"""Config plumbing, report artifacts, determinism, and the CLI."""

import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapbound import cover
from tapbound.cli import SUBCOMMANDS, main
from tapbound.entropy import _cap_log_mass
from tapbound.errors import ConfigError
from tapbound.harness import (
    build_config,
    experiments,
    parse_config_text,
    run,
    validate_config,
)
from tapbound.harness.config import ExperimentConfig
from tapbound.harness.experiments import REPLICA_BLOCK, make_field
from tapbound.harness.report import histogram_svg, polyline_svg
from tapbound.hamiltonian import field_quadratic_spike
from tapbound.partition import log_partition_exact_ising, log_partition_mc_sphere_many
from tapbound.tap import TapProblem, maximize_tap

from oracles import gaussian_law_replica, recentering_replica

# Tiny configs of the experiments that map their replicas over the process
# pool, each with at least two replica tasks; the law experiments' tasks are
# replica blocks, three of them with a ragged last one, and the gap
# experiments' tasks are blocks of their 2 x 2 beta x h grid's problems, two
# of them with a ragged last one
LAW_REPLICAS = 2 * REPLICA_BLOCK + 3
BOUND_REPLICAS = REPLICA_BLOCK // 4 + 1
POOLED = {
    "beta0-exact": dict(n=8, replicas=4),
    "gaussian-law": dict(replicas=LAW_REPLICAS),
    "recentering-law": dict(replicas=LAW_REPLICAS),
    "cover-property": dict(n=8, replicas=2, points=20),
    "slice-entropy": dict(n=8, replicas=3),
    "onsager-markov": dict(n=10, replicas=4),
    "bound-ising": dict(n=8, replicas=BOUND_REPLICAS),
    "bound-sphere": dict(n=8, replicas=BOUND_REPLICAS, mc_samples=1000),
}


class TestConfigParsing:
    def test_flat_key_values_with_comments(self):
        raw = parse_config_text(
            "# comment\n"
            "experiment = bound-ising\n"
            "xi = 0, 0, 1\n"
            "beta = 0.2,0.4\n"
            "replicas = 7   # trailing comment\n"
            "epsilon = 0.05\n")
        assert raw["experiment"] == "bound-ising"
        assert raw["xi"] == (0.0, 0.0, 1.0)
        assert raw["beta"] == (0.2, 0.4)
        assert raw["replicas"] == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("volume = 11\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    @pytest.mark.parametrize("line", ["n = abc", "beta = 0.2, x", "replicas = 2.5"])
    def test_malformed_value_names_its_line(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config_text("seed = 7\n" + line + "\n")
        assert err.value.violations[0].startswith("line 2:")

    def test_grid_step_is_no_config_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid_step = 0.1\n")

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config("bound-ising", dict(replicas=2, volume=11))
        assert err.value.violations == ["unknown key 'volume'"]


class TestValidation:
    def test_violations_are_listed_together(self):
        cfg = ExperimentConfig("cover-property", epsilon=0.5, eta=0.4,
                               replicas=0, measure="weird")
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        text = " ".join(err.value.violations)
        assert "epsilon <= eta/2" in text
        assert "replicas" in text
        assert "measure" in text

    def test_slice_hypotheses(self):
        with pytest.raises(ConfigError) as err:
            build_config("slice-entropy", dict(eta=0.3, epsilon=0.05, delta=0.1))
        assert any("eta <= delta/4" in v for v in err.value.violations)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            build_config("no-such-thing")

    @pytest.mark.parametrize("experiment", ["gaussian-law", "recentering-law"])
    def test_law_experiments_need_two_replicas(self, experiment):
        # one replica has no standard error (ddof=1): a config error, not a
        # RuntimeWarning and a null criterion value
        with pytest.raises(ConfigError) as err:
            build_config(experiment, dict(replicas=1))
        assert any("replicas >= 2" in v for v in err.value.violations)
        assert run(build_config(experiment, dict(replicas=2))).criteria[0].value \
            is not None

    def test_build_config_validates_overrides(self):
        with pytest.raises(ConfigError) as err:
            build_config("bound-ising", dict(replicas=0))
        assert err.value.violations == ["replicas must be >= 1"]

    @pytest.mark.parametrize("experiment, overrides, violation", [
        ("bound-ising", dict(beta=(float("nan"),)), "beta must be finite"),
        ("bound-ising", dict(beta=(0.2, float("inf"))), "beta must be finite"),
        ("bound-ising", dict(xi=(0.0, 0.0, float("nan"))), "xi must be finite"),
        ("bound-ising", dict(h=(float("nan"),)), "h must be finite"),
        ("bound-ising", dict(delta_check=float("nan")), "delta_check must be finite"),
        ("gaussian-law", dict(eta=float("nan")), "eta must be finite"),
        ("onsager-markov", dict(delta=float("nan")), "delta must be > 0"),
        ("onsager-markov", dict(delta=-0.2), "delta must be > 0"),
        ("onsager-markov", dict(delta=0.0), "delta must be > 0"),
    ])
    def test_non_finite_values_and_non_positive_delta(self, experiment, overrides,
                                                      violation):
        with pytest.raises(ConfigError) as err:
            build_config(experiment, overrides)
        assert violation in err.value.violations

    def test_nan_from_a_config_file_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config("bound-ising", parse_config_text("beta = 0.2, nan\n"))
        assert "beta must be finite" in err.value.violations

    @pytest.mark.parametrize("h", [0.0, 0.3])
    def test_field_kind_kept_and_unknown_rejected(self, h):
        for kind in ("none", "linear", "quadratic_spike"):
            assert make_field(kind, h, 6).kind == kind
        with pytest.raises(ConfigError):
            make_field("bogus", h, 6)

    @pytest.mark.parametrize("key", ["beta", "h"])
    @pytest.mark.parametrize("experiment", ["bound-ising", "bound-sphere",
                                            "zero-disorder", "onsager-markov",
                                            "tap-continuity"])
    def test_empty_beta_or_h_rejected(self, experiment, key):
        # without the check these runs fail inside the experiment with a
        # ValueError, IndexError or ZeroDivisionError
        with pytest.raises(ConfigError) as err:
            build_config(experiment, {key: ()})
        assert f"{key} must not be empty" in err.value.violations

    def test_empty_list_from_a_config_file_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config("tap-continuity", parse_config_text("h =\n"))
        assert "h must not be empty" in err.value.violations

    @pytest.mark.parametrize("experiment, overrides", [
        ("zero-disorder", dict(field="quadratic_spike")),
        ("tap-continuity", dict(field="quadratic_spike")),
        ("onsager-markov", dict(field="none")),
        ("beta0-exact", dict(field="none")),
        ("cover-property", dict(measure="sphere")),
        ("bound-sphere", dict(measure="sphere")),
    ])
    def test_field_or_measure_the_experiment_ignores_rejected(self, experiment,
                                                              overrides):
        with pytest.raises(ConfigError) as err:
            build_config(experiment, overrides)
        (violation,) = err.value.violations
        assert violation.startswith(f"{experiment} does not read ")

    @pytest.mark.parametrize("experiment, overrides", [
        ("bound-ising", dict(field="quadratic_spike")),
        ("bound-sphere", dict(field="none")),
        ("tap-max", dict(field="quadratic_spike", measure="sphere")),
    ])
    def test_field_and_measure_accepted_where_read(self, experiment, overrides):
        cfg = build_config(experiment, overrides)
        assert (cfg.field, cfg.measure) == (overrides["field"],
                                            overrides.get("measure", "ising"))


class TestBoundExperimentsRunTheirField:
    """bound-ising and bound-sphere build every problem with `cfg.field`."""

    SMALL = dict(n=8, beta=(0.4,), h=(0.5,), replicas=2)

    def test_spike_rows_are_the_spike_problems(self):
        cfg = build_config("bound-ising", dict(self.SMALL, field="quadratic_spike"))
        rows = run(cfg).rows
        linear = run(build_config("bound-ising", self.SMALL)).rows
        assert len(rows) == len(linear) == 2
        for (beta, h, r, log_z, sup, _), lin in zip(rows, linear):
            d = experiments._disorder(cfg, r, cfg.xi, cfg.n)
            spike = field_quadratic_spike(h, cfg.n)
            assert log_z == log_partition_exact_ising(d, spike, beta).log_value
            seed = experiments.derive_seed(cfg.seed, experiments.STREAM_STARTS, r)
            assert sup == maximize_tap(TapProblem(d, spike, beta, "ising"),
                                       starts=cfg.starts, rng_seed=seed).value
            assert log_z != lin[3] and sup != lin[4]

    def test_sphere_rows_move_with_the_field(self):
        small = dict(self.SMALL, mc_samples=1000)
        spike = run(build_config("bound-sphere", dict(small, field="quadratic_spike")))
        linear = run(build_config("bound-sphere", small))
        for row, lin in zip(spike.rows, linear.rows):
            assert row[3] != lin[3] and row[5] != lin[5]  # log_z, tap_sup


class TestRunAndArtifacts:
    def test_beta0_gaps_are_zero(self):
        rep = run(build_config("beta0-exact", dict(replicas=4)))
        assert rep.passed
        assert rep.aggregates["max_gap"] <= 1e-10

    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "runs")
        rep = run(build_config("bound-ising", dict(replicas=2, out=out)))
        assert rep.passed
        names = sorted(os.listdir(out))
        assert "bound-ising.report.json" in names
        assert "bound-ising.rows.csv" in names
        assert "bound-ising.gaps.svg" in names
        assert "bound-ising.timing.txt" in names
        payload = json.loads((tmp_path / "runs" / "bound-ising.report.json").read_text())
        assert payload["passed"] is True
        assert payload["columns"][0] == "beta"
        csv_head = (tmp_path / "runs" / "bound-ising.rows.csv").read_text().splitlines()[0]
        assert csv_head == "beta,h,replica,log_z,tap_sup,gap"

    @pytest.mark.parametrize("experiment", ["bound-ising", "bound-sphere"])
    def test_maximizer_diagnostics_in_aggregates(self, experiment, tmp_path):
        # Recomputed from maximize_tap with the benchmark tracer's definitions
        from tapbound.harness.experiments import (
            STREAM_DISORDER, STREAM_STARTS, derive_seed)
        from tapbound.covariance import CovarianceSeries
        from tapbound.hamiltonian import MixedModel, sample_disorder
        from tapbound.tap import TapProblem, maximize_tap
        cfg = build_config(experiment, dict(replicas=1, n=8, mc_samples=1000,
                                            out=str(tmp_path)))
        rep = run(cfg)
        flavor = "ising" if experiment == "bound-ising" else "spherical"
        converged, iterations, at_best, starts = [], [], 0, 0
        r = 0
        for beta in cfg.beta:
            for h in cfg.h:
                model = MixedModel(cfg.n, CovarianceSeries(cfg.xi))
                d = sample_disorder(model, derive_seed(cfg.seed, STREAM_DISORDER, r))
                problem = TapProblem(d, make_field("linear", h, cfg.n), beta, flavor)
                sup = maximize_tap(problem, starts=cfg.starts,
                                   rng_seed=derive_seed(cfg.seed, STREAM_STARTS, r))
                converged.append(sup.converged)
                final = {}
                for row in sup.trace:
                    final[row.start] = row.value
                iterations += [sum(1 for row in sup.trace if row.start == s)
                               for s in range(cfg.starts)]
                at_best += sum(v >= sup.value - 1e-6 * cfg.n for v in final.values())
                starts += cfg.starts
                r += 1
        agg = rep.aggregates
        assert agg["maximizer_converged_fraction"] == sum(converged) / r
        assert agg["maximizer_iterations_median"] == float(np.median(iterations))
        assert agg["maximizer_iterations_max"] == max(iterations)
        assert agg["maximizer_starts_at_best_fraction"] == at_best / starts

    @pytest.mark.parametrize("experiment", sorted(POOLED))
    def test_reports_byte_identical_and_worker_independent(self, experiment,
                                                           tmp_path):
        # each of these maps two or more replica tasks over the process pool
        # when workers > 1, so the config and the replica code run in workers
        digests = []
        for tag, workers in (("a", 1), ("b", 2)):
            out = str(tmp_path / tag)
            run(build_config(experiment,
                             dict(POOLED[experiment], out=out, workers=workers)))
            blob = b""
            for suffix in (".report.json", ".rows.csv"):
                blob += (tmp_path / tag / (experiment + suffix)).read_bytes()
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("experiment", ["gaussian-law", "recentering-law"])
    def test_law_reports_block_and_worker_independent(self, experiment, tmp_path,
                                                      monkeypatch):
        digests = set()
        for block in (7, 64):
            monkeypatch.setattr(experiments, "REPLICA_BLOCK", block)
            for workers in (1, 2):
                out = tmp_path / f"{block}-{workers}"
                run(build_config(experiment, dict(replicas=130, out=str(out),
                                                  workers=workers)))
                digests.add(hashlib.sha256(b"".join(
                    (out / (experiment + suffix)).read_bytes()
                    for suffix in (".report.json", ".rows.csv"))).hexdigest())
        assert len(digests) == 1

    def test_law_run_hashes_its_streams_and_builds_its_probes_once(self, tmp_path,
                                                                    monkeypatch):
        # the calls are logged to a file, so that calls made in worker
        # processes are counted too
        from tapbound import hamiltonian
        log = tmp_path / "calls.log"
        patched = [(experiments, "derive_seeds"), (experiments, "_stream_states"),
                   (hamiltonian, "_stream_states"),
                   (experiments, "_gaussian_law_probes"),
                   (experiments, "_recentering_probes")]
        for module, name in patched:
            def logged(*args, _func=getattr(module, name), _name=name):
                with open(log, "a") as fh:
                    fh.write(_name + "\n")
                return _func(*args)

            monkeypatch.setattr(module, name, logged)
        for experiment in ("gaussian-law", "recentering-law"):
            probes = ("_gaussian_law_probes" if experiment == "gaussian-law"
                      else "_recentering_probes")
            for workers in (1, 2):
                log.write_text("")
                run(build_config(experiment, dict(replicas=LAW_REPLICAS, seed=77,
                                                  workers=workers,
                                                  out=str(tmp_path / experiment))))
                # one hash for the run, sliced for each of its three blocks
                assert sorted(log.read_text().split()) == sorted(
                    ["derive_seeds", "_stream_states", probes])

    def test_model_shared_within_a_cell_and_distinct_across_cells(self):
        from tapbound.harness.experiments import _disorder, _model
        cfg = build_config("bound-ising", dict(replicas=2))
        # one model per (n, xi), whatever beta and field its replicas use
        cell = (8, (0.0, 0.0, 1.0))
        model = _model(*cell)
        first, second = (_disorder(cfg, r, list(cell[1]), 8) for r in range(2))
        assert first.model is model and second.model is model
        assert first.seed != second.seed
        others = [(9, (0.0, 0.0, 1.0)), (8, (0.0, 0.0, 1.0, 0.5))]
        models = [_model(*key) for key in others]
        assert len({id(m) for m in [model, *models]}) == len(others) + 1
        for key, m in zip(others, models):
            assert (m.n, m.series.coefficients) == key
        # one field per (kind, h, n)
        field = make_field("linear", 0.3, 8)
        assert make_field("linear", 0.3, 8) is field
        keys = [("linear", 0.3, 9), ("linear", 0.0, 8), ("quadratic_spike", 0.3, 8)]
        fields = [make_field(*key) for key in keys]
        assert len({id(f) for f in [field, *fields]}) == len(keys) + 1
        for key, f in zip(keys, fields):
            assert (f.kind, f.h, f.n) == key

    def test_cold_and_warm_model_cache_give_identical_bytes(self, tmp_path):
        blobs = []
        for tag in ("cold", "warm"):
            if tag == "cold":
                experiments._model.cache_clear()
            out = tmp_path / tag
            run(build_config("gaussian-law", dict(replicas=LAW_REPLICAS,
                                                  out=str(out))))
            blobs.append(b"".join((out / ("gaussian-law" + suffix)).read_bytes()
                                  for suffix in (".report.json", ".rows.csv")))
        # one model for the cell, looked up once per run for the streams'
        # degrees and once per replica block
        assert experiments._model.cache_info().misses == 1
        assert experiments._model.cache_info().hits == 2 * (1 + 3) - 1
        assert blobs[0] == blobs[1]

    def test_level1_table_one_lookup_per_replica(self, tmp_path):
        # each slice-entropy replica classifies one atom with its own
        # builder, so it looks up one level-1 normal; replicas whose atoms
        # round to the same level-1 block share it
        cfg = build_config("slice-entropy", dict(n=8, replicas=3, seed=5,
                                                 out=str(tmp_path)))
        run(cfg)
        info = cover._level1_lambda.cache_info()
        firsts = {experiments._classified_atom(cfg, r)[1].blocks[0]
                  for r in range(3)}
        assert len(firsts) < 3
        assert (info.misses, info.hits) == (len(firsts), 3 - len(firsts))
        assert cover._level1_lambda.cache_info().misses == info.misses

    @pytest.mark.parametrize("experiment", ["onsager-markov", "slice-entropy"])
    def test_cold_and_warm_level1_table_give_identical_bytes(self, experiment,
                                                             tmp_path):
        blobs = []
        for tag in ("cold", "warm"):
            if tag == "cold":
                cover._level1_lambda.cache_clear()
            out = tmp_path / tag
            run(build_config(experiment, dict(POOLED[experiment], out=str(out))))
            blobs.append(b"".join((out / (experiment + suffix)).read_bytes()
                                  for suffix in (".report.json", ".rows.csv")))
            if tag == "cold":
                cold_misses = cover._level1_lambda.cache_info().misses
        # the warm run found every level-1 normal in the table
        assert cover._level1_lambda.cache_info().misses == cold_misses
        assert blobs[0] == blobs[1]

    def test_in_memory_report_matches_written_file(self, tmp_path):
        rep = run(build_config("beta0-exact", dict(n=8, replicas=4,
                                                   out=str(tmp_path))))
        written = (tmp_path / "beta0-exact.report.json").read_bytes()
        assert written == (rep.to_json() + "\n").encode()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAPBOUND_OUT", str(tmp_path / "envout"))
        cfg = build_config("series-identities")
        assert cfg.out == str(tmp_path / "envout")

    def test_every_experiment_has_defaults_and_runner(self):
        from tapbound.harness.experiments import EXPERIMENT_DEFAULTS, EXPERIMENTS
        assert set(EXPERIMENT_DEFAULTS) == set(EXPERIMENTS)


class TestCriteriaFailOnNaN:
    """A NaN among the values a criterion folds fails the criterion: each
    test makes one input NaN, which Python's max and min would drop."""

    @staticmethod
    def criterion(report, name):
        (crit,) = [c for c in report.criteria if c.name == name]
        return crit

    def test_gradient_fd(self, monkeypatch):
        real = experiments.gradient
        monkeypatch.setattr(experiments, "gradient",
                            lambda d, x: np.full_like(real(d, x), np.nan))
        rep = experiments.run_gradient_check(build_config("gradient-check",
                                                          dict(replicas=3)))
        assert not self.criterion(rep, "gradient-fd").passed

    def test_onsager_recenter_identity(self, monkeypatch):
        from tapbound.covariance import CovarianceSeries
        monkeypatch.setattr(CovarianceSeries, "onsager", lambda self, q: np.nan)
        rep = experiments.run_series_identities(build_config("series-identities"))
        assert not self.criterion(rep, "onsager-recenter-identity").passed

    def test_ising_entropy_continuity(self, monkeypatch):
        monkeypatch.setattr(experiments, "ising_entropy", lambda m: np.nan)
        rep = experiments.run_entropy_lemmas(build_config("entropy-lemmas"))
        assert not self.criterion(rep, "ising-entropy-continuity").passed

    def test_partition_closed_form(self, monkeypatch):
        # only the second of the three problems' log Z
        real, calls = experiments.log_partition_exact_ising, []

        def second_nan(d, f, beta):
            calls.append(beta)
            est = real(d, f, beta)
            return dataclasses.replace(est, log_value=np.nan) if len(calls) == 2 else est

        monkeypatch.setattr(experiments, "log_partition_exact_ising", second_nan)
        rep = experiments.run_zero_disorder(build_config("zero-disorder", dict(n=8)))
        assert len(calls) == 3
        assert not self.criterion(rep, "partition-closed-form").passed

    def test_sphere_cap_bound(self, monkeypatch):
        monkeypatch.setattr(experiments, "halfspace_log_mass", lambda *a, **k: np.nan)
        crit = self.criterion(
            experiments.run_entropy_lemmas(build_config("entropy-lemmas")),
            "sphere-cap-bound")
        assert np.isnan(crit.value) and not crit.passed

    def test_spherical_entropy_domination(self, monkeypatch):
        monkeypatch.setattr(experiments, "general_entropy_upper", lambda *a, **k: np.nan)
        crit = self.criterion(
            experiments.run_entropy_lemmas(build_config("entropy-lemmas")),
            "spherical-entropy-domination")
        assert np.isnan(crit.value) and not crit.passed

    def test_tap_lipschitz_modulus(self, monkeypatch):
        # only the third TAP energy, of the second probe pair of replica 0
        real, calls = experiments.tap_energy, []

        def third_nan(problem, m):
            calls.append(1)
            return np.nan if len(calls) == 3 else real(problem, m)

        monkeypatch.setattr(experiments, "tap_energy", third_nan)
        rep = experiments.run_tap_continuity(build_config("tap-continuity",
                                                          dict(replicas=2)))
        assert not self.criterion(rep, "tap-lipschitz-modulus").passed


LAW_BLOCKS = {"gaussian-law": (experiments._gaussian_law_block, gaussian_law_replica),
              "recentering-law": (experiments._recentering_block, recentering_replica)}


LAW_PROBES = {"gaussian-law": experiments._gaussian_law_probes,
              "recentering-law": experiments._recentering_probes}


def _replica_features(experiment, cfg, start, stop):
    oracle = LAW_BLOCKS[experiment][1]
    return np.array([oracle(cfg, r) for r in range(start, stop)])


def _block_features(experiment, cfg, start, stop):
    """The block features of replicas start..stop-1 of the run of cfg, from
    their slice of the run's streams and the run's probes."""
    seeds, states = experiments._law_streams(cfg)
    return LAW_BLOCKS[experiment][0](cfg, seeds[start:stop], states[start:stop],
                                     LAW_PROBES[experiment](cfg))


class TestLawBlocks:
    """Replica blocks against the per-replica oracles, which draw each
    disorder through numpy's SeedSequence and call the one-sample kernels."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @example(experiment="gaussian-law", seed=1, coefficients=[0.0, 0.0, 1.0, 0.5],
             n=8, start=0, length=REPLICA_BLOCK)
    @example(experiment="gaussian-law", seed=31, coefficients=[0.0, 0.0, 1.0, 0.5],
             n=8, start=REPLICA_BLOCK, length=1)
    @example(experiment="gaussian-law", seed=2 ** 32 + 1,
             coefficients=[0.0, 0.0, 1.0, 0.5], n=8, start=0, length=3)
    @example(experiment="recentering-law", seed=1, coefficients=[0.0, 0.0, 1.0],
             n=8, start=0, length=REPLICA_BLOCK)
    @example(experiment="recentering-law", seed=7,
             coefficients=[0.1, 0.3, 1.0, 0.5], n=8, start=5, length=REPLICA_BLOCK)
    @given(experiment=st.sampled_from(sorted(LAW_BLOCKS)),
           seed=st.one_of(st.integers(0, 2 ** 32 + 2), st.integers(0, 2 ** 64 - 1)),
           coefficients=st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                 min_size=1, max_size=5),
           n=st.integers(6, 8),
           start=st.integers(0, 3 * REPLICA_BLOCK),
           length=st.one_of(st.just(1), st.integers(1, REPLICA_BLOCK)))
    def test_block_features_bit_equal_replica_oracles(self, experiment, seed,
                                                      coefficients, n, start,
                                                      length):
        # degrees 0-4 at n <= 8 stay far inside the default tensor budget
        cfg = build_config(experiment, dict(n=n, xi=tuple(coefficients), seed=seed,
                                            replicas=start + length + 1))
        block = _block_features(experiment, cfg, start, start + length)
        assert block.flags.c_contiguous
        assert np.array_equal(block, _replica_features(experiment, cfg, start,
                                                       start + length))

    @pytest.mark.parametrize("experiment", sorted(LAW_BLOCKS))
    def test_run_blocks_cover_replicas_in_order_with_a_ragged_tail(self, experiment):
        cfg = build_config(experiment, dict(replicas=LAW_REPLICAS, seed=5))
        blocks = experiments._replica_blocks(cfg)
        assert blocks == [(0, REPLICA_BLOCK), (REPLICA_BLOCK, 2 * REPLICA_BLOCK),
                          (2 * REPLICA_BLOCK, LAW_REPLICAS)]
        feats = np.concatenate([_block_features(experiment, cfg, *b) for b in blocks])
        assert np.array_equal(feats, _replica_features(experiment, cfg, 0,
                                                       LAW_REPLICAS))

    @pytest.mark.parametrize("experiment", sorted(LAW_BLOCKS))
    def test_one_block_scratch_within_2_mib(self, experiment):
        # at the default config: the block's tensors are drawn straight into
        # their stacked arrays, with no per-replica sample alongside
        block = LAW_BLOCKS[experiment][0]
        cfg = build_config(experiment)
        seeds, states = experiments._law_streams(cfg)
        probes = LAW_PROBES[experiment](cfg)
        # warm the model cache
        block(cfg, seeds[:REPLICA_BLOCK], states[:REPLICA_BLOCK], probes)
        tracemalloc.start()
        try:
            block(cfg, seeds[REPLICA_BLOCK:2 * REPLICA_BLOCK],
                  states[REPLICA_BLOCK:2 * REPLICA_BLOCK], probes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


BOUND_BLOCKS = {"bound-ising": experiments._bound_ising_block,
                "bound-sphere": experiments._bound_sphere_block}


class TestBoundBlocks:
    @pytest.mark.parametrize("experiment", sorted(BOUND_BLOCKS))
    def test_pooled_config_maps_two_blocks_with_a_ragged_tail(self, experiment):
        cfg = build_config(experiment, POOLED[experiment])
        assert experiments._bound_blocks(cfg) == [
            (0, REPLICA_BLOCK), (REPLICA_BLOCK, 4 * BOUND_REPLICAS)]

    @pytest.mark.parametrize("experiment", sorted(BOUND_BLOCKS))
    def test_block_rows_equal_one_problem_blocks(self, experiment):
        # one ascent over a block gives each case the bytes it gets alone
        block = BOUND_BLOCKS[experiment]
        cfg = build_config(experiment, dict(n=6, replicas=2, seed=3,
                                            mc_samples=500, starts=3))
        together = block(cfg, 1, 8)
        alone = [case for i in range(1, 8) for case in block(cfg, i, i + 1)]
        assert [row[:3] for row, _ in together] == [
            [beta, h, r] for beta, h, r in experiments._bound_grid(cfg)[1:8]]
        if experiment == "bound-ising":
            assert repr(together) == repr(alone)
            return
        # bound-sphere's block shares one draw, seeded from its first case:
        # log Z and its SE are those of the block's shared estimate, and the
        # TAP sup, the diagnostics and the gap they give are the case's own
        n = cfg.n
        problems = [(experiments._disorder(cfg, r, cfg.xi, n),
                     make_field("linear", h, n), beta)
                    for beta, h, r in experiments._bound_grid(cfg)[1:8]]
        shared = log_partition_mc_sphere_many(
            problems, cfg.mc_samples,
            experiments.derive_seed(cfg.seed, experiments.STREAM_MC, 1))
        for (row, diag), (row_1, diag_1), est in zip(together, alone, shared):
            assert row[3:5] == [est.log_value, est.std_error]
            assert repr(row[5]) == repr(row_1[5])
            assert row[6] == (row[3] - row[5]) / n
            assert repr(diag) == repr(diag_1)


class TestRadialSlice:
    N = 6

    def problem(self):
        d = experiments._disorder(build_config("tap-max", {}), 0, (0.0, 0.0, 1.0),
                                  self.N)
        return TapProblem(d, make_field("linear", 0.3, self.N), 0.4, "ising")

    def test_points_off_the_domain_read_nan(self):
        # t * sqrt(N) e_0 leaves (-1, 1)^N once t >= 1 / sqrt(6) ~ 0.41
        direction = np.zeros(self.N)
        direction[0] = np.sqrt(self.N)
        values = experiments._radial_slice(self.problem(), direction,
                                           [0.0, 0.3, 0.5, 0.9])
        assert np.isfinite(values[:2]).all() and np.isnan(values[2:]).all()

    def test_other_faults_propagate(self, monkeypatch):
        def broken(problem, m):
            raise ValueError("fault")

        monkeypatch.setattr(experiments, "tap_energy", broken)
        with pytest.raises(ValueError, match="fault"):
            experiments._radial_slice(self.problem(), np.zeros(self.N), [0.0])


# Run in a fresh interpreter: which modules a default run loads
_IMPORT_SURFACE = """
import json, sys
import tapbound, tapbound.harness, tapbound.cli
lazy = ("scipy.special", "concurrent.futures.process", "multiprocessing",
        "numpy.random")
report = {"imported": [m for m in lazy if m in sys.modules]}
from tapbound.harness import build_config, run
for name, overrides in json.loads(sys.argv[1]).items():
    run(build_config(name, dict(overrides, out=sys.argv[2])))
report["after_runs"] = "scipy.special" in sys.modules
from tapbound.entropy import _cap_log_mass
report["caps"] = [_cap_log_mass(20000, 0.9), _cap_log_mass(12, 0.3)]
report["after_caps"] = "scipy.special" in sys.modules
print(json.dumps(report))
"""


class TestImportSurface:
    def test_scipy_special_and_the_pool_load_only_when_used(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        tiny = {name: POOLED[name] for name in
                ("onsager-markov", "bound-ising", "bound-sphere", "gaussian-law")}
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_SURFACE, json.dumps(tiny), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["imported"] == []
        assert report["after_runs"] is False
        assert report["after_caps"] is True
        assert report["caps"] == [_cap_log_mass(20000, 0.9), _cap_log_mass(12, 0.3)]


class TestSvg:
    def test_histogram_svg(self, tmp_path):
        path = tmp_path / "h.svg"
        histogram_svg(np.random.default_rng(0).standard_normal(200), path, "gaps")
        text = path.read_text()
        assert text.startswith("<svg") and "<rect" in text

    def test_polyline_svg(self, tmp_path):
        path = tmp_path / "p.svg"
        xs = np.linspace(0, 1, 50)
        polyline_svg(xs, np.sin(xs), path, "slice")
        assert "<polyline" in path.read_text()


class TestCli:
    def test_subcommand_groups_cover_all_experiments(self):
        from tapbound.harness.experiments import EXPERIMENTS
        grouped = {e for group in SUBCOMMANDS.values() for e in group}
        assert set(EXPERIMENTS) == grouped

    def test_quick_run_exits_zero(self, tmp_path, capsys):
        code = main(["verify-entropy", "--out", str(tmp_path), "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS series-identities:onsager-recenter-identity" in out

    def test_config_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epsilon = 0.9\neta = 0.4\n")
        code = main(["verify-cover", "--config", str(bad), "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL cover-property:config" in out

    def test_malformed_config_file_fails_without_a_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("replicas = 2.5\n")
        code = main(["verify-cover", "--config", str(bad), "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "FAIL config (line 1: bad value '2.5' for 'replicas')\n"

    def test_missing_config_file_fails_without_a_traceback(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = main(["tap-max", "--config", str(missing)])
        out = capsys.readouterr().out
        assert code == 1
        assert out == f"FAIL config (cannot read {str(missing)!r}: No such file or directory)\n"

    def test_binary_config_file_fails_without_a_traceback(self, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe\x00seed = 7\n")
        code = main(["tap-max", "--config", str(binary)])
        assert code == 1
        assert capsys.readouterr().out == f"FAIL config ({str(binary)!r} is not a text file)\n"

    def test_tap_max_writes_trace_artifacts(self, tmp_path, capsys):
        code = main(["tap-max", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "tap-max.radial.svg").exists()


class TestPerfbenchTracer:
    """perfbench/tracer.py patches package names from outside the package;
    deleting or renaming one, or changing its signature, breaks
    `perfbench/run.py --trace 1`."""

    # the traced hamiltonian names, whose arguments the tracer reads by position
    SIGNATURES = {"sample_disorder": ["model", "seed"],
                  "energy": ["d", "sigma"],
                  "energy_many": ["d", "sigmas"],
                  "gradient": ["d", "sigma"]}

    @pytest.fixture
    def tracer(self, monkeypatch):
        """tracer.py loaded by importlib without writing into perfbench/:
        no bytecode cache and no entry in sys.modules."""
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        before = sorted(path.parent.rglob("*"))
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert sorted(path.parent.rglob("*")) == before
        assert "perfbench_tracer" not in sys.modules
        return module

    def test_traced_names_resolve(self, tracer):
        for _, module, attr in tracer.SPANS + tracer.COUNTERS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module}.{attr}"

    def test_traced_hamiltonian_signatures(self, tracer):
        from tapbound import hamiltonian

        traced = {attr for _, module, attr in tracer.SPANS + tracer.COUNTERS
                  if module == "tapbound.hamiltonian"}
        assert traced == set(self.SIGNATURES)
        for attr, params in self.SIGNATURES.items():
            signature = inspect.signature(getattr(hamiltonian, attr))
            assert list(signature.parameters) == params, attr
