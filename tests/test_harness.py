"""Config plumbing, report artifacts, determinism, and the CLI."""

import hashlib
import json
import os

import numpy as np
import pytest

from tapbound.cli import SUBCOMMANDS, main
from tapbound.errors import ConfigError
from tapbound.harness import (
    build_config,
    parse_config_text,
    run,
    validate_config,
    with_overrides,
)
from tapbound.harness.config import ExperimentConfig
from tapbound.harness.report import histogram_svg, polyline_svg


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

    def test_with_overrides_revalidates(self):
        cfg = build_config("bound-ising", dict(replicas=2))
        with pytest.raises(ConfigError):
            with_overrides(cfg, replicas=0)


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

    def test_reports_byte_identical_and_worker_independent(self, tmp_path):
        # onsager-markov maps its replicas over the process pool when
        # workers > 1, so the cover and slice code also runs in workers
        digests = []
        for tag, workers in (("a", 1), ("b", 2)):
            out = str(tmp_path / tag)
            run(build_config("onsager-markov",
                             dict(out=out, workers=workers, n=10, replicas=4)))
            blob = b""
            for name in ("onsager-markov.report.json", "onsager-markov.rows.csv"):
                blob += (tmp_path / tag / name).read_bytes()
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAPBOUND_OUT", str(tmp_path / "envout"))
        cfg = build_config("series-identities")
        assert cfg.out == str(tmp_path / "envout")

    def test_every_experiment_has_defaults_and_runner(self):
        from tapbound.harness.experiments import EXPERIMENT_DEFAULTS, EXPERIMENTS
        assert set(EXPERIMENT_DEFAULTS) == set(EXPERIMENTS)


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

    def test_tap_max_writes_trace_artifacts(self, tmp_path, capsys):
        code = main(["tap-max", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "tap-max.radial.svg").exists()
