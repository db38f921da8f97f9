"""Config-driven experiment runner."""

from __future__ import annotations

import os
import time

from .config import (
    ExperimentConfig,
    build_config,
    load_config,
    parse_config_text,
    validate_config,
)
from .experiments import EXPERIMENT_DEFAULTS, EXPERIMENTS
from .report import Criterion, ExperimentReport, histogram_svg, polyline_svg, write_report


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment; write report artifacts when an out dir is set."""
    validate_config(cfg)
    started = time.perf_counter()
    report = EXPERIMENTS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - started
    if cfg.out:
        write_report(report, cfg.out, elapsed_seconds=elapsed)
        _write_plots(report, cfg.out)
    return report


def _write_plots(report: ExperimentReport, out_dir: str) -> None:
    base = os.path.join(out_dir, report.experiment)
    gaps = report.aggregates.get("gap_histogram_values")
    if gaps:
        histogram_svg(gaps, base + ".gaps.svg",
                      f"{report.experiment}: per-spin gap distribution")
    ts = report.aggregates.get("radial_ts")
    vals = report.aggregates.get("radial_values")
    if ts and vals:
        polyline_svg(ts, vals, base + ".radial.svg",
                     f"{report.experiment}: energy along the best direction",
                     xlabel="radius")
